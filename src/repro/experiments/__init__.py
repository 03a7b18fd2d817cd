"""Experiment harness: environments, case study, sweeps, reports.

The named experiment registry (:mod:`repro.experiments.registry`) and
the scaling study are not re-exported: the registry reaches every
gadget and extension module, so it is imported where it is used.
"""

from repro.experiments.case_study import (
    CaseStudyReport,
    build_report,
    run_case_study,
)
from repro.experiments.cp_vs_tier1 import (
    CpVsTier1Cell,
    run_cp_vs_tier1,
)
from repro.experiments.persistence import (
    RESULT_FORMAT,
    result_to_dict,
    save_result,
)
from repro.experiments.report import (
    format_series,
    format_table,
    write_report,
)
from repro.experiments.setup import ExperimentEnv, build_environment
from repro.experiments.sweeps import (
    DEFAULT_THETAS,
    SWEEP_JOURNAL_KIND,
    SweepCell,
    cell_from_dict,
    cell_to_dict,
    cells_to_rows,
    run_sweep,
    stub_tiebreak_comparison,
)
from repro.experiments.turnoff import (
    TurnOffCensus,
    per_destination_turn_off_census,
    whole_network_turn_off_census,
)

__all__ = [
    "CaseStudyReport",
    "CpVsTier1Cell",
    "DEFAULT_THETAS",
    "ExperimentEnv",
    "RESULT_FORMAT",
    "SWEEP_JOURNAL_KIND",
    "SweepCell",
    "TurnOffCensus",
    "build_environment",
    "build_report",
    "cell_from_dict",
    "cell_to_dict",
    "cells_to_rows",
    "format_series",
    "format_table",
    "per_destination_turn_off_census",
    "run_case_study",
    "run_cp_vs_tier1",
    "result_to_dict",
    "run_sweep",
    "save_result",
    "stub_tiebreak_comparison",
    "whole_network_turn_off_census",
    "write_report",
]
