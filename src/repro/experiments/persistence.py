"""Saving and loading simulation results as JSON.

Long sweeps (hours at paper scale) should survive the process; these
helpers serialise the decision-relevant trace of a
:class:`~repro.core.dynamics.SimulationResult` — per-round adopters,
security counts, utilities of tracked ASes — into plain JSON.  Routing
trees are not persisted (they are recomputable from the graph + state).

Writes are atomic (temp + fsync + ``os.replace``) and checksummed via
:mod:`repro.runtime.atomic`; an interrupt mid-save can no longer leave
a truncated file shadowing a previous good result, and
:func:`repro.runtime.atomic.load_checked_json` with
``expected_format=RESULT_FORMAT`` reads one back, raising the typed
errors of :mod:`repro.runtime.errors` on damaged input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TextIO

from repro.core.dynamics import SimulationResult
from repro.runtime.atomic import atomic_write_json

#: schema marker embedded in every saved result
RESULT_FORMAT = "repro.simulation-result/1"


def result_to_dict(
    result: SimulationResult, track_asns: list[int] | None = None
) -> dict[str, Any]:
    """Serialisable summary of a finished simulation.

    ``track_asns`` selects ASes whose full utility history is included
    (defaults to the early adopters).
    """
    graph = result.graph
    tracked = track_asns if track_asns is not None else sorted(
        graph.asn(i) for i in result.early_adopters
    )
    histories = {}
    for asn in tracked:
        i = graph.index(asn)
        try:
            histories[str(asn)] = result.utility_history(i)
        except ValueError:  # utilities not recorded
            histories = {}
            break
    return {
        "format": RESULT_FORMAT,
        "config": {
            "theta": result.config.theta,
            "utility_model": result.config.utility_model.value,
            "stub_breaks_ties": result.config.stub_breaks_ties,
            "max_rounds": result.config.max_rounds,
        },
        "outcome": result.outcome.value,
        "num_ases": graph.n,
        "early_adopters": sorted(graph.asn(i) for i in result.early_adopters),
        "final_deployers": sorted(graph.asn(i) for i in result.final_state.deployers),
        "final_secure_asns": sorted(
            graph.asn(i) for i in range(graph.n) if result.final_node_secure[i]
        ),
        "rounds": [
            {
                "index": record.index,
                "secure_ases": record.num_secure_ases,
                "turned_on": sorted(graph.asn(i) for i in record.turned_on),
                "turned_off": sorted(graph.asn(i) for i in record.turned_off),
            }
            for record in result.rounds
        ],
        "tracked_utilities": histories,
    }


def save_result(
    result: SimulationResult,
    target: str | Path | TextIO,
    track_asns: list[int] | None = None,
) -> None:
    """Write :func:`result_to_dict` as JSON.

    Path targets are written atomically with an embedded checksum —
    the target file is never truncated before the payload is complete.
    Stream targets are the caller's responsibility and are written
    without a checksum.
    """
    payload = result_to_dict(result, track_asns)
    if isinstance(target, (str, Path)):
        atomic_write_json(target, payload, checksum=True)
    else:
        json.dump(payload, target, indent=1)

