#!/usr/bin/env python3
"""Do two result sets agree within the benchmark's own bounds?

    python3 perf/agree.py A.json B.json

``A`` and ``B`` are files written by ``run.py all --json`` (end-to-end
metrics) or ``run.py trace --json`` (per-layer metrics).  For result
sets, one row per workload x end-to-end metric: both values with their
median, quartiles and sample count, the relative difference, the bound from
``BENCHMARK.json`` and the verdict; ``failure_rate`` must be 0 in both.
For traces, every per-layer *count* must be exactly equal.  Exits 1 on
any disagreement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def compare_end_to_end(a: dict, b: dict, contract: dict) -> int:
    disagreements = 0
    print(f"{'workload':<14}{'metric':<20}{'A value (median [q1, q3] n)':<44}"
          f"{'B value (median [q1, q3] n)':<44}{'diff':>8}{'bound':>7}  verdict")
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"][workload]
        for spec in contract["end_to_end"]:
            name = spec["name"]
            ma, mb = result_a["metrics"][name], result_b["metrics"][name]
            diff = (mb["value"] - ma["value"]) / ma["value"] if ma["value"] else float("inf")
            ok = abs(diff) <= spec["bound"]
            disagreements += not ok

            def cell(m: dict) -> str:
                if not m.get("n"):
                    return f"{m['value']:.4f}"
                return (f"{m['value']:.4f} ({m['median']:.4f} "
                        f"[{m['q1']:.4f}, {m['q3']:.4f}] {m['n']})")

            print(f"{workload:<14}{name:<20}{cell(ma):<44}{cell(mb):<44}"
                  f"{diff:>+8.1%}{spec['bound']:>7.2f}  {'agree' if ok else 'DISAGREE'}")
        rates = result_a["failure_rate"], result_b["failure_rate"]
        ok = rates == (0, 0)
        disagreements += not ok
        print(f"{workload:<14}{'failure_rate':<20}{rates[0]:<44.4f}{rates[1]:<44.4f}"
              f"{'':>8}{0:>7}  {'agree' if ok else 'DISAGREE'}")
        print(f"{workload:<14}{'bench.calib_s':<20}{result_a['calib_s']:<44.4f}"
              f"{result_b['calib_s']:<44.4f}")
    return disagreements


def compare_counts(a: dict, b: dict, contract: dict) -> int:
    disagreements = 0
    counts = [m["name"] for m in contract["per_layer"] if m["unit"] == "count"]
    for workload, result_a in a["workloads"].items():
        for name in counts:
            va = result_a["layers"][name]["value"]
            vb = b["workloads"][workload]["layers"][name]["value"]
            if va != vb:
                disagreements += 1
                print(f"{workload:<14}{name:<32}{va:>14g}{vb:>14g}  DISAGREE")
    print(f"per-layer counts: {len(counts)} x {len(a['workloads'])} workloads, "
          f"{disagreements} differ")
    return disagreements


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a["format"] != b["format"]:
        print(f"cannot compare {a['format']} with {b['format']}", file=sys.stderr)
        return 2
    if a["format"] == "repro.perf/1":
        disagreements = compare_end_to_end(a, b, contract)
    else:
        disagreements = compare_counts(a, b, contract)
    print("agree" if not disagreements else f"{disagreements} disagreements")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
