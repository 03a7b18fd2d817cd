"""One workload in one fresh process; prints its result as the last line.

Started by ``run.py`` with ``PYTHONHASHSEED=0``, ``PYTHONDONTWRITEBYTECODE=1``,
the checkout's ``src`` on ``PYTHONPATH`` (which the daemon and the CLI
probes inherit) and a private work directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import layers
from measure import Ledger, measure_library, measure_service
from stats import summarize
from workloads import LIBRARY


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed phase length; negative runs the warm-up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--golden", type=Path, required=True)
    args = parser.parse_args(argv)

    golden = json.loads(args.golden.read_text()) if args.golden.exists() else {}
    ledger = Ledger(golden.get(args.workload, {}))
    if args.workload == "service":
        if args.trace:
            body = layers.trace_service(args, ledger)
        else:
            body = measure_service(
                args.seed, args.seconds, args.work, ledger, trace=False
            )
    elif args.trace:
        body = layers.trace_library(LIBRARY[args.workload], args, ledger)
    else:
        body = measure_library(
            LIBRARY[args.workload], args.seed, args.seconds, args.work, ledger
        )
    body["summary"] = {
        name: summarize(values) for name, values in body["samples"].items() if values
    }
    body.update(
        workload=args.workload, seed=args.seed, trace=bool(args.trace),
        attempted=ledger.attempted, failed=len(ledger.failures),
        failures=ledger.failures, digests=ledger.digests,
    )
    print(json.dumps(body))
    return 0


if __name__ == "__main__":
    sys.exit(main())
