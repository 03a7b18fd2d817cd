#!/usr/bin/env python3
"""Diff two pytest-benchmark JSON files and report kernel regressions.

Usage::

    python scripts/bench_compare.py [[BASELINE.json] CURRENT.json] [--threshold 0.10]

With one file it is compared against the newest committed
``BENCH_*.json`` snapshot; with none, the newest snapshot against the
one before it.  "Newest" is by the ``datetime`` each snapshot records,
not by file name: a ``_parent`` / ``_change`` pair sorts the parent
last by name.

Prints a per-benchmark table of runtimes and flags every benchmark that
regressed by more than ``--threshold`` (default 10%).  Exits non-zero
when regressions are found, so the comparison can gate a local
workflow — CI runs it as a *non-blocking* smoke signal (shared runners
are too noisy to make hard promises about wall-clock).

``--stat`` picks the statistic under comparison: ``mean`` (default) or
``min``.  On contended machines the mean of a microsecond-scale bench
is dominated by scheduler outliers; ``min`` is the robust choice there
(it approximates the noise-free runtime, which is why pytest-benchmark
sorts by it).

Benchmarks present in only one file are listed but never counted as
regressions (new benchmarks appear, old ones retire).  ``--require
SUBSTRING`` (repeatable) additionally fails the gate when the *current*
file has no benchmark containing the substring — so a rename or an
accidentally-skipped kernel bench cannot silently drop coverage the
gate is supposed to provide (e.g. ``--require kernel_policy`` keeps the
default-policy kernels under the regression threshold).

``--speedup FAST:SLOW:RATIO`` (repeatable) asserts a *within-file*
ratio on the current snapshot: the benchmark whose name contains FAST
must be at least RATIO times faster than the one containing SLOW.  This
is how the compiled kernel tier's headline claim (>= 3x over numpy on
batched trees) is pinned to the committed snapshot instead of living in
prose.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_stats(path: str, stat: str = "mean") -> dict[str, float]:
    """``{benchmark name: stat seconds}`` from a pytest-benchmark JSON."""
    with open(path) as fh:
        data = json.load(fh)
    out: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        out[bench["name"]] = float(bench["stats"][stat])
    return out


def snapshots_by_age(exclude: list[str]) -> list[str]:
    """The committed ``BENCH_*.json`` snapshots, oldest first by the
    ``datetime`` pytest-benchmark recorded in each (name breaks ties)."""
    skip = {Path(p).resolve() for p in exclude}
    dated = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        if path.resolve() not in skip:
            with open(path) as fh:
                dated.append((json.load(fh)["datetime"], path.name, str(path)))
    return [path for _, _, path in sorted(dated)]


def fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f}ms"
    return f"{seconds:8.2f}s "


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
    only: str | None = None,
) -> list[str]:
    """Print the comparison table; return the regressed benchmark names."""
    names = sorted(set(baseline) | set(current))
    if only:
        names = [n for n in names if only in n]
    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  {'speedup':>8}")
    regressions: list[str] = []
    for name in names:
        old, new = baseline.get(name), current.get(name)
        if old is None or new is None:
            status = "(baseline only)" if new is None else "(new)"
            have = fmt_seconds(old if new is None else new)
            print(f"{name:<{width}}  {have:>10}  {status}")
            continue
        speedup = old / new if new else float("inf")
        marker = ""
        if new > old * (1.0 + threshold):
            marker = f"  REGRESSION (>{threshold:.0%})"
            regressions.append(name)
        print(
            f"{name:<{width}}  {fmt_seconds(old):>10}  {fmt_seconds(new):>10}"
            f"  {speedup:7.2f}x{marker}"
        )
    return regressions


def _find_one(stats: dict[str, float], needle: str) -> tuple[str, float] | None:
    """The unique benchmark containing ``needle`` (shortest name wins ties)."""
    matches = sorted((name for name in stats if needle in name), key=len)
    if not matches:
        return None
    return matches[0], stats[matches[0]]


def check_speedups(stats: dict[str, float], specs: list[str]) -> list[str]:
    """Verify each ``FAST:SLOW:RATIO`` spec; return failure messages."""
    failures: list[str] = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            failures.append(f"malformed --speedup {spec!r} (want FAST:SLOW:RATIO)")
            continue
        fast_needle, slow_needle, raw_ratio = parts
        try:
            want = float(raw_ratio)
        except ValueError:
            failures.append(f"malformed --speedup ratio {raw_ratio!r}")
            continue
        fast = _find_one(stats, fast_needle)
        slow = _find_one(stats, slow_needle)
        if fast is None or slow is None:
            missing = fast_needle if fast is None else slow_needle
            failures.append(f"--speedup {spec}: no benchmark matches {missing!r}")
            continue
        got = slow[1] / fast[1] if fast[1] else float("inf")
        print(
            f"speedup {fast[0]} vs {slow[0]}: {got:.2f}x (required >= {want:.2f}x)"
        )
        if got < want:
            failures.append(
                f"--speedup {spec}: {fast[0]} is only {got:.2f}x faster than "
                f"{slow[0]} (required >= {want:.2f}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", metavar="SNAPSHOT",
        help="[BASELINE] CURRENT: the newer file last; an omitted one is "
             "the newest committed BENCH_*.json not given",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="fractional slowdown that counts as a regression (default 0.10)",
    )
    parser.add_argument(
        "--only", default=None,
        help="restrict the comparison to benchmark names containing this substring",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="SUBSTRING",
        help="fail unless the current file has a benchmark containing "
             "SUBSTRING (repeatable); guards against silently dropped coverage",
    )
    parser.add_argument(
        "--stat", choices=("mean", "min"), default="mean",
        help="statistic under comparison; min resists scheduler outliers "
             "on contended machines (default mean)",
    )
    parser.add_argument(
        "--speedup", action="append", default=[], metavar="FAST:SLOW:RATIO",
        help="assert the current benchmark containing FAST runs at least "
             "RATIO times faster than the one containing SLOW (repeatable)",
    )
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("at most two snapshots: [BASELINE] CURRENT")
    pair = args.files
    if len(pair) < 2:
        pair = (snapshots_by_age(pair) + pair)[-2:]
    if len(pair) < 2:
        parser.error("fewer than two snapshots to compare")
    args.baseline, args.current = pair
    print(f"baseline {args.baseline}\ncurrent  {args.current}\n")
    current = load_stats(args.current, args.stat)
    speedup_failures = check_speedups(current, args.speedup)
    if speedup_failures:
        for failure in speedup_failures:
            print(failure)
        return 1
    missing = [
        needle for needle in args.require
        if not any(needle in name for name in current)
    ]
    if missing:
        print(
            f"{args.current}: no benchmark matches required substring(s): "
            f"{', '.join(missing)}"
        )
        return 1
    regressions = compare(
        load_stats(args.baseline, args.stat), current, args.threshold,
        args.only,
    )
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    print("\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
