"""CLI for the engine microbenchmark suite.

Examples
--------
Run everything and write the trajectory file::

    python -m repro.perf --out benchmarks/results/BENCH_kernel.json

CI perf-smoke: run, then fail on simulated-headline drift against the
committed goldens::

    python -m repro.perf --out /tmp/bench.json \
        --check benchmarks/results/BENCH_kernel.json

Gate a subset: with scenarios named explicitly, ``--check`` compares
only those (and fails on a named scenario the golden lacks)::

    python -m repro.perf d1_library_outage d2_fta_pool_loss \
        --check benchmarks/results/BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.perf import (
    SCENARIOS,
    compare_headlines,
    dump_report,
    format_report,
    load_report,
    run_suite,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Engine events/sec + wall-clock microbenchmarks "
        "(emits BENCH_kernel.json).",
    )
    parser.add_argument(
        "names", nargs="*", metavar="SCENARIO",
        help="scenario name(s) to run (default: all; see --list)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the JSON report to PATH",
    )
    parser.add_argument(
        "--check", metavar="GOLDEN", default=None,
        help="compare simulated headline numbers against a golden report; "
        "exit 1 on any drift (with scenarios named, only those are compared)",
    )
    parser.add_argument(
        "--scenarios", metavar="NAMES", default=None,
        help="comma-separated subset to run (default: all)",
    )
    parser.add_argument(
        "--gate-events-ratio", metavar="R", type=float, default=None,
        help="with --check: also fail if any scenario's events/s falls "
        "below R x the golden value (e.g. 0.8 = tolerate a 20%% drop); "
        "throughput is machine-dependent, so this is a smoke gate, not "
        "a benchmark",
    )
    parser.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    args = parser.parse_args(argv)

    from repro.perf import _ensure_scenarios_loaded

    _ensure_scenarios_loaded()
    if args.list:
        for name, fn in SCENARIOS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<16} {doc}")
        return 0

    names = None
    if args.scenarios:
        names = [n.strip() for n in args.scenarios.split(",") if n.strip()]
    if args.names:
        names = (names or []) + list(args.names)

    report = run_suite(names)
    print(format_report(report))

    if args.out:
        dump_report(report, args.out)
        print(f"\nwrote {args.out}")

    if args.check:
        golden = load_report(args.check)
        drift = compare_headlines(report, golden, names=names)
        if drift:
            print(f"\nHEADLINE DRIFT vs {args.check}:", file=sys.stderr)
            for line in drift:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"\nheadlines match {args.check}")
        if args.gate_events_ratio is not None:
            slow = _events_regressions(report, golden, args.gate_events_ratio)
            if slow:
                print(
                    f"\nEVENTS/S REGRESSION vs {args.check} "
                    f"(gate {args.gate_events_ratio:g}x):",
                    file=sys.stderr,
                )
                for line in slow:
                    print(f"  {line}", file=sys.stderr)
                return 1
            print(f"events/s within {args.gate_events_ratio:g}x of golden")
    elif args.gate_events_ratio is not None:
        parser.error("--gate-events-ratio requires --check")
    return 0


def _events_regressions(report, golden, ratio: float) -> list[str]:
    """Scenarios whose throughput fell below ratio x the golden's."""
    slow: list[str] = []
    mine = report.get("scenarios", {})
    for name, gold in golden.get("scenarios", {}).items():
        m = mine.get(name)
        want = gold.get("events_per_s", 0)
        if m is None or not want:
            continue
        got = m.get("events_per_s", 0)
        if got < ratio * want:
            slow.append(f"{name}: {got} events/s < {ratio:g} x golden {want}")
    return slow


if __name__ == "__main__":
    sys.exit(main())
