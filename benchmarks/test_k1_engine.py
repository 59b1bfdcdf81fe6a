"""K1 — simulation-engine fast path (kernel/netsim/resources hot loops).

Not a paper figure: this bench guards the *engine* itself.  PR 3 made
fair-share re-allocation incremental (per-component solves instead of
recompute-everything), store queues O(1) (deques + tombstone lazy
cancellation) and message delivery process-free (pooled kernel timers).
The contract is that none of this may change simulated results: every
scenario in :mod:`repro.perf` emits machine-independent *headline*
numbers which must equal the committed golden file
``benchmarks/results/BENCH_kernel.json`` bit-for-bit (modulo float
tolerance); wall-clock and events/sec are trajectory data.

``benchmarks/results/BENCH_kernel.baseline.json`` preserves the
pre-optimisation run of the identical scenarios for the speedup record
(fabric_churn 5.5x, fabric_sparse 4.4x wall; both >=3x events/sec).
"""

import json
import pathlib

from repro.perf import compare_headlines, run_suite

from _common import run_once, write_report

GOLDEN = pathlib.Path(__file__).parent / "results" / "BENCH_kernel.json"


def test_k1_engine_suite(benchmark):
    report = run_once(benchmark, run_suite)

    golden = json.loads(GOLDEN.read_text())
    drift = compare_headlines(report, golden)
    assert not drift, "simulated headline drift vs golden:\n" + "\n".join(drift)

    # the committed report holds simulated counts only; host wall time
    # and events/s go to stdout and extra_info, so a re-run on any
    # machine regenerates the report byte for byte
    lines = ["K1  engine microbenchmarks (headline-checked vs golden)"]
    host = ["K1  host timings (this machine only)"]
    for name, m in report["scenarios"].items():
        lines.append(
            f"  {name:22s} {m['events']:>8} events  "
            f"recomputes {m['rate_recomputes']}"
        )
        host.append(
            f"  {name:22s} {m['wall_s']:8.3f}s {m['events_per_s']:>8} events/s"
        )
        benchmark.extra_info[f"{name}_wall_s"] = m["wall_s"]
        benchmark.extra_info[f"{name}_events_per_s"] = m["events_per_s"]
    text = "\n".join(lines)
    print("\n" + text + "\n" + "\n".join(host))
    write_report("K1", text)

    # the optimisation floor this PR claims: fabric-heavy scenarios keep
    # their solver counts down (0 solves when nothing shares a link)
    assert report["scenarios"]["fabric_sparse"]["rate_recomputes"] == 0
    assert report["scenarios"]["store_churn"]["rate_recomputes"] == 0
