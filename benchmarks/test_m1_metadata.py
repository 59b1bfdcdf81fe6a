"""M1/M2/M3 — metadata plane at archive scale (not a paper figure).

The paper's site holds ~10^8 archived files; its restore optimisation
(§4.1.2) and reconcile chore (§4.4) are both catalog-bound.  These
benches drive the sharded tape index through a full-catalog recall sort
(M1), a cached locate storm plus the streaming sort (M2), and an
orphan-purge reconcile sweep (M3), then extrapolate the measured
files/sec to the paper's population.

Correctness gates, enforced here:

* M* headline numbers (counts, CRC-32 order checksums, simulated end
  times) match the committed golden ``BENCH_kernel.json`` —
  population-keyed, so the check only applies at the default tier;
* re-running a scenario with the same seed is byte-identical (the
  synthetic index generator is arithmetic hashing, no RNG state);
* the streaming recall sort stays bounded: peak live entries is
  ``shards * batch``, far under 10% of the population.
"""

import json
import pathlib

from repro.perf import compare_headlines, run_suite
from repro.perf.metadata import (
    M_BATCH,
    M_POP,
    M_SHARDS,
    m1_index_scan,
    m2_recall_sort,
    m3_reconcile,
)

from _common import run_once, write_report

GOLDEN = pathlib.Path(__file__).parent / "results" / "BENCH_kernel.json"
M_SCENARIOS = ("m1_index_scan", "m2_recall_sort", "m3_reconcile")


def test_m1_metadata_suite(benchmark):
    report = run_once(benchmark, lambda: run_suite(M_SCENARIOS))

    golden = json.loads(GOLDEN.read_text())
    if M_POP == 100_000:  # goldens are recorded at the default tier
        m_golden = {
            "scenarios": {
                k: v
                for k, v in golden.get("scenarios", {}).items()
                if k in M_SCENARIOS
            }
        }
        drift = compare_headlines(report, m_golden)
        assert not drift, "metadata headline drift vs golden:\n" + "\n".join(
            drift
        )

    # the committed report holds simulated output only; host wall time,
    # the files/s rates and their extrapolation go to stdout and
    # extra_info, so a re-run on any machine regenerates the report
    lines = [
        f"M*  metadata plane at {M_POP:,} files "
        f"({M_SHARDS} shards, batch {M_BATCH})"
    ]
    host = ["M*  host timings (this machine only)"]
    for name in M_SCENARIOS:
        m = report["scenarios"][name]
        extra = m.get("extra", {})
        sim = {k: v for k, v in extra.items() if not k.endswith("_per_s")}
        rates = {k: v for k, v in extra.items() if k.endswith("_per_s")}
        lines.append(
            f"  {name:16s} peak_live {int(m['headline'].get('peak_live', 0)):>6}  "
            + " ".join(f"{k}={v}" for k, v in sorted(sim.items()))
        )
        host.append(
            f"  {name:16s} {m['wall_s']:8.3f}s  "
            + " ".join(f"{k}={v}" for k, v in sorted(rates.items()))
        )
        benchmark.extra_info[name] = dict(extra, wall_s=m["wall_s"])
        # the bounded-memory claim, re-asserted at the bench tier
        if "peak_live" in m["headline"]:
            assert m["headline"]["peak_live"] <= M_SHARDS * M_BATCH
            assert m["headline"]["peak_live"] < 0.10 * M_POP
    # extrapolate the slowest full-catalog stream to paper scale
    scan_rate = report["scenarios"]["m1_index_scan"]["extra"][
        "scan_files_per_s"
    ]
    host.append("  extrapolated full-catalog recall sort (measured rate):")
    for pop in (10**6, 10**7, 10**8):
        host.append(
            f"    {pop:>12,} files  ~{pop / scan_rate:8.1f}s wall, "
            f"peak live entries {M_SHARDS * M_BATCH} "
            f"({100.0 * M_SHARDS * M_BATCH / pop:.4f}% of population)"
        )
    text = "\n".join(lines)
    print("\n" + text + "\n" + "\n".join(host))
    write_report("M1", text)


def test_m_scenarios_same_seed_byte_identical():
    """Same population, same seed => byte-identical headlines."""
    pop = 20_000  # reduced tier: identity is seed-driven, not size-driven
    for fn in (m1_index_scan, m2_recall_sort, m3_reconcile):
        a = json.dumps(fn(pop=pop).headline, sort_keys=True)
        b = json.dumps(fn(pop=pop).headline, sort_keys=True)
        assert a == b, f"{fn.__name__} drifted between identical runs"


def test_m_population_tiers_scale_orphan_rate():
    """The deterministic predicates hold their rates across tiers."""
    small, large = m3_reconcile(pop=10_000), m3_reconcile(pop=40_000)
    for out in (small, large):
        rate = out.headline["orphans"] / out.headline["files"]
        assert 0.02 < rate < 0.04  # ~3% deleted upstream
    assert small.headline["orphan_crc"] != large.headline["orphan_crc"]
