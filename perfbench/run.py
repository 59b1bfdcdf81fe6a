"""The repository benchmark: four archive-service workloads, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload s1_flood --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --self-test               # determinism + seed + names
    python3 perfbench/run.py --workload all --save base.json
    python3 perfbench/run.py --workload all --compare base.json

Each repetition of a workload runs in its own fresh process
(``worker.py``), so ``setup_s`` and ``peak_rss_mb`` are per workload.
A run repeats the workload for ``--seconds`` and reports medians.
``--trace 0`` reports the end-to-end metrics from untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics.  For each metric the run prints its name, unit,
median, quartiles and sample count, then the failed and attempted
operations.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails, and when the program cannot be
run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from layers import COUNTED, LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")

WORKLOAD_NAMES = ("s1_flood", "openscience_replay", "tape_cycle",
                  "degraded_service")
DEFAULT_SEED = 0
#: relative tolerance of the golden comparison (``repro.perf``'s value)
HEADLINE_RTOL = 1e-9
#: a run makes at least this many untraced repetitions
MIN_REPS = 3
#: every run ends within this many seconds (a run must finish in 180 s)
RUN_LIMIT_S = 170.0

#: host seconds are "s"; simulated seconds are "sim_s", a separate kind
#: of measurement (deterministic for a seed, the same on every host)
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_makespan_s": "sim_s", "sim_job_p50_s": "sim_s",
    "sim_job_tail_s": "sim_s",
}
SIM_METRICS = ("sim_makespan_s", "sim_job_p50_s", "sim_job_tail_s")
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")

#: deterministic per-layer counters (from public attributes or wrappers)
COUNTERS = {
    "sim.events": "count", "sim.instants": "count", "sim.peak_queue": "count",
    "sim.store_ops": "count",
    "netsim.transfers": "count", "netsim.solves": "count",
    "mpisim.messages": "count",
    "pftool.jobs": "count", "pftool.files": "count",
    "pfs.meta_ops": "count", "pfs.data_ops": "count",
    "disksim.ios": "count",
    "scheduler.dispatches": "count", "scheduler.peak_in_flight": "count",
    "scheduler.queue_wait_p50_s": "sim_s",
    "tapesim.mounts": "count", "tapesim.backhitches": "count",
    "tapesim.handoff_rewinds": "count", "tapesim.seek_sim_s": "sim_s",
    "tsm.transactions": "count", "hsm.files_migrated": "count",
    "hsm.files_recalled": "count",
    "tapedb.queries": "count", "tapedb.cache_hit_rate": "ratio",
    "health.probes": "count", "faults.injected": "count",
    "recovery.resumed": "count",
}
#: counters every repetition reads; the wrapped ones need the traced one
PLAIN_COUNTERS = tuple(k for k in COUNTERS if k not in COUNTED)
#: host seconds of the tape workload's two phases (0 where absent)
PHASES = ("write_wall_s", "read_wall_s")


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({"other.self_s": "s", "traced.wall_s": "s",
                  "trace.overhead": "ratio"})
    units.update(COUNTERS)
    units.update(dict.fromkeys(PHASES, "s"))
    return units


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance() -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=False).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "code_sha256": digest.hexdigest()[:16],
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def host_key(prov: dict) -> tuple:
    """What must match for two results to be comparable."""
    return tuple(prov.get(k) for k in ("host", "machine", "nproc", "python",
                                       "numpy"))


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, deadline: float, profile=False,
          warmup=False) -> dict:
    """Run one repetition in a fresh process and return its result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0)]
    cmd += ["--profile"] if profile else []
    cmd += ["--warmup"] if warmup else []
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: repetition exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return {} if warmup else json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: float, trace: bool):
    """(untraced reps, traced reps) filling about *seconds*."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spawn(workload, seed, deadline, warmup=True)
    plain, traced = [], []
    while True:
        plain.append(spawn(workload, seed, deadline))
        if trace:
            traced.append(spawn(workload, seed, deadline, profile=True))
        elapsed = time.monotonic() - start
        per_round = elapsed / len(plain)
        if (trace or len(plain) >= MIN_REPS) and elapsed + per_round > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# checks and aggregation
# ---------------------------------------------------------------------------

def close(a: float, b: float, rtol: float = HEADLINE_RTOL) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def deterministic_values(rep: dict) -> dict:
    """The sim metrics and counters a repetition must reproduce exactly."""
    names = COUNTERS if rep["profiled"] else PLAIN_COUNTERS
    values = {k: rep["sim"][k] for k in SIM_METRICS}
    values.update({k: rep["counters"][k] for k in names})
    return values


def check(workload: str, seed: int, reps: list) -> tuple:
    """(attempted, failed, problems) over every repetition of a run.

    Every repetition must pass the workload's own conservation checks and
    reproduce the first repetition's sim metrics and counters; on the
    default seed they must also equal the recorded golden values.  A
    mismatching value counts as one failed operation.
    """
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [v for r in reps for v in r["violations"]]
    want = {}
    for rep in reps:
        for key, value in deterministic_values(rep).items():
            want.setdefault(key, value)
            if not close(value, want[key]):
                failed += 1
                problems.append(f"{key}: {value!r} differs between "
                                f"repetitions ({want[key]!r})")
    if seed == DEFAULT_SEED:
        golden = load_golden().get(workload, {})
        for key, value in want.items():
            if key not in golden or not close(value, golden[key]):
                failed += 1
                problems.append(f"{key}: {value!r} != golden "
                                f"{golden.get(key)!r}")
    return attempted, min(failed, attempted), problems


def summary(values: list) -> tuple:
    """(median, q1, q3, n); a value every sample repeats (a count, a
    simulated metric) is returned as it is."""
    if len(set(values)) == 1:
        return values[0], values[0], values[0], len(values)
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end(plain: list) -> dict:
    samples = {k: [r[k] for r in plain] for k in HOST_METRICS}
    samples.update({k: [r["sim"][k] for r in plain] for k in SIM_METRICS})
    return samples


def per_layer(plain: list, traced: list) -> dict:
    samples = {f"{layer}.self_s": [r["self_s"].get(layer, 0.0) for r in traced]
               for layer in LAYERS}
    samples["other.self_s"] = [
        r["region_s"] - sum(r["self_s"].get(layer, 0.0) for layer in LAYERS)
        for r in traced]
    samples["traced.wall_s"] = [r["region_s"] for r in traced]
    samples["trace.overhead"] = [
        statistics.median(samples["traced.wall_s"])
        / statistics.median(r["region_s"] for r in plain)]
    for key in COUNTERS:
        samples[key] = [r["counters"][key] for r in traced]
    for key in PHASES:
        samples[key] = [r["phases"].get(key, 0.0) for r in plain]
    return samples


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = repetitions(workload, seed, seconds, trace)
    attempted, failed, problems = check(workload, seed, plain + traced)
    if trace:
        samples, units = per_layer(plain, traced), per_layer_units()
    else:
        samples, units = end_to_end(plain), END_TO_END
    first = plain[0]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "samples": samples, "units": units,
        "attempted": attempted, "failed": failed, "problems": problems,
        "tail": first["tail"], "notes": first.get("notes", {}),
    }


def report(res: dict, prov: dict) -> dict:
    """Print the human table and return the result object."""
    name = res["workload"]
    print(f"== {name}  seed={res['seed']}  trace={int(res['trace'])}")
    print(f"   provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"   {'metric':<28} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}")
    metrics = {}
    for key, values in res["samples"].items():
        med, q1, q3, n = summary(values)
        unit = res["units"][key]
        print(f"   {key:<28} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{n:>3}")
        metrics[key] = {"value": med, "unit": unit}
    tail = res["tail"]
    print(f"   sim_job_tail_s is p{tail['percentile']:g} over n={tail['n']} jobs")
    for key, value in sorted(res["notes"].items()):
        print(f"   note {key}: {value:.6g}")
    print(f"   operations: failed {res['failed']} of attempted "
          f"{res['attempted']} (failed_frac "
          f"{res['failed'] / max(1, res['attempted']):.6g})")
    for problem in res["problems"][:20]:
        print(f"   FAILED: {problem}")
    return {"correct": not res["problems"] and res["failed"] == 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# self-test, golden recording, baseline comparison
# ---------------------------------------------------------------------------

def self_test(workloads: list, seed: int) -> list:
    """Problems found: determinism, seed reach, and metric coverage."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)
    want_e2e = {m["name"] for m in listed["end_to_end"]}
    want_layer = {m["name"] for m in listed["per_layer"]}
    problems = []
    for name in workloads:
        before = len(problems)
        deadline = time.monotonic() + RUN_LIMIT_S
        spawn(name, seed, deadline, warmup=True)
        plain = spawn(name, seed, deadline)
        traced = [spawn(name, seed, deadline, profile=True) for _ in range(2)]
        other = spawn(name, seed + 1, deadline)
        a, b, c = (deterministic_values(r) for r in [plain] + traced)
        for key in b:
            if key in a and a[key] != b[key]:
                problems.append(f"{name}: {key} differs traced vs untraced")
            if b[key] != c[key]:
                problems.append(f"{name}: {key} differs between same-seed runs")
        if other["input_crc"] == plain["input_crc"]:
            problems.append(f"{name}: seed {seed + 1} generated the same inputs")
        got_e2e = set(end_to_end([plain]))
        got_layer = set(per_layer([plain], traced))
        for missing in sorted((want_e2e - got_e2e) | (want_layer - got_layer)):
            problems.append(f"{name}: metric {missing} not emitted")
        print(f"self-test {name}: "
              f"{'ok' if len(problems) == before else 'FAILED'}")
    return problems


def record_golden(workloads: list) -> None:
    golden = load_golden() if os.path.exists(GOLDEN) else {}
    for name in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        spawn(name, DEFAULT_SEED, deadline, warmup=True)
        golden[name] = deterministic_values(
            spawn(name, DEFAULT_SEED, deadline, profile=True))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare(saved: dict, results: dict, prov: dict) -> None:
    if host_key(saved["provenance"]) != host_key(prov):
        print(f"baseline NOT COMPARABLE: recorded on "
              f"{saved['provenance']} — host differs from {prov}")
        return
    for name, res in results.items():
        base = saved["results"].get(name)
        if base is None:
            continue
        for key, got in res["metrics"].items():
            if key in base["metrics"] and base["metrics"][key]["value"]:
                ratio = got["value"] / base["metrics"][key]["value"]
                print(f"   {name} {key}: {ratio:.4f}x of baseline")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", default="all",
                    help="a workload name, a comma list, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-golden", action="store_true",
                    help=f"re-record golden.json on seed {DEFAULT_SEED}")
    ap.add_argument("--save", help="write the results and provenance here")
    ap.add_argument("--compare", help="a file written by --save")
    args = ap.parse_args(argv)
    names = (list(WORKLOAD_NAMES) if args.workload == "all"
             else args.workload.split(","))
    unknown = [n for n in names if n not in WORKLOAD_NAMES]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {WORKLOAD_NAMES}")
    try:
        if args.self_test:
            problems = self_test(names, args.seed)
            for problem in problems:
                print(f"FAILED: {problem}")
            return 1 if problems else 0
        if args.record_golden:
            record_golden(names)
            return 0
        prov = provenance()
        results = {}
        for name in names:
            res = run_one(name, args.seed, args.seconds, bool(args.trace))
            results[name] = report(res, prov)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            compare(json.load(fh), results, prov)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"provenance": prov, "results": results}, fh, indent=2)
    for name in names:
        print(json.dumps(results[name], sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
