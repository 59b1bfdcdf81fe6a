"""One repetition of one workload, in a fresh single-threaded process.

Run by ``run.py``; prints a single JSON object on stdout::

    python3 perfbench/worker.py --workload s1_flood --seed 0 --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it spawned this
process, so ``setup_s`` covers interpreter start, imports, site
construction and input generation, up to the first simulated event.
``--profile`` makes this the traced repetition: counting wrappers plus a
``cProfile`` hook over set-up and run.  ``--warmup`` only imports the
program (filling the bytecode cache) and exits.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    import layers
    from workloads import WORKLOADS

    if args.warmup:
        return 0
    workload = WORKLOADS[args.workload]
    profile = None
    if args.profile:
        counts = layers.install_counters()
        profile = cProfile.Profile()
        profile.enable()
    t_build = time.perf_counter()
    state = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    t_run = time.perf_counter()
    phases = workload.run(state)
    t_end = time.perf_counter()
    if profile is not None:
        profile.disable()
    out = workload.measure(state)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "profiled": args.profile,
        "setup_s": setup_s,
        "wall_s": t_end - t_run,
        # set-up after imports plus run: the span the traced run profiles
        "region_s": t_end - t_build,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phases": phases,
        "input_crc": state.input_crc,
        **out,
    }
    if profile is not None:
        layer_of = layers.LayerMap(os.path.join(SRC_DIR, "repro"), BENCH_DIR)
        result["self_s"] = layers.self_times(profile, layer_of)
        result["counters"].update(counts)
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
