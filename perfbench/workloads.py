"""The benchmark's four workloads, assembled from the public ``repro`` API.

Every workload is split the same way, so the runner can time each part:

* ``setup(seed)`` builds the site and generates every input from *seed*
  (trees preloaded without simulated time, the submission schedule, the
  fault plan).  Nothing simulated has happened when it returns.
* ``run(state)`` drives the simulation to completion and returns the
  host seconds of its named phases (``tape_cycle`` only).
* ``measure(state)`` reads the outcome: simulated metrics, deterministic
  counters from the layers' public attributes, and the correctness
  verdict of every operation (one operation = one submitted job).

Arrival schedules are open loop: *n* Poisson arrivals conditioned on
landing inside a fixed horizon (sorted uniform draws — the order
statistics of a Poisson process given its count).  Conditioning on the
count keeps the horizon, and with it the makespan, from swinging with
the seed, while arrivals stay memoryless inside the window.
"""

from __future__ import annotations

import bisect
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.faults import FaultPlan
from repro.health.detector import DetectorConfig
from repro.health.monitor import SiteHealthMonitor
from repro.pftool import PftoolConfig
from repro.scheduler.admission import AdmissionPolicy, DegradedModePolicy
from repro.scheduler.queues import COMPLETED
from repro.scheduler.scenario import build_site
from repro.scheduler.service import ArchiveService, SchedulerConfig
from repro.sim import Environment, RandomStreams
from repro.workloads import (
    PAPER_62_JOBS,
    generate_open_science_trace,
    lognormal_sizes,
)
from repro.workloads.generators import materialize_job, preload_tree

MB = 1_000_000
GB = 1_000_000_000

#: candidate tail percentiles, highest first; the tail reported is the
#: highest one with at least ``TAIL_MIN_BEYOND`` jobs beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Submission:
    """One scheduled job of an open-loop feed."""

    at: float
    tenant: str
    op: str
    src: str
    dst: str
    cfg: PftoolConfig | None = None


@dataclass
class State:
    """A built workload: the site, its inputs and what the run leaves."""

    env: Environment
    system: ParallelArchiveSystem
    service: ArchiveService
    schedule: list
    #: CRC over the generated inputs (proves the seed reached them)
    input_crc: int
    tickets: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def poisson_arrivals(rng, n: int, horizon: float) -> list:
    """*n* Poisson arrival times conditioned on falling in [0, horizon)."""
    return sorted(float(x) for x in rng.uniform(0.0, horizon, size=n))


def crc_of(*parts) -> int:
    return zlib.crc32(repr(parts).encode())


def feeder(env, service, schedule, tickets):
    """Submit *schedule* at its simulated times (open loop)."""
    t_prev = 0.0
    for sub in schedule:
        yield env.timeout(sub.at - t_prev)
        t_prev = sub.at
        tickets.append(service.submit(sub.tenant, sub.op, sub.src, sub.dst,
                                      cfg=sub.cfg))


def tail_of(values) -> tuple:
    """(percentile, value) — the highest percentile with at least ten
    samples beyond it (p50 when there are too few samples)."""
    n = len(values)
    p = next((p for p in TAIL_PERCENTILES
              if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND), 50.0)
    return p, float(np.percentile(values, p))


class TreeIndex:
    """(size, content token) of every live file of a file system, for
    comparing a job's destination tree with its source in O(log n)."""

    def __init__(self, fs) -> None:
        files = sorted((path, (inode.size, inode.content_token))
                       for path, inode in fs.walk("/") if inode.is_file)
        self._paths = [p for p, _ in files]
        self._state = [st for _, st in files]

    def under(self, root: str) -> dict:
        prefix = root.rstrip("/") + "/"
        lo = bisect.bisect_left(self._paths, prefix)
        hi = bisect.bisect_left(self._paths, prefix[:-1] + "0")  # "0" follows "/"
        return {self._paths[i][len(prefix):]: self._state[i]
                for i in range(lo, hi)}


def copy_mismatches(src: dict, dst: dict) -> list:
    """Files whose destination size or content token differs from the source."""
    bad = sorted(set(src) ^ set(dst))
    return bad + [rel for rel in sorted(set(src) & set(dst))
                  if src[rel] != dst[rel]]


def measure_service(state: State, t_first: float | None = None) -> dict:
    """Sim metrics, counters and verdicts for a service-fed workload.

    An operation fails when its (resume-chained) ticket did not end
    COMPLETED, or when its destination tree differs from its source.
    """
    service, system = state.service, state.system
    scratch, archive = TreeIndex(system.scratch_fs), TreeIndex(system.archive_fs)
    # a preempted ticket is settled by the resume chained to it
    resumed_by = {t.resume_of: t for t in service._tickets.values()
                  if t.resume_of is not None}
    sojourns, violations = [], []
    finished, submitted = [], []
    for ticket in state.tickets:
        last = ticket
        while last.job_id in resumed_by:
            last = resumed_by[last.job_id]
        submitted.append(ticket.submitted)
        if last.state != COMPLETED:
            violations.append(f"job {ticket.job_id} ended {last.state}")
            continue
        src, dst = (scratch, archive) if ticket.op == "archive" else (archive, scratch)
        want = src.under(ticket.src)
        bad = copy_mismatches(want, dst.under(ticket.dst))
        if not want:
            violations.append(f"job {ticket.job_id} source {ticket.src} is empty")
            continue
        if bad:
            violations.append(f"job {ticket.job_id} {ticket.op} "
                              f"{len(bad)} files differ, e.g. {bad[0]}")
            continue
        finished.append(last.finished)
        sojourns.append(last.finished - ticket.submitted)
    attempted = len(state.schedule)
    if len(state.tickets) != attempted:
        violations.append(f"{len(state.tickets)} of {attempted} jobs submitted")
    tail_p, tail = tail_of(sojourns) if sojourns else (50.0, 0.0)
    start = min(submitted, default=0.0) if t_first is None else t_first
    summary = service.summary()
    waits = [t.wait_time for t in service._tickets.values()
             if t.dispatched is not None]
    lib, tapedb = system.library, system.tapedb
    arrays = [a for fs in (system.scratch_fs, system.archive_fs)
              for pool in fs.pools.values() for a in pool.arrays]
    return {
        "attempted": attempted,
        "failed": attempted - len(sojourns),
        "violations": violations,
        "sim": {
            "sim_makespan_s": max(finished, default=start) - start,
            "sim_job_p50_s": float(np.percentile(sojourns, 50)) if sojourns else 0.0,
            "sim_job_tail_s": tail,
        },
        "tail": {"percentile": tail_p, "n": len(sojourns)},
        "counters": {
            "sim.events": state.env.events_processed,
            "sim.instants": state.env.instants,
            "sim.peak_queue": state.env.peak_queue_len,
            "netsim.solves": system.topology.fabric.rate_recomputes,
            "disksim.ios": sum(a.reads + a.writes for a in arrays),
            "scheduler.dispatches": summary["dispatched"],
            "scheduler.peak_in_flight": summary["peak_in_flight"],
            "scheduler.queue_wait_p50_s": (
                float(np.percentile(waits, 50)) if waits else 0.0),
            "tapesim.mounts": lib.total_mounts,
            "tapesim.backhitches": lib.total_backhitches,
            "tapesim.handoff_rewinds": lib.total_handoff_rewinds,
            "tapesim.seek_sim_s": lib.total_seek_seconds,
            "tsm.transactions": system.tsm.transactions,
            "hsm.files_migrated": system.hsm.files_migrated,
            "hsm.files_recalled": system.hsm.files_recalled,
            "tapedb.queries": tapedb.queries,
            "tapedb.cache_hit_rate": tapedb.cache.hit_rate,
            "faults.injected": (
                sum(system.fault_injector.injected.values())
                if system.fault_injector is not None else 0),
            "recovery.resumed": summary["resumed"],
            "pftool.files": sum(
                t.stats.files_copied for t in service._tickets.values()
                if t.stats is not None),
        },
    }


def run_service(state: State) -> dict:
    env, service = state.env, state.service
    fed = env.process(feeder(env, service, state.schedule, state.tickets),
                      name="perfbench-feeder")
    env.run(fed)  # drain() can fire between arrivals: feed first
    env.run(service.drain())
    env.run()
    return {}


# ---------------------------------------------------------------------------
# s1_flood — per-job overheads: kernel dispatch, mailboxes, admission, metadata
# ---------------------------------------------------------------------------

S1_TENANTS = 12
S1_JOBS = 1400
S1_MEAN_ARRIVAL = 0.002


def s1_setup(seed: int) -> State:
    env = Environment()
    system = build_site(env)
    service = ArchiveService(system, SchedulerConfig(
        policy=AdmissionPolicy(slots_per_node=12, max_active_jobs=16),
        default_cfg=PftoolConfig(num_workers=2, num_readdir=1,
                                 num_tapeprocs=0, stat_batch=8, copy_batch=4),
    ))
    weights = [1.0 + (i % 4) for i in range(S1_TENANTS)]
    tenants = [f"tenant{i:02d}" for i in range(S1_TENANTS)]
    for name, w in zip(tenants, weights):
        service.add_tenant(name, weight=w)
    streams = RandomStreams(seed)
    rng = streams.stream("perfbench-s1")
    # each tenant's share of the jobs follows its weight, so every tenant
    # stays backlogged and fair-share has work to order
    owner = rng.choice(len(tenants), size=S1_JOBS,
                       p=np.array(weights) / sum(weights))
    times = poisson_arrivals(rng, S1_JOBS, S1_JOBS * S1_MEAN_ARRIVAL)
    sizes = lognormal_sizes(streams.stream("perfbench-s1-sizes"),
                            2 * S1_JOBS, 16 * MB, 0.5, 1 * MB).tolist()
    schedule = []
    for k, (at, who) in enumerate(zip(times, owner)):
        tenant = tenants[int(who)]
        src, dst = f"/jobs/{tenant}/j{k:05d}", f"/arc/{tenant}/j{k:05d}"
        preload_tree(system.scratch_fs, src, sizes[2 * k:2 * k + 2])
        schedule.append(Submission(at, tenant, "archive", src, dst))
    return State(env, system, service, schedule,
                 crc_of(times, owner.tolist(), sizes))


# ---------------------------------------------------------------------------
# openscience_replay — the calibrated 62-job trace on the full paper site
# ---------------------------------------------------------------------------

OS_MAX_FILES = 20
OS_TRACE_SEED = 2009
OS_MEAN_ARRIVAL = 0.2
OS_BACKGROUND_USERS = 4


def background_load(env, system, rng, stop):
    """Other users of the shared site (the paper's "bandwidth sharing ...
    among multiple users"): each streams scratch→FTA transfers back to
    back until the replay ends.  A constant number of competitors keeps
    each job's share of the trunk steady from seed to seed."""
    fab = system.topology.fabric
    nodes = system.topology.fta_nodes

    def user(node):
        while not stop["flag"]:
            yield fab.transfer("scratch", node, float(rng.exponential(20 * GB)),
                               weight=2.0, tag="background")

    for i in range(OS_BACKGROUND_USERS):
        env.process(user(nodes[i % len(nodes)]), name=f"perfbench-user{i}")


def os_setup(seed: int) -> State:
    env = Environment()
    system = ParallelArchiveSystem(env, ArchiveParams())
    service = ArchiveService(system, SchedulerConfig(
        policy=AdmissionPolicy(slots_per_node=128, max_active_jobs=64),
    ))
    service.add_tenant("openscience")
    # the job population — file sizes and the worker count each user
    # launched with (Fig. 10's spread) — is the calibrated trace itself;
    # the seed drives arrivals and background traffic
    trace = generate_open_science_trace(seed=OS_TRACE_SEED)
    workers = RandomStreams(OS_TRACE_SEED).stream("perfbench-workers").integers(
        4, 17, size=len(trace.jobs)).tolist()
    rng = RandomStreams(seed).stream("perfbench-openscience")
    times = poisson_arrivals(rng, len(trace.jobs),
                             len(trace.jobs) * OS_MEAN_ARRIVAL)
    schedule, tree_bytes = [], []
    for k, (at, job, n) in enumerate(zip(times, trace.jobs, workers)):
        made = materialize_job(system.scratch_fs, job.scaled(OS_MAX_FILES),
                               f"/jobs/j{k:02d}")
        tree_bytes.append(made["total_bytes"])
        schedule.append(Submission(
            at, "openscience", "archive", f"/jobs/j{k:02d}", f"/arc/j{k:02d}",
            PftoolConfig(num_workers=n, num_readdir=2, num_tapeprocs=0,
                         stat_batch=32, copy_batch=8)))
    return State(env, system, service, schedule,
                 crc_of(times, tree_bytes),
                 extra={"bg_rng": RandomStreams(seed).stream("perfbench-bg")})


def os_run(state: State) -> dict:
    env, service = state.env, state.service
    stop = {"flag": False}
    background_load(env, state.system, state.extra["bg_rng"], stop)
    fed = env.process(feeder(env, service, state.schedule, state.tickets),
                      name="perfbench-feeder")
    env.run(fed)
    env.run(service.drain())
    stop["flag"] = True
    env.run()  # in-flight background transfers finish
    return {}


def os_measure(state: State) -> dict:
    out = measure_service(state)
    rates = [t.stats.data_rate for t in state.tickets
             if t.stats is not None and t.stats.bytes_copied]
    out["notes"] = {
        "mean_job_rate_MBps": float(np.mean(rates)) / MB if rates else 0.0,
        "paper_mean_job_rate_MBps": PAPER_62_JOBS["rate_mean"] / MB,
    }
    return out


# ---------------------------------------------------------------------------
# tape_cycle — HSM migrate to tape, index export, tape-ordered recall
# ---------------------------------------------------------------------------

TC_DIRS = 50
TC_FILES_PER_DIR = 40
TC_GROUPS = 4
#: the restore campaign arrives as a burst: every directory within 5 s
TC_RESTORE_HORIZON = 5.0


def tc_setup(seed: int) -> State:
    env = Environment()
    system = build_site(env)
    # one restore stream: each directory's files sit together on one tape,
    # so a job recalls sequentially and never fights another for it
    service = ArchiveService(system, SchedulerConfig(
        policy=AdmissionPolicy(slots_per_node=12, max_active_jobs=1),
        default_cfg=PftoolConfig(num_workers=4, num_readdir=1,
                                 num_tapeprocs=2, stat_batch=64,
                                 copy_batch=8, tape_ordering=True),
    ))
    service.add_tenant("recall")
    streams = RandomStreams(seed)
    rng = streams.stream("perfbench-tape")
    # mixed sizes: a small-file mode (slow pool) beside mid-size files
    n_files = TC_DIRS * TC_FILES_PER_DIR
    small = rng.random(n_files) < 0.25
    small_sizes = rng.integers(256_000, 768_000, size=n_files)
    mid = lognormal_sizes(streams.stream("perfbench-tape-sizes"), n_files,
                          8 * MB, 0.5, 1 * MB).tolist()
    sizes = [int(lo) if sm else hi for lo, hi, sm in zip(small_sizes, mid, small)]
    # directory d belongs to collocation group d % TC_GROUPS; each group
    # migrates as one batch, directory after directory, with each
    # directory's files in a shuffled order — the tape layout differs
    # from namespace order, so an unordered recall would seek
    batches = [[] for _ in range(TC_GROUPS)]
    for d in range(TC_DIRS):
        root = f"/cold/d{d:03d}"
        part = sizes[d * TC_FILES_PER_DIR:(d + 1) * TC_FILES_PER_DIR]
        preload_tree(system.archive_fs, root, part)
        batches[d % TC_GROUPS] += [f"{root}/f{int(i):04d}"
                                   for i in rng.permutation(len(part))]
    # a campaign restore: directories come back in the order they were
    # archived
    times = poisson_arrivals(rng, TC_DIRS, TC_RESTORE_HORIZON)
    schedule = [Submission(at, "recall", "retrieve", f"/cold/d{d:03d}",
                           f"/back/d{d:03d}")
                for d, at in enumerate(times)]
    return State(env, system, service, schedule,
                 crc_of(sizes, batches, times), extra={"batches": batches})


def tc_run(state: State) -> dict:
    env, system = state.env, state.system
    nodes = system.topology.fta_nodes
    t0 = time.perf_counter()
    migrations = [
        system.hsm.migrate(nodes[g % len(nodes)], paths,
                           collocation_group=f"g{g}")
        for g, paths in enumerate(state.extra["batches"])
    ]
    env.run(env.all_of(migrations))
    state.extra["migrated"] = [len(ev.value) for ev in migrations]
    env.run(system.exporter.run_once())
    t1 = time.perf_counter()
    start = env.now
    fed = env.process(feeder(env, state.service,
                             [replace(s, at=s.at + start) for s in state.schedule],
                             state.tickets),
                      name="perfbench-feeder")
    env.run(fed)
    env.run(state.service.drain())
    env.run()
    t2 = time.perf_counter()
    return {"write_wall_s": t1 - t0, "read_wall_s": t2 - t1}


def tc_measure(state: State) -> dict:
    out = measure_service(state, t_first=0.0)
    system = state.system
    n_files = TC_DIRS * TC_FILES_PER_DIR
    # each migrate batch is an operation too
    out["attempted"] += len(state.extra["batches"])
    out["failed"] += sum(1 for paths, n in zip(state.extra["batches"],
                                               state.extra["migrated"])
                         if n != len(paths))
    if system.hsm.files_migrated != n_files:
        out["violations"].append(
            f"migrated {system.hsm.files_migrated} of {n_files} files")
    restored = sum(t.stats.tape_files_restored for t in state.tickets
                   if t.stats is not None)
    if restored != system.hsm.files_migrated:
        out["violations"].append(
            f"restored {restored} != migrated {system.hsm.files_migrated}")
    return out


# ---------------------------------------------------------------------------
# degraded_service — archive + retrieve feed through an FTA pool loss
# ---------------------------------------------------------------------------

DG_JOBS = 1000
DG_HORIZON = 300.0
DG_FILE_BYTES = 48 * MB
DG_COLD = 240
DG_TENANTS = (("ops", 3.0), ("sci", 2.0), ("scavenger", 1.0))


def dg_setup(seed: int) -> State:
    env = Environment()
    system = build_site(env)
    service = ArchiveService(system, SchedulerConfig(
        policy=AdmissionPolicy(slots_per_node=12, max_active_jobs=6,
                               drive_reserve=1),
        # jobs dispatched into the outage must survive it, not abort
        default_cfg=PftoolConfig(
            num_workers=2, num_readdir=1, num_tapeprocs=1, stat_batch=8,
            copy_batch=4, stall_timeout=100000.0, retry_limit=8,
            retry_backoff=2.0, retry_backoff_max=30.0),
    ))
    for name, weight in DG_TENANTS:
        service.add_tenant(name, weight=weight)
    streams = RandomStreams(seed)
    rng = streams.stream("perfbench-degraded")
    # three files per cold tree and per archive job, drawn as one population
    sizes = lognormal_sizes(streams.stream("perfbench-degraded-sizes"),
                            3 * (DG_COLD + DG_JOBS), DG_FILE_BYTES, 0.4,
                            1 * MB).tolist()
    for i in range(DG_COLD):
        preload_tree(system.archive_fs, f"/arc/cold/t{i:03d}",
                     sizes[3 * i:3 * i + 3], token_base=0xC0 << 20)
    times = poisson_arrivals(rng, DG_JOBS, DG_HORIZON)
    ops = rng.random(DG_JOBS) < 0.6
    schedule = []
    for k, (at, is_archive) in enumerate(zip(times, ops)):
        tenant = DG_TENANTS[k % len(DG_TENANTS)][0]
        if is_archive:
            first = 3 * (DG_COLD + k)
            preload_tree(system.scratch_fs, f"/jobs/j{k:03d}",
                         sizes[first:first + 3])
            schedule.append(Submission(at, tenant, "archive",
                                       f"/jobs/j{k:03d}", f"/arc/jobs/j{k:03d}"))
        else:
            src = f"/arc/cold/t{int(rng.integers(0, DG_COLD)):03d}"
            schedule.append(Submission(at, tenant, "retrieve", src,
                                       f"/back/r{k:03d}"))
    monitor = SiteHealthMonitor(env, system, config=DetectorConfig(
        probe_interval=2.0, phi_threshold=3.0, down_after=2,
        probe_backoff=1.0, probe_backoff_max=4.0,
        breaker_failures=2, breaker_reset=12.0))
    service.attach_health(monitor.view, degraded=DegradedModePolicy(
        brownout_max_active=2, brownout_drive_reserve=0, shed_fraction=0.34,
        readmit_interval=4.0, readmit_jitter=2.0,
        node_down_brownout_fraction=0.5), seed=seed)
    nodes = list(system.loadmanager.nodes)
    # half the FTA pool drops in a staggered window mid-feed
    system.inject_faults(
        FaultPlan(seed).pool_loss(nodes[:len(nodes) // 2],
                                  start=0.3 * DG_HORIZON,
                                  duration=0.25 * DG_HORIZON, stagger=4.0),
        health=monitor.view)
    return State(env, system, service, schedule,
                 crc_of(times, ops.tolist(), sizes),
                 extra={"monitor": monitor})


def dg_run(state: State) -> dict:
    env, service = state.env, state.service
    monitor = state.extra["monitor"]
    fed = env.process(feeder(env, service, state.schedule, state.tickets),
                      name="perfbench-feeder")
    env.run(fed)
    env.run(service.drain())
    # let the outage window close and the detectors re-probe
    env.run(until=env.now + 60.0)
    state.extra["health_end"] = monitor.view.snapshot()
    monitor.stop()
    env.run()
    return {}


def dg_measure(state: State) -> dict:
    out = measure_service(state)
    degraded = state.service.degraded_summary()
    if degraded["fenced"]:
        out["violations"].append(f"nodes still fenced: {degraded['fenced']}")
    down = sorted(n for n, s in state.extra["health_end"].items() if s == "down")
    if down:
        out["violations"].append(f"components still down: {down}")
    if state.system.loadmanager.total_load != 0:
        out["violations"].append("FTA load not released")
    return out


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    measure: object


WORKLOADS = {
    "s1_flood": Workload(s1_setup, run_service, measure_service),
    "openscience_replay": Workload(os_setup, os_run, os_measure),
    "tape_cycle": Workload(tc_setup, tc_run, tc_measure),
    "degraded_service": Workload(dg_setup, dg_run, dg_measure),
}
