"""Seeded multi-tenant scheduler scenarios: benchmark S1 and the soak.

``run_s1`` is benchmark **S1**: ≥10 tenants flood the service with
enough tiny archive jobs that more than a thousand are in the system at
once, while admission control holds the FTA pool at its configured
ceiling and stride fair-share keeps every tenant's served fraction near
its weight.  All quantities are simulated, so a seed fully determines
the outcome — the S1 golden is byte-comparable across machines, like
every other ``repro.perf`` headline.

``run_soak`` is the long-running-service chaos variant behind
``python -m repro.scheduler --soak`` and the CI soak-smoke job: the same
flood plus seeded mid-run cancels of queued jobs, preemptions of active
jobs (later resumed from their journals), and end-state invariant
checks (conservation, no starvation, monitor detach).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.archive import ArchiveParams, ParallelArchiveSystem
from repro.pftool import PftoolConfig
from repro.scheduler.admission import AdmissionPolicy
from repro.scheduler.queues import PREEMPTED, QUEUED, TERMINAL_STATES
from repro.scheduler.service import ArchiveService, SchedulerConfig
from repro.sim import Environment, RandomStreams
from repro.tapesim import TapeSpec
from repro.workloads.generators import preload_tree

__all__ = ["S1Params", "run_s1", "run_soak"]

MB = 1_000_000
GB = 1_000_000_000

#: fast tape spec shared by the scheduler scenarios (mount/seek times
#: scaled down so thousand-job runs stay cheap to simulate)
FAST_SPEC = TapeSpec(
    native_rate=120e6, load_time=5.0, unload_time=5.0, rewind_full=20.0,
    seek_base=0.5, locate_rate=10e9, label_verify=2.0, backhitch=1.0,
    capacity=800 * GB,
)


@dataclass
class S1Params:
    """Sizing of an S1-style multi-tenant flood."""

    seed: int = 1001
    n_tenants: int = 12
    n_jobs: int = 1400
    #: mean inter-arrival time of submissions, seconds (Poisson); the
    #: default is a burst — arrivals far outpace the admission ceiling,
    #: so >1000 jobs pile up in the tenant queues mid-run
    mean_arrival: float = 0.002
    files_per_job: int = 2
    #: mean file size, bytes (lognormal, sigma below)
    mean_file_bytes: float = 16 * MB
    sigma: float = 0.5
    policy: AdmissionPolicy = field(
        default_factory=lambda: AdmissionPolicy(
            slots_per_node=12, max_active_jobs=16
        )
    )
    #: per-job PFTool sizing (6 ranks: manager, output, watchdog, 1
    #: readdir, 2 workers)
    cfg: PftoolConfig = field(
        default_factory=lambda: PftoolConfig(
            num_workers=2, num_readdir=1, num_tapeprocs=0,
            stat_batch=8, copy_batch=4,
        )
    )
    #: dispatches ignored by the deviation headline while the stride
    #: scheduler's first round-robin sweep levels the tenants out
    warmup_dispatches: int = 48


def build_site(env: Environment) -> ParallelArchiveSystem:
    """The small fast site every scheduler scenario runs against."""
    return ParallelArchiveSystem(env, ArchiveParams(
        n_fta=4, n_disk_servers=2, n_tape_drives=4, n_scratch_tapes=16,
        tape_spec=FAST_SPEC, metadata_op_time=0.0002,
    ))


def _tenant_plan(params: S1Params) -> list[tuple[str, float, int]]:
    """(name, weight, n_jobs) per tenant: weights cycle 1..4 and each
    tenant's job count is proportional to its weight, so every tenant
    stays backlogged for (almost) the whole run and the cumulative
    fair-share deviation is a meaningful number."""
    weights = [1.0 + (i % 4) for i in range(params.n_tenants)]
    total_w = sum(weights)
    plan = []
    assigned = 0
    for i, w in enumerate(weights):
        if i == params.n_tenants - 1:
            n = params.n_jobs - assigned
        else:
            n = max(1, round(params.n_jobs * w / total_w))
        assigned += n
        plan.append((f"tenant{i:02d}", w, n))
    return plan


def _submission_schedule(params: S1Params) -> list[tuple[float, str, int]]:
    """Deterministic (time, tenant, job_index) submission list."""
    rng = RandomStreams(params.seed).stream("s1-arrivals")
    order: list[str] = []
    for name, _w, n in _tenant_plan(params):
        order.extend([name] * n)
    # deterministic shuffle so tenants interleave instead of arriving
    # in blocks (numpy permutation on the seeded stream)
    perm = rng.permutation(len(order))
    t = 0.0
    schedule = []
    for k, idx in enumerate(perm):
        t += float(rng.exponential(params.mean_arrival))
        schedule.append((t, order[int(idx)], k))
    return schedule


def _setup(env: Environment, params: S1Params):
    """Site + service + materialised trees + per-job sizes."""
    system = build_site(env)
    service = ArchiveService(system, SchedulerConfig(
        policy=params.policy, default_cfg=params.cfg,
    ))
    for name, weight, _n in _tenant_plan(params):
        service.add_tenant(name, weight=weight)
    size_rng = RandomStreams(params.seed).stream("s1-sizes")
    schedule = _submission_schedule(params)
    total_bytes = 0
    for _t, tenant, k in schedule:
        sizes = [
            max(1 * MB, int(size_rng.lognormal(
                mean=_ln_mu(params.mean_file_bytes, params.sigma),
                sigma=params.sigma,
            )))
            for _ in range(params.files_per_job)
        ]
        total_bytes += preload_tree(
            system.scratch_fs, f"/jobs/{tenant}/j{k:05d}", sizes
        )
    return system, service, schedule, total_bytes


def _ln_mu(mean: float, sigma: float) -> float:
    """lognormal mu for a target mean."""
    import math

    return math.log(mean) - sigma * sigma / 2.0


def run_s1(params: S1Params | None = None) -> dict:
    """Run benchmark S1; returns the deterministic result dict."""
    params = params or S1Params()
    env = Environment()
    system, service, schedule, total_bytes = _setup(env, params)

    def feeder():
        t_prev = 0.0
        for t, tenant, k in schedule:
            yield env.timeout(t - t_prev)
            t_prev = t
            service.submit(tenant, "archive", f"/jobs/{tenant}/j{k:05d}",
                           f"/arc/{tenant}/j{k:05d}")

    env.process(feeder(), name="s1-feeder")
    env.run(service.drain())
    env.run()  # let trailing settle timers drain
    summary = service.summary()
    dev_tail = service.deviation_samples[params.warmup_dispatches:]
    bytes_copied = sum(
        t.stats.bytes_copied for t in service._tickets.values()
        if t.stats is not None
    )
    return {
        "env": env,
        "service": service,
        "system": system,
        "headline": {
            "tenants": summary["tenants"],
            "submitted": summary["submitted"],
            "completed": summary["completed"],
            "peak_in_flight": summary["peak_in_flight"],
            "bytes_preloaded": total_bytes,
            "bytes_copied": bytes_copied,
            "max_deviation": round(max(dev_tail, default=0.0), 9),
            "end_time": round(env.now, 9),
        },
    }


def run_soak(seed: int = 0, n_tenants: int = 10, n_jobs: int = 300,
             cancel_frac: float = 0.06, preempt_frac: float = 0.04,
             params: S1Params | None = None) -> dict:
    """The long-running-service soak: flood + cancels + preempt/resume.

    Returns ``{"summary": ..., "violations": [...]}`` where a non-empty
    violations list means a service invariant broke (the CLI exits 1).
    """
    if params is None:
        params = S1Params(seed=seed, n_tenants=n_tenants, n_jobs=n_jobs,
                          mean_arrival=0.1)
    env = Environment()
    system, service, schedule, _total = _setup(env, params)
    chaos_rng = RandomStreams(params.seed).stream("soak-chaos")
    horizon = schedule[-1][0]
    resumed_ids: set[int] = set()
    # a settled ticket drops its job, so capture each job's communicator
    # at dispatch for the monitor-detach check below
    comms: dict[int, object] = {}
    dispatch = service._dispatch

    def recording_dispatch(ticket):
        dispatch(ticket)
        comms[ticket.job_id] = ticket.job.comm

    service._dispatch = recording_dispatch

    def feeder():
        t_prev = 0.0
        for t, tenant, k in schedule:
            yield env.timeout(t - t_prev)
            t_prev = t
            service.submit(tenant, "archive", f"/jobs/{tenant}/j{k:05d}",
                           f"/arc/{tenant}/j{k:05d}",
                           priority=int(chaos_rng.integers(0, 3)))

    def chaos():
        n_cancels = int(params.n_jobs * cancel_frac)
        n_preempts = int(params.n_jobs * preempt_frac)
        for i in range(n_cancels + n_preempts):
            yield env.timeout(float(chaos_rng.exponential(
                horizon / max(1, n_cancels + n_preempts)
            )))
            if i < n_cancels:
                # queued jobs tombstone out of their heap; active ones
                # abort through the Manager's Exit protocol — exercise
                # both paths (fall back to active when nothing queues)
                victims = sorted(
                    t.job_id for t in service._tickets.values()
                    if t.state == QUEUED
                ) or sorted(
                    jid for jid, t in service._active.items()
                    if not (t.cancel_requested or t.preempt_requested)
                )
                if victims:
                    pick = victims[int(chaos_rng.integers(0, len(victims)))]
                    service.cancel(pick, "soak cancel")
            else:
                active = sorted(service._active)
                if active:
                    pick = active[int(chaos_rng.integers(0, len(active)))]
                    service.preempt(pick, "soak preempt")

    def resumer():
        # resume every preemption once it settles, after a beat
        while True:
            yield env.timeout(1.0)
            parked = sorted(
                t.job_id for t in service._tickets.values()
                if t.state == PREEMPTED and t.job_id not in resumed_ids
            )
            for job_id in parked:
                resumed_ids.add(job_id)
                service.resume(job_id)
            if service.in_flight == 0 and feeder_done[0]:
                return

    feeder_done = [False]

    def feed_wrapper():
        yield from feeder()
        feeder_done[0] = True

    env.process(feed_wrapper(), name="soak-feeder")
    env.process(chaos(), name="soak-chaos")
    env.process(resumer(), name="soak-resumer")
    env.run()

    summary = service.summary()
    violations: list[str] = []
    terminal = summary["completed"] + summary["cancelled"] + summary["preempted"]
    if summary["submitted"] != terminal:
        violations.append(
            f"conservation: submitted {summary['submitted']} != "
            f"completed+cancelled+preempted {terminal}"
        )
    if summary["queued"] or summary["active"]:
        violations.append(
            f"not drained: queued={summary['queued']} "
            f"active={summary['active']}"
        )
    never_dispatched = [
        t.job_id for t in service._tickets.values()
        if t.state not in TERMINAL_STATES
    ]
    if never_dispatched:
        violations.append(f"non-terminal tickets: {never_dispatched}")
    # every preempted ticket must have been resumed by a follow-up
    # submission (no starved resumes)
    unresumed = [
        t.job_id for t in service._tickets.values()
        if t.state == PREEMPTED and t.job_id not in resumed_ids
    ]
    if unresumed:
        violations.append(f"preempted but never resumed: {unresumed}")
    leaked = [
        job_id for job_id, comm in comms.items()
        if getattr(comm, "monitor", None) is not None
    ]
    if leaked:
        violations.append(f"monitor still attached after done: {leaked}")
    if service.system.loadmanager.total_load != 0:
        violations.append(
            f"load not released: {service.system.loadmanager!r}"
        )
    return {"env": env, "service": service, "summary": summary,
            "violations": violations}
