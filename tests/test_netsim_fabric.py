"""Integration tests for the flow-based fabric simulation."""

import pytest

from repro.netsim import Fabric, build_archive_site
from repro.netsim.topology import MB, TEN_GIGE
from repro.sim import Environment


def _simple_fabric(env, cap=100.0):
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=cap)
    return fab


def test_single_transfer_duration():
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    done = fab.transfer("a", "b", 1000.0)
    res = env.run(done)
    assert res.duration == pytest.approx(10.0)
    assert res.rate == pytest.approx(100.0)


def test_two_transfers_share_then_speed_up():
    """Second flow finishes after the first; first finishing frees capacity."""
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    r1 = {}
    r2 = {}

    def go():
        d1 = fab.transfer("a", "b", 1000.0)
        d2 = fab.transfer("a", "b", 2000.0)
        r1["res"] = yield d1
        r2["res"] = yield d2

    env.process(go())
    env.run()
    # both at 50 B/s until t=20 when flow1 (1000B) finishes;
    # flow2 then has 1000B left at 100 B/s -> finishes at t=30.
    assert r1["res"].end == pytest.approx(20.0)
    assert r2["res"].end == pytest.approx(30.0)


def test_staggered_arrival_slows_existing_flow():
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    ends = {}

    def first():
        res = yield fab.transfer("a", "b", 1000.0)
        ends["first"] = res.end

    def second():
        yield env.timeout(5.0)
        res = yield fab.transfer("a", "b", 1000.0)
        ends["second"] = res.end

    env.process(first())
    env.process(second())
    env.run()
    # first: 500B alone by t=5, then shares 50/50: 500B at 50B/s -> t=15
    assert ends["first"] == pytest.approx(15.0)
    # second: 500B done at t=15, remaining 500B at 100 B/s -> t=20
    assert ends["second"] == pytest.approx(20.0)


def test_multihop_route_bottleneck():
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "m", capacity=100.0)
    fab.add_link("m", "b", capacity=10.0)
    res = env.run(fab.transfer("a", "b", 100.0))
    assert res.duration == pytest.approx(10.0)


def test_rate_cap_applies():
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    res = env.run(fab.transfer("a", "b", 100.0, rate_cap=20.0))
    assert res.duration == pytest.approx(5.0)


def test_zero_byte_transfer_completes():
    env = Environment()
    fab = _simple_fabric(env)
    res = env.run(fab.transfer("a", "b", 0))
    assert res.nbytes == 0
    assert res.duration == pytest.approx(0.0)


def test_latency_added_once():
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=100.0, latency=2.0)
    res = env.run(fab.transfer("a", "b", 100.0))
    assert res.end == pytest.approx(3.0)  # 2s latency + 1s at 100B/s


def test_no_route_raises():
    env = Environment()
    fab = Fabric(env)
    fab.add_node("a")
    fab.add_node("z")
    with pytest.raises(ValueError, match="no route"):
        fab.transfer("a", "z", 10)


def test_duplex_reverse_independent():
    """Duplex links carry opposing flows without sharing."""
    env = Environment()
    fab = Fabric(env)
    fab.add_link("a", "b", capacity=100.0, duplex=True)
    ends = {}

    def go(tag, src, dst):
        res = yield fab.transfer(src, dst, 1000.0)
        ends[tag] = res.end

    env.process(go("fwd", "a", "b"))
    env.process(go("rev", "b", "a"))
    env.run()
    assert ends["fwd"] == pytest.approx(10.0)
    assert ends["rev"] == pytest.approx(10.0)


def test_link_capacity_is_read_only():
    """Writing ``Link.capacity`` would bypass the allocator; only
    ``set_link_capacity`` may change it, and the allocation follows."""
    env = Environment()
    fab = Fabric(env)
    fwd, _ = fab.add_link("a", "b", capacity=100.0)
    with pytest.raises(AttributeError):
        fwd.capacity = 50.0
    fab.set_link_capacity(fwd.name, 50.0)
    assert fwd.capacity == 50.0

    def go():
        res = yield fab.transfer("a", "b", 1000.0)
        return res.duration

    assert env.run(env.process(go())) == pytest.approx(20.0)


def test_explicit_route_pinning():
    env = Environment()
    fab = Fabric(env)
    f1, _ = fab.add_link("a", "m1", capacity=100.0)
    f2, _ = fab.add_link("m1", "b", capacity=100.0)
    fab.add_link("a", "b", capacity=1.0)  # direct but slow
    fab.set_route("a", "b", [f1, f2])
    res = env.run(fab.transfer("a", "b", 100.0))
    assert res.duration == pytest.approx(1.0)


def test_bad_explicit_route_rejected():
    env = Environment()
    fab = Fabric(env)
    l1, _ = fab.add_link("a", "b", capacity=1.0)
    l2, _ = fab.add_link("c", "d", capacity=1.0)
    with pytest.raises(ValueError):
        fab.set_route("a", "d", [l1, l2])


def test_bytes_delivered_accounting():
    env = Environment()
    fab = _simple_fabric(env)

    def go():
        yield fab.transfer("a", "b", 500.0)
        yield fab.transfer("a", "b", 700.0)

    env.process(go())
    env.run()
    assert fab.bytes_delivered == pytest.approx(1200.0)


def test_many_concurrent_flows_conserve_capacity():
    """Aggregate throughput through one link never exceeds its capacity."""
    env = Environment()
    fab = _simple_fabric(env, cap=100.0)
    results = []

    def go(n):
        res = yield fab.transfer("a", "b", 100.0 * n)
        results.append(res)

    for n in range(1, 11):
        env.process(go(n))
    env.run()
    total_bytes = sum(r.nbytes for r in results)
    makespan = max(r.end for r in results)
    assert total_bytes / makespan <= 100.0 * (1 + 1e-9)
    # Work conservation: the link is saturated the whole time.
    assert total_bytes / makespan == pytest.approx(100.0, rel=1e-6)


# ---------------------------------------------------------------------------
# archive-site topology
# ---------------------------------------------------------------------------

def test_build_archive_site_shape():
    env = Environment()
    topo = build_archive_site(env)
    assert topo.n_fta == 10
    assert len(topo.disk_servers) == 5
    assert topo.n_tape_drives == 24
    # Routes exist for the main data paths.
    fab = topo.fabric
    assert fab.route("scratch", "fta0")
    assert fab.route("fta0", "tapedrv0")
    assert fab.route("fta3", "ds2")


def test_archive_site_trunk_is_waist():
    """All FTAs pulling from scratch together are limited by the trunk."""
    env = Environment()
    topo = build_archive_site(env)
    fab = topo.fabric
    per_fta = 10 * 1000 * MB  # 10 GB each

    results = []

    def pull(node):
        res = yield fab.transfer("scratch", node, per_fta)
        results.append(res)

    for node in topo.fta_nodes:
        env.process(pull(node))
    env.run()
    makespan = max(r.end for r in results)
    agg = 10 * per_fta / makespan
    assert agg <= 2 * TEN_GIGE * (1 + 1e-9)
    assert agg == pytest.approx(2 * TEN_GIGE, rel=1e-3)


def test_archive_site_single_fta_limited_by_nic():
    env = Environment()
    topo = build_archive_site(env)
    res = env.run(topo.fabric.transfer("scratch", "fta0", 1250 * MB))
    assert res.rate == pytest.approx(TEN_GIGE, rel=1e-3)


def test_archive_site_invalid_counts():
    env = Environment()
    with pytest.raises(ValueError):
        build_archive_site(env, n_fta=0)


# ---------------------------------------------------------------------------
# scalar -> vectorised engine promotion
# ---------------------------------------------------------------------------

def _churn_workload(promote_at, vec_min_entries=None):
    """Staggered multi-wave unit-weight transfers whose live-flow
    population crosses *promote_at*; returns (sorted results,
    bytes_delivered, solves, vec).  *vec_min_entries* overrides the
    class-route-entry threshold at which a promoted fabric's closures
    leave the class solve for the numpy one."""
    from repro.netsim import fabric as fabric_mod
    from repro.netsim import maxmin as maxmin_mod

    old = fabric_mod._VEC_PROMOTE
    old_entries = maxmin_mod._VEC_MIN_CLASS_ENTRIES
    fabric_mod._VEC_PROMOTE = promote_at
    if vec_min_entries is not None:
        maxmin_mod._VEC_MIN_CLASS_ENTRIES = vec_min_entries
    try:
        env = Environment()
        fab = Fabric(env)
        fab.add_link("a", "m", capacity=100.0)
        fab.add_link("m", "b", capacity=70.0)
        fab.add_link("a", "b", capacity=40.0)
        results = []

        def go(i):
            yield env.timeout(0.01 * i)
            src, dst = ("a", "b") if i % 3 else ("a", "m")
            res = yield fab.transfer(src, dst, 50.0 + 7.0 * (i % 5))
            results.append((res.start, res.end, res.nbytes))

        for i in range(40):
            env.process(go(i))
        env.run()
        results.sort()
        return results, fab.bytes_delivered, fab.rate_recomputes, fab._vec
    finally:
        fabric_mod._VEC_PROMOTE = old
        maxmin_mod._VEC_MIN_CLASS_ENTRIES = old_entries


def test_promotion_mid_run_is_bit_identical_to_scalar():
    """Crossing the promotion threshold mid-run must not change a single
    result bit: the vectorised engine is value-preserving at adoption and
    bit-identical in steady state."""
    scalar = _churn_workload(promote_at=10**9)
    promoted = _churn_workload(promote_at=12)
    assert not scalar[3]       # never promoted
    assert promoted[3]         # crossed the threshold mid-run
    assert promoted[:3] == scalar[:3]


def test_promotion_at_start_matches_scalar():
    """Forcing the vector engine from flow #1 (threshold 1) also matches."""
    scalar = _churn_workload(promote_at=10**9)
    vec = _churn_workload(promote_at=1)
    assert vec[3]
    assert vec[:3] == scalar[:3]


def test_class_and_numpy_solves_give_identical_churn(monkeypatch):
    """One unit-weight churn history through a promoted fabric, once with
    every closure on the class solve and once with every closure on the
    numpy solve: not a single result bit may differ."""
    from repro.netsim import maxmin as maxmin_mod

    calls = []
    solve_vec = maxmin_mod.MaxMinAllocator._solve_vec

    def counting(self, classes, links):
        calls.append(len(classes))
        return solve_vec(self, classes, links)

    monkeypatch.setattr(maxmin_mod.MaxMinAllocator, "_solve_vec", counting)
    by_class = _churn_workload(promote_at=1, vec_min_entries=10**9)
    assert not calls
    by_numpy = _churn_workload(promote_at=1, vec_min_entries=0)
    assert calls                 # the numpy solve really ran
    assert by_class[3] and by_numpy[3]
    assert by_numpy[:3] == by_class[:3]


def test_only_explicit_vec_false_pins_the_scalar_engine():
    """A default allocator may promote itself to the numpy engine; only
    an explicit ``vec=False`` pins it to the scalar engine regardless of
    population."""
    from repro.netsim import maxmin as maxmin_mod

    assert maxmin_mod.MaxMinAllocator().vec_auto is True
    assert maxmin_mod.MaxMinAllocator(vec=False).vec_auto is False
