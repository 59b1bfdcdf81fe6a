"""Unit + property tests for the max-min fair allocator."""

import math
from typing import Hashable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import MaxMinAllocator, max_min_fair_rates
from repro.netsim import maxmin as maxmin_mod


def test_single_flow_gets_link_capacity():
    rates = max_min_fair_rates({"f": ["l"]}, {"l": 100.0})
    assert rates["f"] == pytest.approx(100.0)


def test_two_flows_share_equally():
    rates = max_min_fair_rates({"a": ["l"], "b": ["l"]}, {"l": 100.0})
    assert rates["a"] == pytest.approx(50.0)
    assert rates["b"] == pytest.approx(50.0)


def test_classic_three_flow_parking_lot():
    """Flow across both links gets 1/2 of the first bottleneck; locals mop up."""
    rates = max_min_fair_rates(
        {"long": ["l1", "l2"], "a": ["l1"], "b": ["l2"]},
        {"l1": 10.0, "l2": 10.0},
    )
    assert rates["long"] == pytest.approx(5.0)
    assert rates["a"] == pytest.approx(5.0)
    assert rates["b"] == pytest.approx(5.0)


def test_unequal_bottlenecks_give_leftover_to_unconstrained():
    rates = max_min_fair_rates(
        {"long": ["small", "big"], "local": ["big"]},
        {"small": 4.0, "big": 20.0},
    )
    assert rates["long"] == pytest.approx(4.0)
    assert rates["local"] == pytest.approx(16.0)


def test_rate_cap_constrains_flow():
    rates = max_min_fair_rates(
        {"a": ["l"], "b": ["l"]},
        {"l": 300.0},
        rate_cap={"a": 50.0},
    )
    assert rates["a"] == pytest.approx(50.0)
    assert rates["b"] == pytest.approx(250.0)


def test_weights_split_proportionally():
    rates = max_min_fair_rates(
        {"heavy": ["l"], "light": ["l"]},
        {"l": 90.0},
        flow_weight={"heavy": 2.0, "light": 1.0},
    )
    assert rates["heavy"] == pytest.approx(60.0)
    assert rates["light"] == pytest.approx(30.0)


def test_flow_with_no_links_and_no_cap_is_unbounded():
    rates = max_min_fair_rates({"free": []}, {})
    assert rates["free"] == float("inf")


def test_flow_with_only_rate_cap():
    rates = max_min_fair_rates({"f": []}, {}, rate_cap={"f": 42.0})
    assert rates["f"] == pytest.approx(42.0)


def test_unknown_link_raises():
    with pytest.raises(KeyError):
        max_min_fair_rates({"f": ["ghost"]}, {})


def test_empty_input():
    assert max_min_fair_rates({}, {}) == {}


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def _scenarios(draw):
    n_links = draw(st.integers(1, 6))
    links = {f"l{i}": draw(st.floats(1.0, 1e4)) for i in range(n_links)}
    n_flows = draw(st.integers(1, 10))
    flows = {}
    for j in range(n_flows):
        k = draw(st.integers(1, n_links))
        chosen = draw(
            st.lists(
                st.sampled_from(sorted(links)), min_size=k, max_size=k, unique=True
            )
        )
        flows[f"f{j}"] = chosen
    return flows, links


@given(_scenarios())
@settings(max_examples=200, deadline=None)
def test_no_link_oversubscribed(scenario):
    flows, links = scenario
    rates = max_min_fair_rates(flows, links)
    usage = {lk: 0.0 for lk in links}
    for fid, route in flows.items():
        for lk in route:
            usage[lk] += rates[fid]
    for lk, used in usage.items():
        assert used <= links[lk] * (1 + 1e-6), f"{lk} oversubscribed: {used} > {links[lk]}"


@given(_scenarios())
@settings(max_examples=200, deadline=None)
def test_every_flow_is_bottlenecked(scenario):
    """Max-min property: each flow crosses at least one saturated link."""
    flows, links = scenario
    rates = max_min_fair_rates(flows, links)
    usage = {lk: 0.0 for lk in links}
    for fid, route in flows.items():
        for lk in route:
            usage[lk] += rates[fid]
    for fid, route in flows.items():
        assert any(
            usage[lk] >= links[lk] * (1 - 1e-6) for lk in route
        ), f"flow {fid} is not bottlenecked anywhere"


@given(_scenarios())
@settings(max_examples=200, deadline=None)
def test_rates_positive_and_finite(scenario):
    flows, links = scenario
    rates = max_min_fair_rates(flows, links)
    for fid in flows:
        assert rates[fid] > 0
        assert math.isfinite(rates[fid])


@given(_scenarios(), st.floats(0.1, 10.0))
@settings(max_examples=100, deadline=None)
def test_allocation_scales_with_capacity(scenario, factor):
    """Scaling all capacities by k scales all rates by k (homogeneity)."""
    flows, links = scenario
    base = max_min_fair_rates(flows, links)
    scaled = max_min_fair_rates(flows, {k: v * factor for k, v in links.items()})
    for fid in flows:
        assert scaled[fid] == pytest.approx(base[fid] * factor, rel=1e-6)


# ---------------------------------------------------------------------------
# incremental allocator == batch oracle
# ---------------------------------------------------------------------------

def _oracle(alloc: MaxMinAllocator) -> dict:
    """Batch-solve the allocator's current state with the reference solver."""
    flows, caps, weights, rate_caps = {}, {}, {}, {}
    for lk, cap in alloc._caps.items():
        if isinstance(lk, tuple) and lk[0] == "__cap__":
            rate_caps[lk[1]] = cap
        else:
            caps[lk] = cap
    for fid, cid in alloc._fcls.items():
        flows[fid] = [
            lk for lk in alloc._croute[cid]
            if not (isinstance(lk, tuple) and lk[0] == "__cap__")
        ]
        weights[fid] = alloc._cw[cid]
    return max_min_fair_rates(flows, caps, rate_cap=rate_caps, flow_weight=weights)


def _assert_matches_oracle(alloc: MaxMinAllocator) -> None:
    alloc.flush()
    want = _oracle(alloc)
    assert set(alloc.rates) == set(want)
    for fid, rate in want.items():
        got = alloc.rates[fid]
        if rate == float("inf"):
            assert got == rate, f"flow {fid}: {got} != inf"
        else:
            assert got == pytest.approx(rate, rel=1e-9), f"flow {fid}"


def test_incremental_matches_batch_parking_lot():
    alloc = MaxMinAllocator()
    alloc.set_capacity("l1", 10.0)
    alloc.set_capacity("l2", 10.0)
    alloc.add_flow(1, ["l1", "l2"])
    alloc.add_flow(2, ["l1"])
    alloc.add_flow(3, ["l2"])
    _assert_matches_oracle(alloc)
    assert alloc.rates[1] == pytest.approx(5.0)


def test_incremental_tracks_capacity_change():
    alloc = MaxMinAllocator()
    alloc.set_capacity("trunk", 100.0)
    alloc.add_flow(1, ["trunk"])
    alloc.add_flow(2, ["trunk"])
    alloc.flush()
    assert alloc.rates[1] == pytest.approx(50.0)
    alloc.set_capacity("trunk", 40.0)  # degrade mid-run
    _assert_matches_oracle(alloc)
    assert alloc.rates[2] == pytest.approx(20.0)


def test_short_circuit_lone_flow_needs_no_solve():
    alloc = MaxMinAllocator()
    alloc.set_capacity("a", 7.0)
    rate = alloc.add_flow(1, ["a"])
    assert rate == pytest.approx(7.0)  # settled immediately, no dirty links
    before = alloc.solves
    alloc.flush()
    assert alloc.solves == before  # nothing to do


@st.composite
def _op_sequences(draw):
    """A link set plus an interleaved add/remove/recap operation script."""
    n_links = draw(st.integers(1, 5))
    links = {f"l{i}": draw(st.floats(1.0, 1e4)) for i in range(n_links)}
    n_ops = draw(st.integers(1, 14))
    ops = []
    next_fid = 0
    live = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["add", "add", "add", "remove", "recap"]))
        if kind == "add":
            k = draw(st.integers(0, n_links))
            route = draw(
                st.lists(
                    st.sampled_from(sorted(links)), min_size=k, max_size=k, unique=True
                )
            )
            weight = draw(st.floats(0.1, 8.0))
            cap = draw(st.one_of(st.just(float("inf")), st.floats(0.5, 5e3)))
            ops.append(("add", next_fid, route, weight, cap))
            live.append(next_fid)
            next_fid += 1
        elif kind == "remove" and live:
            fid = draw(st.sampled_from(live))
            live.remove(fid)
            ops.append(("remove", fid))
        elif kind == "recap":
            lk = draw(st.sampled_from(sorted(links)))
            ops.append(("recap", lk, draw(st.floats(1.0, 1e4))))
    return links, ops


@given(_op_sequences(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_incremental_equals_batch_over_random_histories(script, flush_every_op):
    """The dirty-component solver must agree with the full batch solve after
    any interleaving of flow arrivals/departures and capacity changes —
    whether rates are settled after every event or lazily at the end."""
    links, ops = script
    alloc = MaxMinAllocator()
    for lk, cap in links.items():
        alloc.set_capacity(lk, cap)
    for op in ops:
        if op[0] == "add":
            _, fid, route, weight, cap = op
            alloc.add_flow(fid, route, weight=weight, rate_cap=cap)
        elif op[0] == "remove":
            alloc.remove_flow(op[1])
        else:
            alloc.set_capacity(op[1], op[2])
        if flush_every_op:
            _assert_matches_oracle(alloc)
    _assert_matches_oracle(alloc)


# ---------------------------------------------------------------------------
# class solve == per-flow reference, to the bit
# ---------------------------------------------------------------------------

_INF = float("inf")


class _PerFlowAllocator:
    """Incremental max-min water-filler that solves flow by flow.

    The exact reference for :class:`MaxMinAllocator`'s class solve: the
    same dirty-link bookkeeping and closure, and a water-filler that
    visits every flow, folding per-link totals in ascending fid order.
    Driven through the same history and flushed at the same points, the
    two must agree with ``==``, not ``approx``.
    """

    def __init__(self):
        self.caps: dict = {}
        self.flow_links: dict = {}
        self.weights: dict = {}
        self.link_flows: dict = {}
        self.rates: dict = {}
        self.dirty: set = set()

    def set_capacity(self, link, capacity):
        capacity = float(capacity)
        if self.caps.get(link) == capacity:
            return
        self.caps[link] = capacity
        if self.link_flows.get(link):
            self.dirty.add(link)

    def add_flow(self, fid, links, weight=1.0, rate_cap=_INF):
        route = list(links)
        if rate_cap != _INF:
            self.caps[("__cap__", fid)] = float(rate_cap)
            route.append(("__cap__", fid))
        self.flow_links[fid] = tuple(route)
        self.weights[fid] = float(weight)
        if not route:
            self.rates[fid] = _INF
            return
        shared = False
        for lk in route:
            peers = self.link_flows.setdefault(lk, set())
            shared = shared or bool(peers)
            peers.add(fid)
        if shared:
            self.rates[fid] = 0.0
            self.dirty.update(route)
        else:
            self.rates[fid] = min(self.caps[lk] for lk in route)

    def remove_flow(self, fid):
        route = self.flow_links.pop(fid)
        del self.weights[fid]
        del self.rates[fid]
        for lk in route:
            peers = self.link_flows[lk]
            peers.discard(fid)
            if peers:
                self.dirty.add(lk)
            else:
                del self.link_flows[lk]
        if route and route[-1] == ("__cap__", fid):
            del self.caps[route[-1]]
        self.dirty.discard(("__cap__", fid))

    def flush(self):
        seen_links = {lk for lk in self.dirty if lk in self.link_flows}
        self.dirty.clear()
        seen_flows: set = set()
        stack = list(seen_links)
        while stack:
            for fid in self.link_flows[stack.pop()]:
                if fid not in seen_flows:
                    seen_flows.add(fid)
                    for nlk in self.flow_links[fid]:
                        if nlk not in seen_links:
                            seen_links.add(nlk)
                            stack.append(nlk)
        if seen_flows:
            self.rates.update(
                self._solve(sorted(seen_flows), sorted(seen_links, key=repr))
            )

    def _solve(
        self, flows: Sequence[Hashable], links: Sequence[Hashable]
    ) -> dict:
        caps = self.caps
        weights = self.weights
        flow_links = self.flow_links
        link_flows = self.link_flows
        remaining = {lk: caps[lk] for lk in links}
        tot_w = {}
        n_on = {}
        for lk in links:
            users = link_flows[lk]
            t = 0.0
            for fid in sorted(users):
                t += weights[fid]
            tot_w[lk] = t
            n_on[lk] = len(users)
        rates = {}
        active = set(flows)
        while active:
            share = _INF
            for lk, t in tot_w.items():
                if n_on[lk] > 0 and t > 0.0:
                    s = remaining[lk] / t
                    if s < share:
                        share = s
            if share == _INF:
                for fid in active:
                    rates[fid] = _INF
                break
            cutoff = share * (1 + 1e-12)
            saturated = [
                lk for lk, t in tot_w.items()
                if n_on[lk] > 0 and t > 0.0 and remaining[lk] / t <= cutoff
            ]
            frozen = {fid for lk in saturated for fid in link_flows[lk] if fid in active}
            if not frozen:
                frozen = set(active)
            for fid in sorted(frozen):
                w = weights[fid]
                r = share * w
                rates[fid] = r
                for lk in flow_links[fid]:
                    rem = remaining[lk] - r
                    remaining[lk] = rem if rem > 0.0 else 0.0
                    tot_w[lk] -= w
                    n_on[lk] -= 1
            active -= frozen
        return rates


#: a few fixed routes, so many flows share one (route, weight) class
_ROUTES = (
    ("trunk",),
    ("nic0", "trunk"),
    ("nic0", "trunk"),
    ("nic1", "trunk", "disk"),
    ("nic1", "disk"),
    ("disk",),
    (),
)


@st.composite
def _class_histories(draw, weight_sets=((1.0,), (0.5, 1.0, 1.0, 2.0), (0.3, 1.0, 1.7))):
    """Add/remove/recap/flush scripts whose flows fall into few classes."""
    links = {
        lk: draw(st.floats(1.0, 1e3)) for lk in ("trunk", "nic0", "nic1", "disk")
    }
    # all-unit histories exercise the exact-integer link totals; sums of
    # 0.3 and 1.7 round, so fold order shows in their bits
    weights = draw(st.sampled_from(weight_sets))
    n_ops = draw(st.integers(1, 40))
    # flows may register out of fid order, as fabric flows with unequal
    # route latencies do
    fids = draw(st.one_of(st.just(list(range(n_ops))), st.permutations(range(n_ops))))
    ops = []
    live = []
    for fid in fids:
        kind = draw(st.sampled_from(["add"] * 4 + ["remove", "recap", "flush"]))
        if kind == "add":
            route = draw(st.sampled_from(_ROUTES))
            weight = draw(st.sampled_from(weights))
            cap = draw(st.one_of(st.just(_INF), st.just(_INF), st.floats(1.0, 50.0)))
            ops.append(("add", fid, route, weight, cap))
            live.append(fid)
        elif kind == "remove" and live:
            ops.append(("remove", live.pop(draw(st.integers(0, len(live) - 1)))))
        elif kind == "recap":
            ops.append(("recap", draw(st.sampled_from(sorted(links))),
                        draw(st.floats(1.0, 1e3))))
        else:
            ops.append(("flush",))
    ops.append(("flush",))
    return links, ops


def _replay_both(links, ops, vec):
    alloc = MaxMinAllocator(vec=vec)
    ref = _PerFlowAllocator()
    for sut in (alloc, ref):
        for lk, cap in links.items():
            sut.set_capacity(lk, cap)
    for op in ops:
        for sut in (alloc, ref):
            if op[0] == "add":
                _, fid, route, weight, cap = op
                sut.add_flow(fid, route, weight=weight, rate_cap=cap)
            elif op[0] == "remove":
                sut.remove_flow(op[1])
            elif op[0] == "recap":
                sut.set_capacity(op[1], op[2])
            else:
                sut.flush()
        if op[0] == "flush":
            assert alloc.rates == ref.rates
    return alloc


@given(_class_histories(), st.booleans(), st.sampled_from([0, 10**9]))
@settings(max_examples=300, deadline=None)
def test_class_solve_equals_per_flow_reference_exactly(script, vec, min_entries):
    """Route classes change no rate bit: after every flush the class
    allocator's rates ``==`` the per-flow reference's, through the class
    water-filler (huge threshold) and the numpy one (threshold 0)."""
    links, ops = script
    old = maxmin_mod._VEC_MIN_CLASS_ENTRIES
    maxmin_mod._VEC_MIN_CLASS_ENTRIES = min_entries
    try:
        _replay_both(links, ops, vec)
    finally:
        maxmin_mod._VEC_MIN_CLASS_ENTRIES = old


def test_class_histories_build_multi_member_classes():
    """The fixed-route history compresses: one solve covers more flows
    than classes, which is the work the class solve saves."""
    links = {"trunk": 100.0, "nic0": 40.0, "nic1": 40.0, "disk": 250.0}
    ops = [("add", f, _ROUTES[f % 6], 1.0 if f % 3 else 2.0, _INF) for f in range(24)]
    alloc = _replay_both(links, ops + [("flush",)], vec=False)
    assert alloc.solves == 1
    assert alloc.closure_flows == 24
    assert alloc.closure_classes < alloc.closure_flows


# ---------------------------------------------------------------------------
# compiled components: reuse, rebuild, and the one-class path
# ---------------------------------------------------------------------------

@given(_class_histories(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_component_reuse_equals_per_flow_reference_after_every_op(script, vec):
    """Compiled components survive flows joining and leaving their
    classes and are rebuilt when a class is created or destroyed: with
    a flush after every operation, the rates ``==`` the per-flow
    reference's throughout."""
    links, ops = script
    every = []
    for op in ops:
        every.append(op)
        if op[0] != "flush":
            every.append(("flush",))
    _replay_both(links, every, vec)


def test_component_is_reused_until_a_class_comes_or_goes():
    alloc = MaxMinAllocator()
    for lk, cap in (("trunk", 100.0), ("nic0", 30.0), ("nic1", 80.0)):
        alloc.set_capacity(lk, cap)
    alloc.add_flow(1, ["nic0", "trunk"])
    alloc.add_flow(2, ["nic1", "trunk"])
    alloc.flush()
    comp = alloc._comp_of["trunk"]
    # flows joining and leaving existing classes keep the component
    alloc.add_flow(3, ["nic1", "trunk"])
    alloc.add_flow(4, ["nic0", "trunk"])
    alloc.remove_flow(1)
    alloc.flush()
    assert alloc._comp_of["trunk"] is comp
    assert comp.cnt == [1, 2] or comp.cnt == [2, 1]
    _assert_matches_oracle(alloc)
    # a new class on a shared link drops it ...
    alloc.add_flow(5, ["trunk"])
    assert "trunk" not in alloc._comp_of
    alloc.flush()
    comp = alloc._comp_of["trunk"]
    assert len(comp.cls) == 3
    _assert_matches_oracle(alloc)
    # ... and so does a class's last flow leaving (it may split the graph)
    alloc.remove_flow(5)
    assert "trunk" not in alloc._comp_of
    _assert_matches_oracle(alloc)


@pytest.mark.parametrize("weight", [1.0, 0.1, 2.0])
@pytest.mark.parametrize("rate_cap", [_INF, 7.0])
def test_one_class_closure_matches_per_flow_reference(weight, rate_cap):
    """A closure of one route class (a disk array's processor-sharing
    server) is settled by a single division, bit-identical to the
    per-flow water-fill: ten flows of weight 0.1 fold to a weight total
    of 0.9999999999999999, not 10 * 0.1 == 1.0."""
    links = {"hba": 70.0, "disk": 30.0}
    ops = [("add", f, ("hba", "disk"), weight, _INF) for f in range(10)]
    ops += [("flush",), ("remove", 3), ("flush",)]
    if rate_cap != _INF:
        # a capped flow is a class of its own: the closure gains a class
        ops += [("add", 10, ("hba", "disk"), weight, rate_cap), ("flush",)]
    alloc = _replay_both(links, ops, vec=False)
    # one-class solves, then (capped) one of two classes
    assert alloc.closure_classes == (4 if rate_cap != _INF else 2)


@given(
    _class_histories(weight_sets=((1.0, 2.0), (2.0, 3.0, 1.0), (4.0,), (1.0, 2.0**53))),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_integral_weights_match_per_flow_reference_exactly(script, vec):
    """Links whose weights are small integers keep exact totals in any
    order and subtract in fid order only in rounds that freeze unequal
    weights; a huge integral weight (2**53 + 1 rounds) keeps the
    per-flow order throughout.  Rates ``==`` the reference's."""
    links, ops = script
    _replay_both(links, ops, vec)
