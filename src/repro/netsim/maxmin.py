"""Max-min fair rate allocation (progressive filling / water-filling).

Given a set of flows, each traversing a set of capacitated links, the
max-min fair allocation repeatedly finds the most-constrained link (the one
whose equal share per unfrozen flow is smallest), freezes every flow through
it at that share, removes the consumed capacity, and iterates.

The solver is a pure function so it can be property-tested in isolation;
the fabric calls it on every flow arrival/departure.

Two incremental backends share the same bookkeeping:

* a **vectorised** water-filler (numpy, scipy-free) that keeps link
  capacities, per-flow weights and the flow->link route incidence in
  preallocated flat arrays and solves each dirty component with
  ``bincount``/``subtract.at`` rounds;
* the original **scalar** dict walker, used until the owner promotes
  the allocator and for closures too small to repay numpy call overhead.

Both accumulate per-link weight/capacity totals in ascending-flow-id
order, so for the integer, monotonically assigned flow ids the fabric
uses the two backends are *bit-identical* — the perf goldens hold under
either one.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, Sequence

import numpy as _np

__all__ = ["MaxMinAllocator", "max_min_fair_rates"]


def max_min_fair_rates(
    flow_links: Mapping[Hashable, Sequence[Hashable]],
    link_capacity: Mapping[Hashable, float],
    flow_weight: Mapping[Hashable, float] | None = None,
    rate_cap: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, float]:
    """Compute weighted max-min fair rates.

    Parameters
    ----------
    flow_links:
        flow id -> iterable of link ids the flow traverses.  A flow with no
        links (an intra-node copy) is only bounded by its ``rate_cap``.
    link_capacity:
        link id -> capacity (bytes/s).  ``inf`` allowed.
    flow_weight:
        Optional flow id -> weight (default 1.0).  A flow with weight w gets
        w shares at each bottleneck.
    rate_cap:
        Optional flow id -> absolute rate ceiling (e.g. a tape drive's
        native streaming rate).  Modelled as a private virtual link.

    Returns
    -------
    dict mapping flow id -> allocated rate (bytes/s).

    Invariants (property-tested):
      * no link's total allocated rate exceeds its capacity (within 1e-6)
      * every flow is bottlenecked: it crosses at least one saturated link,
        or sits at its rate cap, or is unconstrained (infinite rate)
    """
    weights = dict(flow_weight or {})
    caps: dict[Hashable, float] = {k: float(v) for k, v in link_capacity.items()}

    # Translate per-flow rate caps into private virtual links.
    links_of: dict[Hashable, list[Hashable]] = {}
    for fid, links in flow_links.items():
        lst = list(links)
        if rate_cap and fid in rate_cap and rate_cap[fid] != float("inf"):
            vlink = ("__cap__", fid)
            caps[vlink] = float(rate_cap[fid])
            lst.append(vlink)
        links_of[fid] = lst

    unknown = {
        lk for lst in links_of.values() for lk in lst if lk not in caps
    }
    if unknown:
        raise KeyError(f"flows reference links with no capacity: {sorted(map(str, unknown))}")

    rates: dict[Hashable, float] = {}
    active = set(links_of)
    remaining = dict(caps)

    # flows per link (only unfrozen flows counted each round)
    while active:
        # Weighted share each link could give per unit weight.
        share_per_link: dict[Hashable, float] = {}
        link_users: dict[Hashable, float] = {}
        for fid in active:
            w = weights.get(fid, 1.0)
            for lk in links_of[fid]:
                link_users[lk] = link_users.get(lk, 0.0) + w
        for lk, tot_w in link_users.items():
            cap = remaining[lk]
            share_per_link[lk] = cap / tot_w if tot_w > 0 else float("inf")

        if not share_per_link:
            # No flow crosses any link: all remaining flows unconstrained.
            for fid in active:
                rates[fid] = float("inf")
            break

        bottleneck_share = min(share_per_link.values())
        if bottleneck_share == float("inf"):
            for fid in active:
                rates[fid] = float("inf")
            break

        saturated = {
            lk for lk, s in share_per_link.items() if s <= bottleneck_share * (1 + 1e-12)
        }
        frozen = {
            fid
            for fid in active
            if any(lk in saturated for lk in links_of[fid])
        }
        if not frozen:  # numerical corner: freeze everything at the share
            frozen = set(active)
        for fid in frozen:
            w = weights.get(fid, 1.0)
            r = bottleneck_share * w
            rates[fid] = r
            for lk in links_of[fid]:
                remaining[lk] = max(0.0, remaining[lk] - r)
        active -= frozen

    return rates


_INF = float("inf")

#: initial capacities of the preallocated incidence arrays
_SLOT_CAP0 = 64
_LINK_CAP0 = 64
_ENT_CAP0 = 256

#: closures with fewer route entries than this solve faster through the
#: scalar dict walk than through numpy call overhead (both backends are
#: bit-identical, so the switch is invisible to results)
_VEC_MIN_ENTRIES = 64


class MaxMinAllocator:
    """Incremental weighted max-min fair allocator.

    Maintains the flow/link incidence structure across events so the
    fabric does not rebuild the whole problem on every flow arrival,
    departure or capacity change.  Three mechanisms make it fast:

    * **short-circuits** — a flow whose links carry no other flow (and
      the cap-only / link-less flows) gets its rate in O(route length)
      with no global solve, and provably cannot move anyone else's
      bottleneck;
    * **dirty-link closure** — an event dirties only the touched route;
      :meth:`flush` recomputes just the flows reachable from dirty links
      through shared links (the affected connected components), leaving
      every other component's rates untouched;
    * **vectorised water-filling** — once promoted, each closure
      solve gathers the affected rows of the persistent flow/link
      incidence arrays and runs the freeze rounds as whole-array
      ``bincount`` / ``subtract.at`` operations; per-link weight totals
      are maintained across rounds by subtraction, so a solve costs
      O(route-length) array work plus O(rounds) vector ops instead of
      O(rounds x flows x route-length) dict walks.  Before promotion the
      original scalar round loop runs instead.

    Max-min fairness decomposes over connected components of the
    flow-link incidence graph (no shared link, no interaction), so the
    closure-restricted solve yields the same allocation as the batch
    :func:`max_min_fair_rates` oracle up to float-summation order; the
    property tests pin the two together across randomized topologies.

    Iteration order is made explicit (sorted links, ascending flow ids)
    wherever it affects float accumulation, preserving the kernel's
    bit-identical-replay guarantee across processes *and* across the
    scalar/vector backends.

    Slots: every flow gets an integer *slot* (append-only; freed slots
    are reclaimed by an order-preserving compaction when the dead
    outnumber the live).  ``_vrates[slot]`` is the authoritative rate
    store in vector mode — the fabric shares this numbering for its own
    per-flow arrays and registers :attr:`on_compact` to renumber in
    lockstep.
    """

    __slots__ = (
        "_caps",
        "_flow_links",
        "_weights",
        "_link_flows",
        "_rates",
        "_dirty",
        "solves",
        "vec",
        "vec_auto",
        "on_compact",
        "_fid2slot",
        "_slot2fid",
        "_li2lk",
        "_nslots",
        "_dead_slots",
        "_vw",
        "_valive",
        "_vrates",
        "_blk0",
        "_blk1",
        "_lk2li",
        "_free_li",
        "_vcap",
        "_nlinks",
        "_ent_f",
        "_ent_l",
        "_nent",
    )

    def __init__(self, vec: Optional[bool] = None) -> None:
        #: link id -> capacity (includes per-flow virtual cap links)
        self._caps: dict[Hashable, float] = {}
        #: flow id -> tuple of link ids (virtual cap link last, if any)
        self._flow_links: dict[Hashable, tuple[Hashable, ...]] = {}
        self._weights: dict[Hashable, float] = {}
        #: link id -> set of flow ids currently crossing it
        self._link_flows: dict[Hashable, set[Hashable]] = {}
        #: fid -> rate (scalar backend only; vector mode reads ``_vrates``)
        self._rates: dict[Hashable, float] = {}
        #: links whose flow set / capacity changed since the last flush
        self._dirty: set[Hashable] = set()
        #: number of closure solves performed (perf accounting)
        self.solves = 0
        #: True when the numpy backend is active.  The default
        #: (``vec=None``) starts scalar and lets the owner call
        #: :meth:`promote` once the population justifies array overhead;
        #: ``vec=True`` activates arrays immediately.
        self.vec = bool(vec)
        #: True when :meth:`promote` may still switch this instance to
        #: the vector backend
        self.vec_auto = vec is None
        #: called with the kept-slot index array after a slot compaction,
        #: so array sharers (the fabric flow table) renumber in lockstep
        self.on_compact = None
        self._fid2slot: dict[Hashable, int] = {}
        #: slot -> fid (vector mode; inverse of _fid2slot, compacted in step)
        self._slot2fid: list = []
        #: link index -> link id (vector mode; inverse of _lk2li)
        self._li2lk: list = []
        self._nslots = 0
        self._dead_slots = 0
        if self.vec:
            self._alloc_arrays()
        else:
            self._vw = self._valive = self._vrates = None
            self._blk0 = self._blk1 = None
            self._vcap = self._ent_f = self._ent_l = None
        self._lk2li: dict[Hashable, int] = {}
        self._free_li: list[int] = []
        self._nlinks = 0
        self._nent = 0

    def _alloc_arrays(self) -> None:
        self._vw = _np.zeros(_SLOT_CAP0)
        self._valive = _np.zeros(_SLOT_CAP0, dtype=bool)
        self._vrates = _np.zeros(_SLOT_CAP0)
        self._blk0 = _np.zeros(_SLOT_CAP0, dtype=_np.intp)
        self._blk1 = _np.zeros(_SLOT_CAP0, dtype=_np.intp)
        self._vcap = _np.zeros(_LINK_CAP0)
        self._ent_f = _np.zeros(_ENT_CAP0, dtype=_np.intp)
        self._ent_l = _np.zeros(_ENT_CAP0, dtype=_np.intp)

    def promote(self) -> None:
        """Switch this allocator from the scalar to the vector backend.

        One-way and value-preserving: every dict structure stays
        authoritative for topology, slots are assigned in registration
        (``_flow_links`` insertion) order — the same order incremental
        ``add_flow`` would have produced — and ``_vrates`` is seeded
        from the scalar rate store, so the switch changes no observable
        rate.  No-op when already in vector mode.
        """
        if self.vec:
            return
        self.vec = True
        self.vec_auto = False
        self._alloc_arrays()
        for lk, cap in self._caps.items():
            self._li_alloc(lk, cap)
        rates = self._rates
        lk2li = self._lk2li
        for fid, route in self._flow_links.items():
            slot = self._nslots
            self._nslots += 1
            if slot >= len(self._vw):
                self._grow_slots()
            self._fid2slot[fid] = slot
            self._slot2fid.append(fid)
            self._vw[slot] = self._weights[fid]
            self._valive[slot] = True
            k = len(route)
            ne = self._nent
            if ne + k > len(self._ent_f):
                self._grow_entries(ne + k)
            if k:
                self._ent_f[ne : ne + k] = slot
                self._ent_l[ne : ne + k] = [lk2li[lk] for lk in route]
            self._blk0[slot] = ne
            self._blk1[slot] = ne + k
            self._nent = ne + k
            self._vrates[slot] = rates.get(fid, 0.0)
        self._rates = {}

    # -- array plumbing (vector backend) -------------------------------
    def slot_of(self, fid: Hashable) -> int:
        """The flow's slot in the shared per-flow arrays (vector mode)."""
        return self._fid2slot[fid]

    @property
    def nslots(self) -> int:
        """Used size of the per-flow slot arrays (vector mode)."""
        return self._nslots

    def _li_alloc(self, link: Hashable, capacity: float) -> None:
        """Assign (or update) the link's index in the capacity array."""
        li = self._lk2li.get(link)
        if li is None:
            if self._free_li:
                li = self._free_li.pop()
                self._li2lk[li] = link
            else:
                li = self._nlinks
                self._nlinks += 1
                self._li2lk.append(link)
                if li >= len(self._vcap):
                    grown = _np.zeros(2 * len(self._vcap))
                    grown[:li] = self._vcap[:li]
                    self._vcap = grown
            self._lk2li[link] = li
        self._vcap[li] = capacity

    def _grow_slots(self) -> None:
        cap = len(self._vw)
        for name in ("_vw", "_vrates"):
            grown = _np.zeros(2 * cap)
            grown[:cap] = getattr(self, name)
            setattr(self, name, grown)
        grown_b = _np.zeros(2 * cap, dtype=bool)
        grown_b[:cap] = self._valive
        self._valive = grown_b
        for name in ("_blk0", "_blk1"):
            grown_i = _np.zeros(2 * cap, dtype=_np.intp)
            grown_i[:cap] = getattr(self, name)
            setattr(self, name, grown_i)

    def _grow_entries(self, need: int) -> None:
        cap = len(self._ent_f)
        new_cap = max(need, 2 * cap)
        for name in ("_ent_f", "_ent_l"):
            grown = _np.zeros(new_cap, dtype=_np.intp)
            grown[:cap] = getattr(self, name)
            setattr(self, name, grown)

    def _compact_slots(self) -> None:
        """Drop dead slots/entries, preserving the live flows' order.

        Relative (== ascending-fid) order is what keeps the vector
        backend's float accumulation identical to the scalar one, so the
        compaction is a stable filter, never a free-list.
        """
        np = _np
        n = self._nslots
        keep = np.nonzero(self._valive[:n])[0]
        k = len(keep)
        # entries of live flows, in unchanged order
        ne = self._nent
        emask = self._valive[self._ent_f[:ne]]
        new_ent_f = self._ent_f[:ne][emask]
        new_ent_l = self._ent_l[:ne][emask]
        lens = (self._blk1[keep] - self._blk0[keep])
        nb1 = np.cumsum(lens)
        nb0 = nb1 - lens
        # renumber slots
        old2new = np.full(n, -1, dtype=np.intp)
        old2new[keep] = np.arange(k, dtype=np.intp)
        cap = max(_SLOT_CAP0, 2 * k)
        vw = np.zeros(cap)
        vrates = np.zeros(cap)
        valive = np.zeros(cap, dtype=bool)
        blk0 = np.zeros(cap, dtype=np.intp)
        blk1 = np.zeros(cap, dtype=np.intp)
        vw[:k] = self._vw[keep]
        vrates[:k] = self._vrates[keep]
        valive[:k] = True
        blk0[:k] = nb0
        blk1[:k] = nb1
        self._vw, self._vrates, self._valive = vw, vrates, valive
        self._blk0, self._blk1 = blk0, blk1
        ecap = max(_ENT_CAP0, 2 * len(new_ent_f))
        ent_f = np.zeros(ecap, dtype=np.intp)
        ent_l = np.zeros(ecap, dtype=np.intp)
        ent_f[: len(new_ent_f)] = old2new[new_ent_f]
        ent_l[: len(new_ent_l)] = new_ent_l
        self._ent_f, self._ent_l = ent_f, ent_l
        self._nent = int(len(new_ent_f))
        self._fid2slot = {
            fid: int(old2new[s]) for fid, s in self._fid2slot.items()
        }
        s2f = self._slot2fid
        self._slot2fid = [s2f[i] for i in keep.tolist()]
        self._nslots = k
        self._dead_slots = 0
        if self.on_compact is not None:
            self.on_compact(keep)

    # -- topology ------------------------------------------------------
    def set_capacity(self, link: Hashable, capacity: float) -> None:
        """Register *link* or change its capacity (dirties its flows)."""
        capacity = float(capacity)
        if self._caps.get(link) == capacity:
            return
        self._caps[link] = capacity
        if self.vec:
            self._li_alloc(link, capacity)
        if self._link_flows.get(link):
            self._dirty.add(link)

    # -- flows ---------------------------------------------------------
    def add_flow(
        self,
        fid: Hashable,
        links: Iterable[Hashable],
        weight: float = 1.0,
        rate_cap: float = _INF,
    ) -> Optional[float]:
        """Add a flow; returns its rate when decidable without a solve.

        Returns the final rate for the short-circuit cases (no links, or
        no link shared with another flow) and ``None`` when the affected
        component must be re-solved — call :meth:`flush` to settle.
        """
        if fid in self._flow_links:
            raise ValueError(f"duplicate flow id {fid!r}")
        route = list(links)
        for lk in route:
            if lk not in self._caps:
                raise KeyError(f"flow {fid!r} references unknown link {lk!r}")
        if rate_cap != _INF:
            vlink = ("__cap__", fid)
            self._caps[vlink] = float(rate_cap)
            if self.vec:
                self._li_alloc(vlink, float(rate_cap))
            route.append(vlink)
        self._flow_links[fid] = tuple(route)
        self._weights[fid] = float(weight)

        slot = -1
        if self.vec:
            if self._dead_slots > 32 and self._dead_slots * 2 > self._nslots:
                self._compact_slots()
            slot = self._nslots
            self._nslots += 1
            if slot >= len(self._vw):
                self._grow_slots()
            self._fid2slot[fid] = slot
            self._slot2fid.append(fid)
            self._vw[slot] = self._weights[fid]
            self._valive[slot] = True
            k = len(route)
            ne = self._nent
            if ne + k > len(self._ent_f):
                self._grow_entries(ne + k)
            if k:
                lk2li = self._lk2li
                self._ent_f[ne : ne + k] = slot
                self._ent_l[ne : ne + k] = [lk2li[lk] for lk in route]
            self._blk0[slot] = ne
            self._blk1[slot] = ne + k
            self._nent = ne + k

        if not route:
            if self.vec:
                self._vrates[slot] = _INF
            else:
                self._rates[fid] = _INF
            return _INF

        shared = False
        for lk in route:
            peers = self._link_flows.get(lk)
            if peers is None:
                self._link_flows[lk] = {fid}
            else:
                shared = shared or bool(peers)
                peers.add(fid)
        if not shared:
            # Alone on every link: my rate is the tightest capacity and
            # nobody else's bottleneck moved.
            rate = min(self._caps[lk] for lk in route)
            if self.vec:
                self._vrates[slot] = rate
            else:
                self._rates[fid] = rate
            return rate
        if self.vec:
            self._vrates[slot] = 0.0
        else:
            self._rates[fid] = 0.0
        self._dirty.update(route)
        return None

    def remove_flow(self, fid: Hashable) -> None:
        """Remove a flow, dirtying links it shared with surviving flows."""
        route = self._flow_links.pop(fid)
        del self._weights[fid]
        if self.vec:
            slot = self._fid2slot.pop(fid)
            self._valive[slot] = False
            self._dead_slots += 1
        else:
            self._rates.pop(fid, None)
        for lk in route:
            peers = self._link_flows.get(lk)
            if peers is not None:
                peers.discard(fid)
                if peers:
                    self._dirty.add(lk)
                else:
                    del self._link_flows[lk]
        if route and route[-1] == ("__cap__", fid):
            del self._caps[route[-1]]
            if self.vec:
                li = self._lk2li.pop(route[-1])
                self._li2lk[li] = None
                self._free_li.append(li)
        self._dirty.discard(("__cap__", fid))

    # -- solving -------------------------------------------------------
    @property
    def dirty(self) -> bool:
        return bool(self._dirty)

    def rate(self, fid: Hashable) -> float:
        """Current rate of *fid* (flush first for a settled value)."""
        if self.vec:
            return float(self._vrates[self._fid2slot[fid]])
        return self._rates[fid]

    @property
    def rates(self) -> dict[Hashable, float]:
        """fid -> rate mapping (flush first for settled values).

        In vector mode this materialises a fresh dict from the rate
        array (an O(flows) convenience view for tests and inspection —
        the fabric hot path reads ``_vrates`` by slot instead).
        """
        if self.vec:
            vr = self._vrates
            return {fid: float(vr[s]) for fid, s in self._fid2slot.items()}
        return self._rates

    def flush(self, collect: bool = True) -> dict[Hashable, float]:
        """Re-solve the components reachable from dirty links.

        Returns {fid: new rate} for exactly the recomputed flows (empty
        when nothing was dirty).  Pass ``collect=False`` to skip
        building the result dict (vector-mode callers that read rates
        straight from the shared array).
        """
        if not self._dirty:
            return {}
        if self.vec:
            flows, links, slots, lis = self._closure_vec()
            self._dirty.clear()
            if not flows:
                return {}
            self.solves += 1
            nent = int((self._blk1[slots] - self._blk0[slots]).sum())
            if nent >= _VEC_MIN_ENTRIES:
                rates_f = self._solve_vec(flows, links, slots, lis)
                if not collect:
                    return {}
                return dict(zip(flows, rates_f.tolist()))
            # Small component: the dict walk beats numpy call overhead
            # (bit-identical results, so the switch is invisible).
            updated = self._solve(flows, links)
            vrates = self._vrates
            fid2slot = self._fid2slot
            for fid, r in updated.items():
                vrates[fid2slot[fid]] = r
            return updated if collect else {}
        flows, links = self._closure()
        self._dirty.clear()
        if not flows:
            return {}
        self.solves += 1
        updated = self._solve(flows, links)
        self._rates.update(updated)
        return updated

    def _closure(self) -> tuple[list[Hashable], list[Hashable]]:
        """Flows and links transitively connected to any dirty link."""
        link_flows = self._link_flows
        flow_links = self._flow_links
        seen_links: set[Hashable] = set()
        seen_flows: set[Hashable] = set()
        stack = [lk for lk in self._dirty if lk in link_flows]
        seen_links.update(stack)
        while stack:
            lk = stack.pop()
            for fid in link_flows[lk]:
                if fid in seen_flows:
                    continue
                seen_flows.add(fid)
                for nlk in flow_links[fid]:
                    if nlk not in seen_links:
                        seen_links.add(nlk)
                        stack.append(nlk)
        # Deterministic processing order regardless of set/hash history:
        # flow ids are sortable ints in the fabric; link ids are strings
        # or ("__cap__", fid) tuples, ordered by repr for mixed types.
        flows = sorted(seen_flows)
        links = sorted(seen_links, key=repr)
        return flows, links

    def _closure_vec(self):
        """Vectorised :meth:`_closure` (numpy backend).

        Runs the alternating flow/link reachability fixpoint as boolean
        mask passes over the global entry arrays instead of a Python BFS
        over sets — O(rounds · live entries) numpy work, with rounds
        bounded by the component's bipartite diameter (tiny in practice).
        Returns ``(flows, links, slots, lis)`` where *flows*/*links* are
        the exact lists :meth:`_closure` would return (same sets, same
        sort) and *slots*/*lis* are the matching index arrays, saving the
        solver's per-call dict lookups.
        """
        np = _np
        link_flows = self._link_flows
        lk2li = self._lk2li
        seed = [lk2li[lk] for lk in self._dirty if lk in link_flows]
        if not seed:
            return [], [], None, None
        ne = self._nent
        ent_f = self._ent_f[:ne]
        # Entries of removed flows linger until compaction (and their
        # freed cap-link indices may have been reused), so mask to live
        # flows before any reachability pass.
        live = self._valive[ent_f]
        ent_f = ent_f[live]
        ent_l = self._ent_l[:ne][live]
        fmask = np.zeros(self._nslots, dtype=bool)
        lmask = np.zeros(self._nlinks, dtype=bool)
        lmask[seed] = True
        while True:
            newf = lmask[ent_l] & ~fmask[ent_f]
            if not newf.any():
                break
            fmask[ent_f[newf]] = True
            newl = fmask[ent_f] & ~lmask[ent_l]
            if not newl.any():
                break
            lmask[ent_l[newl]] = True
        slots = np.nonzero(fmask)[0]
        lis = np.nonzero(lmask)[0]
        # Match the scalar closure's deterministic output order: flows
        # ascending by fid, links by repr.  Slot order is registration
        # order, which normally *is* fid order, but reorder defensively.
        s2f = self._slot2fid
        fids = [s2f[s] for s in slots.tolist()]
        order = sorted(range(len(fids)), key=fids.__getitem__)
        if order != list(range(len(order))):
            slots = slots[np.array(order, dtype=np.intp)]
            fids = [fids[i] for i in order]
        l2k = self._li2lk
        keys = [l2k[i] for i in lis.tolist()]
        korder = sorted(range(len(keys)), key=lambda i: repr(keys[i]))
        if korder != list(range(len(korder))):
            lis = lis[np.array(korder, dtype=np.intp)]
            keys = [keys[i] for i in korder]
        return fids, keys, slots, lis

    def _solve_vec(
        self,
        flows: Sequence[Hashable],
        links: Sequence[Hashable],
        slots=None,
        lis=None,
    ):
        """Vectorised water-filling over one closure (numpy backend).

        Mirrors :meth:`_solve` operation-for-operation: per-link weight
        totals accumulate in ascending-flow order (``bincount`` /
        ``subtract.at`` walk entries flow-major), subtraction clamps
        compose to the same final values, and saturation reuses the
        exact share divisions — so results are bit-identical to the
        scalar backend whenever entry order matches ascending fid order
        (always true for the fabric's monotonically assigned flow ids).
        """
        np = _np
        if slots is None:
            fid2slot = self._fid2slot
            slots = np.array([fid2slot[f] for f in flows], dtype=np.intp)
            lis = np.array([self._lk2li[lk] for lk in links], dtype=np.intp)
        F = len(slots)
        L = len(lis)
        # Gather the closure flows' entry rows (per-flow contiguous
        # blocks; every closure flow crosses >= 1 link so lens >= 1).
        b0 = self._blk0[slots]
        lens = self._blk1[slots] - b0
        E = int(lens.sum())
        cl = np.cumsum(lens)
        idx = np.ones(E, dtype=np.intp)
        idx[0] = b0[0]
        if F > 1:
            idx[cl[:-1]] = b0[1:] - (b0[:-1] + lens[:-1] - 1)
        idx = np.cumsum(idx)
        ent_lf = np.repeat(np.arange(F, dtype=np.intp), lens)
        glob2loc = np.empty(len(self._vcap), dtype=np.intp)
        glob2loc[lis] = np.arange(L, dtype=np.intp)
        ent_ll = glob2loc[self._ent_l[idx]]

        w_f = self._vw[slots]
        remaining = self._vcap[lis].copy()
        tot_w = np.bincount(ent_ll, weights=w_f[ent_lf], minlength=L)
        n_on = np.bincount(ent_ll, minlength=L)

        rates_f = np.empty(F)
        active = np.ones(F, dtype=bool)
        shares = np.empty(L)
        while True:
            valid = (n_on > 0) & (tot_w > 0.0)
            shares.fill(_INF)
            np.divide(remaining, tot_w, out=shares, where=valid)
            share = shares.min()
            if share == _INF:
                rates_f[active] = _INF
                break
            cutoff = share * (1 + 1e-12)
            sat = valid & (shares <= cutoff)
            fe = active[ent_lf] & sat[ent_ll]
            frozen = np.zeros(F, dtype=bool)
            frozen[ent_lf[fe]] = True
            if not frozen.any():  # numerical corner: freeze everything
                frozen = active.copy()
            r_f = share * w_f
            rates_f[frozen] = r_f[frozen]
            fe2 = frozen[ent_lf]
            ll = ent_ll[fe2]
            np.subtract.at(remaining, ll, r_f[ent_lf[fe2]])
            np.maximum(remaining, 0.0, out=remaining)
            np.subtract.at(tot_w, ll, w_f[ent_lf[fe2]])
            n_on = n_on - np.bincount(ll, minlength=L)
            active &= ~frozen
            if not active.any():
                break
        self._vrates[slots] = rates_f
        return rates_f

    def _solve(
        self, flows: Sequence[Hashable], links: Sequence[Hashable]
    ) -> dict[Hashable, float]:
        """Water-fill one closure with incremental per-round bookkeeping."""
        caps = self._caps
        weights = self._weights
        flow_links = self._flow_links
        link_flows = self._link_flows

        remaining: dict[Hashable, float] = {lk: caps[lk] for lk in links}
        tot_w: dict[Hashable, float] = {}
        #: exact count of unfrozen flows per link — the float weight total
        #: is maintained by subtraction and may keep an epsilon residue
        #: after its last flow froze, which must not masquerade as a
        #: zero-share bottleneck
        n_on: dict[Hashable, int] = {}
        for lk in links:
            users = link_flows[lk]
            t = 0.0
            # ascending-fid accumulation: the order the vector backend's
            # bincount reproduces, keeping the two backends bit-identical
            for fid in sorted(users):
                t += weights[fid]
            tot_w[lk] = t
            n_on[lk] = len(users)

        rates: dict[Hashable, float] = {}
        active: set[Hashable] = set(flows)
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
            frozen: set[Hashable] = set()
            for lk in saturated:
                for fid in link_flows[lk]:
                    if fid in active:
                        frozen.add(fid)
            if not frozen:  # numerical corner: freeze everything
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
