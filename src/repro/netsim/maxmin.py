"""Max-min fair rate allocation (progressive filling / water-filling).

Given a set of flows, each traversing a set of capacitated links, the
max-min fair allocation repeatedly finds the most-constrained link (the one
whose equal share per unfrozen flow is smallest), freezes every flow through
it at that share, removes the consumed capacity, and iterates.

:func:`max_min_fair_rates` is the batch solver, a pure function kept as
the property-test oracle.  :class:`MaxMinAllocator` is its incremental
equivalent that the fabric drives on every flow arrival/departure: it
groups flows with the same route and weight into *route classes* and
water-fills over classes, falling back to a per-flow numpy solve for
closures where classes do not compress.  The two solves are
bit-identical, so the perf goldens hold under either one.
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

#: initial capacities of the preallocated vector-mode arrays
_SLOT_CAP0 = 64
_LINK_CAP0 = 64
_ENT_CAP0 = 256

#: in vector mode, closures with at least this many class-route entries
#: (the summed route lengths of their classes) go to the numpy
#: water-filler; smaller ones — and every closure before promotion — are
#: water-filled over classes in plain Python.  Both solves are
#: bit-identical, so the switch is invisible to results.
_VEC_MIN_CLASS_ENTRIES = 128


class MaxMinAllocator:
    """Incremental weighted max-min fair allocator over route classes.

    Maintains the flow/link incidence across events so the fabric does
    not rebuild the whole problem on every flow arrival, departure or
    capacity change.  Flows that share one (route, weight) key form a
    **route class**: they cross the same links with the same weight, so
    max-min gives them the same rate, and the solver works on classes.
    A rate-capped flow's route ends in its private ``("__cap__", fid)``
    link, so it is always a class of its own.  Three mechanisms make it
    fast:

    * **short-circuits** — a flow whose links carry no other class (and
      the cap-only / link-less flows) gets its rate in O(route length)
      with no solve, and provably cannot move anyone else's bottleneck;
    * **dirty-link closure** — an event dirties only the touched route;
      :meth:`flush` re-solves just the classes reachable from dirty links
      through shared links (link -> class -> link), leaving every other
      component's rates untouched;
    * **class water-filling** — a closure is water-filled over its
      classes, so a trunk that many movers share costs one entry per
      class, not one per flow.  Once promoted, closures whose classes do
      not compress (at least ``_VEC_MIN_CLASS_ENTRIES`` class-route
      entries) take a per-flow numpy solve over persistent incidence
      arrays instead.

    Max-min fairness decomposes over connected components of the
    flow-link incidence graph, so the closure-restricted solve yields the
    same allocation as the batch :func:`max_min_fair_rates` oracle up to
    float-summation order; the property tests pin the two together.

    Bit-identity: every per-link float fold yields what a per-flow
    water-filler visiting flows in ascending fid would.  On a link whose
    flows all weigh 1.0 the weight total is the exact integer flow count
    and every frozen flow subtracts the same share, so order cannot
    matter; links with other weights fold and subtract flow by flow in
    ascending fid.  The numpy solve walks flows in ascending fid too —
    slot order, unless flows registered out of fid order — so the class
    solve, the numpy solve and a per-flow reference agree to the bit.

    Slots (vector mode): every flow gets an integer *slot* (append-only;
    dead slots are reclaimed by an order-preserving compaction when they
    outnumber the live).  ``_vrates[slot]`` is the rate store the fabric
    reads; a class solve refreshes it with one gather from the per-class
    rates.  The fabric shares this numbering for its own per-flow arrays
    and registers :attr:`on_compact` to renumber in lockstep.
    """

    __slots__ = (
        "_caps",
        "_fcls",
        "_cls_of",
        "_croute",
        "_cw",
        "_cmem",
        "_crate",
        "_free_cls",
        "_link_cls",
        "_dirty",
        "solves",
        "closure_flows",
        "closure_classes",
        "vec",
        "vec_auto",
        "on_compact",
        "_fid2slot",
        "_slots_by_fid",
        "_nslots",
        "_dead_slots",
        "_valive",
        "_vrates",
        "_vcls",
        "_vw",
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
        #: flow id -> class id, in registration order
        self._fcls: dict[Hashable, int] = {}
        #: (route, weight) -> class id of the live uncapped classes
        self._cls_of: dict[tuple, int] = {}
        #: class id -> route tuple (virtual cap link last, if any)
        self._croute: list[tuple] = []
        #: class id -> weight
        self._cw: list[float] = []
        #: class id -> member flow ids (None once the class id is freed)
        self._cmem: list[Optional[set]] = []
        #: class id -> settled rate: a list on the scalar engine, a numpy
        #: array (grown on demand) that the vector engine gathers from
        self._crate = _np.zeros(_SLOT_CAP0) if vec else []
        self._free_cls: list[int] = []
        #: link id -> set of class ids currently crossing it
        self._link_cls: dict[Hashable, set[int]] = {}
        #: links whose class set / capacity changed since the last flush
        self._dirty: set[Hashable] = set()
        #: number of closure solves performed (perf accounting)
        self.solves = 0
        #: flows / classes summed over every closure solved (their ratio
        #: is the compression the class solve buys)
        self.closure_flows = 0
        self.closure_classes = 0
        #: True when the numpy backend is active.  The default
        #: (``vec=None``) starts without it and lets the owner call
        #: :meth:`promote` once the population justifies array overhead;
        #: ``vec=True`` activates the arrays immediately.
        self.vec = bool(vec)
        #: True when :meth:`promote` may still switch this instance on
        self.vec_auto = vec is None
        #: called with the kept-slot index array after a slot compaction,
        #: so array sharers (the fabric flow table) renumber in lockstep
        self.on_compact = None
        self._fid2slot: dict[Hashable, int] = {}
        #: True while slot order is ascending fid order (flows have
        #: registered in fid order), so the numpy solve needs no sort
        self._slots_by_fid = True
        self._nslots = 0
        self._dead_slots = 0
        self._lk2li: dict[Hashable, int] = {}
        self._free_li: list[int] = []
        self._nlinks = 0
        self._nent = 0
        if self.vec:
            self._alloc_arrays()
        else:
            self._valive = self._vrates = self._vcls = self._vw = None
            self._blk0 = self._blk1 = None
            self._vcap = self._ent_f = self._ent_l = None

    def _alloc_arrays(self) -> None:
        self._valive = _np.zeros(_SLOT_CAP0, dtype=bool)
        self._vrates = _np.zeros(_SLOT_CAP0)
        self._vcls = _np.zeros(_SLOT_CAP0, dtype=_np.intp)
        self._vw = _np.zeros(_SLOT_CAP0)
        self._blk0 = _np.zeros(_SLOT_CAP0, dtype=_np.intp)
        self._blk1 = _np.zeros(_SLOT_CAP0, dtype=_np.intp)
        self._vcap = _np.zeros(_LINK_CAP0)
        self._ent_f = _np.zeros(_ENT_CAP0, dtype=_np.intp)
        self._ent_l = _np.zeros(_ENT_CAP0, dtype=_np.intp)

    def promote(self) -> None:
        """Switch this allocator on to the numpy backend.

        One-way and value-preserving: slots are assigned in registration
        order — the order incremental :meth:`add_flow` calls would have
        produced — and each slot's rate is seeded from its class, so the
        switch changes no settled rate.  No-op when already in vector
        mode.
        """
        if self.vec:
            return
        self.vec = True
        self.vec_auto = False
        self._alloc_arrays()
        for lk, cap in self._caps.items():
            self._li_alloc(lk, cap)
        croute = self._croute
        for fid, cid in self._fcls.items():
            self._add_slot(fid, cid, croute[cid])
        self._crate = _np.array(self._crate, dtype=float)
        n = self._nslots
        if n:
            self._vrates[:n] = self._crate[self._vcls[:n]]

    # -- array plumbing (vector mode) ----------------------------------
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
            else:
                li = self._nlinks
                self._nlinks += 1
                if li >= len(self._vcap):
                    grown = _np.zeros(2 * len(self._vcap))
                    grown[:li] = self._vcap[:li]
                    self._vcap = grown
            self._lk2li[link] = li
        self._vcap[li] = capacity

    def _add_slot(self, fid: Hashable, cid: int, route: tuple) -> int:
        """Give a new flow the next slot and its route entries."""
        slot = self._nslots
        self._nslots += 1
        if slot >= len(self._vw):
            self._grow_slots()
        if self._slots_by_fid and self._fid2slot:
            # _fid2slot is in slot order: its last key is the newest flow
            self._slots_by_fid = fid > next(reversed(self._fid2slot))
        self._fid2slot[fid] = slot
        self._valive[slot] = True
        self._vcls[slot] = cid
        self._vw[slot] = self._cw[cid]
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
        return slot

    def _grow_slots(self) -> None:
        cap = len(self._vw)
        for name in ("_vw", "_vrates"):
            grown = _np.zeros(2 * cap)
            grown[:cap] = getattr(self, name)
            setattr(self, name, grown)
        grown_b = _np.zeros(2 * cap, dtype=bool)
        grown_b[:cap] = self._valive
        self._valive = grown_b
        for name in ("_vcls", "_blk0", "_blk1"):
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

        Relative (== registration) order is what keeps the numpy solve's
        float accumulation identical to the class solve, so the
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
        lens = self._blk1[keep] - self._blk0[keep]
        nb1 = np.cumsum(lens)
        nb0 = nb1 - lens
        old2new = np.full(n, -1, dtype=np.intp)
        old2new[keep] = np.arange(k, dtype=np.intp)
        cap = max(_SLOT_CAP0, 2 * k)
        vw = np.zeros(cap)
        vrates = np.zeros(cap)
        valive = np.zeros(cap, dtype=bool)
        vcls = np.zeros(cap, dtype=np.intp)
        blk0 = np.zeros(cap, dtype=np.intp)
        blk1 = np.zeros(cap, dtype=np.intp)
        vw[:k] = self._vw[keep]
        vrates[:k] = self._vrates[keep]
        valive[:k] = True
        vcls[:k] = self._vcls[keep]
        blk0[:k] = nb0
        blk1[:k] = nb1
        self._vw, self._vrates, self._valive = vw, vrates, valive
        self._vcls, self._blk0, self._blk1 = vcls, blk0, blk1
        ecap = max(_ENT_CAP0, 2 * len(new_ent_f))
        ent_f = np.zeros(ecap, dtype=np.intp)
        ent_l = np.zeros(ecap, dtype=np.intp)
        ent_f[: len(new_ent_f)] = old2new[new_ent_f]
        ent_l[: len(new_ent_l)] = new_ent_l
        self._ent_f, self._ent_l = ent_f, ent_l
        self._nent = int(len(new_ent_f))
        # _fid2slot iterates in ascending-slot order, so a live flow's
        # new slot is its rank
        self._fid2slot = {fid: s for s, fid in enumerate(self._fid2slot)}
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
        if link in self._link_cls:
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
        no link shared with another class) and ``None`` when the
        affected component must be re-solved — call :meth:`flush` to
        settle.
        """
        if fid in self._fcls:
            raise ValueError(f"duplicate flow id {fid!r}")
        caps = self._caps
        route = list(links)
        for lk in route:
            if lk not in caps:
                raise KeyError(f"flow {fid!r} references unknown link {lk!r}")
        if rate_cap != _INF:
            vlink = ("__cap__", fid)
            caps[vlink] = float(rate_cap)
            if self.vec:
                self._li_alloc(vlink, float(rate_cap))
            route.append(vlink)
        route = tuple(route)
        weight = float(weight)
        free = self._free_cls
        next_cid = free[-1] if free else len(self._cmem)
        if rate_cap == _INF:
            cid = self._cls_of.setdefault((route, weight), next_cid)
        else:
            # the private cap link makes the flow a class of its own, so
            # capped classes are never looked up or registered by key
            cid = next_cid
        new_cls = cid == next_cid
        if not new_cls:
            self._cmem[cid].add(fid)
        elif free:
            free.pop()
            self._croute[cid] = route
            self._cw[cid] = weight
            self._cmem[cid] = {fid}
            self._crate[cid] = 0.0
        else:
            self._croute.append(route)
            self._cw.append(weight)
            self._cmem.append({fid})
            if not self.vec:
                self._crate.append(0.0)
            elif cid >= len(self._crate):
                self._crate = _np.concatenate(
                    (self._crate, _np.zeros(max(cid, _SLOT_CAP0)))
                )
        self._fcls[fid] = cid

        slot = -1
        if self.vec:
            if self._dead_slots > 32 and self._dead_slots * 2 > self._nslots:
                self._compact_slots()
            slot = self._add_slot(fid, cid, route)

        rate = None
        if not route:
            rate = _INF
        elif new_cls:
            shared = False
            link_cls = self._link_cls
            for lk in route:
                peers = link_cls.get(lk)
                if peers is None:
                    link_cls[lk] = {cid}
                else:
                    shared = True
                    peers.add(cid)
            if not shared:
                # Alone on every link: my rate is the tightest capacity and
                # nobody else's bottleneck moved.
                rate = min(caps[lk] for lk in route)
        if rate is None:
            # Joined a class or a shared link: settled at the next flush.
            self._dirty.update(route)
            if slot >= 0:
                self._vrates[slot] = 0.0
            return None
        self._crate[cid] = rate
        if slot >= 0:
            self._vrates[slot] = rate
        return rate

    def remove_flow(self, fid: Hashable) -> None:
        """Remove a flow, dirtying links it shared with surviving flows."""
        cid = self._fcls.pop(fid)
        if self.vec:
            slot = self._fid2slot.pop(fid)
            self._valive[slot] = False
            self._dead_slots += 1
        members = self._cmem[cid]
        members.discard(fid)
        route = self._croute[cid]
        if members:
            # the class's survivors still cross every link of the route
            self._dirty.update(route)
            return
        self._cmem[cid] = None
        self._free_cls.append(cid)
        link_cls = self._link_cls
        for lk in route:
            peers = link_cls[lk]
            peers.discard(cid)
            if peers:
                self._dirty.add(lk)
            else:
                del link_cls[lk]
        if route and route[-1] == ("__cap__", fid):
            del self._caps[route[-1]]
            self._dirty.discard(route[-1])
            if self.vec:
                self._free_li.append(self._lk2li.pop(route[-1]))
        else:
            del self._cls_of[(route, self._cw[cid])]

    # -- solving -------------------------------------------------------
    @property
    def dirty(self) -> bool:
        return bool(self._dirty)

    def rate(self, fid: Hashable) -> float:
        """Current rate of *fid* (flush first for a settled value)."""
        if self.vec:
            return float(self._vrates[self._fid2slot[fid]])
        return self._crate[self._fcls[fid]]

    @property
    def rates(self) -> dict[Hashable, float]:
        """A fresh fid -> rate mapping (flush first for settled values)."""
        if self.vec:
            vr = self._vrates
            return {fid: float(vr[s]) for fid, s in self._fid2slot.items()}
        crate = self._crate
        return {fid: crate[c] for fid, c in self._fcls.items()}

    def flush(self, collect: bool = True) -> dict[Hashable, float]:
        """Re-solve the components reachable from dirty links.

        Returns {fid: new rate} for exactly the recomputed flows (empty
        when nothing was dirty).  Pass ``collect=False`` to skip
        building the result dict (vector-mode callers that read rates
        straight from the shared array).
        """
        if not self._dirty:
            return {}
        link_cls = self._link_cls
        croute = self._croute
        cmem = self._cmem
        # Closure: classes and links reachable from the dirty links
        # (link -> class -> link).
        links = {lk for lk in self._dirty if lk in link_cls}
        self._dirty.clear()
        classes: set[int] = set()
        stack = list(links)
        while stack:
            new = link_cls[stack.pop()] - classes
            if new:
                classes |= new
                for c in new:
                    for lk in croute[c]:
                        if lk not in links:
                            links.add(lk)
                            stack.append(lk)
        if not classes:
            return {}
        self.solves += 1
        self.closure_classes += len(classes)
        crate = self._crate
        # every class has at least one route entry, so only closures of
        # fewer classes than the threshold need their entries counted
        if self.vec and (
            len(classes) >= _VEC_MIN_CLASS_ENTRIES
            or sum(map(len, map(croute.__getitem__, classes)))
            >= _VEC_MIN_CLASS_ENTRIES
        ):
            self.closure_flows += self._solve_vec(classes, links)
        else:
            self.closure_flows += sum(map(len, map(cmem.__getitem__, classes)))
            self._solve(classes, links)
            if self.vec:
                n = self._nslots
                self._vrates[:n] = crate[self._vcls[:n]]
        if not collect:
            return {}
        if self.vec:
            crate = crate.tolist()
        return {fid: crate[c] for c in classes for fid in cmem[c]}

    def _solve(self, classes: set[int], links: set[Hashable]) -> None:
        """Water-fill one closure over its route classes (plain Python).

        Writes each class's rate into ``_crate``; see the class docstring
        for why the float arithmetic matches a per-flow solve exactly.
        """
        link_cls = self._link_cls
        cw = self._cw
        cmem = self._cmem
        crate = self._crate

        remaining = {lk: self._caps[lk] for lk in links}
        #: weight total of the unfrozen flows of each link that still has
        #: some.  An inexact total is kept by subtraction and may hold an
        #: epsilon residue, so links leave it when their exact count
        #: ``n_on`` reaches zero, never by testing the total.
        tot_w: dict[Hashable, float] = {}
        n_on: dict[Hashable, int] = {}
        #: links whose flows all weigh 1.0
        unit: set[Hashable] = set()
        #: link -> its flows' classes in ascending fid order (other links)
        order: dict[Hashable, list[int]] = {}
        for lk in links:
            on = link_cls[lk]
            n = 0
            all_unit = True
            for c in on:
                n += len(cmem[c])
                if cw[c] != 1.0:
                    all_unit = False
            if all_unit:
                unit.add(lk)
                t = float(n)
            else:
                fids: list = []
                for c in on:
                    fids.extend(cmem[c])
                fids.sort()
                seq = order[lk] = list(map(self._fcls.__getitem__, fids))
                t = 0.0
                for c in seq:
                    t += cw[c]
            tot_w[lk] = t
            n_on[lk] = n

        active = set(classes)
        while True:
            shares = {
                lk: remaining[lk] / t for lk, t in tot_w.items() if t > 0.0
            }
            share = min(shares.values(), default=_INF)
            if share == _INF:
                for c in active:
                    crate[c] = _INF
                return
            cutoff = share * (1 + 1e-12)
            frozen: set[int] = set()
            for lk, s in shares.items():
                if s <= cutoff:
                    frozen |= link_cls[lk] & active
            if not frozen:  # numerical corner: freeze everything
                frozen = set(active)
            active -= frozen
            for c in frozen:
                crate[c] = share * cw[c]
            if not active:
                return
            for lk in list(tot_w):
                on = link_cls[lk] & frozen
                if not on:
                    continue
                m = 0
                for c in on:
                    m += len(cmem[c])
                left = n_on[lk] - m
                if not left:
                    # no unfrozen flow is left to read this link again
                    del tot_w[lk]
                    continue
                n_on[lk] = left
                rem = remaining[lk]
                if lk in unit:
                    # every flow frozen here subtracts the same share, so
                    # the order of the subtractions is moot
                    for _ in range(m):
                        rem -= share
                        if not rem > 0.0:
                            rem = 0.0  # and it stays 0.0: share >= 0
                            break
                    tot_w[lk] = float(left)
                else:
                    t = tot_w[lk]
                    for c in order[lk]:
                        if c in on:
                            w = cw[c]
                            rem -= share * w
                            rem = rem if rem > 0.0 else 0.0
                            t -= w
                    tot_w[lk] = t
                remaining[lk] = rem

    def _solve_vec(self, classes: set[int], links: set[Hashable]) -> int:
        """Water-fill one closure flow by flow with numpy (vector mode).

        Gathers the closure flows' rows of the persistent incidence
        arrays, in ascending fid order, and runs the freeze rounds as
        whole-array ``bincount`` / ``subtract.at`` operations.  Entries
        are walked flow-major, so per-link totals accumulate in ascending
        fid order and the clamp composes to the same final values: the
        result is bit-identical to :meth:`_solve`.  Writes the closure's
        slot and class rates and returns its flow count.
        """
        np = _np
        n = self._nslots
        vcls = self._vcls[:n]
        if not self._slots_by_fid:
            # flows registered out of fid order: walk them by fid
            cmem = self._cmem
            fids = sorted([f for c in classes for f in cmem[c]])
            slots = np.fromiter(
                map(self._fid2slot.__getitem__, fids), np.intp, len(fids)
            )
        else:
            in_closure = np.zeros(len(self._crate), dtype=bool)
            in_closure[np.fromiter(classes, np.intp, len(classes))] = True
            slots = np.nonzero(in_closure[vcls] & self._valive[:n])[0]
        lis = np.fromiter(map(self._lk2li.__getitem__, links), np.intp, len(links))
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
        self._crate[vcls[slots]] = rates_f
        return F
