"""Capacitated link graph with fluid flows and dynamic fair sharing.

A :class:`Fabric` owns nodes and directed :class:`Link` s.  Data movement is
expressed as :meth:`Fabric.transfer` (a DES process event) or as a long-lived
:class:`Flow` opened/closed explicitly.  Every flow arrival or departure
marks the touched route dirty on the incremental
:class:`~repro.netsim.maxmin.MaxMinAllocator`; rates are settled lazily (at
most one solve per simulated instant, restricted to the affected allocation
components) before the engine projects completions or an external caller
reads them.  In-flight flows have their accrued bytes banked at the rates
that were in force and their completion re-projected.

Once a fabric promotes itself to the vectorised engine, per-flow residuals
and bank timestamps live in flat numpy arrays indexed by the allocator's
flow *slots* (see
:class:`~repro.netsim.maxmin.MaxMinAllocator`), and the per-event O(flows)
sweeps — banking, completion projection, sub-resolution drain, retirement
scan — run as whole-array operations.  Slot order equals flow registration
order, and every float fold is written as a strict left-to-right
accumulation (``cumsum``), so the vector sweeps produce bit-identical
trajectories to the scalar per-flow loops used before promotion.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as _np

from repro.netsim.maxmin import MaxMinAllocator
from repro.sim import Environment, Event

__all__ = ["Fabric", "Flow", "Link", "TransferResult"]

#: flows with fewer residual bytes than this are considered complete —
#: guards against float livelock where now + remaining/rate == now
EPS_BYTES = 1e-6

#: below this many live flows the per-flow loop beats numpy call overhead;
#: both paths are bit-identical so the per-call switch is invisible
_VEC_MIN_FLOWS = 24

#: live-flow population at which a fabric promotes itself (one-way) from
#: the scalar reference engine to the vectorised flow table; small
#: fabrics never pay array overhead, large ones amortise it
_VEC_PROMOTE = 128

_INF = float("inf")


class Link:
    """A directed capacitated edge between two fabric nodes.

    ``capacity`` is read-only: the fabric's allocator holds the capacity
    it solves against, so :meth:`Fabric.set_link_capacity` is the only
    writer and a link can never silently desync from its allocation.
    """

    __slots__ = ("name", "src", "dst", "_capacity", "latency")

    def __init__(
        self, name: str, src: str, dst: str, capacity: float, latency: float = 0.0
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"link {name}: capacity must be positive")
        if latency < 0:
            raise ValueError(f"link {name}: latency must be non-negative")
        self.name = name
        self.src = src
        self.dst = dst
        self._capacity = float(capacity)
        #: one-way propagation delay in seconds
        self.latency = float(latency)

    @property
    def capacity(self) -> float:
        """Bytes per second (change it with :meth:`Fabric.set_link_capacity`)."""
        return self._capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.src}->{self.dst} {self.capacity/1e6:.0f} MB/s>"


@dataclass
class TransferResult:
    """Completion record returned by :meth:`Fabric.transfer`."""

    src: str
    dst: str
    nbytes: int
    start: float
    end: float
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Average achieved rate in bytes/s (inf for instantaneous)."""
        d = self.duration
        return self.nbytes / d if d > 0 else float("inf")


class Flow:
    """An active fluid flow across a route of links.

    ``remaining`` and ``rate`` are read-only views: while the flow is
    table-backed (numpy mode) they read the shared per-slot arrays; after
    retirement — or always, in scalar mode — they read plain attributes.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "links",
        "nbytes",
        "rate_cap",
        "weight",
        "start",
        "tag",
        "done",
        "slot",
        "_tab",
        "_remaining",
        "_rate",
        "_last_update",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        links: list[Link],
        nbytes: float,
        done: Event,
        rate_cap: float = float("inf"),
        weight: float = 1.0,
        tag: Any = None,
        start: float = 0.0,
    ) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.links = links
        self.nbytes = float(nbytes)
        self.rate_cap = rate_cap
        self.weight = weight
        self.start = start
        self.tag = tag
        self.done = done
        #: index into the shared flow table (numpy mode), -1 otherwise
        self.slot = -1
        self._tab: Optional[_FlowTable] = None
        self._remaining = float(nbytes)
        self._rate = 0.0
        self._last_update = start

    @property
    def remaining(self) -> float:
        """Residual bytes (as of the last bank point)."""
        tab = self._tab
        if tab is None:
            return self._remaining
        return float(tab.rem[self.slot])

    @property
    def rate(self) -> float:
        """Currently allocated fair-share rate in bytes/s."""
        tab = self._tab
        if tab is None:
            return self._rate
        return float(tab.alloc._vrates[self.slot])

    def __repr__(self) -> str:
        return (
            f"<Flow #{self.fid} {self.src}->{self.dst} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @{self.rate/1e6:.1f}MB/s>"
        )


class _FlowTable:
    """Per-slot residual/bank-timestamp arrays shared with the allocator.

    Slot numbering belongs to the :class:`MaxMinAllocator`; the table's
    arrays grow independently and are renumbered through the allocator's
    ``on_compact`` callback so both sides stay in lockstep.
    """

    __slots__ = ("alloc", "rem", "lu", "slot_flow")

    def __init__(self, alloc: MaxMinAllocator) -> None:
        self.alloc = alloc
        self.rem = _np.zeros(64)
        self.lu = _np.zeros(64)
        #: slot -> Flow (stale entries on dead slots are never read)
        self.slot_flow: list[Optional[Flow]] = []

    def ensure(self, slot: int) -> None:
        if slot >= len(self.rem):
            cap = len(self.rem)
            new_cap = max(slot + 1, 2 * cap)
            for name in ("rem", "lu"):
                grown = _np.zeros(new_cap)
                grown[:cap] = getattr(self, name)
                setattr(self, name, grown)
        sf = self.slot_flow
        while len(sf) <= slot:
            sf.append(None)

    def on_compact(self, keep) -> None:
        """Renumber after the allocator dropped dead slots (order kept)."""
        k = len(keep)
        cap = max(64, 2 * k)
        rem = _np.zeros(cap)
        lu = _np.zeros(cap)
        rem[:k] = self.rem[keep]
        lu[:k] = self.lu[keep]
        self.rem, self.lu = rem, lu
        old = self.slot_flow
        self.slot_flow = [old[i] for i in keep.tolist()]
        for ns, f in enumerate(self.slot_flow):
            f.slot = ns


class Fabric:
    """Graph of links with shortest-path routing and fair-shared flows.

    Parameters
    ----------
    env:
        The simulation environment.
    name:
        Label used in reprs and stats.

    Notes
    -----
    * Routing is static shortest-path (hop count, then total latency, then
      lexicographic link names for determinism), computed on demand and
      cached.  Explicit routes can be pinned with :meth:`set_route`; a
      pinned route outlives later :meth:`add_link` calls, which only
      drop the shortest-path cache.
    * Rate re-allocation is incremental: a flow event dirties only its own
      route and the next settle re-solves only the affected allocation
      components (O(component) rather than O(all flows x all links)), with
      same-instant events coalesced into a single solve.
    * Once promoted the per-flow sweeps (banking, retirement,
      completion projection) are vectorised over the shared flow table;
      the scalar loops below remain the reference (and small-fabric)
      implementation and produce bit-identical results.
    """

    def __init__(self, env: Environment, name: str = "fabric") -> None:
        self.env = env
        self.name = name
        self.nodes: set[str] = set()
        self.links: dict[str, Link] = {}
        self._adj: dict[str, list[Link]] = {}
        #: routes pinned by :meth:`set_route` (never invalidated)
        self._pinned: dict[tuple[str, str], list[Link]] = {}
        #: shortest paths, dropped whenever a link is added
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        #: (src, dst) -> (links, link names, total latency) of the route
        #: in force, so transfers do not rebuild them
        self._route_meta: dict[tuple[str, str], tuple] = {}
        self._flows: dict[int, Flow] = {}
        self._fid = itertools.count(1)
        #: cumulative bytes delivered, for utilisation accounting
        self.bytes_delivered = 0.0
        self._alloc = MaxMinAllocator()
        self._completion_proc_running = False
        self._wakeup: Optional[Event] = None
        #: last simulated instant progress was banked (same-instant skip)
        self._last_bank = float("-inf")
        #: flows whose ``remaining`` hit zero since the last retire sweep
        self._finished = 0
        # Every fabric starts on the scalar reference engine; once the
        # live-flow population crosses _VEC_PROMOTE, _promote() switches
        # (one-way) to the vectorised flow table.  Both engines are
        # bit-identical, so the switch is invisible to results.
        self._vec = False
        self._tab: Optional[_FlowTable] = None

    def _promote(self) -> None:
        """Adopt the vectorised engine mid-run (one-way, value-preserving).

        The allocator rebuilds its incidence arrays from the dict state
        (slots in registration order — exactly what incremental adds
        would have produced), the flow table is seeded from each flow's
        banked residual/timestamp, and the hot methods are rebound so
        dispatch is settled once, not branched per event.
        """
        self._vec = True
        alloc = self._alloc
        alloc.promote()
        tab = self._tab = _FlowTable(alloc)
        alloc.on_compact = tab.on_compact
        if alloc.nslots:
            tab.ensure(alloc.nslots - 1)
        for f in self._flows.values():
            s = alloc.slot_of(f.fid)
            tab.rem[s] = f._remaining
            tab.lu[s] = f._last_update
            tab.slot_flow[s] = f
            f.slot = s
            f._tab = tab
        self._bank_progress = self._bank_progress_vec
        self._retire_finished = self._retire_finished_vec
        self._flush_rates = self._flush_rates_vec
        self._next_completion = self._next_completion_vec
        self._drain_subresolution = self._drain_subresolution_vec

    @property
    def rate_recomputes(self) -> int:
        """Number of fair-share solves performed (perf accounting)."""
        return self._alloc.solves

    @property
    def solve_work(self) -> tuple[int, int]:
        """(flows, route classes) summed over every solve's closure."""
        return self._alloc.closure_flows, self._alloc.closure_classes

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> str:
        self.nodes.add(name)
        self._adj.setdefault(name, [])
        return name

    def add_link(
        self,
        src: str,
        dst: str,
        capacity: float,
        latency: float = 0.0,
        duplex: bool = True,
        name: Optional[str] = None,
    ) -> tuple[Link, Optional[Link]]:
        """Add a link (and its reverse if *duplex*); returns (fwd, rev)."""
        self.add_node(src)
        self.add_node(dst)
        base = name or f"{src}->{dst}"
        if base in self.links:
            raise ValueError(f"duplicate link name {base!r}")
        fwd = Link(base, src, dst, capacity, latency)
        self.links[base] = fwd
        self._adj[src].append(fwd)
        self._alloc.set_capacity(base, capacity)
        rev = None
        if duplex:
            rname = f"{dst}->{src}" if name is None else f"{name}:rev"
            rev = Link(rname, dst, src, capacity, latency)
            self.links[rname] = rev
            self._adj[dst].append(rev)
            self._alloc.set_capacity(rname, capacity)
        self._route_cache.clear()
        self._route_meta.clear()
        return fwd, rev

    def set_link_capacity(self, name: str, capacity: float) -> None:
        """Change a link's capacity at runtime (degradation / repair).

        In-flight flows have their progress banked at the old rates,
        then everything is re-allocated against the new capacity — so a
        trunk going degraded mid-transfer slows exactly the flows that
        cross it, from this instant on.
        """
        if capacity <= 0:
            raise ValueError(f"link {name}: capacity must be positive")
        try:
            link = self.links[name]
        except KeyError:
            raise KeyError(f"no link named {name!r}") from None
        link._capacity = float(capacity)
        self._alloc.set_capacity(name, capacity)
        self._reallocate()

    def set_route(self, src: str, dst: str, links: Iterable[Link]) -> None:
        """Pin an explicit route for (src, dst)."""
        route = list(links)
        for a, b in zip(route, route[1:]):
            if a.dst != b.src:
                raise ValueError(f"route is not contiguous at {a.name}->{b.name}")
        if route:
            if route[0].src != src or route[-1].dst != dst:
                raise ValueError("route endpoints do not match src/dst")
        self._pinned[(src, dst)] = route
        self._route_meta.pop((src, dst), None)

    def route(self, src: str, dst: str) -> list[Link]:
        """The pinned route from *src* to *dst*, else the shortest path
        (empty list if src == dst)."""
        if src == dst:
            return []
        key = (src, dst)
        cached = self._pinned.get(key)
        if cached is None:
            cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown node in route {src!r}->{dst!r}")
        # Dijkstra on (hops, latency, path-names) for deterministic routes.
        best: dict[str, tuple[int, float, tuple[str, ...]]] = {src: (0, 0.0, ())}
        prev: dict[str, Link] = {}
        pq: list[tuple[int, float, tuple[str, ...], str]] = [(0, 0.0, (), src)]
        visited: set[str] = set()
        while pq:
            hops, lat, names, node = heapq.heappop(pq)
            if node in visited:
                continue
            visited.add(node)
            if node == dst:
                break
            for lk in self._adj[node]:
                cand = (hops + 1, lat + lk.latency, names + (lk.name,))
                if lk.dst not in best or cand < best[lk.dst]:
                    best[lk.dst] = cand
                    prev[lk.dst] = lk
                    heapq.heappush(pq, cand + (lk.dst,))
        if dst not in prev:
            raise ValueError(f"no route from {src!r} to {dst!r} in {self.name}")
        path: list[Link] = []
        node = dst
        while node != src:
            lk = prev[node]
            path.append(lk)
            node = lk.src
        path.reverse()
        self._route_cache[key] = path
        return path

    def _route_info(self, src: str, dst: str) -> tuple:
        """(links, link names, total latency) of the route in force."""
        key = (src, dst)
        info = self._route_meta.get(key)
        if info is None:
            links = self.route(src, dst)
            info = self._route_meta[key] = (
                links,
                tuple(lk.name for lk in links),
                sum(lk.latency for lk in links),
            )
        return info

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> list[Flow]:
        """Snapshot of the active flows (rates settled), for external
        callers that may hold or mutate the list."""
        self._flush_rates()
        return list(self._flows.values())

    def iter_flows(self):
        """Live view of the active flows (rates settled) — the hot-path
        accessor: no list is allocated, so callers must not open or close
        flows while iterating."""
        self._flush_rates()
        return self._flows.values()

    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        rate_cap: float = float("inf"),
        weight: float = 1.0,
        tag: Any = None,
    ) -> Event:
        """Move *nbytes* from *src* to *dst*; returns an event that fires
        with a :class:`TransferResult` when the last byte arrives.

        A zero-byte transfer still pays one round of route latency.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = self.env.event()
        tr = self.env.trace
        if tr.enabled:
            span = tr.begin(
                "net:transfer", tid=f"{src}->{dst}", cat="net",
                args={"nbytes": int(nbytes)},
            )
            done.callbacks.append(lambda _ev: span.end())
        links, names, latency = self._route_info(src, dst)
        start = self.env.now

        if nbytes == 0 or (not links and rate_cap == float("inf")):
            # Instantaneous (modulo latency) completion.
            def _finish_quick() -> None:
                done.succeed(
                    TransferResult(src, dst, int(nbytes), start, self.env.now, tag)
                )
                self.bytes_delivered += nbytes

            self.env.call_later(latency, _finish_quick)
            return done

        flow = Flow(
            next(self._fid),
            src,
            dst,
            links,
            nbytes,
            done,
            rate_cap=rate_cap,
            weight=weight,
            tag=tag,
            start=start,
        )

        def _register() -> None:
            now = self.env.now
            flow.start = now
            flow._last_update = now
            self._flows[flow.fid] = flow
            rate = self._alloc.add_flow(
                flow.fid,
                names,
                weight=flow.weight,
                rate_cap=flow.rate_cap,
            )
            if self._vec:
                # Adopt the allocator's slot for the shared flow table;
                # rates (including the short-circuit one) already live in
                # the allocator's rate array.
                tab = self._tab
                slot = self._alloc.slot_of(flow.fid)
                tab.ensure(slot)
                tab.rem[slot] = flow.nbytes
                tab.lu[slot] = now
                tab.slot_flow[slot] = flow
                flow.slot = slot
                flow._tab = tab
                if flow.nbytes <= EPS_BYTES:
                    self._finished += 1
            else:
                if rate is not None:
                    # Short-circuit: this flow shares no link, its rate is
                    # settled and nobody else's allocation moved.
                    flow._rate = rate
                if flow._remaining <= EPS_BYTES:
                    self._finished += 1
                if (
                    len(self._flows) >= _VEC_PROMOTE
                    and self._alloc.vec_auto
                ):
                    self._promote()
            self._reallocate()

        # Completion is driven by the engine process; registration needs no
        # process of its own — one recycled timer replaces the per-transfer
        # Process + init event + Timeout triple.
        self.env.call_later(latency, _register)
        return done

    # ------------------------------------------------------------------
    # engine — scalar reference implementations
    # ------------------------------------------------------------------
    def _bank_progress(self) -> None:
        """Accrue bytes sent at current rates since the last update.

        Same-instant calls after the first are skipped entirely: banking
        over dt == 0 moves no bytes (infinite-rate flows, the one dt == 0
        exception, are drained by the engine's zero-dt branch at the same
        instant), so a burst of flow events at one timestamp pays a single
        O(flows) sweep.
        """
        now = self.env.now
        if now == self._last_bank:
            return
        self._last_bank = now
        delivered = 0.0
        finished = 0
        for flow in self._flows.values():
            rate = flow._rate
            if rate == _INF:
                delivered += flow._remaining
                flow._remaining = 0.0
                finished += 1
            elif rate > 0:
                dt = now - flow._last_update
                if dt > 0:
                    rem = flow._remaining
                    moved = rate * dt
                    if rem <= moved:  # min(rem, rate * dt)
                        moved = rem
                    rem -= moved
                    delivered += moved
                    if rem <= EPS_BYTES:
                        delivered += rem
                        rem = 0.0
                        finished += 1
                    flow._remaining = rem
            flow._last_update = now
        self.bytes_delivered += delivered
        self._finished += finished

    def _reallocate(self) -> None:
        """Bank progress, retire finished flows and poke the engine.

        Fair rates are *not* recomputed here: the event only dirties the
        allocator, and the solve happens at most once per simulated
        instant — in :meth:`_flush_rates`, before the engine projects the
        next completion or an external caller reads flow rates.  Banked
        bytes are unaffected because no time passes in between.
        """
        self._bank_progress()
        self._retire_finished()
        self._kick_engine()

    def _retire_finished(self) -> None:
        if not self._finished:
            return  # nothing hit zero since the last sweep: skip the scan
        self._finished = 0
        for f in [f for f in self._flows.values() if f._remaining <= EPS_BYTES]:
            del self._flows[f.fid]
            self._alloc.remove_flow(f.fid)
            f.done.succeed(
                TransferResult(f.src, f.dst, int(f.nbytes), f.start, self.env.now, f.tag)
            )

    def _flush_rates(self) -> None:
        """Settle any pending re-allocation (affected components only)."""
        if not self._alloc.dirty:
            return
        flows = self._flows
        for members, rate in self._alloc.flush():
            for fid in members:
                flows[fid]._rate = rate

    def _kick_engine(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)
        elif not self._completion_proc_running and self._flows:
            self._completion_proc_running = True
            self.env.process(self._engine(), name=f"{self.name}-engine")

    def _next_completion(self) -> float:
        self._flush_rates()
        t = _INF
        for f in self._flows.values():
            rate = f._rate
            if rate > 0:
                dt = f._remaining / rate
                if dt < t:
                    t = dt
        return t

    def _drain_subresolution(self, dt: float) -> None:
        """Directly finish flows whose projected completion is below the
        clock's float resolution (cannot drain by timing out)."""
        for f in self._flows.values():
            if f._rate > 0 and f._remaining / f._rate <= dt * (1 + 1e-9):
                self.bytes_delivered += f._remaining
                f._remaining = 0.0
                self._finished += 1
        self._retire_finished()

    # ------------------------------------------------------------------
    # engine — vectorised implementations (bit-identical to the scalar
    # reference: slot order == registration order == dict order, and all
    # byte folds are strict left-to-right cumsums)
    # ------------------------------------------------------------------
    def _bank_progress_vec(self) -> None:
        now = self.env.now
        if now == self._last_bank:
            return
        self._last_bank = now
        nlive = len(self._flows)
        if nlive == 0:
            return
        alloc = self._alloc
        tab = self._tab
        n = alloc.nslots
        rate = alloc._vrates[:n]
        if nlive < _VEC_MIN_FLOWS or rate.max() == _INF:
            # few flows, or an infinite rate (drained even at dt == 0,
            # where rate * dt is undefined): walk them through the table
            # instead of paying numpy call overhead on whole arrays
            trem = tab.rem
            tlu = tab.lu
            vr = alloc._vrates
            delivered = 0.0
            finished = 0
            for flow in self._flows.values():
                s = flow.slot
                r = float(vr[s])
                dt = now - float(tlu[s])
                if r == _INF:
                    delivered += float(trem[s])
                    trem[s] = 0.0
                    finished += 1
                elif dt > 0 and r > 0:
                    rem_s = float(trem[s])
                    moved = min(rem_s, r * dt)
                    rem_s -= moved
                    delivered += moved
                    if rem_s <= EPS_BYTES:
                        delivered += rem_s
                        rem_s = 0.0
                        finished += 1
                    trem[s] = rem_s
                tlu[s] = now
            self.bytes_delivered += delivered
            self._finished += finished
            return
        np = _np
        rem = tab.rem[:n]
        lu = tab.lu[:n]
        dt = now - lu
        # dead slots carry rate 0.0, so they never move
        mov = dt > 0.0
        mov &= rate > 0.0
        # rates and dt are finite and >= 0, so an idle slot moves exactly
        # 0.0 bytes (and x - 0.0 == x)
        moved = rate * dt
        np.minimum(moved, rem, out=moved)
        rem -= moved
        fin = rem <= EPS_BYTES
        fin &= mov
        lu.fill(now)
        nfin = int(np.count_nonzero(fin))
        if not nfin:
            # adding 0.0 changes no partial sum, so the scalar loop's fold
            # is the running sum of the moved bytes
            self.bytes_delivered += float(moved.cumsum()[-1])
            return
        # Interleave (moved, residual) pairs so the cumsum reproduces the
        # scalar loop's exact two-adds-per-flow accumulation order.
        pairs = np.empty(2 * n)
        pairs[0::2] = moved
        np.multiply(rem, fin, out=pairs[1::2])
        self.bytes_delivered += float(pairs.cumsum()[-1])
        rem[fin] = 0.0
        self._finished += nfin

    def _retire_finished_vec(self) -> None:
        if not self._finished:
            return
        self._finished = 0
        alloc = self._alloc
        tab = self._tab
        flows = self._flows
        if len(flows) < _VEC_MIN_FLOWS:
            trem = tab.rem
            done = [f for f in flows.values() if trem[f.slot] <= EPS_BYTES]
        else:
            np = _np
            n = alloc.nslots
            sel = np.nonzero(alloc._valive[:n] & (tab.rem[:n] <= EPS_BYTES))[0]
            slot_flow = tab.slot_flow
            # ascending slot == registration == dict order
            done = [slot_flow[s] for s in sel.tolist()]
        vr = alloc._vrates
        for f in done:
            # materialise the table-backed views before the slot dies
            f._rate = float(vr[f.slot])
            f._remaining = 0.0
            f._tab = None
            del flows[f.fid]
            alloc.remove_flow(f.fid)
            f.done.succeed(
                TransferResult(f.src, f.dst, int(f.nbytes), f.start, self.env.now, f.tag)
            )

    def _flush_rates_vec(self) -> None:
        # Rates live in the allocator's slot array, which the Flow.rate
        # property reads directly — no per-flow write-back dict needed.
        if self._alloc.dirty:
            self._alloc.flush(collect=False)

    def _next_completion_vec(self) -> float:
        self._flush_rates_vec()
        alloc = self._alloc
        nlive = len(self._flows)
        if nlive < _VEC_MIN_FLOWS:
            trem = self._tab.rem
            vr = alloc._vrates
            t = float("inf")
            for f in self._flows.values():
                s = f.slot
                rate = float(vr[s])
                if rate > 0:
                    dt = float(trem[s]) / rate
                    if dt < t:
                        t = dt
            return t
        np = _np
        n = alloc.nslots
        # a zero rate (a dead slot, or a live flow the fill starved)
        # yields inf or nan, which fmin passes over, as the scalar loop
        # skips the flow
        with np.errstate(divide="ignore", invalid="ignore"):
            dts = self._tab.rem[:n] / alloc._vrates[:n]
        t = float(np.fmin.reduce(dts))
        return _INF if t != t else t

    def _drain_subresolution_vec(self, dt: float) -> None:
        alloc = self._alloc
        tab = self._tab
        if len(self._flows) < _VEC_MIN_FLOWS:
            trem = tab.rem
            vr = alloc._vrates
            thresh = dt * (1 + 1e-9)
            for f in self._flows.values():
                s = f.slot
                rate = float(vr[s])
                if rate > 0 and float(trem[s]) / rate <= thresh:
                    self.bytes_delivered += float(trem[s])
                    trem[s] = 0.0
                    self._finished += 1
            self._retire_finished()
            return
        np = _np
        n = alloc.nslots
        rem = tab.rem[:n]
        rate = alloc._vrates[:n]
        m = rate > 0.0  # live flows only: a dead slot's rate is 0.0
        dts = np.full(n, float("inf"))
        np.divide(rem, rate, out=dts, where=m)
        sel = m & (dts <= dt * (1 + 1e-9))
        vals = rem[sel]
        if len(vals):
            # fold starts from the current total: the scalar loop adds each
            # residual straight onto bytes_delivered
            self.bytes_delivered = float(
                np.cumsum(np.concatenate(([self.bytes_delivered], vals)))[-1]
            )
            rem[sel] = 0.0
            self._finished += int(np.count_nonzero(sel))
        self._retire_finished()

    def _engine(self) -> Iterable[Event]:
        """Sleeps until the earliest projected completion, retires flows,
        reallocates, repeats.  Woken early by :meth:`_reallocate` when the
        flow set changes."""
        try:
            while self._flows:
                dt = self._next_completion()
                if dt == float("inf"):
                    # All flows stalled (shouldn't happen); wait for a change.
                    self._wakeup = self.env.event()
                    yield self._wakeup
                    self._wakeup = None
                    continue
                if self.env.now + dt == self.env.now:
                    # dt is below the clock's float resolution: the nearly
                    # finished flows can never drain by timing out — finish
                    # them directly to avoid a zero-delay livelock.
                    self._drain_subresolution(dt)
                    continue
                # Sleep until the projected completion OR an early kick from
                # _reallocate.  A recycled kernel timer pokes the wakeup
                # event instead of a Timeout | Event AnyOf condition (three
                # allocations per engine cycle); a stale timer finds its
                # event already triggered and does nothing.
                self._wakeup = wake = self.env.event()
                self.env.call_later(
                    dt, lambda wake=wake: None if wake.triggered else wake.succeed(None)
                )
                yield wake
                self._wakeup = None
                self._bank_progress()
                self._retire_finished()
        finally:
            self._completion_proc_running = False

    def __repr__(self) -> str:
        return (
            f"<Fabric {self.name!r} nodes={len(self.nodes)} links={len(self.links)}"
            f" flows={len(self._flows)}>"
        )
