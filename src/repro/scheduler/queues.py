"""Job tickets and per-tenant priority queues.

Every submission becomes a :class:`JobTicket` that lives through the
state machine::

    QUEUED --dispatch--> ACTIVE --+--> COMPLETED
       |                          +--> CANCELLED   (operator cancel)
       +--cancel--> CANCELLED     +--> PREEMPTED   (scheduler preempt /
                                        crash; journal retained, the
                                        ticket is resumable)

Within one tenant the queue is priority-ordered (higher ``priority``
first), FIFO within a priority level.  The heap uses lazy tombstone
cancellation (the same discipline as the kernel's stores): ``remove``
marks the ticket and ``pop`` skips dead entries, so a mid-run cancel of
a deeply queued job is O(log n) amortised, not O(n).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.pftool.config import PftoolConfig
from repro.sim import Event

__all__ = [
    "ACTIVE",
    "CANCELLED",
    "COMPLETED",
    "JobTicket",
    "PREEMPTED",
    "QUEUED",
    "TERMINAL_STATES",
    "TenantQueue",
]

QUEUED = "queued"
ACTIVE = "active"
COMPLETED = "completed"
CANCELLED = "cancelled"
PREEMPTED = "preempted"

TERMINAL_STATES = frozenset({COMPLETED, CANCELLED, PREEMPTED})


@dataclass
class JobTicket:
    """One submission's identity, parameters and lifecycle record."""

    job_id: int
    tenant: str
    op: str  # 'archive' | 'retrieve'
    src: str
    dst: str
    cfg: PftoolConfig
    priority: int = 0
    state: str = QUEUED
    submitted: float = 0.0
    dispatched: Optional[float] = None
    finished: Optional[float] = None
    #: the job's journal (bound at dispatch; survives preemption so a
    #: resume converges to the oracle without re-copying landed chunks)
    journal: object = None
    #: the live PftoolJob while ACTIVE (dropped once the ticket settles)
    job: object = None
    #: final JobStats (None for never-dispatched cancels)
    stats: object = None
    #: fires once, when the ticket reaches a terminal state
    done: Event = None
    #: job_id of the preempted ticket this one resumes, if any
    resume_of: Optional[int] = None
    cancel_requested: bool = False
    preempt_requested: bool = False
    #: preempted by the health plane (node drain) — the service auto-
    #: resumes these once they settle, no operator involved
    health_requeued: bool = False
    #: admission denial reason while head-of-queue (observability)
    blocked_on: str = ""
    #: FTA nodes (one entry per rank) charged to the LoadManager
    nodes_used: list = field(default_factory=list)

    @property
    def cost(self) -> float:
        """Fair-share cost: Worker ranks are the scarce FTA data movers."""
        return float(self.cfg.num_workers)

    @property
    def ranks(self) -> int:
        """Rank-slots this job occupies on the FTA pool."""
        return self.cfg.total_ranks

    @property
    def wait_time(self) -> float:
        """Queue wait: submit -> dispatch (0 until dispatched)."""
        if self.dispatched is None:
            return 0.0
        return self.dispatched - self.submitted

    def snapshot(self) -> dict:
        """Serializable view for ``query`` / operator tooling."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "op": self.op,
            "src": self.src,
            "dst": self.dst,
            "priority": self.priority,
            "state": self.state,
            "submitted": self.submitted,
            "dispatched": self.dispatched,
            "finished": self.finished,
            "wait_time": self.wait_time,
            "resume_of": self.resume_of,
            "blocked_on": self.blocked_on,
        }


class TenantQueue:
    """Priority-ordered queue of one tenant's pending tickets."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        #: (-priority, seq, ticket): max-priority first, FIFO within
        self._heap: list[tuple[int, int, JobTicket]] = []
        self._seq = itertools.count()
        self._queued_ids: set[int] = set()
        self._removed: set[int] = set()

    def push(self, ticket: JobTicket) -> None:
        heapq.heappush(self._heap, (-ticket.priority, next(self._seq), ticket))
        self._queued_ids.add(ticket.job_id)

    def _compact(self) -> None:
        while self._heap and self._heap[0][2].job_id in self._removed:
            _, _, dead = heapq.heappop(self._heap)
            self._removed.discard(dead.job_id)

    def peek(self) -> Optional[JobTicket]:
        self._compact()
        return self._heap[0][2] if self._heap else None

    def pop(self) -> Optional[JobTicket]:
        self._compact()
        if not self._heap:
            return None
        ticket = heapq.heappop(self._heap)[2]
        self._queued_ids.discard(ticket.job_id)
        return ticket

    def remove(self, job_id: int) -> bool:
        """Tombstone a queued ticket; True if it was present.  O(1) —
        the heap entry dies lazily when it reaches the top."""
        if job_id not in self._queued_ids:
            return False
        self._queued_ids.discard(job_id)
        self._removed.add(job_id)
        return True

    def __len__(self) -> int:
        return len(self._queued_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TenantQueue {self.tenant} depth={len(self)}>"
