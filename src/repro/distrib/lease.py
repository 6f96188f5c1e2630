"""Shard leases: who is computing what, until when — and what happened.

The coordinator's single source of truth for distributed dispatch.  A
shard moves ``pending → leased → done`` (or back to ``pending`` when a
lease expires, its node dies, or the evaluation errors within budget;
or to ``failed`` past the retry budget).  The table is deliberately
**clock-free**: every method takes the current monotonic time as an
argument, exactly like :class:`~repro.campaign.progress.ProgressTracker`
— staticcheck R002 holds the ``distrib`` package to the same
determinism contract as ``campaign``, and synthetic timestamps make the
lease arithmetic trivially unit-testable.

Soundness of the *accept-first, discard-the-rest* policy: shards are
deterministic (independently seeded, pure evaluators), so every attempt
at a shard computes the identical points.  The first result to arrive —
even from a lease that already expired — is therefore always correct to
accept, and every later arrival is a byte-identical duplicate that can
be dropped without looking at it.  The table records those drops
(``duplicates``) and the full lease history per shard, which is what
``repro campaign status --shards`` renders as attribution.

Thread-safety: none here by design.  The table is confined behind the
coordinator's lock (:class:`~repro.distrib.coordinator.Coordinator` is
the self-locking class staticcheck R007 recognises); keeping this class
lock-free keeps every transition testable without threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Lease", "LeaseTable"]


@dataclass
class Lease:
    """One grant of one shard to one worker.

    ``epoch`` is the zero-based attempt number for the shard — it indexes
    the shard's lease history and lets a result be attributed to the
    attempt that produced it even after re-leases.  ``deadline`` is the
    *soft* deadline, pushed forward by heartbeats; ``hard_deadline``
    (when set) caps the lease regardless of heartbeats, so a node that
    is alive but wedged cannot hold a shard forever.
    """

    shard_id: str
    worker: str
    epoch: int
    granted_at: float
    deadline: float
    hard_deadline: Optional[float]

    def expired(self, now: float) -> bool:
        """True once the soft or hard deadline has passed."""
        if now > self.deadline:
            return True
        return self.hard_deadline is not None and now > self.hard_deadline


class LeaseTable:
    """Pending/leased/done/failed bookkeeping for one distributed run."""

    def __init__(self, shard_ids: Sequence[str]) -> None:
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("shard ids must be unique")
        #: Work not currently leased, in stable sorted order (re-pended
        #: shards go to the back so fresh work is not starved).
        self._pending: Deque[str] = deque(sorted(shard_ids))
        self._leases: Dict[str, Lease] = {}
        self._done: Set[str] = set()
        self._failed: Set[str] = set()
        #: Budgeted requeues (errors) per shard — mirrors the local
        #: runner's ``max_retries`` accounting.  Expiries and lost
        #: workers are unbudgeted, like local worker-death recovery.
        self._errors: Dict[str, int] = {}
        #: Per-shard lease history: one record per grant, in epoch
        #: order, each ``{"worker": ..., "outcome": ...}`` with outcome
        #: in {running, done, duplicate, error, expired, lost, failed}.
        self._history: Dict[str, List[Dict[str, Any]]] = {}
        self._produced_by: Dict[str, str] = {}
        #: Late/duplicate results soundly discarded (see module docstring).
        self.duplicates = 0

    # -- queries ------------------------------------------------------

    @property
    def done(self) -> Set[str]:
        """Shards with an accepted result."""
        return set(self._done)

    @property
    def failed(self) -> Set[str]:
        """Shards past their retry budget (or abandoned at shutdown)."""
        return set(self._failed)

    @property
    def outstanding(self) -> int:
        """Shards not yet done or failed (pending + leased)."""
        return len(self._pending) + len(self._leases)

    @property
    def finished(self) -> bool:
        """True once nothing is pending or in flight."""
        return self.outstanding == 0

    # -- transitions --------------------------------------------------

    def lease(self, worker: str, now: float, timeout: float,
              hard_timeout: Optional[float] = None) -> Optional[Lease]:
        """Grant the next pending shard to ``worker`` (None when idle).

        Entries that settled (done/failed) while waiting in the queue —
        e.g. an expired lease's late result was accepted after the shard
        was already re-pended — are skipped, never re-granted.
        """
        while self._pending and (self._pending[0] in self._done
                                 or self._pending[0] in self._failed):
            self._pending.popleft()
        if not self._pending:
            return None
        shard_id = self._pending.popleft()
        history = self._history.setdefault(shard_id, [])
        lease = Lease(
            shard_id=shard_id, worker=worker, epoch=len(history),
            granted_at=now, deadline=now + timeout,
            hard_deadline=None if hard_timeout is None
            else now + hard_timeout)
        history.append({"worker": worker, "outcome": "running"})
        self._leases[shard_id] = lease
        return lease

    def heartbeat(self, worker: str, now: float, timeout: float) -> int:
        """Push the soft deadline of ``worker``'s leases to ``now +
        timeout``; returns how many leases were extended."""
        extended = 0
        for lease in self._leases.values():
            if lease.worker == worker:
                lease.deadline = max(lease.deadline, now + timeout)
                extended += 1
        return extended

    def complete(self, shard_id: str, worker: str, epoch: int) -> bool:
        """Record a result arrival; True iff it is the accepted first.

        A result from a superseded epoch is still *accepted* when it
        arrives first — determinism makes it identical to whatever the
        replacement lease would have produced.  Anything after the first
        is a duplicate: counted, marked in the history, and discarded by
        the caller without deserialising the points.
        """
        history = self._history.setdefault(shard_id, [])
        if shard_id in self._done or shard_id in self._failed:
            self.duplicates += 1
            if 0 <= epoch < len(history):
                history[epoch]["outcome"] = "duplicate"
            return False
        self._done.add(shard_id)
        self._produced_by[shard_id] = worker
        if 0 <= epoch < len(history):
            history[epoch]["outcome"] = "done"
        # A concurrent re-lease of the same shard (ours expired, or the
        # result beat the expiry scan) is now moot: retire it so the
        # shard cannot be granted again.  The other attempt's eventual
        # result will land in the duplicate branch above.  Likewise a
        # stale *pending* entry from an earlier expiry: drop it, or
        # ``outstanding`` would never reach zero.
        self._leases.pop(shard_id, None)
        if shard_id in self._pending:
            self._pending.remove(shard_id)
        return True

    def fail(self, shard_id: str, epoch: int, max_retries: int) -> bool:
        """Record an evaluation error; True iff the shard was requeued.

        Errors are budgeted exactly like the local runner's: past
        ``max_retries`` the shard is failed and the campaign continues,
        leaving the run directory resumable.
        """
        history = self._history.setdefault(shard_id, [])
        if 0 <= epoch < len(history):
            history[epoch]["outcome"] = "error"
        if shard_id in self._done or shard_id in self._failed:
            self.duplicates += 1
            return False
        self._leases.pop(shard_id, None)
        self._errors[shard_id] = self._errors.get(shard_id, 0) + 1
        if self._errors[shard_id] > max_retries:
            self._failed.add(shard_id)
            history.append({"worker": "", "outcome": "failed"})
            # Drop any stale pending entry left by an earlier expiry.
            if shard_id in self._pending:
                self._pending.remove(shard_id)
            return False
        # An expired lease's error may arrive after the expiry scan
        # already re-pended the shard — never queue it twice.
        if shard_id not in self._pending:
            self._pending.append(shard_id)
        return True

    def expire(self, now: float) -> List[Tuple[str, str]]:
        """Re-pend every lease past its deadline; returns the
        ``(shard_id, worker)`` pairs taken back (unbudgeted — a slow or
        silent node is indistinguishable from a dead one, and the shard
        itself did nothing wrong)."""
        taken: List[Tuple[str, str]] = []
        # ``_leases`` insertion order is grant order — which slot thread
        # asked first — so scan in sorted shard-id order to keep the
        # re-pend queue and the returned pairs deterministic.
        for shard_id, lease in sorted(self._leases.items()):
            if lease.expired(now):
                self._history[shard_id][lease.epoch]["outcome"] = "expired"
                del self._leases[shard_id]
                self._pending.append(shard_id)
                taken.append((shard_id, lease.worker))
        return taken

    def drop_worker(self, worker: str) -> List[str]:
        """A node's connection died: take back all its leases
        (unbudgeted), returning the re-pended shard ids."""
        dropped: List[str] = []
        # Sorted for the same reason as expire(): grant order is
        # thread-scheduling order and must not leak into the queue.
        for shard_id, lease in sorted(self._leases.items()):
            if lease.worker == worker:
                self._history[shard_id][lease.epoch]["outcome"] = "lost"
                del self._leases[shard_id]
                self._pending.append(shard_id)
                dropped.append(shard_id)
        return dropped

    def abandon_outstanding(self) -> Set[str]:
        """Fail everything still pending or leased (no sources left);
        returns the newly failed ids."""
        abandoned: Set[str] = set(self._pending)
        self._pending.clear()
        for shard_id, lease in list(self._leases.items()):
            self._history[shard_id][lease.epoch]["outcome"] = "lost"
            abandoned.add(shard_id)
        self._leases.clear()
        self._failed |= abandoned
        return abandoned

    # -- attribution --------------------------------------------------

    def attribution(self) -> Dict[str, Any]:
        """The per-shard record behind ``repro campaign status --shards``:
        producing worker, budgeted error count, and full lease history
        (grant order = epoch order)."""
        shards: Dict[str, Any] = {}
        for shard_id in sorted(self._history):
            shards[shard_id] = {
                "worker": self._produced_by.get(shard_id),
                "errors": self._errors.get(shard_id, 0),
                "leases": list(self._history[shard_id]),
            }
        return shards
