"""Struct-of-arrays PD² kernel: key-order placement instead of slot loops.

:class:`VectorPD2Simulator` is the accelerated tier of the two-tier
simulator stack — this kernel, falling back to the reference
(:class:`~repro.core.quantum.QuantumSimulator`) — and it is
*decision-identical* to the reference: same allocations (slot,
processor, task, subtask), same :class:`~repro.core.metrics.SimStats`,
same miss records in the same order.  The differential suite
(``tests/test_kernel_differential.py``, ``tests/test_sim_vector.py``)
pins the identity across randomized systems including early release,
nonzero phases and overload.

The kernel runs the one configuration the paper's PD² argument rests on
and every caller uses: periodic tasks, PD² priorities, misses recorded
(``on_miss="record"``) and back-to-back quanta kept on their processor
(``preserve_affinity=True``, the continuation rule behind Eq. (3)'s
``min(E-1, P-E)`` charge).  :func:`supports` turns away everything else
— ``on_miss="raise"``, ``preserve_affinity=False``, other policies,
arrivals, capacity changes — and the reference answers it.

Why it is fast — the key-order placement theorem
------------------------------------------------

The reference runs one slot at a time: release eligible subtasks, pop
the ``M`` smallest PD² keys, assign processors, activate successors.
That is at least one Python heap operation per allocation *per slot*.
This kernel never iterates slots at all.  It rests on a structural fact
about slot-synchronous top-``M`` scheduling of chain-precedence unit
jobs (each subtask becomes eligible no earlier than one slot after its
predecessor runs, and PD² keys strictly increase along each chain):

    The slot-by-slot schedule equals the *greedy placement in global
    key order*: process all subtasks ordered by priority key; place
    each at the earliest slot ``>= max(eligibility,
    predecessor_slot + 1)`` that still has fewer than ``M`` occupants.

Proof sketch (induction over key order): when subtask ``x`` is placed at
slot ``s`` by the slot simulator, every slot in ``[avail(x), s)`` was
filled with ``M`` higher-priority subtasks — all of which precede ``x``
in key order, so greedy placement sees exactly the same occupancy and
picks the same ``s``; conversely a slot with spare capacity and an
eligible ``x`` always schedules ``x`` (the simulator schedules
``min(M, ready)`` subtasks).  The predecessor of ``x`` has a strictly
smaller key (pseudo-deadlines strictly increase along a task's chain for
weights ``<= 1``), so ``predecessor_slot`` is known when ``x`` is
processed.  Processor *numbers* are provably irrelevant to which
subtasks run in which slot, so the affinity assignment is reconstructed
afterwards by a linear fold (below) that reproduces the reference's
two-pass rule exactly.

That turns simulation into:

1. a **vectorized precompute** (numpy int64 end to end): the tasks'
   window-table columns (:class:`~repro.core.subtask.WindowTable`, one
   job per weight) are concatenated once per run; every chunk then
   derives releases,
   deadlines and *narrow* per-run int64 priority keys
   ``|deadline | 1-b | gd | row|`` for all rows in a handful of gathers
   and adds (key and release are affine in the job number).  Narrow keys
   induce the same order as :meth:`~repro.core.priority.PD2Priority.key`
   tuples over the live set (row rank = task-id rank; the subtask index
   is unnecessary because deadlines strictly increase within a task);
2. one **global argsort** over the key column;
3. a single **earliest-fit pass** in key order using a union-find
   "next slot with spare capacity" pointer array (path halving).  No
   slot is ever visited: an idle slot is simply never touched, and a
   full slot collapses to one pointer hop, so whole stable slot ranges
   are skipped in O(alpha) regardless of why they are stable;
4. **vectorized stats**: quanta, preemptions (gap within a job),
   per-job preemption counts, busy/idle and misses are computed from
   the placement columns with bincounts and shifted compares.  The
   placement pass and the processor fold (a single bitmask scan in
   continuations-first slot order) are the only per-allocation Python
   loops left.

The hyperperiod memo composes by *chunking*.  A synchronous periodic
system is a deterministic automaton: at a hyperperiod boundary ``t =
kH`` its state compresses to a small signature per task (relative
eligibility, relative subtask index, affinity state), and when a
signature repeats, the schedule between the two boundaries repeats
forever after.  When the memo preconditions hold (synchronous system, no
trace, ``2·lcm < horizon``) the kernel therefore runs one hyperperiod per
chunk, carrying exact per-task state across boundaries; at each boundary
it samples the signature, and on a repeat it measures the per-cycle
stats delta and tiles it across the rest of the horizon.  Signatures and
deltas are plain integers relative to the boundary, so
:data:`~repro.sim.cache.HYPERPERIOD_CACHE` keeps measured deltas per
normalized task set and a later run of an equivalent system tiles after
its first hyperperiod.

Everything is exact integer arithmetic.  Every column the simulator
keeps is int64 or bool, and every key handed to a sort is a signed
integer: the int64 priority keys, plus one audited int32 radix key in
:meth:`VectorPD2Simulator._fold_affinity`.  ``TestDtypes`` in
``tests/test_sim_vector.py`` checks both on the running kernel;
staticcheck rule R001 bans float dtypes and true division in this file.

Use :func:`repro.sim.quantum.simulate_pfair`, which dispatches here
whenever :func:`supports` accepts the configuration and the call does
not pass ``fastpath=False``, falling back vector → reference.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.priority import PD2Priority, PriorityPolicy
from ..core.task import PeriodicTask, PfairTask
from ..core.metrics import DeadlineMiss, SimStats, TaskStats
from .cache import HYPERPERIOD_CACHE
from .quantum import SimResult
from ..core.trace import ScheduleTrace

__all__ = ["VectorPD2Simulator", "supports"]

#: Largest number of precomputed subtasks per chunk before the kernel
#: bows out (memory gate; the reference handles what falls through).
MAX_CHUNK_SUBTASKS = 4_000_000

#: Largest chunk length in slots: the placement pass allocates the
#: union-find pointer array and the occupancy countdown per slot.  Very
#: long horizons without memoisation fall through to the reference.
MAX_CHUNK_SLOTS = 4_000_000

#: Narrow keys must fit a signed int64 lane below the pad sentinel.
MAX_KEY_BITS = 62

#: ``_PAD_KEY`` sorts after every real narrow key, so the per-row pad
#: items (which carry the previous chunk's state) are never placed.
_PAD_KEY = 1 << MAX_KEY_BITS

#: Hyperperiod boundaries sampled before the memo gives up on a cycle.
MAX_BOUNDARIES = 16


def _key_layout(tasks: List[PfairTask],
                horizon: int) -> Tuple[int, int, int, int]:
    """``(dbias, gdbits, rowbits, total_bits)`` of the narrow key layout.

    Narrow keys are built per run: ``((deadline - t0 + dbias) << 1 | 1-b)
    << gdbits | gd_field) << rowbits | row``.  ``dbias`` keeps the
    deadline field nonnegative even for backlogged subtasks whose
    deadlines lie a whole horizon before the chunk start.  ``gd_field``
    reverses the group-deadline tie-break inside ``gdbits`` bits: it
    stores ``mask - 1 - (D - d)`` for a heavy subtask and ``mask`` (``2**
    gdbits - 1``) for a light one (``D = 0``), so at equal deadlines it
    orders like :meth:`~repro.core.priority.PD2Priority.key`'s ``-D``.
    ``D - d`` is bounded by the period, which ``gdbits`` covers.
    """
    max_p = max(t.period for t in tasks)
    max_ph = max(getattr(t, "phase", 0) for t in tasks)
    dbias = horizon + 2 * max_p + max_ph + 2
    dbits = (2 * dbias).bit_length()
    gdbits = (max_p + 2).bit_length()
    rowbits = max(1, (len(tasks) - 1).bit_length())
    return dbias, gdbits, rowbits, dbits + 1 + gdbits + rowbits


def _chunk_length(tasks: List[PfairTask], horizon: int,
                  use_memo: bool) -> int:
    """Slots simulated per kernel pass: one hyperperiod when the memo
    applies (so boundaries can be sampled), else the horizon."""
    if use_memo and tasks and all(t.phase == 0 for t in tasks):
        period_lcm = lcm(*(t.period for t in tasks))
        if 2 * period_lcm < horizon:
            return period_lcm
    return horizon


def supports(
    tasks: List[PfairTask],
    processors: int,
    horizon: int,
    policy: Optional[PriorityPolicy],
    kwargs: dict,
) -> bool:
    """True when the vector kernel reproduces the reference exactly.

    The workhorse configuration of every experiment in the paper —
    periodic tasks (any phases), PD² priorities, fixed capacity, no
    arrivals or departures, misses recorded and affinity preserved —
    within the kernel's own resource gates:
    distinct task ids (the row field *is* the task-id tie-break), narrow
    keys that fit int64, and bounded per-chunk subtask and slot counts.
    Anything else falls through to the reference via
    :func:`repro.sim.quantum.simulate_pfair`.
    """
    if policy is not None and type(policy) is not PD2Priority:
        return False
    if kwargs.get("arrivals") is not None:
        return False
    if kwargs.get("capacity_fn") is not None:
        return False
    if kwargs.get("on_miss", "record") != "record":
        return False
    if not kwargs.get("preserve_affinity", True):
        return False
    if processors < 1:
        return False
    seen_ids = set()
    for t in tasks:
        if type(t) is not PeriodicTask or t.last_subtask is not None:
            return False
        if t.task_id in seen_ids:
            return False
        seen_ids.add(t.task_id)
    if not tasks or horizon <= 0:
        return True
    chunk = _chunk_length(tasks, horizon, not kwargs.get("trace", False))
    if chunk > MAX_CHUNK_SLOTS:
        return False
    total = sum((max(0, chunk - t.phase) // t.period + 2) * t.execution
                for t in tasks)
    if total > MAX_CHUNK_SUBTASKS:
        return False
    return _key_layout(tasks, horizon)[3] <= MAX_KEY_BITS


class VectorPD2Simulator:
    """Struct-of-arrays drop-in for :class:`~repro.sim.quantum.QuantumSimulator`.

    Accepts the reference's constructor surface and produces an
    identical :class:`~repro.sim.quantum.SimResult`.  The modes
    :func:`supports` turns away must keep their defaults: ``on_miss``
    ``"record"``, ``preserve_affinity`` True, no ``arrivals`` or
    ``capacity_fn`` (``ValueError`` otherwise).
    """

    def __init__(
        self,
        tasks: Iterable[PfairTask],
        processors: int,
        policy: Optional[PriorityPolicy] = None,
        *,
        early_release: bool = False,
        trace: bool = False,
        on_miss: str = "record",
        arrivals: Optional[Iterable[Tuple[int, Callable[[], None]]]] = None,
        capacity_fn: Optional[Callable[[int], int]] = None,
        preserve_affinity: bool = True,
    ) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        if on_miss != "record" or not preserve_affinity:
            raise ValueError("vector kernel runs on_miss='record' with "
                             "preserve_affinity=True only")
        if arrivals is not None or capacity_fn is not None:
            raise ValueError("vector kernel does not support arrivals/capacity_fn")
        self.tasks: List[PfairTask] = list(tasks)
        self.processors = processors
        self.policy = policy if policy is not None else PD2Priority()
        self.early_release = early_release
        self.trace: Optional[ScheduleTrace] = ScheduleTrace() if trace else None
        self.stats = SimStats()
        self.last_scheduled_index: Dict[int, int] = {}

        n = self._n = len(self.tasks)
        # Rows ranked by task id: the narrow key's row field then breaks
        # ties exactly like PD2Priority.key's task-id component.
        order = sorted(range(n), key=lambda i: self.tasks[i].task_id)
        self._rows: List[PfairTask] = [self.tasks[i] for i in order]
        self._row_of: List[int] = [0] * n
        for rank, pos in enumerate(order):
            self._row_of[pos] = rank
        # Per-row scheduling state, carried across chunks — parallel
        # int64 columns.  ``_live`` is the first unscheduled subtask
        # (1-based); ``_elig`` its exact eligibility
        # ``max(static eligibility, predecessor_slot + 1)``.
        self._live = np.ones(n, dtype=np.int64)
        self._elig = np.array([getattr(t, "phase", 0) for t in self._rows],
                              dtype=np.int64)
        self._er: List[bool] = [bool(early_release or t.early_release)
                                for t in self._rows]
        # Per-row stats columns (materialized into TaskStats at the end).
        self._quanta = np.zeros(n, dtype=np.int64)
        self._pre = np.zeros(n, dtype=np.int64)
        self._migr = np.zeros(n, dtype=np.int64)
        self._jp: List[Dict[int, int]] = [{} for _ in range(n)]
        self._last_slot = np.full(n, -2, dtype=np.int64)  # -2 = never
        self._last_job = np.full(n, -1, dtype=np.int64)
        self._lp = np.full(n, -1, dtype=np.int64)         # last processor
        #: Rows in first-allocation order — the reference creates
        #: ``per_task`` entries on first scheduling, and dict equality in
        #: snapshots is order-blind but we reproduce insertion order
        #: anyway so serialized results match byte for byte.
        self._order_seen: List[int] = []
        self._fold_tab: Optional[List[Tuple[int, int]]] = None
        self._busy = 0
        self._idle = 0
        self._H = 0

    # -- main loop -----------------------------------------------------------

    def run(self, horizon: int) -> SimResult:
        """Simulate slots ``0 .. horizon-1`` and return the result."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        tasks = self.tasks
        if self._n == 0 or horizon == 0:
            self._idle += self.processors * horizon
            self._materialize()
            return self._finalize(horizon)

        dbias, gdbits, rowbits, bits = _key_layout(tasks, horizon)
        if bits > MAX_KEY_BITS:
            raise ValueError(
                "task set overflows the narrow key layout; dispatch through "
                "repro.sim.quantum.simulate_pfair, which gates on supports()"
            )
        self._dbias = dbias
        self._gdbits = gdbits
        self._rowbits = rowbits
        ngd_mask = (1 << gdbits) - 1

        # Per-run static columns, concatenated across rows: each task's
        # window-table columns (one job, phase 0) plus the shift-invariant
        # part of the narrow key (b-bit, group-deadline field, row).
        # Everything a chunk needs is then a gather plus an affine add.
        n = self._n
        rows = self._rows
        self._e_arr = np.array([t.execution for t in rows], dtype=np.int64)
        self._p_arr = np.array([t.period for t in rows], dtype=np.int64)
        self._ph_arr = np.array([getattr(t, "phase", 0) for t in rows],
                                dtype=np.int64)
        self._er_arr = np.array(self._er, dtype=bool)
        self._barr = np.zeros(n, dtype=np.int64)
        np.cumsum(self._e_arr[:-1], out=self._barr[1:])
        tables = [t.table for t in rows]
        size = int(self._barr[-1] + self._e_arr[-1])

        def column(lists: Iterable[List[int]]) -> np.ndarray:
            return np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                               count=size)

        self._rel0c = column(tb.releases for tb in tables)
        self._dl0c = column(tb.deadlines for tb in tables)
        bbarc = 1 - column(tb.b_bits for tb in tables)
        # 0 <= D - d < period for a heavy subtask; D = 0 marks a light one.
        gdc = column(tb.group_deadlines for tb in tables)
        ngdc = np.where(gdc == 0, ngd_mask, ngd_mask - 1 - (gdc - self._dl0c))
        rowf = np.repeat(np.arange(n, dtype=np.int64), self._e_arr)
        self._K0c = ((((self._dl0c << 1) | bbarc) << gdbits | ngdc)
                     << rowbits | rowf)
        self._KSH = 1 << (1 + gdbits + rowbits)

        chunk = _chunk_length(tasks, horizon, self.trace is None)
        H = 0
        # Hyperperiod memo: ``seen`` maps this run's boundary signatures
        # to ``(boundary time, snapshot)``; ``deltas`` is the cross-run
        # dict of measured cycle deltas for this normalized system.
        seen: Optional[Dict[tuple, Tuple[int, tuple]]] = None
        deltas: Optional[Dict[tuple, tuple]] = None
        if chunk < horizon:
            H = self._H = chunk
            memo_key = (tuple((t.execution, t.period, t.early_release)
                              for t in tasks),
                        self.processors, self.early_release)
            seen = {}
            deltas = HYPERPERIOD_CACHE.get(memo_key)

        t = 0
        while t < horizon:
            if seen is not None and t > 0 and t % H == 0:
                # Hyperperiod boundary: sample the signature, then tile
                # a known cycle or record this boundary.  Backlog or a
                # miss means the signature does not capture the state.
                if self.stats.misses or bool((self._elig < t).any()):
                    seen = None
                else:
                    sig = self._signature(t)
                    delta = deltas.get(sig) if deltas is not None else None
                    if delta is None and sig in seen:
                        delta = self._measure(t, *seen[sig])
                        if deltas is None:
                            deltas = {}
                            HYPERPERIOD_CACHE.put(memo_key, deltas)
                        deltas[sig] = delta
                    if delta is not None:
                        cycles = (horizon - t) // (delta[0] * H)
                        if cycles > 0:
                            t = self._apply(t, delta, cycles)
                        seen = None
                        if t >= horizon:
                            break
                    else:
                        seen[sig] = (t, self._snapshot())
                        if len(seen) >= MAX_BOUNDARIES:
                            seen = None
            t1 = min(t + H, horizon) if H else horizon
            self._simulate_chunk(t, t1)
            t = t1
        self._materialize()
        return self._finalize(horizon)

    # -- one chunk -----------------------------------------------------------

    def _simulate_chunk(self, t0: int, t1: int) -> None:
        """Place every subtask that can run in ``[t0, t1)`` and fold stats."""
        n = self._n
        M = self.processors
        chunk = t1 - t0
        rows = self._rows
        e_arr = self._e_arr
        live = self._live

        # -- precompute: one flat [pad, subtasks...] block per row -----------
        # Only jobs whose boundary subtask is released before the chunk
        # end can place anything (early release never crosses a job
        # boundary), plus the in-flight job of the live subtask; one
        # sentinel subtask past that carries the eligibility forward.
        jb = np.maximum((t1 - self._ph_arr - 1) // self._p_arr + 1, 0)
        hi = np.maximum(jb, (live - 1) // e_arr + 1) * e_arr + 1
        sizes = hi - live + 2          # block = pad + subtasks live..hi
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offs[1:])
        total = int(offs[n])
        pads = offs[:n]
        rowid = np.repeat(np.arange(n, dtype=np.int64), sizes)
        w = np.arange(total, dtype=np.int64) - np.repeat(pads, sizes)
        idxv = live[rowid] + w - 1     # pad -> live-1 (state overwritten)
        q, j = np.divmod(idxv - 1, e_arr[rowid])
        shift = q * self._p_arr[rowid] + self._ph_arr[rowid]
        g = self._barr[rowid] + j
        dl_ = self._dl0c[g] + shift
        nkey = self._K0c[g] + (shift + (self._dbias - t0)) * self._KSH
        # Slot-relative static eligibility; an ER mid-job successor is
        # eligible the moment its predecessor completes (the chain max in
        # the placement pass supplies ``predecessor_slot + 1``).
        el_ = np.where(self._er_arr[rowid] & (j > 0), 0,
                       self._rel0c[g] + shift) - t0
        np.maximum(el_, 0, out=el_)
        jobs = q + 1
        nkey[pads] = _PAD_KEY
        jobs[pads] = self._last_job
        el_[pads + 1] = np.maximum(self._elig - t0, 0)  # exact carried elig
        pl_l = [chunk] * total                          # chunk == unplaced
        for i3, v3 in zip(pads.tolist(), (self._last_slot - t0).tolist()):
            pl_l[i3] = v3

        # -- key-order earliest-fit placement (per-item loop #1) -------------
        # The union-find array stores the negated spare capacity for root
        # slots (< 0) and the next-candidate pointer for full ones; a
        # bottomless sink root past the chunk end absorbs overflow.
        order = np.argsort(nkey)
        ord_r = order[: total - n]     # pads sort last; skip them
        order_l = ord_r.tolist()
        el_o = el_[ord_r].tolist()
        uf = [-M] * chunk
        uf.append(-(1 << 60))
        for fi, a2 in zip(order_l, el_o):
            s = pl_l[fi - 1] + 1
            if a2 > s:
                s = a2
            if s >= chunk:
                continue
            v = uf[s]
            if v >= 0:                 # full: follow pointers, path-halving
                r2 = v
                while True:
                    v = uf[r2]
                    if v < 0:
                        break
                    uf[s] = v
                    s = r2
                    r2 = v
                s = r2
                if s >= chunk:
                    continue
                v = uf[s]
            pl_l[fi] = s
            v += 1
            uf[s] = s + 1 if not v else v

        pl = np.array(pl_l, dtype=np.int64)
        pl_o = pl[ord_r]
        placed_o = pl_o < chunk
        fi_k = ord_r[placed_o]         # placed allocations, in key order
        s_k = pl_o[placed_o]
        cont_k = pl[fi_k - 1] == s_k - 1

        # -- misses / canonical (slot, key) ordering -------------------------
        # Miss records and trace records follow the reference's (slot,
        # key) emission order; the common fast path (no misses, no
        # trace) never needs the sort.
        trace = self.trace
        miss_any = bool((s_k + t0 >= dl_[fi_k]).any())
        if miss_any or trace is not None:
            o2 = np.lexsort((nkey[fi_k], s_k))
            fi_k = fi_k[o2]
            s_k = s_k[o2]
            cont_k = cont_k[o2]
            if miss_any:
                miss_pos = np.flatnonzero(s_k + t0 >= dl_[fi_k])
                for pos in miss_pos.tolist():
                    fi = int(fi_k[pos])
                    self.stats.misses.append(DeadlineMiss(
                        rows[int(rowid[fi])], int(idxv[fi]),
                        int(dl_[fi]), int(pl[fi]) + t0 + 1))
        n_placed = len(fi_k)

        # -- processors: the affinity fold -----------------------------------
        r_all = rowid[fi_k]
        pf_l = self._fold_affinity(fi_k, s_k, cont_k, pads, total)
        # Migrations, recovered vectorized: a continuation always keeps
        # its processor, so a changed processor with a real predecessor
        # is exactly the reference's migration event.
        pf_arr = np.array(pf_l, dtype=np.int64)
        pfm = pf_arr[fi_k - 1]
        mig_mask = (pfm >= 0) & (pf_arr[fi_k] != pfm)
        if mig_mask.any():
            self._migr += np.bincount(r_all[mig_mask], minlength=n)

        # -- vectorized stat columns -----------------------------------------
        pre_mask = (~cont_k) & (jobs[fi_k] == jobs[fi_k - 1])
        k = np.bincount(r_all, minlength=n)
        newly = np.flatnonzero((self._quanta == 0) & (k > 0))
        if newly.size:
            # First-allocation order: the reference creates per_task
            # entries at the first (slot, key-rank) allocation.
            first = pads[newly] + 1
            ordn = np.lexsort((nkey[first], pl[first]))
            self._order_seen.extend(newly[ordn].tolist())
        self._quanta += k
        self._pre += np.bincount(r_all[pre_mask], minlength=n)
        if pre_mask.any():
            self._count_job_preemptions(r_all[pre_mask],
                                        jobs[fi_k][pre_mask])
        sched = k > 0
        last = pads + k                # row's last placed item (pad if none)
        self._last_slot = np.where(sched, pl[last] + t0, self._last_slot)
        self._last_job = np.where(sched, jobs[last], self._last_job)
        # pf_l[pad] carries the previous chunk's processor for idle rows.
        self._lp = np.fromiter(map(pf_l.__getitem__, last.tolist()),
                               dtype=np.int64, count=n)
        self._live = live + k
        self._elig = np.where(
            sched, np.maximum(el_[last + 1] + t0, pl[last] + t0 + 1),
            self._elig)

        if trace is not None:
            rec = trace.record
            s_t = (s_k + t0).tolist()
            r_t = r_all.tolist()
            i_t = idxv[fi_k].tolist()
            for i2, fi in enumerate(fi_k.tolist()):
                rec(s_t[i2], pf_l[fi], rows[r_t[i2]], i_t[i2])

        self._busy += n_placed
        self._idle += M * chunk - n_placed

    def _fold_affinity(
        self, fi_s: np.ndarray, s_arr: np.ndarray, cont: np.ndarray,
        pads: np.ndarray, total: int,
    ) -> List[int]:
        """Reconstruct the reference's two-pass processor assignment.

        The reference iterates each slot twice in key order: pass 1 lets
        continuations (ran in the previous slot) keep their processor —
        two continuations can never claim the same one — pass 2 gives
        everyone else their last processor if free, else the lowest-
        numbered free one (a migration, when the task ran before).  A
        single pass over the allocations sorted continuations-first
        within each slot is equivalent; a task's last processor is
        always its predecessor item's assignment (``pf[fi - 1]``), with
        the pad items carrying the previous chunk's processors, so the
        whole fold is one scan over flat lists with a free-set bitmask.

        Returns the per-item processor column as a plain list (indexed
        like the flat precompute arrays; ``-1`` where unplaced); the
        caller recovers migrations vectorized from the column.

        The caller may pass allocations in either key order or
        (slot, key) order: both are key-ascending within a slot, so the
        composite sort below lands on the same sequence either way.

        A continuation's processor is provably still free when it is
        reached (continuations come first and never collide), so the
        continuation case coincides with the keep-if-free rule and the
        per-item decision is a pure function of (free mask, previous
        processor) — precomputed as a flat lookup table for small
        machines, with the branchy scan kept as the general fallback.
        """
        # Stable radix sort on the small (slot, is-continuation) key —
        # ties resolve to input position, which is key-ascending.
        m = len(fi_s)
        order2 = np.argsort((s_arr * 2 + (~cont)).astype(np.int32),
                            kind="stable")
        fv = fi_s[order2].tolist()
        so = s_arr[order2]
        ns = np.empty(m, dtype=bool)   # slot-start flags (free-mask reset)
        if m:
            ns[0] = True
            ns[1:] = so[1:] != so[:-1]
        nsv = ns.tolist()
        pf_l = [-1] * total
        for i4, v4 in zip(pads.tolist(), self._lp.tolist()):
            pf_l[i4] = v4
        M = self.processors
        full = (1 << M) - 1
        if M <= 7:
            tab = self._fold_table()
            full_s = (full << 3) | 1    # table index base: (free << 3) + 1
            free = full_s
            for fi, b in zip(fv, nsv):
                if b:
                    free = full_s
                pf_l[fi], free = tab[free + pf_l[fi - 1]]
        else:
            free = full
            for fi, b in zip(fv, nsv):
                if b:
                    free = full
                p = pf_l[fi - 1]
                if p >= 0 and free >> p & 1:
                    free &= ~(1 << p)
                    pf_l[fi] = p
                else:
                    low = free & -free
                    free ^= low
                    pf_l[fi] = low.bit_length() - 1
        return pf_l

    def _fold_table(self) -> List[Tuple[int, int]]:
        """Decision table for :meth:`_fold_affinity` (``M <= 7`` only).

        Indexed by ``(free << 3) + prev_proc + 1``; each entry is
        ``(proc, next_index_base)`` where the stored base already has
        the new free mask shifted and offset, so the hot loop is a
        single add-and-index per allocation.
        """
        tab = self._fold_tab
        if tab is not None:
            return tab
        M = self.processors
        full = (1 << M) - 1
        tab = [(-1, 1)] * ((full << 3) + M + 2)
        for free in range(full + 1):
            for p in range(-1, M):
                if p >= 0 and free >> p & 1:
                    proc, nf = p, free & ~(1 << p)
                elif free:
                    low = free & -free
                    proc, nf = low.bit_length() - 1, free ^ low
                else:       # unreachable: at most M items per slot
                    proc, nf = -1, 0
                tab[(free << 3) + p + 1] = (proc, (nf << 3) | 1)
        self._fold_tab = tab
        return tab

    def _count_job_preemptions(self, pr: np.ndarray, pj: np.ndarray) -> None:
        """Fold per-(row, job) preemption counts into the ``_jp`` dicts."""
        jp_all = self._jp
        jmin = int(pj.min())
        width = int(pj.max()) - jmin + 1
        if self._n * width <= (1 << 22):
            b = np.bincount(pr * width + (pj - jmin))
            nz = np.flatnonzero(b)
            # Row-major packing keeps nz grouped by row; within a row the
            # ascending job order matches the reference's chronological
            # dict insertion order, so a fresh dict is one dict(zip(...)).
            rws = nz // width
            jl = (nz % width + jmin).tolist()
            cl = b[nz].tolist()
            bounds = np.flatnonzero(rws[1:] != rws[:-1]) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [len(nz)]))
            for a, b2, r in zip(starts.tolist(), ends.tolist(),
                                rws[starts].tolist()):
                d2 = jp_all[r]
                if d2:
                    for i5 in range(a, b2):
                        j2 = jl[i5]
                        d2[j2] = d2.get(j2, 0) + cl[i5]
                else:
                    jp_all[r] = dict(zip(jl[a:b2], cl[a:b2]))
        elif int(pj.max()) < (1 << 40) and self._n < (1 << 22):
            packed = (pr << 40) | pj
            u, cts = np.unique(packed, return_counts=True)
            mask = (1 << 40) - 1
            for v, c3 in zip(u.tolist(), cts.tolist()):
                d2 = jp_all[v >> 40]
                j2 = v & mask
                d2[j2] = d2.get(j2, 0) + c3
        else:  # astronomically long horizons: count pairwise instead
            for rr, jj in zip(pr.tolist(), pj.tolist()):
                d2 = jp_all[rr]
                d2[jj] = d2.get(jj, 0) + 1

    # -- hyperperiod memo: boundary signature, cycle delta, tiling -----------

    def _signature(self, now: int) -> tuple:
        """Boundary state per task in task order, relative to ``now``.

        Captures everything the future evolution depends on: the live
        subtask (relative index and eligibility determine its window and
        key up to a uniform shift) and the affinity state used by
        processor assignment and the preemption/migration counters
        (relative slot gap, absolute processor, relative job)."""
        live = self._live
        elig = self._elig
        quanta = self._quanta
        last_slot = self._last_slot
        last_job = self._last_job
        lp = self._lp
        sig: List[tuple] = []
        for pos, t in enumerate(self.tasks):
            r = self._row_of[pos]
            jobs = now // t.period
            if quanta[r] == 0:
                aff: tuple = (None, None, None)
            else:
                aff = (now - int(last_slot[r]), int(lp[r]),
                       int(last_job[r]) - jobs)
            sig.append((int(elig[r]) - now,
                        int(live[r]) - jobs * t.execution) + aff)
        return tuple(sig)

    def _snapshot(self) -> tuple:
        """Per-task counters and busy/idle at a boundary, in task order,
        for :meth:`_measure` to difference against."""
        rows = []
        for pos in range(self._n):
            r = self._row_of[pos]
            rows.append((int(self._quanta[r]), int(self._pre[r]),
                         int(self._migr[r])))
        return (tuple(rows), self._busy, self._idle)

    def _measure(self, now: int, t0: int, snap: tuple) -> tuple:
        """The cycle delta from boundary ``t0`` (whose snapshot is
        ``snap``) to ``now``: ``(cycles, per_task, busy, idle)``, with
        ``cycles`` the cycle length in hyperperiods and ``per_task[pos]``
        ``(quanta, preemptions, migrations, jp_rel)`` for the task at
        position ``pos``, where ``jp_rel`` lists ``(job_offset, count)``
        per-job preemption counts relative to the boundary.  Only plain
        integers relative to the boundary, so a delta measured in one run
        applies verbatim to any later run of an equivalent system."""
        rows_s, busy0, idle0 = snap
        per_task = []
        for pos, t in enumerate(self.tasks):
            r = self._row_of[pos]
            q0, p0, m0 = rows_s[pos]
            jobs0 = t0 // t.period
            jp_rel = tuple(sorted(
                (j - jobs0, cnt)
                for j, cnt in self._jp[r].items() if j > jobs0
            ))
            per_task.append((int(self._quanta[r]) - q0,
                             int(self._pre[r]) - p0,
                             int(self._migr[r]) - m0, jp_rel))
        return ((now - t0) // self._H, tuple(per_task),
                self._busy - busy0, self._idle - idle0)

    def _apply(self, now: int, delta: tuple, c: int) -> int:
        """Tile ``delta`` ``c`` times: advance counters, live indices and
        eligibilities by whole cycles without simulating them."""
        cycles, per_task, busy, idle = delta
        L = cycles * self._H
        shift = c * L
        for pos, t in enumerate(self.tasks):
            r = self._row_of[pos]
            dq, dp, dm, jp_rel = per_task[pos]
            self._quanta[r] += c * dq
            self._pre[r] += c * dp
            self._migr[r] += c * dm
            jobs_per_cycle = L // t.period
            if jp_rel:
                jp = self._jp[r]
                jobs_now = now // t.period
                for i in range(c):
                    base = jobs_now + i * jobs_per_cycle
                    for j_rel, cnt in jp_rel:
                        jp[base + j_rel] = cnt
            self._last_slot[r] += shift
            self._last_job[r] += c * jobs_per_cycle
            self._live[r] += c * jobs_per_cycle * t.execution
            self._elig[r] += shift
        self._busy += c * busy
        self._idle += c * idle
        return now + shift

    # -- result assembly -----------------------------------------------------

    def _materialize(self) -> None:
        """Fold the per-row columns into the public ``SimStats``."""
        per_task = self.stats.per_task
        rows = self._rows
        for r in self._order_seen:
            per_task[rows[r].task_id] = TaskStats(
                quanta=int(self._quanta[r]),
                preemptions=int(self._pre[r]),
                migrations=int(self._migr[r]),
                job_preemptions=self._jp[r],
                last_slot=int(self._last_slot[r]),
                last_proc=int(self._lp[r]),
                last_job=int(self._last_job[r]),
            )
        self.stats.busy_quanta = self._busy
        self.stats.idle_quanta = self._idle
        for r in range(self._n):
            if self._live[r] > 1:
                self.last_scheduled_index[rows[r].task_id] = \
                    int(self._live[r]) - 1

    def _finalize(self, horizon: int) -> SimResult:
        """Sweep unfinished subtasks for misses (canonical key order, the
        same order the reference emits) and package the result."""
        self.stats.slots = horizon
        leftovers = []
        if self._n and horizon > 0:
            # Vectorized deadline prefilter: only materialize Subtask
            # objects for rows whose pending subtask can actually miss.
            i0 = self._live - 1
            q, j = np.divmod(i0, self._e_arr)
            dl = (self._dl0c[self._barr + j] + q * self._p_arr
                  + self._ph_arr)
            for r in np.flatnonzero(dl <= horizon).tolist():
                st = self._rows[r].subtask(int(self._live[r]))
                if st is not None and st.deadline <= horizon:
                    leftovers.append((self.policy.key(st), st))
        leftovers.sort(key=lambda kv: kv[0])
        for _, st in leftovers:
            self.stats.misses.append(
                DeadlineMiss(st.task, st.index, st.deadline, None))
        return SimResult(
            stats=self.stats,
            trace=self.trace,
            horizon=horizon,
            processors=self.processors,
            policy_name=self.policy.name,
            tasks=self.tasks,
        )
