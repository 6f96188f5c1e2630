"""Span tracing from outside the program, for the ``--trace`` run.

Nothing under ``src/`` knows about this module.  A :class:`Tracer`
rebinds the attribute a caller looks up — a module global such as
``repro.analysis.schedulability.pd2_inflate_set``, or a class attribute
such as ``CheckpointStore.write_shard`` — to a wrapper that records a
span around the original.  Spans live in memory as ``(name, start, end,
parent)`` rows; a layer's self time is its spans' durations minus the
durations of their direct children.  Each thread keeps its own span
stack, so the admission server's event-loop thread and the client
thread nest independently.

A target that no longer exists (a later change renamed or deleted the
layer) is recorded in :attr:`Tracer.missing` and skipped; the run goes
on and reports that layer as missing.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "OBSERVE"]

#: Span name for the tracer's own bookkeeping (result observers).  It
#: nests under the span that produced the result, so observation time is
#: subtracted from that span's caller instead of being charged to it.
OBSERVE = "bench.observe"


def _resolve(target: str) -> Any:
    """``"pkg.mod"`` -> module; ``"pkg.mod:Class"`` -> class."""
    module_name, _, class_name = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    return owner


class Tracer:
    """In-memory span recorder plus named counters.

    Wrappers pass straight through while :attr:`active` is false, so
    correctness checks between timed operations leave no spans.
    """

    def __init__(self) -> None:
        self.active = False
        #: ``[name, start, end, parent_index]`` per span, in start order
        #: (a parent always precedes its children).
        self.spans: List[list] = []
        #: Free-form counts recorded by observers (``counts[key] += n``).
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        #: ``target.attr`` strings whose wrap target did not exist.
        self.missing: List[str] = []
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int:
        """Open a span; returns its index for :meth:`leave`."""
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        """Close the span opened as ``idx``."""
        self.spans[idx][2] = perf_counter()
        self._stack().pop()

    def count(self, key: str, n: float = 1.0) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- wrapping ------------------------------------------------------------

    def wrap(self, target: str, attr: str, name: str, *,
             before: Optional[Callable[..., None]] = None,
             after: Optional[Callable[[Any, tuple, dict], None]] = None
             ) -> bool:
        """Rebind ``target.attr`` to a span-recording wrapper.

        ``before(*args, **kwargs)`` runs outside any span (so its cost is
        charged to no layer); ``after(result, args, kwargs)`` runs inside
        an :data:`OBSERVE` child span.  Returns ``False`` and records the
        target in :attr:`missing` when it cannot be resolved.
        """
        try:
            owner = _resolve(target)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{target}.{attr}")
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            idx = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    obs = tracer.enter(OBSERVE)
                    try:
                        after(result, args, kwargs)
                    finally:
                        tracer.leave(obs)
                return result
            finally:
                tracer.leave(idx)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return True

    def unwrap_all(self) -> None:
        """Restore every rebound attribute (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """``(self seconds, calls)`` per span name.

        Self time is the span's duration minus its direct children's;
        children always start after their parent, so one pass suffices.
        """
        child: List[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            selfs[name] += (end - start) - child[i]
            calls[name] += 1
        return selfs, calls

    def roots(self) -> List[int]:
        """For each span, the index of its outermost ancestor."""
        root: List[int] = []
        for i, span in enumerate(self.spans):
            parent = span[3]
            root.append(i if parent < 0 else root[parent])
        return root
