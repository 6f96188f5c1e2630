"""Labelled counters and log-bucketed latency histograms.

A deliberately small, dependency-free registry in the Prometheus style:
counters count (requests by verb, retries by shard, batches by size
class) and histograms record latencies into logarithmically spaced
buckets so callers can report meaningful tail percentiles without
storing samples.  Quantiles are estimated by linear interpolation
inside the containing bucket — the standard histogram-quantile estimate,
accurate to a bucket's width (buckets are spaced 1–2–5 per decade, so
estimates are within ~2× and typically much closer).

Two consumers share these primitives: the admission service's request
metrics (:class:`~repro.service.server.AdmissionServer` confines its
registry to the event loop: every update and the ``stats`` verb's
snapshot run there) and the campaign engine's
shard-progress surface (:mod:`repro.campaign.progress`, confined to the
dispatching thread).  Neither takes locks: each registry instance is
single-domain by construction, the types hold no global state, and an
update is cheap enough for every request (two dict increments and a
bisection).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "LatencyHistogram", "MetricsRegistry"]

#: Bucket upper bounds in seconds: 1–2–5 series from 10 µs to 50 s.
#: The final implicit bucket is +inf.
DEFAULT_BOUNDS: List[float] = [
    b * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1)
    for b in (1.0, 2.0, 5.0)
]


class Counter:
    """A monotone counter with string labels (label "" = unlabelled)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def inc(self, label: str = "", n: int = 1) -> None:
        """Add ``n`` (default 1) to ``label``'s count."""
        self._counts[label] = self._counts.get(label, 0) + n

    def value(self, label: str = "") -> int:
        """Current count for ``label`` (0 if never incremented)."""
        return self._counts.get(label, 0)

    def total(self) -> int:
        """Sum across all labels."""
        return sum(self._counts.values())

    def as_dict(self) -> Dict[str, int]:
        """All labels and counts, sorted by label."""
        return dict(sorted(self._counts.items()))


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimates."""

    def __init__(self, bounds: Optional[List[float]] = None) -> None:
        self.bounds = list(DEFAULT_BOUNDS if bounds is None else bounds)
        if any(b <= a for a, b in zip(self.bounds, self.bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = [0] * (len(self.bounds) + 1)  # last = overflow
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample (seconds)."""
        if seconds < 0:
            seconds = 0.0
        self.buckets[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds
        if seconds > self.max:
            self.max = seconds

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile in seconds (``None`` when empty).

        Linear interpolation within the containing bucket; samples in the
        overflow bucket report the largest observed value.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if seen + n >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.max
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - seen) / n
                return min(lo + frac * (hi - lo), self.max)
            seen += n
        return self.max  # pragma: no cover — rank <= count always lands

    def summary(self) -> Dict[str, Any]:
        """Count, mean, and tail percentiles (milliseconds) for reports."""
        def ms(v: Optional[float]) -> Optional[float]:
            return None if v is None else round(v * 1e3, 4)

        return {
            "count": self.count,
            "mean_ms": ms(self.sum / self.count) if self.count else None,
            "p50_ms": ms(self.quantile(0.50)),
            "p90_ms": ms(self.quantile(0.90)),
            "p99_ms": ms(self.quantile(0.99)),
            "max_ms": ms(self.max if self.count else None),
        }


class MetricsRegistry:
    """Named counters and histograms, snapshotted by the ``stats`` verb."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter()
            return c

    def histogram(self, name: str) -> LatencyHistogram:
        """Get or create the histogram ``name``."""
        try:
            return self._histograms[name]
        except KeyError:
            h = self._histograms[name] = LatencyHistogram()
            return h

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as one JSON-friendly dict."""
        return {
            "counters": {name: c.as_dict()
                         for name, c in sorted(self._counters.items())},
            "latency": {name: h.summary()
                        for name, h in sorted(self._histograms.items())},
        }
