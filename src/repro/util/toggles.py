"""The in-process analysis-cache bypass.

:func:`set_fastpath` with ``False`` makes the schedulability analyses
(:mod:`repro.analysis.schedulability`) skip ``ANALYSIS_CACHE`` in the
current process, so a check can recompute every answer from scratch.
That is all it switches.  The simulator's kernel is chosen per call
(``simulate_pfair(..., fastpath=False)`` forces the reference), code
that wants the uncached analysis can call ``evaluate_columns``, pool
workers do not inherit the bypass, and no environment variable sets it.
"""

from __future__ import annotations

__all__ = ["analysis_cache_on", "set_fastpath"]

_cache_on = True


def analysis_cache_on() -> bool:
    """False while :func:`set_fastpath` has turned the cache off."""
    return _cache_on


def set_fastpath(enabled: bool | None) -> None:
    """Skip the analysis cache in this process (``False``); ``True`` or
    ``None`` use it again (the default)."""
    global _cache_on
    _cache_on = enabled is not False
