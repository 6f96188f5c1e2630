"""Process-wide kernel toggle.

The accelerated code paths — the struct-of-arrays PD² vector kernel and
the analysis cache in front of the schedulability tests — are
*decision-identical* to the reference implementations: the differential
test suite proves it.  An escape hatch is still good engineering:
``--no-fastpath`` / ``REPRO_NO_FASTPATH=1`` forces every computation
back onto the reference code paths, e.g. to bisect a suspected kernel
bug or to benchmark the reference.

The toggle is read at call sites, not import time, so tests can flip it
per-case.  Worker processes inherit it through the campaign pool
initializer (:mod:`repro.campaign.pool`) and through the environment
variable.
"""

from __future__ import annotations

import os

__all__ = ["fastpath_enabled", "set_fastpath"]

_override: bool | None = None


def fastpath_enabled() -> bool:
    """True when fast-path implementations should be used (the default)."""
    if _override is not None:
        return _override
    return os.environ.get("REPRO_NO_FASTPATH", "") in ("", "0")


def set_fastpath(enabled: bool | None) -> None:
    """Force the fast path on/off; ``None`` restores the environment
    default (``REPRO_NO_FASTPATH``)."""
    global _override
    _override = enabled
