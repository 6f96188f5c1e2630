"""Utilization and period distributions for random task-set generation.

The paper says only that task sets were "generated randomly" with a given
total utilization; DESIGN.md §5 fixes our concrete choice (uniform simplex
for utilizations, log-uniform quantum-aligned periods) and this module
provides that plus the alternatives used by the distribution ablations.

All samplers take a :class:`numpy.random.Generator` so every experiment is
seeded and reproducible; all outputs are plain Python numbers (periods are
integers aligned to the quantum grid), except :func:`period_array`, the
int64 column the generator builds its sets from.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

__all__ = [
    "uniform_simplex_utilizations",
    "uniform_utilizations",
    "bimodal_utilizations",
    "exponential_utilizations",
    "log_uniform_periods",
    "period_array",
    "UTILIZATION_SAMPLERS",
]

#: Cap on any single task's utilization.  Pfair weights must be <= 1, and a
#: task near u = 1 cannot absorb *any* overhead inflation (Eq. (3)) on the
#: shortest periods — the paper's campaigns clearly contained no such task
#: (its Fig. 3 curves never report infeasibility).  0.95 leaves room for
#: the worst-case inflation on a 50-quantum period while still generating
#: heavy (>= 1/2) tasks.
_U_CAP = 0.95


def _rescale_to_total(us: np.ndarray, total: float) -> List[float]:
    """Scale ``us`` to sum to ``total``, iteratively clipping at the cap.

    Clipping one value redistributes its excess over the others; a handful
    of passes suffices because the cap only binds when total/N approaches 1.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 1 or len(us) == 0:
        raise ValueError("need a non-empty 1-D utilization vector")
    if not 0 < total <= len(us) * _U_CAP:
        raise ValueError(
            f"total utilization {total} not achievable with {len(us)} tasks"
        )
    us = us / us.sum() * total
    for _ in range(64):
        over = us > _U_CAP
        if not over.any():
            break
        excess = float((us[over] - _U_CAP).sum())
        us[over] = _U_CAP
        under = ~over
        headroom = _U_CAP - us[under]
        us[under] += headroom / headroom.sum() * excess
    return us.tolist()


def uniform_simplex_utilizations(rng: np.random.Generator, n: int,
                                 total: float) -> List[float]:
    """Utilizations uniform on the simplex summing to ``total``
    (symmetric Dirichlet) — the default, matching DESIGN.md §5."""
    return _rescale_to_total(rng.dirichlet(np.ones(n)), total)


def uniform_utilizations(rng: np.random.Generator, n: int,
                         total: float) -> List[float]:
    """I.i.d. U(0, 1) draws rescaled to the target total."""
    return _rescale_to_total(rng.uniform(0.0, 1.0, size=n) + 1e-9, total)


def bimodal_utilizations(rng: np.random.Generator, n: int, total: float, *,
                         heavy_fraction: float = 0.1) -> List[float]:
    """A light/heavy mix: most draws near 0.05, a few near 0.5, rescaled.

    Exercises the partitioning-hostile regime (heavy tasks fragment bins)
    that drives the paper's ``(M+1)/2`` worst case.
    """
    kind = rng.uniform(size=n) < heavy_fraction
    us = np.where(kind, rng.uniform(0.4, 0.6, size=n), rng.uniform(0.01, 0.1, size=n))
    return _rescale_to_total(us, total)


def exponential_utilizations(rng: np.random.Generator, n: int,
                             total: float) -> List[float]:
    """Exponential draws rescaled — a long right tail of demanding tasks."""
    return _rescale_to_total(rng.exponential(1.0, size=n) + 1e-9, total)


UTILIZATION_SAMPLERS = {
    "simplex": uniform_simplex_utilizations,
    "uniform": uniform_utilizations,
    "bimodal": bimodal_utilizations,
    "exponential": exponential_utilizations,
}


#: Largest ``max_period`` :func:`period_array` takes: rounding may add up
#: to a quantum, and the result must stay an exact int64.
_MAX_PERIOD = 2**62


def log_uniform_periods(rng: np.random.Generator, n: int, *,
                        quantum: int = 1000,
                        min_period: int = 50_000,
                        max_period: int = 5_000_000) -> List[int]:
    """Periods log-uniform in [min_period, max_period] ticks, rounded to the
    quantum grid (the paper assumes periods are quantum multiples).

    Defaults: 50 ms – 5 s on a 1 ms quantum, in µs ticks.
    """
    return period_array(rng, n, quantum=quantum, min_period=min_period,
                        max_period=max_period).tolist()


def period_array(rng: np.random.Generator, n: int, *, quantum: int,
                 min_period: int, max_period: int) -> np.ndarray:
    """:func:`log_uniform_periods` as an int64 array (the generator's
    column)."""
    if min_period < quantum:
        raise ValueError("min_period must be at least one quantum")
    if max_period > _MAX_PERIOD:
        raise ValueError(f"max_period must be at most {_MAX_PERIOD} ticks "
                         "(int64 periods)")
    lo, hi = math.log(min_period), math.log(max_period)
    # libm's exp per draw: np.exp differs from it in the last ulp, which
    # would change generated periods.  Only the rounding and the clip,
    # which a test proves identical to the scalar code, are vectorised.
    raw = np.fromiter(map(math.exp, rng.uniform(lo, hi, size=n).tolist()),
                      dtype=np.float64, count=n)
    return _quantize_periods(raw, quantum, (max_period // quantum) * quantum)


def _quantize_periods(raw: np.ndarray, quantum: int, top: int) -> np.ndarray:
    """``max(quantum, min(int(round(x / quantum)) * quantum, top))`` for
    every ``x`` in ``raw``.

    ``x / quantum`` is the same correctly rounded division in numpy as in
    Python, and ``np.rint`` rounds halves to even as ``round`` does on a
    float.  The clip is written as Python's ``max(min(...))``, which
    gives ``quantum`` when ``top < quantum`` (``np.clip`` would give
    ``top``).
    """
    periods = np.rint(raw / quantum).astype(np.int64) * quantum
    return np.maximum(np.minimum(periods, top), quantum)
