"""Front end of the slot-synchronous engine.

The engine itself — :class:`~repro.core.quantum.QuantumSimulator` — lives
in :mod:`repro.core.quantum`: it *is* the decision procedure the paper's
argument rests on (PD² is defined by what the engine does each slot), so
the layering pass (rule R003) homes it in ``core`` beneath the
campaign-level simulators.  What belongs at the ``sim`` layer is the
dispatch between decision-identical implementations: ``simulate_pfair``
picks the struct-of-arrays kernel (:mod:`repro.sim.vector`) when it
supports the configuration and the reference engine otherwise.  The
historical ``repro.sim.quantum`` import path keeps working for both.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.priority import PriorityPolicy
from ..core.quantum import DeadlineMissError, QuantumSimulator, SimResult
from ..core.task import PfairTask

__all__ = ["QuantumSimulator", "SimResult", "DeadlineMissError", "simulate_pfair"]


def simulate_pfair(
    tasks: Iterable[PfairTask],
    processors: int,
    horizon: int,
    policy: Optional[PriorityPolicy] = None,
    *,
    fastpath: bool = True,
    **kwargs: object,
) -> SimResult:
    """One-call convenience wrapper: build a simulator and run it.

    Dispatches down the decision-identical kernel chain **vector →
    reference**: the struct-of-arrays
    :class:`~repro.sim.vector.VectorPD2Simulator` when it supports the
    configuration, else the reference :class:`QuantumSimulator`.  Each
    call chooses for itself: ``fastpath=False`` forces the reference
    without consulting the vector kernel.  A caller that needs the
    vector kernel checks :func:`~repro.sim.vector.supports` and builds
    it directly.
    """
    task_list = list(tasks)
    if fastpath:
        from .vector import VectorPD2Simulator, supports

        if supports(task_list, processors, horizon, policy, kwargs):
            return VectorPD2Simulator(task_list, processors, policy,
                                      **kwargs).run(horizon)
    sim = QuantumSimulator(task_list, processors, policy, **kwargs)
    return sim.run(horizon)
