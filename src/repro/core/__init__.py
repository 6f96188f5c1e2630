"""Core Pfair scheduling: task models, subtask parameters, priority policies.

This subpackage implements the paper's primary contribution — the PD²
proportionate-fair scheduler and its relatives (PF, PD, EPDF, ERfair) —
over exact integer arithmetic, together with the decision engines that
drive them (the slot-synchronous :mod:`~repro.core.quantum` engine and
the event-driven :mod:`~repro.core.uniproc` engine).  See
:mod:`repro.sim` for the campaign-level simulators layered on top
(struct-of-arrays PD² kernel, hyperperiod caching, staggered/variable
quanta).
"""

from .rational import Weight, weight_sum
from .subtask import (
    SubtaskParams,
    WindowTable,
    b_bit,
    group_deadline,
    pseudo_deadline,
    pseudo_release,
    window_length,
    window_table,
)
from .task import (
    IntraSporadicTask,
    PeriodicTask,
    PfairTask,
    SporadicTask,
    Subtask,
    TaskSet,
)
from .priority import (
    EPDFPriority,
    PD2Priority,
    PDPriority,
    PFPriority,
    PriorityPolicy,
)
from .epdf import EPDFScheduler, schedule_epdf
from .erfair import ERPD2Scheduler, is_work_conserving_run, schedule_erfair
from .events import EventQueue
from .metrics import DeadlineMiss, SimStats, TaskStats
from .quantum import DeadlineMissError, QuantumSimulator, SimResult
from .trace import Allocation, ScheduleTrace
from .uniproc import UniprocSimulator, UniTask
from .lag import LagTracker, ideal_allocation
from .pd import PDScheduler, schedule_pd
from .pd2 import PD2Scheduler, schedule_pd2
from .pf import PFScheduler, schedule_pf
from .wrr import WeightedRoundRobin, WRRResult, simulate_wrr

__all__ = [
    "Weight",
    "weight_sum",
    "SubtaskParams",
    "WindowTable",
    "window_table",
    "pseudo_release",
    "pseudo_deadline",
    "b_bit",
    "window_length",
    "group_deadline",
    "Subtask",
    "PfairTask",
    "PeriodicTask",
    "SporadicTask",
    "IntraSporadicTask",
    "TaskSet",
    "PriorityPolicy",
    "PD2Priority",
    "PDPriority",
    "PFPriority",
    "EPDFPriority",
    "LagTracker",
    "ideal_allocation",
    "PD2Scheduler",
    "schedule_pd2",
    "PDScheduler",
    "schedule_pd",
    "PFScheduler",
    "schedule_pf",
    "EPDFScheduler",
    "schedule_epdf",
    "EventQueue",
    "DeadlineMiss",
    "SimStats",
    "TaskStats",
    "DeadlineMissError",
    "QuantumSimulator",
    "SimResult",
    "Allocation",
    "ScheduleTrace",
    "UniprocSimulator",
    "UniTask",
    "ERPD2Scheduler",
    "schedule_erfair",
    "is_work_conserving_run",
    "WeightedRoundRobin",
    "WRRResult",
    "simulate_wrr",
]
