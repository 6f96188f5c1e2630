"""``repro.staticcheck`` — AST-based invariant checker for this repository.

The paper's argument rests on PD² making *exact* priority decisions:
integer quanta, rational weights, the Eq. (3) inflation.  One float
leaking into a tie-break, one seedless RNG in a cached code path, or one
upward import that lets a campaign-level module reach into the decision
engine, silently breaks invariants that the dynamic test suite can only
sample.  This package enforces them statically, at commit time, from the
AST alone — stdlib ``ast`` only, no third-party dependencies.

Rules (see :mod:`repro.staticcheck.rules` and docs/STATIC_ANALYSIS.md):

* **R001 exactness** — no float literals, ``float()`` calls, or true
  division in decision paths (``core/`` and the vectorized kernel
  ``sim/vector.py``); numpy float dtypes are banned in the kernel.
* **R002 determinism** — no seedless RNGs, wall-clock reads, or
  environment reads in ``core/``, ``sim/``, ``campaign/``, ``distrib/``,
  ``traces/`` and ``workload/``.
* **R003 layering** — the import DAG ``util → core → workload →
  overheads/partition → sim → … → analysis/service`` admits no upward
  imports and no package cycles.
* **R005 hygiene** — no mutable default arguments, bare ``except``, or
  control-flow ``assert`` in library code.

Three further rules are *interprocedural*: they run over a project-wide
symbol table / call graph (:mod:`repro.staticcheck.callgraph`) with
thread-domain inference (:mod:`repro.staticcheck.domains`), enforcing
the concurrency model written down in docs/CONCURRENCY.md:

* **R006 blocking-in-async** — no blocking calls (``time.sleep``,
  ``open``, ``subprocess``, socket connects, …) reachable from
  event-loop code.
* **R007 domain-confinement** — no module-level mutable state written
  from two thread domains without a recognised lock.
* **R008 lock-discipline** — no lock-order cycles (lexical or through
  calls), no ``await`` under a sync lock, no bare ``acquire()``.

Retired ids (R004, R009–R015) are never reused.  What crosses a
process boundary is checked by the pool's own pickling, which refuses
a lock or socket on every attempt; ``dispatch_jobs`` reports that cause
(``tests/test_campaign.py``).  The vector kernel's key budget and dtype
soundness are checked by tests that run the real kernel
(``TestKeyBudget`` and ``TestDtypes`` in
``tests/test_sim_vector.py``), and the JSON-lines wire protocol by
tests that run its real peers (``tests/test_wire_protocol.py``).
Campaign determinism (seeds, iteration order, canonical JSON) is
checked on the bytes real runs write: two-hash-seed, ``-j N`` and
fleet byte-identity runs, plus a sorted-keys re-dump of every file and
frame (see docs/DETERMINISM.md).  R002 keeps the static part: no RNG
built without a seed.

Call-graph resolution is unsound in the direction of silence: dynamic
dispatch degrades to an ``unknown`` target, so these rules miss dynamic
code but never invent findings.

Every run is a hard gate.  The one way to suppress a finding is a
per-line ``# staticcheck: allow[R001]`` pragma, with a justification
comment expected next to it.
"""

from __future__ import annotations

from .callgraph import ProjectIndex
from .domains import DomainAnalysis
from .engine import CheckResult, Checker, ModuleInfo, run_checks
from .rules import RULES, Rule
from .violations import Violation

__all__ = [
    "Checker",
    "CheckResult",
    "DomainAnalysis",
    "ModuleInfo",
    "ProjectIndex",
    "run_checks",
    "RULES",
    "Rule",
    "Violation",
]
