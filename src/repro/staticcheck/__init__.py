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
  environment reads outside ``util/toggles.py`` in ``core/`` + ``sim/``.
* **R003 layering** — the import DAG ``util → core → workload →
  overheads/partition → sim → … → analysis/service`` admits no upward
  imports and no package cycles.
* **R005 hygiene** — no mutable default arguments, bare ``except``, or
  control-flow ``assert`` in library code.

Four further rules are *interprocedural*: they run over a project-wide
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
* **R009 fork-safety** — nothing transitively holding a lock, socket,
  or event loop crosses a process boundary.

One more is a *dataflow* rule, built on a syntactic wire-protocol
model (:mod:`repro.staticcheck.dataflow`):

* **R012 wire-conformance** — every registered wire verb has a
  handler, every emitted verb is registered, every emitted field is
  read by a peer, and persisted payloads are format-tag-checked where
  their keys are read.

The last three form the *determinism-provenance* layer
(:mod:`repro.staticcheck.provenance`, :mod:`repro.staticcheck.ordering`),
a taint analysis over the same call graph plus an iteration-order
classifier (see docs/DETERMINISM.md):

* **R013 seed-provenance** — every RNG constructed in ``core/``,
  ``sim/``, ``campaign/``, ``workload/`` is seeded from campaign-seed
  arithmetic; witnessed ambient entropy (no-arg constructions,
  ``time``/``os.urandom``/``uuid``/``id()``/``hash()``-derived seeds)
  is flagged with the full origin → sink chain.
* **R014 ordering-soundness** — unordered iteration order (sets,
  ``listdir``/``glob``, completion order, thread-fed queues,
  thread-mutated dict attributes) must not reach appended rows,
  accumulated floats, yields, writes, or callbacks; ``sorted(...)`` at
  the point of use launders.
* **R015 canonical-serialization** — ``json.dumps``/``dump`` whose
  bytes are persisted, hashed, or framed on the wire must pass
  ``sort_keys=True`` and pin ``separators=`` or ``indent=``.

Each project rule *declares* the analysis passes it needs
(:mod:`repro.staticcheck.passes`), so ``--select R013`` builds the
seed-taint pass and nothing else.

Retired ids (R004, R010, R011) are never reused.  The vector kernel's
key budget and dtype soundness are checked by tests that run the real
kernel (``TestKeyBudget`` and ``TestDtypes`` in
``tests/test_sim_vector.py``).

Call-graph resolution is unsound in the direction of silence: dynamic
dispatch degrades to an ``unknown`` target, so these rules miss dynamic
code but never invent findings.

Violations are suppressed line-by-line with ``# staticcheck:
allow[R001]`` pragmas (a justification comment is expected next to every
pragma) or, transitionally, via a committed JSON baseline that makes CI
fail only on *new* violations.
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
