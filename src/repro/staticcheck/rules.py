"""The domain rules: R001–R003 and R005.

Each rule is a small class with a ``check_module`` hook (one file at a
time) and an optional ``finalize`` hook (after every file is parsed, for
cross-file invariants).  Rules yield :class:`~repro.staticcheck.violations.Violation`
records; the engine applies pragma suppression afterwards, so rules never
need to know about pragmas.

The rule ids are stable API — pragmas and CI logs refer to them — so
new checks get new ids rather than changing what an existing id means,
and a retired id (R004, R010–R015) is never reused.
"""

from __future__ import annotations

import ast
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence,
                    Set, Tuple)

from .engine import ModuleInfo
from .violations import Violation

if TYPE_CHECKING:
    from .callgraph import ProjectIndex

__all__ = [
    "Rule",
    "RULES",
    "ExactnessRule",
    "DeterminismRule",
    "LayeringRule",
    "HygieneRule",
    "LAYERS",
]


class Rule:
    """Base class: subclasses set the id/name/description and override
    one or more hooks."""

    rule_id = "R000"
    name = "abstract"
    description = ""
    #: Set to True by rules that override ``check_project`` — the engine
    #: builds the (expensive) ProjectIndex only when a selected rule
    #: actually needs it.
    uses_project = False

    def check_module(self, module: ModuleInfo) -> Iterable[Violation]:
        return ()

    def finalize(self, modules: Sequence[ModuleInfo]) -> Iterable[Violation]:
        return ()

    def check_project(self, project: "ProjectIndex") -> Iterable[Violation]:
        """Whole-project hook: runs once with the cross-module symbol
        table / call graph (see :mod:`~repro.staticcheck.callgraph`)."""
        return ()

    def _violation(self, module: ModuleInfo, node: ast.AST,
                   message: str) -> Violation:
        return Violation(path=module.relpath,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         rule_id=self.rule_id, message=message)


def _import_aliases(tree: ast.Module, module_name: str) -> Set[str]:
    """Local names bound to ``import module_name [as alias]``."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module_name or \
                        alias.name.startswith(module_name + "."):
                    out.add((alias.asname or alias.name).split(".")[0])
    return out


def _from_import_aliases(tree: ast.Module, module_name: str,
                         names: Iterable[str]) -> Set[str]:
    """Local names bound to ``from module_name import name [as alias]``
    for any ``name`` in ``names``."""
    wanted = set(names)
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level \
                and node.module == module_name:
            for alias in node.names:
                if alias.name in wanted:
                    out.add(alias.asname or alias.name)
    return out


# ---------------------------------------------------------------------------
# R001 — exactness


class ExactnessRule(Rule):
    """No inexact arithmetic in decision paths.

    PD² tie-breaks are exact: integer quanta, rational weights, integer
    packed keys.  A single float literal, ``float()`` conversion, or true
    division (``/``) inside ``core/`` or ``sim/vector.py`` can silently
    change a priority comparison — the class of bug the differential
    suite can only catch by luck.  Metric/export conversions that
    genuinely need floats carry a line pragma with a justification.

    The vectorized kernel (``sim/vector.py``) gets the same base checks
    *plus* numpy dtype gating.  A single ``np.float64`` column — or one
    ``np.true_divide`` — silently rounds the narrow 62-bit priority keys
    above 2**53 and reorders ties, so spelled float dtypes and numpy's
    true-division entry points are flagged outright.  Implicit ones
    (``np.zeros(n)``, ``uint64`` mixed with signed) are not visible per
    statement; ``TestDtypes`` in ``tests/test_sim_vector.py`` checks the
    running kernel's dtypes.
    """

    rule_id = "R001"
    name = "exactness"
    description = ("no float literals, float() calls, or true division "
                   "in decision paths (core/, sim/vector.py); no numpy "
                   "float dtypes in sim/vector.py")

    SCOPE_PACKAGES = ("core",)
    #: Vectorized decision kernels: base checks apply *and* numpy float
    #: dtypes are flagged (int64 keys survive exactly; float64 mantissas
    #: do not).
    NUMPY_KERNEL_FILES = ("sim/vector.py",)

    #: ``np.<attr>`` spellings of inexact dtypes.
    FLOAT_DTYPE_ATTRS = frozenset({
        "float16", "float32", "float64", "float128", "half", "single",
        "double", "longdouble", "floating", "complex64", "complex128",
        "csingle", "cdouble", "complexfloating"})
    #: numpy callables that perform true division whatever the inputs.
    TRUE_DIVISION_FUNCS = frozenset({"divide", "true_divide"})
    #: dtype spellings as plain names / dtype-string prefixes.
    FLOAT_DTYPE_NAMES = ("float", "complex")

    def _in_scope(self, module: ModuleInfo) -> bool:
        return (module.package in self.SCOPE_PACKAGES
                or module.relpath in self.NUMPY_KERNEL_FILES)

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        if not self._in_scope(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             (float, complex)):
                yield self._violation(
                    module, node,
                    f"float literal {node.value!r} in a decision path")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "float":
                yield self._violation(
                    module, node, "float() conversion in a decision path")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.Div):
                yield self._violation(
                    module, node,
                    "true division (/) in a decision path — use //, "
                    "Weight, or Fraction")
        if module.relpath in self.NUMPY_KERNEL_FILES:
            yield from self._check_numpy_kernel(module)

    def _is_float_dtype_expr(self, node: ast.AST,
                             numpy_aliases: Set[str]) -> bool:
        """Does ``node`` spell an inexact dtype (``float``, ``'float32'``,
        ``np.float64``, …)?  ``np.<attr>`` forms are excluded here — the
        attribute walk in :meth:`_check_numpy_kernel` already flags them
        wherever they appear, so flagging them again inside ``dtype=``
        would double-report one line."""
        if isinstance(node, ast.Name):
            return node.id in self.FLOAT_DTYPE_NAMES
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.lstrip("<>=|").startswith(
                self.FLOAT_DTYPE_NAMES + ("f2", "f4", "f8", "c8", "c16"))
        return False

    def _check_numpy_kernel(self, module: ModuleInfo) -> Iterator[Violation]:
        numpy_aliases = _import_aliases(module.tree, "numpy")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in numpy_aliases:
                if node.attr in self.FLOAT_DTYPE_ATTRS:
                    yield self._violation(
                        module, node,
                        f"float dtype {node.value.id}.{node.attr} in a "
                        "vectorized decision kernel — integer dtypes only")
                elif node.attr in self.TRUE_DIVISION_FUNCS:
                    yield self._violation(
                        module, node,
                        f"{node.value.id}.{node.attr}() is true division "
                        "— use // or floor_divide")
            elif isinstance(node, ast.keyword) and node.arg == "dtype" and \
                    self._is_float_dtype_expr(node.value, numpy_aliases):
                yield self._violation(
                    module, node.value,
                    "float dtype= in a vectorized decision kernel — "
                    "integer dtypes only")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "astype" and node.args and \
                    self._is_float_dtype_expr(node.args[0], numpy_aliases):
                yield self._violation(
                    module, node,
                    "astype() to a float dtype in a vectorized decision "
                    "kernel — integer dtypes only")


# ---------------------------------------------------------------------------
# R002 — determinism


class DeterminismRule(Rule):
    """No hidden nondeterminism in cached/simulated code paths.

    ``core/`` and ``sim/`` results are memoised across runs (hyperperiod
    cache, analysis cache) and replayed in differential tests, so any
    global-state RNG, wall-clock read, or environment read there breaks
    reproducibility.  That includes the accelerated kernel
    (``sim/vector.py``): its cycle deltas are shared across runs through
    one cache keyed only on task parameters, so a hidden environment
    read in the kernel would poison later replays.  ``campaign/`` is in
    scope because its checkpoints promise byte-identical resume: shard
    planning and seeding must stay clock-free (only the runner's dispatch loop may read clocks, for
    backoff/timeouts/metrics — see :data:`CLOCK_EXEMPT_FILES`).
    ``distrib/`` inherits the same contract — wire codecs and the lease
    table are clock-free; only the two process-facing files (worker
    server and coordinator) may read clocks, for heartbeats and lease
    deadlines.  ``traces/`` is in scope
    because trace-replay campaigns promise the same byte-identical
    resume: the SWF parser and job→task mapping must be pure functions
    of the log, and the replay worker's only randomness is the
    planner-seeded ``default_rng`` (per docs/DETERMINISM.md).
    ``workload/`` is in scope because the task-set generator draws every
    Fig. 3/4 set from its seeded Generator.  Configuration reaches these
    packages as arguments, never from the environment.

    A seeded numpy constructor (``default_rng``, ``SeedSequence``,
    ``PCG64``, ``Philox``) called with no seed, or with a literal
    ``None``, draws its seed from OS entropy and is flagged too.  Where
    a passed seed comes from is a runtime question: the two-hash-seed
    and ``-j N`` byte-identity tests in ``tests/test_campaign.py`` run
    the real campaigns and compare their bytes.
    """

    rule_id = "R002"
    name = "determinism"
    description = ("no seedless RNGs, wall-clock reads, or environment "
                   "reads in core/ + sim/ + campaign/ + distrib/ + "
                   "traces/ + workload/")

    SCOPE_PACKAGES = ("core", "sim", "campaign", "distrib", "traces",
                      "workload")
    #: Files in scope that may read wall clocks: the campaign *runner*
    #: owns retry backoff, timeouts, throughput metering, and run-metadata
    #: timestamps — all of which live outside the determinism contract
    #: (shard planning, seeding, and results never depend on them); the
    #: distrib worker and coordinator own heartbeat pacing and lease
    #: deadlines under the identical argument.  The RNG and environment
    #: checks still apply there.
    CLOCK_EXEMPT_FILES = ("campaign/runner.py", "distrib/worker.py",
                          "distrib/coordinator.py")

    #: Wall-clock reads by module attribute.
    CLOCK_ATTRS = {
        "time": {"time", "time_ns", "monotonic", "monotonic_ns",
                 "perf_counter", "perf_counter_ns", "process_time",
                 "process_time_ns"},
        "datetime": {"now", "utcnow", "today"},
    }
    #: ``np.random.*`` members that are explicitly seeded constructions.
    SEEDED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence",
                        "PCG64", "Philox", "BitGenerator"}
    #: Constructors that seed themselves from OS entropy when their seed
    #: argument is missing or ``None``.
    ENTROPY_WHEN_UNSEEDED = frozenset({"default_rng", "SeedSequence",
                                       "PCG64", "Philox"})
    #: Keyword names that carry the seed (``Philox`` also takes ``key``).
    SEED_KEYWORDS = frozenset({"seed", "entropy", "key"})

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        if module.package not in self.SCOPE_PACKAGES:
            return
        clocks_exempt = module.relpath in self.CLOCK_EXEMPT_FILES
        tree = module.tree
        random_aliases = _import_aliases(tree, "random")
        time_aliases = _import_aliases(tree, "time")
        datetime_aliases = _import_aliases(tree, "datetime")
        os_aliases = _import_aliases(tree, "os")
        numpy_aliases = _import_aliases(tree, "numpy")
        # ``from datetime import datetime [as dt]`` binds the *class*
        # locally — resolve those bindings so ``dt.now()`` is caught too.
        datetime_cls_aliases = _from_import_aliases(
            tree, "datetime", ("datetime", "date"))
        # ``from numpy.random import default_rng [as rng]``.
        ctor_aliases = _from_import_aliases(
            tree, "numpy.random", self.ENTROPY_WHEN_UNSEEDED)

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_unseeded_ctor(
                    module, node, numpy_aliases, ctor_aliases)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(module, node,
                                                   clocks_exempt)
            elif isinstance(node, ast.Attribute):
                yield from self._check_attribute(
                    module, node, random_aliases, time_aliases,
                    datetime_aliases, os_aliases, numpy_aliases,
                    datetime_cls_aliases, clocks_exempt)

    def _check_unseeded_ctor(self, module: ModuleInfo, node: ast.Call,
                             numpy_aliases: Set[str],
                             ctor_aliases: Set[str]) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ctor_aliases:
            name = func.id
        elif isinstance(func, ast.Attribute) and \
                func.attr in self.ENTROPY_WHEN_UNSEEDED and \
                isinstance(func.value, ast.Attribute) and \
                func.value.attr == "random" and \
                isinstance(func.value.value, ast.Name) and \
                func.value.value.id in numpy_aliases:
            name = func.attr          # np.random.<ctor>(...)
        else:
            return
        if any(isinstance(arg, ast.Starred) for arg in node.args) or \
                any(kw.arg is None for kw in node.keywords):
            return  # forwarded *args/**kwargs: the seed is not visible
        seeds = node.args[:1] + [kw.value for kw in node.keywords
                                 if kw.arg in self.SEED_KEYWORDS]
        if all(isinstance(seed, ast.Constant) and seed.value is None
               for seed in seeds):
            yield self._violation(
                module, node,
                f"{name}() without a seed draws OS entropy — pass a seed "
                "derived from the campaign seed")

    def _check_import_from(self, module: ModuleInfo, node: ast.ImportFrom,
                           clocks_exempt: bool) -> Iterator[Violation]:
        if node.level or node.module is None:
            return
        top = node.module.split(".")[0]
        names = {alias.name for alias in node.names}
        if top == "random":
            yield self._violation(
                module, node,
                "stdlib random is a global-state RNG — use a seeded "
                "numpy Generator")
        elif node.module == "time" and names & self.CLOCK_ATTRS["time"] \
                and not clocks_exempt:
            yield self._violation(
                module, node, "wall-clock import from time")
        elif top == "os":
            if names & {"environ", "getenv"}:
                yield self._violation(
                    module, node,
                    "environment read — pass configuration as an "
                    "argument")

    def _check_attribute(self, module: ModuleInfo, node: ast.Attribute,
                         random_aliases: Set[str], time_aliases: Set[str],
                         datetime_aliases: Set[str], os_aliases: Set[str],
                         numpy_aliases: Set[str],
                         datetime_cls_aliases: Set[str],
                         clocks_exempt: bool) -> Iterator[Violation]:
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in datetime_cls_aliases and \
                    node.attr in self.CLOCK_ATTRS["datetime"]:
                if not clocks_exempt:
                    yield self._violation(
                        module, node,
                        f"wall-clock read {base.id}.{node.attr} "
                        "(datetime class imported via from-import)")
            elif base.id in random_aliases:
                yield self._violation(
                    module, node,
                    f"random.{node.attr}: global-state RNG — use a "
                    "seeded numpy Generator")
            elif base.id in time_aliases and \
                    node.attr in self.CLOCK_ATTRS["time"]:
                if not clocks_exempt:
                    yield self._violation(
                        module, node, f"wall-clock read time.{node.attr}")
            elif base.id in os_aliases and node.attr in ("environ", "getenv"):
                yield self._violation(
                    module, node,
                    f"os.{node.attr}: environment read — pass "
                    "configuration as an argument")
        elif isinstance(base, ast.Attribute):
            # np.random.<fn> — legacy global RNG unless explicitly seeded.
            if isinstance(base.value, ast.Name) and \
                    base.value.id in numpy_aliases and \
                    base.attr == "random" and \
                    node.attr not in self.SEEDED_NP_RANDOM:
                yield self._violation(
                    module, node,
                    f"numpy.random.{node.attr}: legacy global RNG — use "
                    "numpy.random.default_rng(seed)")
            # datetime.datetime.now() / datetime.date.today()
            elif isinstance(base.value, ast.Name) and \
                    base.value.id in datetime_aliases and \
                    base.attr in ("datetime", "date") and \
                    node.attr in self.CLOCK_ATTRS["datetime"] and \
                    not clocks_exempt:
                yield self._violation(
                    module, node,
                    f"wall-clock read datetime.{base.attr}.{node.attr}")


# ---------------------------------------------------------------------------
# R003 — layering


#: The import DAG, bottom up.  A module may only import packages at its
#: own layer or below; ties (overheads/partition, sync/fault) are sibling
#: packages that must stay mutually independent — the cycle check catches
#: them if they ever entangle.  Top-level modules (``cli.py``,
#: ``__main__.py``, ``__init__.py``) are the application shell and may
#: import anything.
LAYERS: Dict[str, int] = {
    "util": 0,
    "staticcheck": 0,
    "core": 1,
    "netfair": 1,
    "workload": 2,
    "overheads": 3,
    "partition": 3,
    "sim": 4,
    "sync": 5,
    "fault": 5,
    "analysis": 6,
    "campaign": 7,
    "service": 8,
    "traces": 8,
    "distrib": 9,
}


class LayeringRule(Rule):
    """Enforce the package import DAG ``core → overheads/partition → sim
    → analysis → campaign → service`` (with util below everything).
    ``campaign`` sits above ``analysis`` (it drives analysis work over a
    process pool) and below ``service`` (the server dispatches batch
    analysis onto the engine); a ``campaign → service`` import would be
    the cycle this ordering exists to forbid.

    Upward imports are how "the campaign knows about the engine" quietly
    becomes "the engine knows about the campaign"; the pre-refactor tree
    had exactly that cycle (``core`` subclassing ``sim.quantum``).  The
    rule also rejects packages missing from the layer map, so adding a
    package forces a layering decision.
    """

    rule_id = "R003"
    name = "layering"
    description = ("package imports must follow the DAG util → core → "
                   "workload → overheads/partition → sim → sync/fault → "
                   "analysis → campaign → service/traces → distrib; "
                   "no cycles")

    def _imports_of(self, module: ModuleInfo) -> Iterator[Tuple[str, ast.AST]]:
        """Top-level repro packages imported by ``module`` (resolving
        relative imports against the module's own location)."""
        pkg_parts = list(module.module_parts[:-1]) \
            if not module.relpath.endswith("__init__.py") \
            else list(module.module_parts)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro" or \
                            alias.name.startswith("repro."):
                        parts = alias.name.split(".")[1:]
                        yield (parts[0] if parts else ""), node
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    if node.module and (node.module == "repro"
                                        or node.module.startswith("repro.")):
                        parts = node.module.split(".")[1:]
                        if parts:
                            yield parts[0], node
                        else:
                            for alias in node.names:
                                yield alias.name, node
                    continue
                # Relative import: level 1 = this package, each extra
                # level climbs one parent.
                base = pkg_parts[:len(pkg_parts) - (node.level - 1)] \
                    if node.level <= len(pkg_parts) + 1 else None
                if base is None:
                    continue
                if node.module:
                    target = base + node.module.split(".")
                elif base:
                    target = base
                else:
                    # `from . import X` at the root package.
                    for alias in node.names:
                        yield alias.name, node
                    continue
                if target:
                    yield target[0], node

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        importer = module.package
        if importer == "":
            return  # application shell: unconstrained
        if importer not in LAYERS:
            yield Violation(
                path=module.relpath, line=1, col=0, rule_id=self.rule_id,
                message=f"package '{importer}' is not in the R003 layer "
                        "map — place it in the DAG")
            return
        my_layer = LAYERS[importer]
        for target, node in self._imports_of(module):
            if target == importer or target == "":
                continue
            target_layer = LAYERS.get(target)
            if target_layer is None:
                # Submodule of repro that is a plain module (cli, ...) or
                # unknown package: only flag directories we track.
                continue
            if target_layer > my_layer:
                yield self._violation(
                    module, node,
                    f"upward import: {importer} (layer {my_layer}) must "
                    f"not import {target} (layer {target_layer})")

    def finalize(self, modules: Sequence[ModuleInfo]) -> Iterator[Violation]:
        # Package-level cycle detection (catches equal-layer entanglement
        # that the per-module layer check cannot).
        edges: Dict[str, Dict[str, Tuple[str, int]]] = {}
        for module in modules:
            importer = module.package
            if importer == "":
                continue
            for target, node in self._imports_of(module):
                if target != importer and target in LAYERS and \
                        importer in LAYERS:
                    edges.setdefault(importer, {}).setdefault(
                        target,
                        (module.relpath, getattr(node, "lineno", 1)))
        for cycle in self._find_cycles(edges):
            head, nxt = cycle[0], cycle[1]
            relpath, lineno = edges[head][nxt]
            yield Violation(
                path=relpath, line=lineno, col=0, rule_id=self.rule_id,
                message="package cycle: " + " -> ".join(cycle + [cycle[0]]))

    @staticmethod
    def _find_cycles(edges: Dict[str, Dict[str, Tuple[str, int]]]
                     ) -> List[List[str]]:
        cycles: List[List[str]] = []
        seen_cycles: Set[Tuple[str, ...]] = set()
        visiting: List[str] = []
        done: Set[str] = set()

        def visit(pkg: str) -> None:
            if pkg in done:
                return
            if pkg in visiting:
                cycle = visiting[visiting.index(pkg):]
                canon = tuple(sorted(cycle))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    cycles.append(list(cycle))
                return
            visiting.append(pkg)
            for target in edges.get(pkg, ()):
                visit(target)
            visiting.pop()
            done.add(pkg)

        for pkg in sorted(edges):
            visit(pkg)
        return cycles


# ---------------------------------------------------------------------------
# R005 — hygiene


class HygieneRule(Rule):
    """Library-code hygiene: the small set of Python footguns that have
    bitten exact-arithmetic code before.

    * mutable default arguments alias state across calls (a cache that
      outlives the task set it was built for);
    * bare ``except:`` swallows ``KeyboardInterrupt`` and hides engine
      bugs;
    * ``assert`` for control flow disappears under ``python -O`` —
      invariant checks must raise.  Narrowing asserts
      (``assert x is not None``) are idiomatic and stay allowed.
    """

    rule_id = "R005"
    name = "hygiene"
    description = ("no mutable default args, bare except, or "
                   "control-flow assert in library code")

    MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict",
                     "Counter", "deque", "bytearray"}

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(module, node)
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self._violation(
                    module, node,
                    "bare except: catches KeyboardInterrupt/SystemExit — "
                    "name the exceptions")
            elif isinstance(node, ast.Assert):
                if not self._is_narrowing(node):
                    yield self._violation(
                        module, node,
                        "control-flow assert vanishes under python -O — "
                        "raise an explicit exception")

    def _check_defaults(self, module: ModuleInfo,
                        node: ast.FunctionDef) -> Iterator[Violation]:
        defaults = list(node.args.defaults) + \
            [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                yield self._violation(
                    module, default,
                    "mutable default argument — use None and rebuild "
                    "inside the function")
            elif isinstance(default, ast.Call) and \
                    isinstance(default.func, ast.Name) and \
                    default.func.id in self.MUTABLE_CALLS:
                yield self._violation(
                    module, default,
                    f"mutable default argument {default.func.id}() — use "
                    "None and rebuild inside the function")

    @staticmethod
    def _is_narrowing(node: ast.Assert) -> bool:
        """``assert <expr> is not None`` — type narrowing, not control
        flow; keeping it is idiomatic for Optional unwrapping."""
        test = node.test
        return (isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and len(test.comparators) == 1
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None)


#: The concurrency rules live in their own module; the import sits at
#: the bottom because they subclass Rule (defined above).
from .concurrency import CONCURRENCY_RULES  # noqa: E402

#: The default rule set, in id order.
RULES: Tuple[Rule, ...] = (
    ExactnessRule(),
    DeterminismRule(),
    LayeringRule(),
    HygieneRule(),
) + CONCURRENCY_RULES
