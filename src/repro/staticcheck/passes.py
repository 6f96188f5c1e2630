"""Named, lazily-built project analysis passes shared between rules.

The project rules are layered on expensive whole-tree analyses — the
call graph itself, thread-domain inference, seed-taint fixpoints,
iteration-order classification.  Before this registry each rule family
owned its own memoisation idiom (``DomainAnalysis.of`` stashes itself on
the :class:`~repro.staticcheck.callgraph.ProjectIndex`); with it, every
pass has a *name*, every rule **declares** the passes it needs
(:attr:`~repro.staticcheck.rules.Rule.needs`), and a pass is constructed
the first time a selected rule asks for it — never because some other
rule in the catalog would have wanted it.  ``--select R013`` therefore
builds the seed-taint pass and nothing else, not the thread-domain
or ordering passes (``tests/test_staticcheck_provenance.py`` pins this
through :func:`built_passes`).

A pass factory takes the :class:`~repro.staticcheck.callgraph.
ProjectIndex` and returns an analysis object; results are memoised per
project instance, so all rules in one check run share one copy.
"""

from __future__ import annotations

from typing import Callable, Dict, List

__all__ = ["register_pass", "project_pass", "built_passes"]

#: Pass name -> factory.  Populated at import time by the modules that
#: own each analysis (domains, ordering, provenance).
_FACTORIES: Dict[str, Callable[[object], object]] = {}


def register_pass(name: str, factory: Callable[[object], object]) -> None:
    """Register ``factory`` as the builder for the named pass."""
    _FACTORIES[name] = factory


def project_pass(project: object, name: str) -> object:
    """The (memoised) named analysis pass for ``project``.

    Raises ``KeyError`` for an unregistered pass name — a rule asking
    for a pass its module never registered is a programming error, not
    something to silently skip.
    """
    cache: Dict[str, object] = getattr(project, "_passes", None)  # type: ignore[assignment]
    if cache is None:
        cache = {}
        project._passes = cache  # type: ignore[attr-defined]
    if name not in cache:
        if name not in _FACTORIES:
            raise KeyError(f"no registered project pass named {name!r}")
        cache[name] = _FACTORIES[name](project)
    return cache[name]


def built_passes(project: object) -> List[str]:
    """The names of every pass actually constructed for ``project`` so
    far (sorted) — what the dependency-isolation tests assert on."""
    return sorted(getattr(project, "_passes", {}))
