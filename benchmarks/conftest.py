"""Shared benchmark scaffolding.

Every ``bench_*`` module regenerates one figure (or claim set) of the
paper: it computes the figure's series at a scaled-down default size,
prints the rows, and writes them under ``benchmarks/out/`` so the run
leaves an inspectable record.  ``REPRO_FULL=1`` switches to paper-scale
campaign sizes (1000 task sets per point, 10^6-slot horizons) — expect
hours.  The pytest-benchmark timings attached to each test measure the
core computational kernel of that figure (one campaign point, one
simulation run, ...), so ``pytest benchmarks/ --benchmark-only`` doubles
as a performance regression harness.
"""

import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="bench_traces: reduced horizon, full-strength kernel "
             "decision-identity gate, no JSON rewrite — the CI "
             "traces-smoke configuration")


@pytest.fixture
def quick(request) -> bool:
    return bool(request.config.getoption("--quick"))


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def write_report(name: str, text: str) -> str:
    """Print a figure's series and persist it under benchmarks/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return path
