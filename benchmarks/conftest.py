"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section via :mod:`repro.bench` and writes the resulting report to
``benchmarks/output/``.  Scale factors are chosen so the whole suite finishes
in a few minutes on a laptop; pass ``--bench-scale`` to rerun at a larger
scale.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.watdiv.generator import generate_dataset

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="2.0",
        help="WatDiv-like scale factor used by the benchmark datasets",
    )
    parser.addoption(
        "--bench-seed",
        action="store",
        default="42",
        help="random seed for the benchmark datasets",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> float:
    return float(request.config.getoption("--bench-scale"))


@pytest.fixture(scope="session")
def bench_seed(request) -> int:
    return int(request.config.getoption("--bench-seed"))


@pytest.fixture(scope="session")
def bench_dataset(bench_scale, bench_seed):
    """One shared dataset for all query benchmarks."""
    return generate_dataset(scale_factor=bench_scale, seed=bench_seed)


@pytest.fixture(scope="session")
def report_sink():
    """Write reports to benchmarks/output/<name>.txt."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(name: str, report) -> None:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(report.to_text() + "\n", encoding="utf-8")

    return write
