"""Smoke test of the repo benchmark: ``PYTHONPATH=src python -m pytest benchmarks/suite``.

Outside the tier-1 ``testpaths``: it checks the harness, not the program.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_file_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert spec["paths"] == ["benchmarks/suite"]
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("lower", "higher") and UNIT.match(metric["unit"])
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])


def test_smoke_mode_runs_every_workload_and_validates_the_output():
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "smoke ok" in done.stdout
