"""The repo benchmark: one command per workload.

    python3 benchmarks/suite/run.py --workload basic_selective --seed 1 --seconds 10 --trace 0

builds the store from generated N-Triples text, checks every answer against an
independent oracle, replays a fixed query list for ``--seconds`` and prints
the end-to-end metrics of ``BENCHMARK.json`` by name with units.  ``--trace 1``
makes a separate run that prints the per-layer metrics and writes the spans to
``benchmarks/suite/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Other modes: ``--smoke`` (tiny data, every workload, validates the output
against ``BENCHMARK.json``), ``--selfcheck N`` (2 x N runs of the same code
under two labels: do the numbers repeat within the bounds?), and
``--write-expected`` (regenerate ``expected/`` from the oracle).

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

SUITE_DIR = pathlib.Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"
#: Value printed for a per-layer metric whose probe could not run (the reason
#: is printed beside it); every real measurement is >= 0.
UNAVAILABLE = -1.0
ROUND_SPREAD_WARNING = 0.10


def _bootstrap() -> None:
    """Make ``repro`` importable from the checkout this file lives in."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"benchmark needs the program under {source}; nothing to measure here")
    sys.path.insert(0, str(source))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; prints the metrics and returns the result object."""
    import inputs as inputs_module
    import layers
    import workloads

    scale = inputs_module.SMOKE_SCALE_FACTOR if smoke else inputs_module.SCALE_FACTOR
    plan = workloads.Plan(seconds=seconds)
    if smoke:
        plan = workloads.Plan(seconds=0.0, setups=1, cold_sessions=1, min_rounds=2)
    spec = load_spec()
    inputs = inputs_module.prepare(
        workload, seed, scale, with_appends=trace or workload == "append_query"
    )
    print(
        f"workload {workload}  seed {seed}  scale_factor {scale:g}  triples {inputs.triples}  "
        f"instances {len(inputs.queries)}  answers from {inputs.answer_source}"
    )
    scratch = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if trace:
            trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
            measured, tally = layers.trace(inputs, plan, str(scratch), str(trace_path))
            values, reasons = measured.values, measured.reasons
            declared = spec["per_layer"]
            # Times at the reference machine speed, like the end-to-end ones.
            speed = workloads.speed_factor(*measured.calibrations)
            for entry in declared:
                timed = entry["unit"] in ("s", "ms", "us") and entry["name"] != "driver.calib_ms"
                if timed and values.get(entry["name"]) is not None:
                    values[entry["name"]] *= speed
            print(f"spans written to {trace_path.relative_to(ROOT)}; times x {speed:.3f}")
        else:
            values, notes, tally = workloads.measure(inputs, plan, str(scratch))
            reasons = {}
            declared = spec["end_to_end"]
            for name, value in notes.items():
                print(f"  # {name:32s} {value:12.4f}")
            if notes["driver.round_spread"] > ROUND_SPREAD_WARNING:
                print(
                    f"  WARNING: driver.round_spread {notes['driver.round_spread']:.3f} > "
                    f"{ROUND_SPREAD_WARNING}: the box was unsteady during this run"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        value = values.get(name)
        if value is None:
            reason = reasons.get(name, "not measured")
            print(f"  {name:40s} {'null':>14s} {unit:8s} ({reason})")
            value = UNAVAILABLE
        else:
            print(f"  {name:40s} {value:14.4f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise RuntimeError(f"metrics measured but not declared in BENCHMARK.json: {undeclared}")
    print(f"  operations attempted {tally.attempted}  failed {tally.failed}")
    for error in tally.errors:
        print(f"  FAILED {error}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# --------------------------------------------------------------------- #
# --smoke
# --------------------------------------------------------------------- #
def smoke() -> int:
    """Every workload untraced + one traced, tiny data; validates the output."""
    import inputs as inputs_module

    spec = load_spec()
    problems: List[str] = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(inputs_module.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from inputs.WORKLOADS")
    runs = [(name, False) for name in inputs_module.WORKLOADS] + [("basic_selective", True)]
    for workload, trace in runs:
        result = run_once(workload, inputs_module.DEFAULT_SEED, 0.0, trace, smoke=True)
        declared = spec["per_layer" if trace else "end_to_end"]
        units = {entry["name"]: entry["unit"] for entry in declared}
        label = f"{workload} trace={int(trace)}"
        if not result["correct"] or result["attempted"] < 1:
            problems.append(f"{label}: {result['failed']} of {result['attempted']} failed")
        if set(result["metrics"]) != set(units):
            problems.append(f"{label}: metric names differ from BENCHMARK.json")
        for name, cell in result["metrics"].items():
            value = cell["value"]
            if not isinstance(value, (int, float)) or value != value or cell["unit"] != units[name]:
                problems.append(f"{label}: {name} = {cell!r}")
            elif value == UNAVAILABLE or (not trace and value <= 0):
                problems.append(f"{label}: {name} was not measured ({value})")
    for problem in problems:
        print(f"SMOKE PROBLEM {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


# --------------------------------------------------------------------- #
# --selfcheck
# --------------------------------------------------------------------- #
def selfcheck(repeats: int, first_seed: int, only: Optional[str]) -> int:
    """2 x ``repeats`` runs of the same code under labels A and B, alternating.

    Prints, per workload and end-to-end metric, both medians, how much worse
    the second is than the first as a share of it, each label's quartile
    spread, and the bound.  This is the test the benchmark must pass before
    its numbers are used to judge a change.
    """
    from workloads import spread

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"] if only in (None, w["name"])]
    samples: Dict[Tuple[str, str, str], List[float]] = {}
    for repeat in range(repeats):
        for label in ("AB", "BA")[repeat % 2]:
            for workload in workloads:
                command = [sys.executable, str(pathlib.Path(__file__).resolve())]
                command += ["--workload", workload, "--seed", str(first_seed + repeat)]
                command += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                if done.returncode != 0:
                    print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
                    return done.returncode
                lines = done.stdout.strip().splitlines()
                for name, cell in json.loads(lines[-1])["metrics"].items():
                    samples.setdefault((workload, name, label), []).append(cell["value"])
                for line in lines:  # The driver notes, for the raw-vs-reference-speed rows.
                    if line.startswith("  # raw."):
                        _, name, value = line.split()
                        samples.setdefault((workload, name, label), []).append(float(value))
                print(f"  run {label} {workload} seed {first_seed + repeat} done", flush=True)
    worst = 0
    print(
        f"{'workload':16s} {'metric':24s} {'median A':>12s} {'median B':>12s} "
        f"{'B worse by':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}"
    )
    OUT_DIR.mkdir(exist_ok=True)
    summary: Dict[str, dict] = {}
    for (workload, name, _), values in sorted(samples.items()):
        pooled = samples[(workload, name, "A")] + samples[(workload, name, "B")]
        low, median, high = statistics.quantiles(pooled, n=4)
        summary.setdefault(workload, {})[name] = {
            "median": median, "q1": low, "q3": high, "runs": len(pooled)
        }
    (OUT_DIR / "selfcheck.json").write_text(
        json.dumps(
            {
                "summary": summary,
                "samples": {"|".join(key): values for key, values in samples.items()},
            },
            indent=1,
        )
    )
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            raw = samples.get((workload, f"raw.{name}", "A"))
            if raw and len(raw) > 1:
                both = raw + samples[(workload, f"raw.{name}", "B")]
                print(f"{workload:16s} raw.{name:20s} spread of all runs {spread(both):.3%}")
            first = samples[(workload, name, "A")]
            second = samples[(workload, name, "B")]
            med_a, med_b = statistics.median(first), statistics.median(second)
            worse = (med_b - med_a) / med_a * (1 if entry["better"] == "lower" else -1)
            spreads = [spread(first), spread(second)]
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            worst |= not ok
            print(
                f"{workload:16s} {name:24s} {med_a:12.4f} {med_b:12.4f} {worse:+10.3%} "
                f"{spreads[0]:9.3%} {spreads[1]:9.3%} {bound:6.0%} {'' if ok else 'OUTSIDE'}"
            )
    return int(worst)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", type=int, metavar="N")
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)

    _bootstrap()
    import inputs as inputs_module

    seed = inputs_module.DEFAULT_SEED if args.seed is None else args.seed
    if args.write_expected:
        inputs_module.write_expected()
        return 0
    if args.smoke:
        return smoke()
    if args.selfcheck:
        return selfcheck(args.selfcheck, seed, args.workload)
    if args.workload not in inputs_module.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(inputs_module.WORKLOADS)}")
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    try:
        result = run_once(args.workload, seed, seconds, bool(args.trace))
    except inputs_module.PinMismatch as error:
        print(f"refusing to run: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
