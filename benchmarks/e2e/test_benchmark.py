"""Smoke tests of the end-to-end benchmark, at tiny sizes (seconds each).

    python3 -m pytest benchmarks/e2e/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("scan", "pim", "htap", "serve")
SIM_METRICS = ("sim_us_p50", "sim_us_p90", "sim_qps")


def run(workload: str, seed: int, trace: int = 0, script: Path = HERE / "run.py"):
    """One smoke run; returns (exit code, stdout lines, parsed result)."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0:
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def printed_units(lines):
    """{metric: unit} from the human-readable ``name value unit n=N`` lines."""
    found = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[3].startswith("n="):
            found[fields[0]] = fields[2]
    return found


def inputs_digest(lines):
    header = next(line for line in lines if line.startswith("# workload="))
    return header.rsplit("inputs_crc32=", 1)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_and_answers_correct(workload, spec):
    code, lines, result = run(workload, seed=1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = printed_units(lines)
    assert all(printed.get(name) == unit for name, unit in expected.items())
    assert printed["failed_frac"] == "fraction"
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_spans_and_every_layer_metric(workload, spec):
    code, lines, result = run(workload, seed=1, trace=1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    out = ROOT / ".bench_trace" / f"{workload}-seed1"
    ledger = json.loads((out / "layers.json").read_text())
    assert ledger["layer_sum_s"] == pytest.approx(ledger["profiled_s"], rel=0.02)
    events = json.loads((out / "spans.json").read_text())["traceEvents"]
    assert events and all({"name", "ts", "dur"} <= set(e) for e in events)
    assert all({"op", "parent"} <= set(e["args"]) for e in events)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_simulated_metrics_other_seed_other_inputs(workload):
    _, first_lines, first = run(workload, seed=1)
    _, again_lines, again = run(workload, seed=1)
    _, other_lines, _ = run(workload, seed=2)
    for name in SIM_METRICS:
        assert first["metrics"][name] == again["metrics"][name]
    assert inputs_digest(first_lines) == inputs_digest(again_lines)
    assert inputs_digest(first_lines) != inputs_digest(other_lines)


def test_spec_maps_every_gated_and_layer_metric(spec):
    notes = json.loads((HERE / "spec.json").read_text())
    gated = {name for name, m in notes["metrics"].items() if m["gated"]}
    assert gated == {m["name"] for m in spec["end_to_end"]}
    mapped = [name for layer in notes["layers"].values() for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    assert set(notes["workloads"]) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run("scan", seed=1, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
