"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that a perturbed answer is counted as a failure, that the
local-vol reference matches Black-Scholes at constant volatility, that the
traced counts repeat exactly for a seed, that a missing wrap target is
recorded instead of crashing, that the benchmark refuses to run without
the program's source, and that BENCHMARK.json names what run.py prints.
Each test runs real solves, about a minute in all.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

REPEATING_COUNTERS = (
    "spectral.fft.points",
    "spectral.fft.ops_computed",
    "solver.surface_bytes",
    "cli.out_bytes",
)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.NOMINAL_REQUEST_S)
    assert [w for w in run.NOMINAL_REQUEST_S] == list(workloads.WORKLOADS)


def _raise_price(answer):
    answer["stdout"] = re.sub(
        r"price=(\S+)", lambda m: f"price={float(m.group(1)) + 0.05:.4f}", answer["stdout"]
    )
    return answer


def _lower_reflection(answer):
    with open(answer["out"]) as handle:
        lines = handle.readlines()
    row = lines[500].rstrip("\n").split(",")
    row[-1] = repr(float(row[-1]) - 1.0)
    lines[500] = ",".join(row) + "\n"
    with open(answer["out"], "w") as handle:
        handle.writelines(lines)
    return answer


def _leave_band(answer):
    answer["price"] += 10.0
    return answer


def _stay_in_band(answer):
    answer["price"] += 0.2
    return answer


@pytest.mark.parametrize(
    "name, perturb, reason",
    [
        ("price_n1000", _raise_price, "|price - "),
        ("paths_csv", _lower_reflection, "reflection A decreases"),
        ("statedep_localvol", _leave_band, "outside Black-Scholes band"),
        ("statedep_localvol", _stay_in_band, "|price - crank_nicolson|"),
    ],
)
def test_perturbed_answer_counts_as_failure(name, perturb, reason, tmp_path, monkeypatch):
    honest = workloads.run_workload(name, 3, 0, str(tmp_path), count=1)
    assert [r["ok"] for r in honest["records"]] == [True]

    original = workloads.WORKLOADS[name]
    perturbed = dataclasses.replace(
        original, execute=lambda request, workdir: perturb(original.execute(request, workdir))
    )
    monkeypatch.setitem(workloads.WORKLOADS, name, perturbed)
    result = workloads.run_workload(name, 3, 0, str(tmp_path), count=1)
    assert [r["ok"] for r in result["records"]] == [False]
    assert reason in result["records"][0]["reason"]


@pytest.mark.parametrize("sigma", [0.1, 0.3])
def test_localvol_reference_matches_black_scholes_at_constant_vol(sigma):
    price = workloads.localvol_call(lambda t, x: np.full_like(x, sigma), 100.0)
    exact = workloads.black_scholes_call(
        workloads.SPOT, 100.0, workloads.RATE, 0.0, sigma, workloads.MATURITY
    ).price
    assert abs(price - exact) < 1e-4


def _traced_child(workload: str, count: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1", "--count", str(count)],
        capture_output=True, text=True, env=run.child_env(), cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize(
    "workload, count, active",
    [
        ("price_n1000", 2, "spectral.convolve_step.calls"),
        ("paths_csv", 1, "cli.out_bytes"),
        ("statedep_localvol", 1, "spectral.convolve_step_statedep.calls"),
    ],
)
def test_traced_counts_repeat(workload, count, active):
    first, second = _traced_child(workload, count), _traced_child(workload, count)
    counts = {
        name: value for name, value in first.items()
        if name.endswith(".calls") or name in REPEATING_COUNTERS
    }
    assert counts == {name: second[name] for name in counts}
    assert counts[active] > 0
    assert counts["spectral.fft.calls"] > 0


def test_missing_wrap_target_is_absent_with_zero_calls(tmp_path):
    code = f"""
import json, sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]
import convbsde.solver
del convbsde.solver.convolve_step_statedep
import tracing
tracer = tracing.Tracer()
tracer.install()
import workloads
workloads.run_workload("price_n1000", 1, 0, {str(tmp_path)!r}, count=1, tracer=tracer)
print(json.dumps({{"absent": tracer.absent, "layers": tracer.layer_metrics()}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=run.child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["absent"] == ["convbsde.solver.convolve_step_statedep"]
    assert result["layers"]["spectral.convolve_step_statedep.calls"] == 0
    assert result["layers"]["spectral.convolve_step.calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "price_n1000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
