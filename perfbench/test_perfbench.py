"""Smoke tests of the benchmark harness (tiny grids; seconds, not minutes).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for name in workloads.WORKLOADS:
        for metric in BENCHMARK[section]:
            got = result["metrics"][f"{name}.{metric['name']}"]
            assert got["unit"] == metric["unit"], (name, metric)
            assert isinstance(got["value"], (int, float))


def test_tracer_restores_every_patched_name(tmp_path):
    import numpy
    import scipy.linalg

    from qoctl import _kernels, dynamics, optimize, scenarios
    from qoctl._kernels import _fallback

    before = {"kernel": _kernels.propagate_pwc_ket,
              "alias": scenarios.propagate_ket,
              "bound_expm": _fallback.expm,
              "eigh": numpy.linalg.eigh,
              "frechet": optimize.expm_frechet,
              "run": scenarios.run_scenario}
    spec = workloads.make_inputs("gate_krotov", 5, smoke=True)
    workloads.write_inputs(spec, tmp_path / "in")
    with tracer.Tracer("restore-test") as spans:
        assert hasattr(dynamics.propagate_ket, tracer.WRAPPED_ATTR)
        assert hasattr(_fallback.expm, tracer.WRAPPED_ATTR)
        assert hasattr(scipy.linalg.expm, tracer.WRAPPED_ATTR)
        assert hasattr(scenarios.propagate_ket, tracer.WRAPPED_ATTR)
        workloads.solve("gate_krotov", spec, tmp_path / "in",
                        tmp_path / "out")
    assert tracer.wrapped_names() == []
    after = {"kernel": _kernels.propagate_pwc_ket,
             "alias": scenarios.propagate_ket,
             "bound_expm": _fallback.expm,
             "eigh": numpy.linalg.eigh,
             "frechet": optimize.expm_frechet,
             "run": scenarios.run_scenario}
    assert after == before
    assert spans.spans[0].name == "scenarios.run_scenario"
    assert spans.kernel_steps["kernels.krotov_forward_ket"] > 0


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "closed_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
