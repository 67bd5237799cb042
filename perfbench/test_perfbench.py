"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _program():
    run.check_environment()


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _quiet(_msg: str) -> None:
    pass


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_prints_the_declared_metrics(name):
    result, report = run.run_benchmark(name, 1, 0, False, scale="tiny",
                                       log=_quiet)
    assert result["correct"] and result["attempted"] == 1
    assert "sweep_warm_s" in report
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        _units("end_to_end")
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(run.WORKLOADS)


def test_traced_run_prints_the_declared_layer_metrics():
    result, report = run.run_benchmark("fft-hw-p4", 1, 0, True,
                                       scale="tiny", log=_quiet)
    assert result["correct"] and result["attempted"] == 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        _units("per_layer")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["network.sends"] > 0
    assert metrics["harness.cache_hit_ratio_cold"] == 0.0
    assert metrics["harness.cache_hit_ratio_warm"] == 1.0
    assert "(residual)" in report and "(tracing overhead)" in report


def test_tracing_is_transparent_and_restores_every_attribute(tmp_path):
    kernel = run.WORKLOADS["radix-hw-p4"](1, "tiny")
    before = {(cls, attr): cls.__dict__[attr]
              for _p, _l, cls, attr in layers.LayerTracer()._targets()}
    plain = kernel.iteration(tmp_path / "plain")
    tracer = layers.LayerTracer()
    with tracer.tracing():
        traced = kernel.iteration(tmp_path / "traced")
    assert traced.outputs == plain.outputs
    for (cls, attr), original in before.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"
    assert tracer.events == plain.outputs["events"]
    assert tracer.events == sum(e.events_processed
                                for e in tracer.engines.values())
    # The rows of the layer table add up to the traced wall time.
    total = sum(tracer.self_times().values()) + tracer.overhead_s()
    assert total == pytest.approx(tracer.wall_s, rel=1e-9)


def test_perturbed_expected_digest_fails_every_iteration(tmp_path):
    kernel = run.WORKLOADS["fft-hw-p4"](1, "tiny")
    expected = dict(kernel.iteration(tmp_path).outputs)
    expected["stats_sha256"] = "0" * 64
    result, _ = run.run_benchmark("fft-hw-p4", 1, 0, False, scale="tiny",
                                  expected=expected, log=_quiet)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_seed_changes_radix_inputs():
    def digits(seed):
        workload = run.WORKLOADS["radix-hw-p4"](seed, "tiny").make_workload()
        return [d.tolist() for d in workload.digits]

    assert digits(1) == digits(1)
    assert digits(1) != digits(2)


def test_refuses_fastpath_environment(monkeypatch):
    monkeypatch.setenv(run.FASTPATH_ENV, "0")
    with pytest.raises(run.BenchmarkError):
        run.check_environment()


def test_refuses_installed_hook_slot(monkeypatch):
    from repro.obs import hooks

    monkeypatch.setattr(hooks, "perf", object())
    with pytest.raises(run.BenchmarkError):
        run.check_environment()


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "fft-hw-p4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
