"""Tests of the benchmark itself, at tiny sizes (`--quick`).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
from layoutedit import adapter, attention, diffusion, ilfm, pipeline, tensor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "QL_SEED"}
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *map(str, args)], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=170)


@pytest.fixture(autouse=True)
def no_ql_seed(monkeypatch):
    monkeypatch.delenv("QL_SEED", raising=False)


# Expected per-request counts at quick size: 2 training steps on 10
# scenes (10 conditions of 9 mha calls, 2 denoiser passes of 27), and
# an edit of 2 DDIM steps (4 passes plus one condition).
QUICK_COUNTS = {
    "train": {"tensor.mha_calls": 10 * 9 + 2 * 27, "diffusion.forward_calls": 2},
    "edit": {"tensor.mha_calls": 4 * 27 + 9, "diffusion.forward_calls": 4},
    "condition": {"tensor.mha_calls": 9, "diffusion.forward_calls": 0},
}
# Layers that must show time on each workload when traced.
QUICK_BUSY = {
    "train": ["tensor.backward_ms", "tensor.adamw_ms", "diffusion.training_step_ms.p50",
              "adapter.dual_branch_active_ms", "qlt.save_ms", "qlt.load_ms"],
    "edit": ["diffusion.guided_eps_ms.p50", "diffusion.sample_ms", "pipeline.load_ms",
             "data.ppm_ms", "qlt.load_ms", "qlt.save_ms"],
    "condition": ["encoders.image_ms", "encoders.text_ms", "ilfm.forward_ms",
                  "cmam.forward_ms", "adapter.fuse_ms", "layout.ms"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_quick_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", 5, "--seconds", 1,
                 "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    record = json.loads(record_line)
    assert record["requests"]["succeeded"] == result["attempted"]
    assert record["provenance"]["blas_threads"]["in_effect"] == 1
    if trace:
        for name, count in QUICK_COUNTS[workload].items():
            assert values[name] == count, name
        for name in QUICK_BUSY[workload]:
            assert values[name] > 0, name
        assert values["data.synth_ms"] > 0 or workload == "condition"
        assert record["unwrapped_targets"] == []
    else:
        assert all(v > 0 for v in values.values())


def test_failures_are_counted(tmp_path, monkeypatch):
    original = pipeline.Pipeline.condition
    calls = {"n": 0, "nan": False}

    def flaky(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise ValueError("injected")
        bundle = original(self, *args, **kwargs)
        if calls["nan"]:
            bundle.f.data[0, 0] = np.nan
        return bundle

    monkeypatch.setattr(pipeline.Pipeline, "condition", flaky)
    record = harness.run("condition", 0, 0.3, False, quick=True, work_root=tmp_path)
    req = record["requests"]
    assert req["attempted"] == calls["n"]
    assert req["failed"] == calls["n"] // 3 > 0
    assert req["succeeded"] == req["attempted"] - req["failed"]
    assert record["correct"] is False
    assert any("injected" in e for e in record["errors"])

    calls.update(n=1, nan=True)   # every call returns a non-finite f
    record = harness.run("condition", 0, 0.3, False, quick=True, work_root=tmp_path)
    assert record["requests"]["failed"] == record["requests"]["attempted"]
    assert any("non-finite f" in e for e in record["errors"])


def test_train_check_catches_a_changed_frozen_parameter(tmp_path, monkeypatch):
    built = []
    real_init, real_adamw = pipeline.Pipeline.__init__, pipeline.adamw_step

    def init(self, config):
        real_init(self, config)
        built.append(self)

    def leaky_adamw(params, **kwargs):
        real_adamw(params, **kwargs)
        built[-1].denoiser.w_out.tensor.data += 1.0   # a frozen weight moves

    monkeypatch.setattr(pipeline.Pipeline, "__init__", init)
    monkeypatch.setattr(pipeline, "adamw_step", leaky_adamw)
    record = harness.run("train", 0, 0.1, False, quick=True, work_root=tmp_path)
    assert record["requests"]["failed"] == record["requests"]["attempted"] >= 2
    assert any("frozen parameter den.w_out changed" in e for e in record["errors"])


def test_wrappers_cover_imported_bindings_and_are_restored():
    originals = {(m, a): getattr(m, a) for m, a in [
        (attention, "mha"), (adapter, "mha"), (ilfm, "mha"),
        (diffusion, "dual_branch_attention"), (pipeline, "training_step"),
        (pipeline, "sample"), (pipeline, "adamw_step")]}
    patch = tracing.install(tracing.Tracer())
    try:
        assert patch.missing == []
        for (m, a), fn in originals.items():
            assert getattr(m, a) is not fn, f"{m.__name__}.{a} not wrapped"
        assert hasattr(tensor.Tensor.backward, tracing.MARK)
    finally:
        patch.restore()
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn
    assert patch.not_restored() == [] and tracing.leftover_wrappers() == []


def test_traced_run_checks_itself(tmp_path):
    record = harness.run("condition", 1, 0.3, True, quick=True, work_root=tmp_path)
    assert record["problems"] == [] and record["correct"] is True
    assert tracing.leftover_wrappers() == []
    spans = (tmp_path / "spans" / "condition-seed1.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "parent", "request", "name", "start_s", "end_s"}


def test_accounting_flags_uncovered_time():
    tracer = tracing.Tracer()
    tracer.begin("request.0", "request")
    tracer.call("layout", lambda: None, (), {})
    tracer.end(0.0, 1.0)
    per_unit = tracing.unit_metrics(tracer)
    assert tracing.accounting_errors(per_unit) == []
    per_unit["request.0"]["layout.ms"] += 5.0
    assert tracing.accounting_errors(per_unit)


def test_spec_lists_what_the_harness_emits():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == harness.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "condition", "--seed", 0, "--seconds", 1,
                 "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
