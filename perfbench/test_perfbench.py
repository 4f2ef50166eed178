"""Tests of the benchmark itself: tiny runs of every workload, the restore
of traced attributes, self-time arithmetic and seeded input generation."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adnet.cli  # noqa: E402
import adnet.errors  # noqa: E402
import adnet.evaluation  # noqa: E402
import adnet.io  # noqa: E402
import adnet.kernels  # noqa: E402
import adnet.model  # noqa: E402
import adnet.numerics  # noqa: E402
import adnet.synth  # noqa: E402
import adnet.training  # noqa: E402
import adnet.windowing  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "train": {"videos": 3, "heldout_videos": 2},
    "infer": {"videos": 4, "max_clips": 200},
    "eval": {"videos": 3, "min_clips": 100, "max_clips": 200, "abnormal_runs": (1, 2)},
}
SECONDS = {"train": 1.0, "infer": 1.0, "eval": 0.1}


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_TOTAL_S", 0.0)


@pytest.mark.parametrize("name", ["train", "infer", "eval"])
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, one_setup):
    line, report = run.run(name, 3, SECONDS[name], False, adnet, tmp_path, **TINY[name])
    assert report["failures"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def patched_attributes():
    tracer = Tracer()
    layers.Instrumentation(tracer, adnet)
    patched = [(owner, attr, original) for owner, attr, original in tracer._patched]
    tracer.restore()
    return patched


@pytest.mark.parametrize("name", ["train", "infer", "eval"])
def test_traced_run_reports_layers_and_restores_attributes(name, tmp_path):
    patched = patched_attributes()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    line, report = run.run(name, 3, SECONDS[name], True, adnet, tmp_path, **TINY[name])
    assert report["failures"] == [] and line["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)

    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    accounted = sum(report["layer_self_ms"].values()) + report["unattributed_ms"]
    assert accounted == pytest.approx(report["traced_wall_ms"], rel=0.05)
    if name != "train":
        assert metrics["numerics.adam_step.calls"] == 0
        assert metrics["kernels.conv_bwd.calls"] == 0
    if name == "eval":
        assert metrics["kernels.conv_fwd.calls"] == 0
    else:
        assert metrics["kernels.conv_fwd.calls"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.child", 6.0, 7.0, 2, 0),
        Span("other", 20.0, 30.0, -1, 1),
        Span("left", 21.0, 25.0, 4, 1),
        Span("overlap", 23.0, 27.0, 4, 1),
        Span("past_end", 29.0, 31.0, 4, 1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 3.0, 4.0, 4.0, 2.0])


def test_tracer_nests_spans_and_restores_patches():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = Owner.work
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.patch_span(Owner, "work", "owner.work")
    with tracer.span("outer"):
        assert Owner.work(1) == 2
    tracer.restore()
    assert Owner.work is original
    outer, inner = tracer.spans
    assert (inner.name, inner.parent) == ("owner.work", 0)
    assert self_times(tracer.spans) == [2.0, 1.0]


def digest(directory: Path) -> dict:
    """File -> hash, with the directory's own path blanked out of the
    configs that name it."""
    here = str(directory).encode()
    return {str(p.relative_to(directory)):
            hashlib.sha256(p.read_bytes().replace(here, b"")).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["train", "infer", "eval"])
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    def generate(seed, label):
        workload = workloads.WORKLOADS[name](adnet, tmp_path, seed, 1.0, **TINY[name])
        workload.setup(tmp_path / label)
        return digest(tmp_path / label)

    first, again, other = generate(5, "a"), generate(5, "b"), generate(6, "c")
    assert first == again
    assert first != other


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert result.stdout == ""
