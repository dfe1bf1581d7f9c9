"""Fast smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lusk import fusion, model, tensor  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {
    "desk_train": replace(workloads.DESK, frames=16, size=32, k=3, pairs=16, batch=4,
                          epochs=5, setups=2, check_frames=(0, 15)),
    "stream_infer": workloads.StreamSize(frames=6, size=32, k=3, setups=2,
                                         check_frames=(0, 5)),
    "paper_step": replace(workloads.PAPER, frames=3, size=32, pairs=4, batch=2, setups=2,
                          check_frames=(0, 2)),
}


def tiny(workload, traced):
    result, _, _ = run.run_workload(workload, seed=3, seconds=0.0, traced=traced,
                                    size=TINY[workload])
    return result


def test_spec_names_are_wellformed():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted(workload, traced):
    result = tiny(workload, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_fusion_fails_the_stack_check(monkeypatch):
    fuse = fusion.fuse
    monkeypatch.setattr(fusion, "fuse", lambda frame, cfg: fuse(frame, cfg)[::-1].copy())
    result = tiny("stream_infer", False)
    assert not result["correct"] and result["failed"] == 2


def test_training_that_does_not_learn_fails_the_loss_check(monkeypatch):
    monkeypatch.setattr(tensor.Adam, "step", lambda self, lr=None: None)
    result = tiny("desk_train", False)
    assert not result["correct"] and result["failed"] == 1


def test_failing_frames_are_counted(monkeypatch):
    infer = model.infer_keypoints
    calls = []

    def flaky(frame, *a, **kw):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise FloatingPointError("injected")
        return infer(frame, *a, **kw)

    monkeypatch.setattr(model, "infer_keypoints", flaky)
    result = tiny("stream_infer", False)
    assert not result["correct"] and result["failed"] == 2
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 2 / result["attempted"])


def test_clock_scales_by_the_samples_around_an_interval():
    clock = calibrate.HostClock("fft")
    clock.times = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 10.3]
    clock.ms = [2.0 * clock.reference_ms] * 3 + [0.5 * clock.reference_ms] * 4
    assert clock.scaled(0.05, 0.15) == pytest.approx(0.05)
    assert clock.scaled(10.0, 10.2) == pytest.approx(0.4)
    assert clock.scale(5.0, 5.1) == pytest.approx(0.5)   # nearest samples: 0.1, 0.2, 10.0


def test_checks_tolerate_rounding_and_reject_corruption():
    frame = np.random.default_rng(0).random((32, 32))
    cfg = fusion.FusionConfig()
    stack = fusion.fuse(fusion.prepare_frame(frame, 32, cfg.attenuation_a), cfg)
    assert checks.stack_error(stack, frame, cfg, cfg.attenuation_a) <= checks.STACK_TOL
    jittered = stack + np.float32(1e-6) * np.sign(stack - 0.5)
    assert checks.stack_error(jittered, frame, cfg, cfg.attenuation_a) <= checks.STACK_TOL
    dropped = stack.copy()
    dropped[3] = 0.0
    assert checks.stack_error(dropped, frame, cfg, cfg.attenuation_a) > checks.STACK_TOL
    assert checks.stack_error(stack[:9], frame, cfg, cfg.attenuation_a) > checks.STACK_TOL

    kp = np.array([[3.0, 4.0], [30.5, 0.0]])
    assert checks.keypoints_ok(kp, 32)
    assert not checks.keypoints_ok(kp + [0.0, 32.0], 32)
    assert not checks.keypoints_ok(np.where(kp > 4, np.nan, kp), 32)
