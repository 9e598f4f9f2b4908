"""Tests of the benchmark itself: failure accounting, oracle, tracing.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sliceball import errors, hardy, verify  # noqa: E402
from sliceball.quat import Quaternion  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# -- failure accounting ---------------------------------------------------

def test_raising_check_is_one_failed_item_and_the_pass_goes_on(
        monkeypatch, tmp_path):
    def boom(config, rng):
        raise errors.ConversionError("no zero")

    real = next(c for c in verify.CHECKS if c.name == "norm-multiplicative")
    monkeypatch.setattr(verify, "CHECKS", [
        verify.CheckDef("mobius", "boom", "raises", boom), real])
    w = workloads.VerifySuite(7, str(tmp_path))
    reasons = w.check(w.run_pass())
    assert reasons[0] == "mobius/boom raised ConversionError: no zero"
    assert reasons[1] is None
    extra = w.layer_values([w.run_pass()], reasons)
    assert extra["verify.checks.raised"] == 1
    assert extra["verify.checks.failed"] == 0


def test_raising_or_nan_delta_pair_is_one_failed_item(monkeypatch, tmp_path):
    w = workloads.DeltaBoundary(7, str(tmp_path))
    first, second = w.pairs[0][0], w.pairs[1][0]
    answers = {id(p): d for (p, _), d in zip(w.pairs, w.expected)}

    def fake_delta(p, q):
        if p is first:
            raise ValueError("refused")
        return math.nan if p is second else answers[id(p)]

    monkeypatch.setattr(hardy, "delta", fake_delta)
    reasons = w.check(w.run_pass())
    assert reasons[0] == "raised ValueError: refused"
    assert reasons[1] == "|delta - oracle| > 1e-10: nan"
    assert reasons[2:] == [None] * (len(w.pairs) - 2)


# -- oracle ---------------------------------------------------------------

def _random_point(rng, radius=0.9):
    return workloads._ball_point(rng, radius)


def test_oracle_at_origin_is_the_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = _random_point(rng)
        with mpmath.workdps(60):
            norm = mpmath.sqrt(sum(mpmath.mpf(c) ** 2
                                   for c in q.components()))
        assert abs(oracle.delta(Quaternion(), q) - norm) < 1e-45


def test_oracle_on_a_slice_is_the_disk_distance():
    # axis units keep y * unit exact, so p and q lie on one slice exactly
    rng = np.random.default_rng(2)
    for unit in np.eye(3).tolist() * 7:
        (x1, y1), (x2, y2) = rng.uniform(-0.6, 0.6, (2, 2)).tolist()
        p = Quaternion(x1, *(y1 * u for u in unit))
        q = Quaternion(x2, *(y2 * u for u in unit))
        with mpmath.workdps(60):
            z = mpmath.mpc(x1, y1)
            w = mpmath.mpc(x2, y2)
            disk = abs(z - w) / abs(1 - w * mpmath.conj(z))
        assert abs(oracle.delta(p, q) - disk) < 1e-40


def test_oracle_matches_library_on_interior_pairs():
    rng = np.random.default_rng(3)
    pairs = [(_random_point(rng), _random_point(rng)) for _ in range(100)]
    pairs.append((Quaternion(0.3), _random_point(rng)))      # a real point
    for p, q in pairs:
        want = oracle.delta(p, q)
        assert abs(hardy.delta(p, q) - want) < 1e-13
        assert abs(oracle.delta(q, p) - want) < 1e-40


# -- tracing --------------------------------------------------------------

def _attribute_snapshot():
    snap = {}
    for mod in spans._sliceball_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) \
                    and value.__module__.startswith("sliceball"):
                for attr, member in vars(value).items():
                    snap[(value.__module__, value.__name__, attr)] = member
    return snap


def _assert_same(before, after):
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_tracer_restores_every_attribute():
    from sliceball import cli, geometry
    from sliceball.series import RegularPowerSeries
    before = _attribute_snapshot()
    tracer = spans.Tracer()
    with tracer.installed():
        for holder, name in ((hardy, "delta"), (cli, "delta"),
                             (cli, "tensor_value"),
                             (geometry, "regular_differential"),
                             (RegularPowerSeries, "__call__"),
                             (Quaternion, "__init__")):
            assert getattr(holder, name) is not before[
                (holder.__module__, holder.__name__, name)
                if isinstance(holder, type) else (holder.__name__, name)]
    _assert_same(before, _attribute_snapshot())

    with pytest.raises(errors.DomainError):
        with spans.Tracer().installed() as tracer:
            hardy.delta(Quaternion(), Quaternion(2.0))
    assert tracer.failed == {"hardy.delta": 1}
    _assert_same(before, _attribute_snapshot())


def test_self_time_and_nested_counts():
    tracer = spans.Tracer()
    with tracer.span("mobius.matrix_to_canonical"):
        with tracer.span("inner"):
            with tracer.span("series.eval"):
                time.sleep(0.02)
    with tracer.span("series.eval"):
        pass
    summary = tracer.summary()
    calls, total, own = summary["mobius.matrix_to_canonical"]
    assert calls == 1 and total >= 0.02 and own < 0.01
    assert summary["series.eval"][0] == 2
    assert summary["canonical_evals"] == 1


# -- metric names ---------------------------------------------------------

def test_benchmark_definition_lists_the_layer_metrics():
    bench = _bench()
    names = [m["name"] for m in bench["per_layer"]]
    assert names == [n for n, _ in spans.LAYER_METRICS]
    assert [m["unit"] for m in bench["per_layer"]] \
        == [u for _, u in spans.LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for m in bench["per_layer"] + bench["end_to_end"]:
        assert METRIC_NAME.fullmatch(m["name"])


def test_traced_run_produces_every_layer_metric():
    result = _run("--workload", "sp11-canonical", "--seed", "5",
                  "--seconds", "1", "--trace", "1")
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in _bench()["per_layer"]]
    assert result["correct"]
    assert metrics["mobius.matrix_to_canonical.calls"]["value"] \
        == result["attempted"]
    assert metrics["series.eval.calls"]["value"] > 0
    assert metrics["trace.overhead_s"]["value"] > 0


def test_plain_run_produces_every_end_to_end_metric():
    result = _run("--workload", "sample-field", "--seed", "5",
                  "--seconds", "1")
    assert list(result["metrics"]) \
        == [m["name"] for m in _bench()["end_to_end"]]
    assert result["correct"] and result["attempted"] > 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
