import dataclasses
import math

import pytest

from sliceball import Quaternion, RunConfig, mobius, run_checks, verify
from sliceball.verify import CHECKS

SMALL = RunConfig(samples=25)


def test_registry_is_well_formed():
    keys = [(c.suite, c.name) for c in CHECKS]
    assert len(keys) == len(set(keys))
    assert {c.suite for c in CHECKS} == {"quat", "series", "mobius",
                                         "geometry", "hardy"}
    assert len(CHECKS) >= 40
    for c in CHECKS:
        assert c.claim and c.claim == c.claim.strip()


def test_all_checks_pass_at_small_samples():
    results = run_checks(SMALL)
    assert len(results) == len(CHECKS)
    bad = ["%s/%s err=%g tol=%g" % (r.suite, r.name, r.max_error,
                                    r.tolerance)
           for r in results if not r.passed]
    assert not bad, bad


def test_pattern_filter():
    results = run_checks(SMALL, "quat")
    assert results and all(r.suite == "quat" for r in results)
    results = run_checks(SMALL, "delta-origin")
    assert len(results) == 1
    assert run_checks(SMALL, "no-such-check") == []


def test_results_are_deterministic():
    a = run_checks(SMALL, "hardy/delta-symmetric")[0]
    b = run_checks(SMALL, "hardy/delta-symmetric")[0]
    assert a.max_error == b.max_error
    assert a.samples == b.samples


def test_seed_changes_sample_stream():
    a = run_checks(SMALL, "quat/norm-multiplicative")[0]
    b = run_checks(RunConfig(seed=8, samples=25),
                   "quat/norm-multiplicative")[0]
    assert a.max_error != b.max_error


def test_collapsed_tolerances_fail():
    # nonsensically tight tolerances must make checks fail rather than
    # silently pass
    broken = RunConfig(samples=25, atol=1e-20, rtol=1e-20)
    results = run_checks(broken)
    assert any(not r.passed for r in results)


def test_result_fields_populated():
    r = run_checks(SMALL, "geometry/riemannian-vs-split-norm")[0]
    assert r.suite == "geometry"
    assert r.name == "riemannian-vs-split-norm"
    assert r.claim
    assert r.samples > 0
    assert r.max_error >= 0.0
    assert r.tolerance > 0.0
    assert r.passed


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    with pytest.raises(ValueError):
        RunConfig(atol=-1.0)
    with pytest.raises(ValueError):
        RunConfig(truncation=0)
    with pytest.raises(ValueError):
        RunConfig(boundary_margin=2.0)


@pytest.mark.parametrize("name", ["atol", "rtol", "delta_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_tolerance(name, value):
    with pytest.raises(ValueError,
                       match="%s must be positive and finite, got %r"
                       % (name, value)):
        RunConfig(**{name: value})


def _fold(monkeypatch, fn):
    # run a stand-in check through run_checks as quat/norm-multiplicative
    monkeypatch.setattr(verify, "CHECKS",
                        [dataclasses.replace(CHECKS[0], fn=fn)])
    (result,) = run_checks(SMALL)
    return result


def test_fold_reports_the_worst_ratio_and_counts_pairs(monkeypatch):
    def check(config, rng):
        yield from [(1.0, 10.0), (3.0, 4.0), (2.0, 8.0), (1.5, 2.0)]

    r = _fold(monkeypatch, check)
    # 3/4 and 1.5/2 tie; the later pair wins
    assert (r.samples, r.max_error, r.tolerance, r.passed) \
        == (4, 1.5, 2.0, True)
    assert r.details == {}


def test_nan_error_fails_the_row(monkeypatch):
    def check(config, rng):
        yield 0.0, 1.0
        yield math.nan, 1.0
        yield 0.5, 1.0

    r = _fold(monkeypatch, check)
    assert not r.passed
    assert math.isnan(r.max_error) and r.tolerance == 1.0
    assert r.samples == 3


def test_check_that_yields_nothing_fails(monkeypatch):
    def check(config, rng):
        return iter(())

    r = _fold(monkeypatch, check)
    assert not r.passed
    assert r.samples == 0


@pytest.mark.parametrize("name, pairs", [("riemannian-vs-split-norm", 1000),
                                         ("riemannian-triple-agreement",
                                          2000)])
def test_samples_counts_compared_values(name, pairs):
    (r,) = run_checks(RunConfig(samples=100), "geometry/" + name)
    assert r.samples == pairs


@pytest.mark.parametrize("norm, passed", [(1.0, False),
                                          (math.nextafter(1.0, 0.0), True)])
def test_ball_preserved_fails_only_from_norm_one(monkeypatch, norm, passed):
    monkeypatch.setattr(mobius, "classical_apply",
                        lambda A, q: Quaternion(norm, 0.0, 0.0, 0.0))
    (r,) = run_checks(SMALL, "mobius/ball-preserved")
    assert r.passed is passed
    assert r.max_error == norm and r.samples == 2 * SMALL.samples
