import dataclasses
import math

import pytest

from sliceball import (ONE, ZERO, Quaternion, RunConfig, geometry, hardy,
                       max_component_diff, mobius, random_ball_point,
                       random_imaginary_unit, random_tangent,
                       random_unit_quaternion, run_checks, slice_decompose,
                       verify)
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
    # Python types, so the report serialises and compares as plain values
    assert all(type(r.max_error) is float and type(r.tolerance) is float
               and type(r.passed) is bool for r in results)
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


# Per-draw loops of the checks that evaluate their draws in blocks: the
# reference that every block must reproduce pair for pair.

def _loop_hermitian_u_independent(config, rng):
    inner = max(2, config.samples // 20)
    allowed = 1e-11 * verify._rtol_scale(config)
    for _ in range(config.samples):
        q, a, b = verify._tangent_triple(config, rng)
        ref = geometry.slice_hermitian_via_definition(q, a, b, ONE)
        scale = max(abs(ref), 1e-12)
        for _ in range(inner):
            u = random_unit_quaternion(rng)
            val = geometry.slice_hermitian_via_definition(q, a, b, u)
            yield max_component_diff(val, ref) / scale, allowed


def _loop_hermitian_closed_form(config, rng):
    allowed = 1e-11 * verify._rtol_scale(config)
    for _ in range(config.samples):
        q, a, b = verify._tangent_triple(config, rng)
        u = random_unit_quaternion(rng)
        yield (_rel_q(geometry.slice_hermitian_via_definition(q, a, b, u),
                      geometry.slice_hermitian(q, a, b)), allowed)


def _loop_riemannian_triple(config, rng):
    allowed = 1e-13 * verify._rtol_scale(config)
    for _ in range(config.samples * 10):
        q, a, b = verify._tangent_triple(config, rng)
        closed = geometry.slice_riemannian(q, a, b, "closed")
        corrected = geometry.slice_riemannian(q, a, b, "corrected")
        via_h = geometry.slice_riemannian(q, a, b, "via-h")
        scale = math.sqrt(geometry.slice_riemannian(q, a, a)
                          * geometry.slice_riemannian(q, b, b))
        yield abs(closed - corrected) / scale, allowed
        yield abs(closed - via_h) / scale, allowed


def _loop_riemannian_vs_split_norm(config, rng):
    allowed = 1e-11 * verify._rtol_scale(config)
    for _ in range(config.samples * 10):
        q = verify._ball(rng, 0.9)
        a = random_tangent(rng)
        yield (_rel_s(geometry.slice_riemannian(q, a, a),
                      geometry.arcozzi_sarfatti_norm(q, a)), allowed)


def _loop_split_scalar_identity(config, rng):
    for _ in range(config.samples * 10):
        q = random_ball_point(rng, config.boundary_margin)
        lhs = (1 - q * q).norm_sq() - 4.0 * q.im.norm_sq()
        rhs = (1.0 - q.norm_sq()) ** 2
        yield abs(lhs - rhs), 1e-13 * verify._atol_scale(config)


def _loop_hermitian_symmetric(config, rng):
    for _ in range(config.samples):
        q, a, b = verify._tangent_triple(config, rng)
        hab = geometry.slice_hermitian(q, a, b)
        hba = geometry.slice_hermitian(q, b, a)
        yield (max_component_diff(hab, hba.conj()),
               config.atol + config.rtol * max(1.0, abs(hab)))


def _loop_decomposition(config, rng):
    for _ in range(config.samples):
        q, a, b = verify._tangent_triple(config, rng)
        tv = geometry.tensor_value(q, a, b)
        g_closed = geometry.slice_riemannian(q, a, b, "closed")
        recon = Quaternion(g_closed, 0, 0, 0) + tv.omega
        yield (max_component_diff(tv.h, recon),
               config.atol + config.rtol * max(1.0, abs(tv.h)))


def _loop_kahler_antisymmetric(config, rng):
    for _ in range(config.samples):
        q, a, b = verify._tangent_triple(config, rng)
        oab = geometry.slice_kahler(q, a, b)
        oba = geometry.slice_kahler(q, b, a)
        yield (max_component_diff(oab, -oba),
               config.atol + config.rtol * max(1.0, abs(oab)))


def _loop_representation(tensor):
    direct = {"G": geometry.slice_riemannian, "H": geometry.slice_hermitian,
              "Omega": geometry.slice_kahler}[tensor]

    def loop(config, rng):
        allowed = (2e-12 if tensor == "G" else 1e-11) \
            * verify._rtol_scale(config)
        for _ in range(config.samples):
            q, a, b = verify._tangent_triple(config, rng)
            u = random_unit_quaternion(rng)
            lhs = direct(q, a, b)
            rhs = geometry.representation_transform(u, tensor, q, a, b)
            if tensor == "G":
                scale = math.sqrt(direct(q, a, a) * direct(q, b, b))
                yield abs(lhs - rhs) / scale, allowed
            else:
                yield _rel_q(lhs, rhs), allowed
    return loop


def _loop_delta_origin(config, rng):
    allowed = 1e-10 * verify._rtol_scale(config)
    for _ in range(config.samples):
        q = random_ball_point(rng, config.boundary_margin)
        yield abs(hardy.delta(ZERO, q) - abs(q)), allowed


def _loop_delta_symmetric(config, rng):
    for _ in range(config.samples):
        p = random_ball_point(rng, config.boundary_margin)
        q = random_ball_point(rng, config.boundary_margin)
        yield (abs(hardy.delta(p, q) - hardy.delta(q, p)),
               2.0 * config.delta_tol)


def _loop_delta_range(config, rng):
    for _ in range(config.samples):
        p = random_ball_point(rng, config.boundary_margin)
        q = random_ball_point(rng, config.boundary_margin)
        d = hardy.delta(p, q)
        yield max(-d, d - 1.0, 0.0), 1e-15


def _loop_delta_slice_form(config, rng):
    allowed = 1e-9 * verify._rtol_scale(config)
    for _ in range(config.samples):
        unit = random_imaginary_unit(rng)
        p = verify._slice_point(rng, unit, 0.9)
        q = verify._slice_point(rng, unit, 0.9)
        sp, sq = slice_decompose(p), slice_decompose(q)
        dx, dy = sq.x - sp.x, sq.y - sp.y
        re = 1.0 - (sq.x * sp.x + sq.y * sp.y)
        im = sq.y * sp.x - sq.x * sp.y
        closed = math.sqrt((dx * dx + dy * dy) / (re * re + im * im))
        yield abs(hardy.delta(p, q) - closed), allowed


def _loop_delta_triangle(config, rng):
    for _ in range(config.samples * 10):
        p = random_ball_point(rng, config.boundary_margin)
        q = random_ball_point(rng, config.boundary_margin)
        r = random_ball_point(rng, config.boundary_margin)
        yield (max(0.0, hardy.delta(p, r) - hardy.delta(p, q)
                   - hardy.delta(q, r)),
               4.0 * config.delta_tol)


def _rel_q(v1, v2):
    return max_component_diff(v1, v2) / max(abs(v1), abs(v2), 1e-12)


def _rel_s(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-12)


PER_DRAW_LOOPS = {
    "hermitian-u-independent": _loop_hermitian_u_independent,
    "hermitian-closed-form": _loop_hermitian_closed_form,
    "riemannian-triple-agreement": _loop_riemannian_triple,
    "riemannian-vs-split-norm": _loop_riemannian_vs_split_norm,
    "split-scalar-identity": _loop_split_scalar_identity,
    "hermitian-symmetric": _loop_hermitian_symmetric,
    "decomposition-h-g-omega": _loop_decomposition,
    "kahler-antisymmetric": _loop_kahler_antisymmetric,
    "representation-riemannian": _loop_representation("G"),
    "representation-hermitian": _loop_representation("H"),
    "representation-kahler": _loop_representation("Omega"),
    "delta-origin": _loop_delta_origin,
    "delta-symmetric": _loop_delta_symmetric,
    "delta-range": _loop_delta_range,
    "delta-slice-form": _loop_delta_slice_form,
    "delta-triangle": _loop_delta_triangle,
}


@pytest.mark.parametrize("block, seed", [(1000, 1), (1000, 2), (1000, 3),
                                         (7, 1), (1, 2)])
@pytest.mark.parametrize("name", sorted(PER_DRAW_LOOPS))
def test_blocks_yield_the_pairs_of_the_per_draw_loop(monkeypatch, name,
                                                     block, seed):
    # blocks of 7 and 1 also cover a short last block and 1-element arrays
    monkeypatch.setattr(verify, "_BLOCK", block)
    config = RunConfig(seed=seed, samples=60)
    (check,) = [c for c in CHECKS if c.name == name]
    batched = list(check.fn(config, verify._rng_for(seed, check.suite, name)))
    looped = list(PER_DRAW_LOOPS[name](
        config, verify._rng_for(seed, check.suite, name)))
    assert batched == looped
    assert all(type(e) is float and type(a) is float for e, a in batched)


def test_riemannian_triple_agreement_passes_at_default_samples():
    (r,) = run_checks(RunConfig(seed=7), "geometry/riemannian-triple-agreement")
    assert r.passed and r.samples == 20000


def test_representation_riemannian_passes_at_default_samples():
    # seed 33 failed while G was measured against |G(a, b)| itself
    for seed in range(1, 41):
        (r,) = run_checks(RunConfig(seed=seed),
                          "geometry/representation-riemannian")
        assert r.passed and r.samples == 1000, (seed, r.max_error)
