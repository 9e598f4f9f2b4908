import dataclasses
import json
import math

import numpy as np
import pytest

from sliceball import (ONE, ZERO, ConversionError, Quaternion,
                       RegularMobius, RegularPowerSeries, RunConfig,
                       SpOneOneMatrix, geometry, hardy, max_component_diff,
                       mobius, normalize_pair, project_slice,
                       random_ball_point, random_imaginary_unit, random_sp11,
                       random_tangent, random_unit_quaternion,
                       slice_components, verify)
from sliceball.verify import CHECKS, run_checks

SMALL = RunConfig(samples=25)


def test_registry_is_well_formed():
    keys = [(c.suite, c.name) for c in CHECKS]
    assert len(keys) == len(set(keys))
    assert {c.suite for c in CHECKS} == {"quat", "series", "mobius",
                                         "geometry", "hardy"}
    assert len(CHECKS) >= 40
    for c in CHECKS:
        assert c.claim and c.claim == c.claim.strip()


def test_every_suite_and_name_selects_only_itself():
    # a pattern selects the rows whose suite/name contains it, and the
    # benchmark runs each row alone by its full suite/name
    names = ["%s/%s" % (c.suite, c.name) for c in CHECKS]
    for name in names:
        assert [n for n in names if name in n] == [name]


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
        RunConfig(boundary_margin=2.0)


@pytest.mark.parametrize("name", ["atol", "rtol"])
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


# each ratio below is 0.75 exactly, so the ties are exact
_TIED_BLOCKS = [([1.0, 3.0, 6.0, 0.5], [10.0, 4.0, 8.0, 2.0]),
                ([[1.5, 0.1]], 2.0)]


@pytest.mark.parametrize("count, expected", [(1, (4, 6.0, 8.0)),
                                             (2, (6, 1.5, 2.0))])
def test_fold_of_blocks_lets_the_later_tie_win(monkeypatch, count, expected):
    def check(config, rng):
        for errors, allowed in _TIED_BLOCKS[:count]:
            yield np.array(errors), np.array(allowed)

    r = _fold(monkeypatch, check)
    assert (r.samples, r.max_error, r.tolerance) == expected and r.passed


_NAN = math.nan


@pytest.mark.parametrize("blocks, tolerance", [
    # a NaN in an early block outlives the numbers after it
    ([([0.0, _NAN, 0.5], [1.0, 2.0, 1.0]), (5.0, 1.0)], 2.0),
    # a later NaN takes its place
    ([([0.0, _NAN, 0.5], [1.0, 2.0, 1.0]), (5.0, 1.0), (_NAN, 3.0)], 3.0),
    # of two NaNs in one block, the last wins
    ([([_NAN, 1.0, _NAN], [4.0, 1.0, 5.0])], 5.0),
])
def test_fold_of_blocks_keeps_the_last_nan(monkeypatch, blocks, tolerance):
    def check(config, rng):
        for errors, allowed in blocks:
            yield np.array(errors), np.array(allowed)

    r = _fold(monkeypatch, check)
    assert math.isnan(r.max_error) and r.tolerance == tolerance
    assert not r.passed and r.samples == sum(np.size(e) for e, _ in blocks)


@pytest.mark.parametrize("full, samples, passed", [(True, 2, True),
                                                   (False, 0, False)])
def test_fold_counts_only_the_marked_elements(monkeypatch, full, samples,
                                              passed):
    own = np.array([[False, True], [False, True]])

    def check(config, rng):
        # the unmarked 9s would fail the row
        yield verify._masked(np.full((2, 2), 9.0), 1.0, np.zeros_like(own))
        if full:
            yield verify._masked(np.array([[9.0, 0.5], [9.0, 0.1]]),
                                 np.array([[1.0], [0.5]]), own)

    r = _fold(monkeypatch, check)
    assert (r.samples, r.passed) == (samples, passed)
    if full:
        assert (r.max_error, r.tolerance) == (0.5, 1.0)


@pytest.mark.parametrize("error", [2e-9, 0.0])
def test_zero_allowed_fails_the_row_without_raising(monkeypatch, error):
    # as in injectivity, where allowed is the separation of two images
    def check(config, rng):
        yield error, np.array([0.5, 0.0, 0.25])

    r = _fold(monkeypatch, check)
    assert (r.samples, r.max_error, r.tolerance, r.passed, r.details) \
        == (3, error, 0.0, False, {})


def test_check_that_raises_counts_the_blocks_before(monkeypatch):
    def check(config, rng):
        yield np.zeros(3), 1.0
        raise ArithmeticError("boom")

    r = _fold(monkeypatch, check)
    assert r.samples == 3 and not r.passed
    assert math.isnan(r.max_error) and math.isnan(r.tolerance)
    assert r.details == {"error": "ArithmeticError: boom"}


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


@pytest.mark.parametrize("real, passed", [(0.0, False), (-1.0, False),
                                          (5e-324, True)])
def test_hermitian_positive_fails_on_a_real_part_not_positive(
        monkeypatch, real, passed):
    monkeypatch.setattr(geometry, "slice_hermitian", lambda q, a, b:
                        Quaternion(np.full_like(q.w, real), 0.0, 0.0, 0.0))
    (r,) = run_checks(SMALL, "geometry/hermitian-positive")
    assert r.passed is passed
    assert r.samples == 2 * SMALL.samples


# Reference loops of the checks that draw and evaluate in blocks.  Each
# draws through the same size= sampler calls as its check, in blocks of
# the same sizes, then evaluates every element with scalar calls and
# yields its pairs one draw at a time: the check must reproduce them
# pair for pair.

def _scalars(v):
    """The elements of a batch as scalars with Python float components."""
    if isinstance(v, SpOneOneMatrix):
        return [SpOneOneMatrix(*e) for e in zip(
            _scalars(v.a), _scalars(v.b), _scalars(v.c), _scalars(v.d))]
    return [Quaternion(*e) for e in zip(
        *(np.asarray(c).tolist() for c in v.components()))]


def _sizes(count, block):
    return [min(block, count - start) for start in range(0, count, block)]


def _per_draw(count, block, draw):
    """draw(n) (a tuple of batches) for blocks of n <= block, count draws
    in all, returned one draw at a time as tuples of scalars."""
    for n in _sizes(count, block):
        yield from zip(*(_scalars(v) for v in draw(n)))


def _ball(rng, radius, n=None):
    return random_ball_point(rng, 0.0, size=n) * radius


def _triple(config, rng, n):
    return (random_ball_point(rng, config.boundary_margin, size=n),
            random_tangent(rng, size=n), random_tangent(rng, size=n))


def _triple_and_unit(config, rng, n):
    return _triple(config, rng, n) + (random_unit_quaternion(rng, size=n),)


def _unit_and_tangent(rng, n):
    return random_imaginary_unit(rng, size=n), random_tangent(rng, size=n)


def _loop_norm_multiplicative(config, rng, block):
    for p, q in _per_draw(config.samples, block, lambda n: (
            random_tangent(rng, size=n), random_tangent(rng, size=n))):
        scale = abs(p) * abs(q)
        yield (abs(abs(p * q) - scale),
               1e-12 * max(1.0, scale) * verify._atol_scale(config))


def _loop_projection_resolution(config, rng, block):
    for unit, a in _per_draw(config.samples, block,
                             lambda n: _unit_and_tangent(rng, n)):
        par, perp = project_slice(unit, a)
        allowed = config.atol + config.rtol * max(1.0, abs(a))
        yield max_component_diff(par + perp, a), allowed
        yield max_component_diff(project_slice(unit, par)[0], par), allowed
        yield (abs((par * perp.conj()).w),
               config.atol + config.rtol * max(1.0, a.norm_sq()))


def _loop_projection_anticommute(config, rng, block):
    for unit, a in _per_draw(config.samples, block,
                             lambda n: _unit_and_tangent(rng, n)):
        perp = project_slice(unit, a)[1]
        yield (max_component_diff(unit * perp, -(perp * unit)),
               config.atol + config.rtol * max(1.0, abs(a)))


def _loop_slice_roundtrip(config, rng, block):
    for (q,) in _per_draw(config.samples, block, lambda n: (
            random_ball_point(rng, config.boundary_margin, size=n),)):
        x, y, ux, uy, uz = slice_components(q)
        yield (max_component_diff(Quaternion(x, y * ux, y * uy, y * uz), q),
               1e-14 * verify._atol_scale(config))


def _series_draws(rng, n, max_order):
    """The n series of one verify._random_series block, one by one."""
    orders = rng.integers(0, max_order + 1, size=n)
    coeffs = _scalars(random_tangent(rng, size=int(orders.sum()) + n) * 0.7)
    ends = np.cumsum(orders + 1).tolist()
    return [RegularPowerSeries(coeffs[end - order - 1:end])
            for order, end in zip(orders.tolist(), ends)]


def _coeff_scale(*fs):
    return max(1.0, max(abs(c) for f in fs for c in f.coeffs))


def _loop_star_associative(config, rng, block):
    for n in _sizes(max(10, config.samples // 5), block):
        fs, gs, hs = [_series_draws(rng, n, 8) for _ in range(3)]
        for f, g, h in zip(fs, gs, hs):
            lhs = f.star(g).star(h)
            rhs = f.star(g.star(h))
            scale = _coeff_scale(lhs, rhs)
            for a, b in zip(lhs.coeffs, rhs.coeffs):
                yield (max_component_diff(a, b),
                       1e-12 * scale * verify._atol_scale(config))


def _loop_symmetrization_commutes(config, rng, block):
    for n in _sizes(max(10, config.samples // 5), block):
        for f in _series_draws(rng, n, 8):
            lhs = f.star(f.conjugate())
            rhs = f.conjugate().star(f)
            scale = _coeff_scale(lhs, rhs)
            for a, b in zip(lhs.coeffs, rhs.coeffs):
                yield (max_component_diff(a, b),
                       1e-12 * scale * verify._atol_scale(config))


def _loop_symmetrization_real(config, rng, block):
    for n in _sizes(max(10, config.samples // 5), block):
        for f in _series_draws(rng, n, 8):
            for c in f.symmetrize().coeffs:
                yield c.im_norm(), 1e-13 * verify._atol_scale(config)


def _slice_series_draws(rng, units):
    # one to six coefficients per series, each on the slice of its unit
    orders = rng.integers(0, 6, size=len(units)).tolist()
    g = rng.standard_normal((2, sum(orders) + len(units))).tolist()
    coeffs = iter(zip(*g))
    return [RegularPowerSeries([Quaternion(w, y * u.x, y * u.y, y * u.z)
                                for w, y in [next(coeffs)
                                             for _ in range(order + 1)]])
            for order, u in zip(orders, units)]


def _loop_slice_evaluation_homomorphism(config, rng, block):
    for n in _sizes(config.samples, block):
        unit = random_imaginary_unit(rng, size=n)
        units = _scalars(unit)
        fs = _slice_series_draws(rng, units)
        gs = _slice_series_draws(rng, units)
        for f, g, q in zip(fs, gs,
                           _scalars(verify._slice_points(rng, unit, 0.9))):
            lhs = f.star(g).eval(q)
            rhs = f.eval(q) * g.eval(q)
            yield (max_component_diff(lhs, rhs),
                   config.atol + config.rtol * 10.0
                   * max(1.0, abs(lhs), abs(rhs)))


def _loop_star_evaluation(config, rng, block):
    for n in _sizes(config.samples, block):
        fs, gs = _series_draws(rng, n, 8), _series_draws(rng, n, 8)
        for f, g, q in zip(fs, gs, _scalars(_ball(rng, 0.9, n))):
            fq = f.eval(q)
            if abs(fq) <= 1e-6:
                continue
            rhs = fq * g.eval(fq.inv() * q * fq)
            scale = (sum(abs(c) for c in f.coeffs)
                     * sum(abs(c) for c in g.coeffs))
            yield (max_component_diff(f.star(g).eval(q), rhs),
                   4e-14 * scale * verify._atol_scale(config))


def _loop_reciprocal_residual(config, rng, block):
    # a linear factor or a perturbed unit constant per draw; the block
    # draws the values of both kinds for every draw
    allowed = 1e-9 * verify._rtol_scale(config)
    for n in _sizes(max(10, config.samples // 5), block):
        linear = (rng.random(n) < 0.5).tolist()
        a = _scalars(_ball(rng, 0.9, n))
        orders = rng.integers(1, 6, size=n).tolist()
        units = _scalars(random_unit_quaternion(rng, size=n))
        tails = [_scalars(random_tangent(rng, size=n) * (0.5 * 0.25 ** k))
                 for k in range(1, 6)]
        points = _scalars(_ball(rng, 0.5, n))
        for i in range(n):
            if linear[i]:
                f = RegularPowerSeries([-ONE, a[i].conj()])
            else:
                f = RegularPowerSeries(
                    [units[i]] + [tails[k][i] for k in range(orders[i])])
            recip = f.reciprocal_series()
            yield abs(recip.star(f).eval(points[i]) - 1), allowed
            yield abs(f.star(recip).eval(points[i]) - 1), allowed


def _loop_generator_valid(config, rng, block):
    for (A,) in _per_draw(config.samples, block,
                          lambda n: (random_sp11(rng, size=n),)):
        yield A.residual(), 1e-12 * verify._atol_scale(config)


def _loop_ball_preserved(config, rng, block):
    below_one = math.nextafter(1.0, 0.0)
    for A, a, u, q in _per_draw(config.samples, block, lambda n: (
            random_sp11(rng, size=n), _ball(rng, 0.9, n),
            random_unit_quaternion(rng, size=n),
            random_ball_point(rng, config.boundary_margin, size=n))):
        yield abs(mobius.classical_apply(A, q)), below_one
        yield abs(mobius.regular_apply(RegularMobius(a, u), q)), below_one


def _loop_fixed_points(config, rng, block):
    allowed = config.atol + config.rtol
    for a, u, q in _per_draw(config.samples, block, lambda n: (
            _ball(rng, 0.9, n), random_unit_quaternion(rng, size=n),
            _ball(rng, 0.9, n))):
        m = RegularMobius(a, u)
        yield abs(mobius.regular_apply(m, m.a)), allowed
        yield (max_component_diff(mobius.regular_apply(m, ZERO), m.a * m.u),
               allowed)
        minus_q = mobius.regular_apply(RegularMobius(ZERO, ONE), q)
        yield max_component_diff(minus_q, -q), allowed


def _loop_closed_vs_series(config, rng, block):
    for a, u, q in _per_draw(config.samples, block, lambda n: (
            _ball(rng, 0.9, n), random_unit_quaternion(rng, size=n),
            _ball(rng, 0.7, n))):
        m = RegularMobius(a, u)
        yield (max_component_diff(mobius.regular_apply(m, q),
                                  mobius.regular_apply_via_series(m, q)),
               1e-10 * verify._rtol_scale(config))


def _loop_differential_fd(config, rng, block, h=1e-5):
    allowed = 1e-6 * verify._rtol_scale(config)
    for q, alpha, a, u, A in _per_draw(config.samples, block, lambda n: (
            _ball(rng, 0.9, n), random_tangent(rng, size=n),
            _ball(rng, 0.9, n), random_unit_quaternion(rng, size=n),
            random_sp11(rng, size=n))):
        m = RegularMobius(a, u)
        ana = mobius.regular_differential(m, q, alpha)
        fd = (mobius.regular_apply(m, q + alpha * h)
              - mobius.regular_apply(m, q - alpha * h)) / (2.0 * h)
        yield _rel_q(ana, fd), allowed
        ana = mobius.classical_differential(A, q, alpha)
        fd = (mobius.classical_apply(A, q + alpha * h)
              - mobius.classical_apply(A, q - alpha * h)) / (2.0 * h)
        yield _rel_q(ana, fd), allowed


def _loop_origin_isotropy(config, rng, block):
    for u, q, a in _per_draw(config.samples, block, lambda n: (
            random_unit_quaternion(rng, size=n),
            random_ball_point(rng, config.boundary_margin, size=n),
            _ball(rng, 0.9, n))):
        rot = RegularMobius(ZERO, u)
        yield (max_component_diff(mobius.regular_apply(rot, q), q * (-u)),
               config.atol + config.rtol)
        if abs(a) > 1e-6 and abs(mobius.regular_apply(RegularMobius(a, u),
                                                      ZERO)) <= 1e-6:
            yield math.inf, 1.0


def _loop_injectivity(config, rng, block):
    threshold = math.nextafter(1e-9, math.inf)
    for n in _sizes(config.samples, block):
        a, u, q1, q2 = [_scalars(v) for v in (
            _ball(rng, 0.9, n), random_unit_quaternion(rng, size=n),
            _ball(rng, 0.9, n), _ball(rng, 0.9, n))]
        # second points within 1e-6 of the first are redrawn, in order
        close = [i for i in range(n) if abs(q1[i] - q2[i]) <= 1e-6]
        while close:
            for i, p in zip(close, _scalars(_ball(rng, 0.9, len(close)))):
                q2[i] = p
            close = [i for i in close if abs(q1[i] - q2[i]) <= 1e-6]
        for k in range(n):
            m = RegularMobius(a[k], u[k])
            yield threshold, abs(mobius.regular_apply(m, q1[k])
                                 - mobius.regular_apply(m, q2[k]))


def _loop_canonical_roundtrip(config, rng, block):
    # scalar draws and calls, one point at a time
    allowed = 1e-8 * verify._rtol_scale(config)
    for _ in range(max(5, config.samples // 10)):
        A = random_sp11(rng)
        m = mobius.matrix_to_canonical(A)
        if abs(m.a) >= 1.0 or abs(abs(m.u) - 1.0) > 1e-12:
            yield math.inf, 1.0
            continue
        for _ in range(20):
            q = _ball(rng, 0.7)
            yield (max_component_diff(mobius.regular_apply(m, q),
                                      mobius.matrix_regular_apply(A, q)),
                   allowed)


def _loop_normalize_pair(config, rng, block):
    # five points per pair of maps, drawn after the block's pairs
    for n in _sizes(max(10, config.samples // 5), max(1, block // 5)):
        pairs = list(zip(*(_scalars(v) for v in (
            _ball(rng, 0.9, n), random_unit_quaternion(rng, size=n),
            random_unit_quaternion(rng, size=n)))))
        points = _scalars(_ball(rng, 0.9, 5 * n))
        for k, (a, u1, u2) in enumerate(pairs):
            m1, m2 = RegularMobius(a, u1), RegularMobius(a, u2)
            u = normalize_pair(m1, m2)
            for q in points[5 * k:5 * k + 5]:
                yield (max_component_diff(mobius.regular_apply(m1, q),
                                          mobius.regular_apply(m2, q) * u),
                       1e-12 * verify._rtol_scale(config))


def _loop_hermitian_u_independent(config, rng, block):
    # the inner units of a block's triples are drawn after its triples
    inner = 50
    allowed = 1e-11 * verify._rtol_scale(config)
    for n in _sizes(config.samples, max(1, block // 10)):
        triples = list(zip(*(_scalars(v) for v in _triple(config, rng, n))))
        units = _scalars(random_unit_quaternion(rng, size=n * inner))
        for k, (q, a, b) in enumerate(triples):
            ref = geometry.slice_hermitian_via_definition(q, a, b, ONE)
            scale = max(abs(ref), 1e-12)
            for u in units[k * inner:(k + 1) * inner]:
                val = geometry.slice_hermitian_via_definition(q, a, b, u)
                yield max_component_diff(val, ref) / scale, allowed


def _loop_hermitian_closed_form(config, rng, block):
    allowed = 1e-11 * verify._rtol_scale(config)
    for q, a, b, u in _per_draw(config.samples, block,
                                lambda n: _triple_and_unit(config, rng, n)):
        yield (_rel_q(geometry.slice_hermitian_via_definition(q, a, b, u),
                      geometry.slice_hermitian(q, a, b)), allowed)


def _loop_riemannian_triple(config, rng, block):
    allowed = 1e-13 * verify._rtol_scale(config)
    for q, a, b in _per_draw(config.samples * 10, block,
                             lambda n: _triple(config, rng, n)):
        closed = geometry.slice_riemannian(q, a, b, "closed")
        corrected = geometry.slice_riemannian(q, a, b, "corrected")
        via_h = geometry.slice_hermitian(q, a, b).w
        scale = math.sqrt(geometry.slice_riemannian(q, a, a)
                          * geometry.slice_riemannian(q, b, b))
        yield abs(closed - corrected) / scale, allowed
        yield abs(closed - via_h) / scale, allowed


def _loop_riemannian_vs_split_norm(config, rng, block):
    allowed = 1e-11 * verify._rtol_scale(config)
    for q, a in _per_draw(config.samples * 10, block, lambda n: (
            _ball(rng, 0.9, n), random_tangent(rng, size=n))):
        yield (_rel_s(geometry.slice_riemannian(q, a, a),
                      geometry.arcozzi_sarfatti_norm(q, a)), allowed)


def _loop_split_scalar_identity(config, rng, block):
    for (q,) in _per_draw(config.samples * 10, block, lambda n: (
            random_ball_point(rng, config.boundary_margin, size=n),)):
        lhs = (1 - q * q).norm_sq() - 4.0 * q.im.norm_sq()
        rhs = (1.0 - q.norm_sq()) ** 2
        yield abs(lhs - rhs), 1e-13 * verify._atol_scale(config)


def _loop_hermitian_symmetric(config, rng, block):
    for q, a, b in _per_draw(config.samples, block,
                             lambda n: _triple(config, rng, n)):
        hab = geometry.slice_hermitian(q, a, b)
        hba = geometry.slice_hermitian(q, b, a)
        yield (max_component_diff(hab, hba.conj()),
               config.atol + config.rtol * max(1.0, abs(hab)))


def _loop_hermitian_positive(config, rng, block):
    for q, a, _ in _per_draw(config.samples, block,
                             lambda n: _triple(config, rng, n)):
        for v in (a, a * 1e-8):
            h = geometry.slice_hermitian(q, v, v)
            yield (h.im_norm() if h.w > 0.0 else math.inf,
                   config.atol + config.rtol * max(1.0, abs(h)))


def _loop_decomposition(config, rng, block):
    for q, a, b in _per_draw(config.samples, block,
                             lambda n: _triple(config, rng, n)):
        tv = geometry.tensor_value(q, a, b)
        g_closed = geometry.slice_riemannian(q, a, b, "closed")
        recon = Quaternion(g_closed, 0, 0, 0) + tv.omega
        yield (max_component_diff(tv.h, recon),
               config.atol + config.rtol * max(1.0, abs(tv.h)))


def _loop_kahler_antisymmetric(config, rng, block):
    for q, a, b in _per_draw(config.samples, block,
                             lambda n: _triple(config, rng, n)):
        oab = geometry.slice_kahler(q, a, b)
        oba = geometry.slice_kahler(q, b, a)
        yield (max_component_diff(oab, -oba),
               config.atol + config.rtol * max(1.0, abs(oab)))


def _loop_kahler_rank(config, rng, block):
    for (q,) in _per_draw(max(5, config.samples // 10), block,
                          lambda n: (_ball(rng, 0.9, n),)):
        yield 4.0 - geometry.kahler_rank(q), 0.5


def _loop_hyperbolic_invariance(config, rng, block):
    allowed = 1e-11 * verify._rtol_scale(config)
    for A, q, a, b in _per_draw(max(5, config.samples // 5), block,
                                lambda n: (random_sp11(rng, size=n),)
                                + _triple(config, rng, n)):
        image = mobius.classical_apply(A, q)
        da = mobius.classical_differential(A, q, a)
        db = mobius.classical_differential(A, q, b)
        ghat = geometry.hyperbolic_metric(q, a, b)
        scale = math.sqrt(geometry.hyperbolic_metric(q, a, a)
                          * geometry.hyperbolic_metric(q, b, b))
        yield (abs(geometry.hyperbolic_metric(image, da, db) - ghat) / scale,
               allowed)


def _loop_origin_noninvariance(config, rng, block):
    yield (math.nextafter(1e-6, math.inf),
           geometry.noninvariance_witness().omega_violation)
    allowed = 1e-12 * verify._atol_scale(config)
    for d, a, al, be in _per_draw(config.samples, block, lambda n: (
            random_unit_quaternion(rng, size=n),
            random_unit_quaternion(rng, size=n),
            random_tangent(rng, size=n), random_tangent(rng, size=n))):
        ta, tb = d.inv() * al * a, d.inv() * be * a
        scale = max(1.0, abs(al) * abs(be))
        yield abs((ta * tb.conj()).w - (al * be.conj()).w) / scale, allowed


def _loop_representation(tensor):
    direct = {"G": geometry.slice_riemannian, "H": geometry.slice_hermitian,
              "Omega": geometry.slice_kahler}[tensor]

    def loop(config, rng, block):
        allowed = (2e-12 if tensor == "G" else 1e-11) \
            * verify._rtol_scale(config)
        for q, a, b, u in _per_draw(
                config.samples, block,
                lambda n: _triple_and_unit(config, rng, n)):
            lhs = direct(q, a, b)
            rhs = geometry.representation_transform(u, tensor, q, a, b)
            if tensor == "G":
                scale = math.sqrt(direct(q, a, a) * direct(q, b, b))
                yield abs(lhs - rhs) / scale, allowed
            else:
                yield _rel_q(lhs, rhs), allowed
    return loop


def _loop_slice_restriction_metric(config, rng, block):
    allowed = 1e-13 * verify._rtol_scale(config)
    for unit, q, a, b in _per_draw(config.samples, block,
                                   lambda n: verify._on_slice(config, rng, n)):
        scale = math.sqrt(geometry.hyperbolic_metric(q, a, a)
                          * geometry.hyperbolic_metric(q, b, b))
        yield (abs(geometry.hyperbolic_metric(q, a, b)
                   - geometry.slice_riemannian(q, a, b)) / scale, allowed)


def _loop_slice_restriction_kahler(config, rng, block):
    allowed = 1e-13 * verify._rtol_scale(config)
    for unit, q, a, b in _per_draw(config.samples, block,
                                   lambda n: verify._on_slice(config, rng, n)):
        omega_i = geometry.slice_restriction_kahler(unit, q, a, b)
        scale = math.sqrt(geometry.hyperbolic_metric(q, a, a)
                          * geometry.hyperbolic_metric(q, b, b))
        yield (max_component_diff(geometry.slice_kahler(q, a, b),
                                  unit * omega_i) / scale, allowed)


def _loop_segment_length(config, rng, block):
    # the radius from scalar points, stacked into one array Quaternion;
    # the row draws no blocks
    allowed = 1e-6 * verify._rtol_scale(config)
    for r in (0.3, 0.5, 0.7):
        unit = random_imaginary_unit(rng)
        target = math.atanh(r)
        for metric in ("Ghat", "G"):
            pts = Quaternion(*np.array([(unit * (r * k / 4000.0)).components()
                                        for k in range(4001)]).T)
            yield abs(geometry.curve_length(pts, metric) - target), allowed


def _ball_points(config, rng, n, count):
    return tuple(random_ball_point(rng, config.boundary_margin, size=n)
                 for _ in range(count))


def _loop_delta_origin(config, rng, block):
    allowed = 1e-10 * verify._rtol_scale(config)
    for (q,) in _per_draw(config.samples, block,
                          lambda n: _ball_points(config, rng, n, 1)):
        yield abs(hardy.delta(ZERO, q) - abs(q)), allowed


def _loop_delta_symmetric(config, rng, block):
    for p, q in _per_draw(config.samples, block,
                          lambda n: _ball_points(config, rng, n, 2)):
        yield abs(hardy.delta(p, q) - hardy.delta(q, p)), 1e-15


def _loop_delta_range(config, rng, block):
    for p, q in _per_draw(config.samples, block,
                          lambda n: _ball_points(config, rng, n, 2)):
        d = hardy.delta(p, q)
        yield max(-d, d - 1.0, 0.0), 1e-15


def _loop_delta_slice_form(config, rng, block):
    allowed = 1e-9 * verify._rtol_scale(config)

    def draw(n):
        unit = random_imaginary_unit(rng, size=n)
        return (verify._slice_points(rng, unit, 0.9),
                verify._slice_points(rng, unit, 0.9))
    for p, q in _per_draw(config.samples, block, draw):
        xp, yp = slice_components(p)[:2]
        xq, yq = slice_components(q)[:2]
        dx, dy = xq - xp, yq - yp
        re = 1.0 - (xq * xp + yq * yp)
        im = yq * xp - xq * yp
        closed = math.sqrt((dx * dx + dy * dy) / (re * re + im * im))
        yield abs(hardy.delta(p, q) - closed), allowed


def _loop_delta_triangle(config, rng, block):
    for p, q, r in _per_draw(config.samples * 10, block,
                             lambda n: _ball_points(config, rng, n, 3)):
        yield (max(0.0, hardy.delta(p, r) - hardy.delta(p, q)
                   - hardy.delta(q, r)),
               1e-12)


def _loop_geodesic_additivity(config, rng, block):
    for p, q, r in _per_draw(
            config.samples, block,
            lambda n: verify._geodesic_triples(config, rng, n)):
        a, b = hardy.delta(p, q), hardy.delta(q, r)
        yield abs(hardy.delta(p, r) - (a + b) / (1.0 + a * b)), 5e-14


def _loop_infinitesimal(draw):
    def loop(config, rng, block):
        allowed = 1e-4 * verify._rtol_scale(config)
        for q, a in _per_draw(max(3, config.samples // 50), block,
                              lambda n: draw(rng, n)):
            if abs(a) < 1e-3:
                continue
            probe = hardy.infinitesimal_ratio(q, a)
            yield (abs(probe.ratio - 1.0) if probe.conclusive else math.inf,
                   allowed)
    return loop


def _slice_probe(rng, n):
    unit = random_imaginary_unit(rng, size=n)
    return (verify._slice_points(rng, unit, 0.8),
            verify._slice_tangents(rng, unit))


def _rel_q(v1, v2):
    return max_component_diff(v1, v2) / max(abs(v1), abs(v2), 1e-12)


def _rel_s(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-12)


PER_DRAW_LOOPS = {
    "norm-multiplicative": _loop_norm_multiplicative,
    "projection-resolution": _loop_projection_resolution,
    "projection-anticommute": _loop_projection_anticommute,
    "slice-roundtrip": _loop_slice_roundtrip,
    "star-associative": _loop_star_associative,
    "symmetrization-commutes": _loop_symmetrization_commutes,
    "symmetrization-real": _loop_symmetrization_real,
    "slice-evaluation-homomorphism": _loop_slice_evaluation_homomorphism,
    "star-evaluation": _loop_star_evaluation,
    "reciprocal-residual": _loop_reciprocal_residual,
    "generator-valid": _loop_generator_valid,
    "ball-preserved": _loop_ball_preserved,
    "fixed-points": _loop_fixed_points,
    "closed-vs-series": _loop_closed_vs_series,
    "differential-fd": _loop_differential_fd,
    "origin-isotropy": _loop_origin_isotropy,
    "injectivity": _loop_injectivity,
    "canonical-roundtrip": _loop_canonical_roundtrip,
    "normalize-pair": _loop_normalize_pair,
    "hermitian-u-independent": _loop_hermitian_u_independent,
    "hermitian-closed-form": _loop_hermitian_closed_form,
    "riemannian-triple-agreement": _loop_riemannian_triple,
    "riemannian-vs-split-norm": _loop_riemannian_vs_split_norm,
    "split-scalar-identity": _loop_split_scalar_identity,
    "hermitian-symmetric": _loop_hermitian_symmetric,
    "hermitian-positive": _loop_hermitian_positive,
    "decomposition-h-g-omega": _loop_decomposition,
    "kahler-antisymmetric": _loop_kahler_antisymmetric,
    "kahler-rank": _loop_kahler_rank,
    "hyperbolic-invariance": _loop_hyperbolic_invariance,
    "origin-noninvariance-witness": _loop_origin_noninvariance,
    "representation-riemannian": _loop_representation("G"),
    "representation-hermitian": _loop_representation("H"),
    "representation-kahler": _loop_representation("Omega"),
    "slice-restriction-metric": _loop_slice_restriction_metric,
    "slice-restriction-kahler": _loop_slice_restriction_kahler,
    "segment-length": _loop_segment_length,
    "delta-origin": _loop_delta_origin,
    "delta-symmetric": _loop_delta_symmetric,
    "delta-range": _loop_delta_range,
    "delta-slice-form": _loop_delta_slice_form,
    "delta-triangle": _loop_delta_triangle,
    "geodesic-additivity": _loop_geodesic_additivity,
    "infinitesimal-slice-ratio": _loop_infinitesimal(_slice_probe),
    "infinitesimal-ratio": _loop_infinitesimal(lambda rng, n: (
        _ball(rng, 0.8, n), random_tangent(rng, size=n))),
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
    batched, raised = _collect(check.fn(
        config, verify._rng_for(seed, check.suite, name)))
    assert (batched, raised) == _collect(PER_DRAW_LOOPS[name](
        config, verify._rng_for(seed, check.suite, name), block))
    assert batched
    assert all(type(e) is float and type(a) is float for e, a in batched)


def _collect(blocks):
    """The (error, allowed) pairs of the yielded blocks, each block
    broadcast and read in row-major order, up to the first exception,
    and that exception as text (None when there was none);
    canonical-roundtrip's Newton search raises on some seeds."""
    out = []
    try:
        for block in blocks:
            errors, allowed = np.broadcast_arrays(*block)
            out.extend(zip(errors.ravel().tolist(), allowed.ravel().tolist()))
    except Exception as exc:
        return out, "%s: %s" % (type(exc).__name__, exc)
    return out, None


def test_slice_points_lie_in_the_half_disk_of_their_slice():
    rng = np.random.default_rng(11)
    unit = random_imaginary_unit(rng, size=4000)
    q = verify._slice_points(rng, unit, 0.9)
    x = slice_components(q)[0]
    assert np.all(abs(q) < 0.9)
    # q = x + y unit with y >= 0, so Im q is y times the drawn unit
    assert max_component_diff(q.im, unit * q.im_norm()).max() <= 1e-15
    # uniform in the half disk: a quarter of it within radius 0.45, and
    # as many points with x < 0 as with x > 0
    assert abs(np.mean(abs(q) < 0.45) - 0.25) < 0.03
    assert abs(np.mean(x < 0.0) - 0.5) < 0.03


def test_geodesic_triples_lie_on_one_geodesic_of_one_slice():
    triples = verify._geodesic_triples(RunConfig(), np.random.default_rng(12),
                                       2000)
    for p, q, r in zip(*(_scalars(v) for v in triples)):
        assert max(abs(p), abs(r)) < 0.9
        # the imaginary parts are parallel: one slice holds all three
        for a, b in ((p, q), (p, r)):
            cross = a.im * b.im
            assert abs(cross.x) + abs(cross.y) + abs(cross.z) <= 1e-15
        # phi_p(q) / phi_p(r) = t, in Python complex arithmetic
        unit = (r.im if r.im_norm() > p.im_norm() else p.im) * (
            1.0 / max(r.im_norm(), p.im_norm()))
        z = [complex(c.w, (c.im * unit.conj()).w) for c in (p, q, r)]

        def phi(w):
            return (w - z[0]) / (1.0 - z[0].conjugate() * w)
        t = phi(z[1]) / phi(z[2])
        assert abs(t.imag) <= 1e-9 and -1e-12 <= t.real < 1.0 + 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_geodesic_additivity_catches_a_relative_defect_of_1e_12(
        monkeypatch, seed):
    # delta * (1 + 1e-12) leaves delta-origin at a hundredth of its bound
    # and every other hardy row passing; along a geodesic it shows
    exact = hardy.delta
    monkeypatch.setattr(hardy, "delta",
                        lambda p, q: exact(p, q) * (1.0 + 1e-12))
    (r,) = run_checks(RunConfig(seed=seed), "hardy/geodesic-additivity")
    assert r.samples == 1000
    assert not r.passed and r.max_error > 2.0 * r.tolerance


def test_slice_restriction_kahler_passes_where_the_relative_measure_failed():
    # at seed 57 a nearly parallel pair made |Omega| nearly 0, and the
    # error measured against it read 2.07e-11 against a bound of 1e-11
    (r,) = run_checks(RunConfig(seed=57), "geometry/slice-restriction-kahler")
    assert r.passed and r.tolerance == 1e-13


def test_riemannian_triple_agreement_passes_at_default_samples():
    (r,) = run_checks(RunConfig(seed=7), "geometry/riemannian-triple-agreement")
    assert r.passed and r.samples == 20000


def test_representation_riemannian_passes_at_default_samples():
    # seed 33 failed while G was measured against |G(a, b)| itself
    for seed in range(1, 41):
        (r,) = run_checks(RunConfig(seed=seed),
                          "geometry/representation-riemannian")
        assert r.passed and r.samples == 1000, (seed, r.max_error)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("measure", [verify.check_hermitian_closed_form,
                                     verify.check_representation_riemannian],
                         ids=["hermitian-closed-form",
                              "representation-riemannian"])
def test_measure_holds_on_the_edge_of_its_draw_domain(measure, seed):
    # the rows draw q uniformly from |q| <= 1 - boundary_margin, so few
    # of their draws come near the edge; here every point lies on it
    config = RunConfig()
    rng = np.random.default_rng(seed)
    n = 1000
    q = random_unit_quaternion(rng, size=n) * (1.0 - config.boundary_margin)
    errors, allowed = measure(config, q, random_tangent(rng, size=n),
                              random_tangent(rng, size=n),
                              random_unit_quaternion(rng, size=n))
    assert np.max(errors / allowed) <= 1.0


def test_injectivity_redraws_only_the_close_points(monkeypatch):
    # second points 1 and 3 of the block coincide with their first
    # points, and so does the first redraw of point 3: the check draws
    # 2, then 1 replacement point, and the row still passes
    calls = []

    def ball(rng, radius, size=None):
        q = Quaternion(*(np.array(c) for c in
                         (random_ball_point(rng, 0.0, size=size)
                          * radius).components()))
        calls.append(q)
        copies = {3: [(1, 1), (3, 3)], 4: [(1, 3)]}.get(len(calls), [])
        for dst, src in copies:
            for c, first in zip(q.components(), calls[1].components()):
                c[dst] = first[src]
        return q

    monkeypatch.setattr(verify, "_ball", ball)
    (r,) = run_checks(SMALL, "mobius/injectivity")
    n = SMALL.samples
    assert [len(q.w) for q in calls] == [n, n, n, 2, 1]
    assert r.passed and r.samples == n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_samples_grow_linearly_in_the_samples_option(seed):
    # ten times the samples may compare at most 12 times the values in
    # any row that passes at both sizes
    small = run_checks(RunConfig(seed=seed, samples=200))
    large = run_checks(RunConfig(seed=seed, samples=2000))
    grown = ["%s/%s: %d -> %d" % (s.suite, s.name, s.samples, g.samples)
             for s, g in zip(small, large)
             if s.passed and g.passed and g.samples > 12 * s.samples]
    assert not grown, grown


# -- seeded defects: one small defect, put into one library function by
# monkeypatch, must fail the named row at default samples

_REAL_RIEMANNIAN = geometry.slice_riemannian
_REAL_APPLY = mobius.regular_apply
_REAL_STAR = RegularPowerSeries.star


def _flipped_correction(q, alpha, beta, formula="closed"):
    # slice_riemannian with "corrected" giving Ghat minus the off-slice
    # correction 4 |Im q|^2 Re(perp(a) perp(b)) / (|1-q^2|^2 (1-|q|^2)^2)
    value = _REAL_RIEMANNIAN(q, alpha, beta, formula)
    if formula != "corrected":
        return value
    unit = Quaternion(0.0, *slice_components(q)[2:])
    perp_a, perp_b = (project_slice(unit, v)[1] for v in (alpha, beta))
    den = 1.0 - q.norm_sq()
    correction = (4.0 * q.im_norm() ** 2 * (perp_a * perp_b).w
                  / ((1 - q * q).norm_sq() * den * den))
    return value - 2.0 * correction


def _conjugated_hermitian(q, alpha, beta):
    # slice_hermitian with a - q a conj(q) for a - q a q
    left = (1 - q * q).inv()
    ta = alpha - q * alpha * q.conj()
    tb = (beta - q * beta * q.conj()).conj()
    den = 1.0 - q.norm_sq()
    return left * ta * tb * left.conj() / (den * den)


def _u_on_the_left(m, q):
    # regular_apply with u multiplying from the left
    return m.u * _REAL_APPLY(RegularMobius(m.a, ONE), q)


def _swapped_star(f, g):
    # the opposite product g * f
    return _REAL_STAR(g, f)


_DEFECTS = [(geometry, "slice_riemannian", _flipped_correction,
             "geometry/riemannian-triple-agreement"),
            (geometry, "slice_hermitian", _conjugated_hermitian,
             "geometry/hermitian-closed-form"),
            (mobius, "regular_apply", _u_on_the_left,
             "mobius/closed-vs-series"),
            (RegularPowerSeries, "star", _swapped_star,
             "series/star-evaluation")]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("module, name, defect, row", _DEFECTS,
                         ids=[d[1] for d in _DEFECTS])
def test_seeded_defect_fails_its_row(monkeypatch, seed, module, name,
                                     defect, row):
    config = RunConfig(seed=seed)
    assert run_checks(config, row)[0].passed
    monkeypatch.setattr(module, name, defect)
    (r,) = run_checks(config, row)
    assert not r.passed and r.max_error > r.tolerance


def test_jacobian_without_the_quotient_term_fails_canonical_roundtrip(
        monkeypatch):
    # Newton with d(S^{-1} N) taken as S^{-1} dN, dropping -dS S^{-1} N,
    # misses a zero that the true Jacobian finds at seed 2
    config = RunConfig(seed=2)
    assert run_checks(config, "mobius/canonical-roundtrip")[0].passed
    monkeypatch.setattr(mobius, "_quotient_terms",
                        lambda sym, num, v: (num.coeffs[2], num.coeffs[1]))
    (r,) = run_checks(config, "mobius/canonical-roundtrip")
    assert not r.passed
    assert r.details["error"].startswith(
        "ConversionError: zero search did not converge")


def test_raised_canonical_roundtrip_row_can_be_replayed():
    # the row's error quotes the matrix whose search failed, as the JSON
    # object of `transform --matrix`; rebuilding it raises the same error
    (r,) = run_checks(RunConfig(seed=1), "mobius/canonical-roundtrip")
    error = r.details["error"]
    data = json.loads(error.split(" for --matrix ")[1])
    A = SpOneOneMatrix(*(Quaternion(*data[n]) for n in "abcd"))
    with pytest.raises(ConversionError) as replay:
        mobius.matrix_to_canonical(A)
    assert "ConversionError: %s" % replay.value == error
