import json
import math

import numpy as np
import pytest

from conftest import assert_qclose, to_vec
from sliceball import (ConversionError, DomainError, I, J, K, ONE,
                       PreconditionError, Quaternion, RegularMobius,
                       SpOneOneMatrix, ZERO,
                       classical_apply, classical_differential,
                       conjugation_cu, matrix_regular_apply,
                       matrix_regular_differential, matrix_regular_series,
                       matrix_to_canonical, max_component_diff, mobius,
                       normalize_pair, random_ball_point, random_sp11,
                       random_unit_quaternion, regular_apply,
                       regular_apply_via_series, regular_differential,
                       rotation_ru)
from sliceball.cli import main
from sliceball.series import RegularPowerSeries


def boost(t):
    c, s = math.cosh(t), math.sinh(t)
    return SpOneOneMatrix(Quaternion(c), Quaternion(s), Quaternion(s),
                          Quaternion(c))


def test_matrix_relations():
    assert SpOneOneMatrix.identity().violated_relation() is None
    assert boost(0.7).violated_relation() is None
    assert SpOneOneMatrix.diagonal(I, J).violated_relation() is None
    bad = SpOneOneMatrix(Quaternion(2.0), ONE, ONE, Quaternion(2.0))
    assert bad.violated_relation() == "|a|^2 - |b|^2 = 1"


def test_each_matrix_relation_is_named():
    # each matrix breaks exactly one relation, by the given residual
    cases = [
        (SpOneOneMatrix(Quaternion(1.5), ZERO, ZERO, ONE), 1.25,
         "|a|^2 - |b|^2 = 1"),
        (SpOneOneMatrix(ONE, ZERO, ZERO, Quaternion(0.5)), 0.75,
         "|d|^2 - |c|^2 = 1"),
        (SpOneOneMatrix(ONE, ZERO, Quaternion(0.75), Quaternion(1.25)), 0.75,
         "conj(a) c - conj(b) d = 0"),
    ]
    for A, residual, name in cases:
        assert A.residual() == residual
        assert A.violated_relation() == name
    # a relation may deviate by up to 1e-8
    for dev, name in ((0.5e-8, None), (2e-8, "|a|^2 - |b|^2 = 1")):
        A = SpOneOneMatrix(Quaternion(math.sqrt(1.0 + dev)), ZERO, ZERO, ONE)
        assert A.violated_relation() == name


def test_nan_entry_breaks_a_relation():
    A = SpOneOneMatrix(ONE, ZERO, Quaternion(0.0, math.nan, 0.0, 0.0), ONE)
    assert math.isnan(A.residual())
    assert A.violated_relation() == "|d|^2 - |c|^2 = 1"


def test_random_sp11_satisfies_relations(rng):
    for _ in range(100):
        A = random_sp11(rng)
        assert A.residual() <= 1e-12
        assert abs(A.a) >= 1.0 - 1e-12


def test_random_sp11_batch_satisfies_relations(rng):
    A = random_sp11(rng, size=500)
    assert A.a.w.shape == (500,)
    residual = A.residual()
    assert residual.shape == (500,) and np.all(residual <= 1e-12)
    # the batch residual is the scalar one of each element, NaN included
    A.b.x[3] = math.nan
    scalar = [SpOneOneMatrix(*(Quaternion(*(c[i] for c in v.components()))
                               for v in (A.a, A.b, A.c, A.d))).residual()
              for i in range(500)]
    assert np.array_equal(A.residual(), scalar, equal_nan=True)
    assert math.isnan(A.residual()[3])


def test_batch_with_a_point_outside_the_ball_is_rejected():
    q = Quaternion(np.array([0.0, 0.5, 1.0]), np.zeros(3), np.zeros(3),
                   np.zeros(3))
    m = RegularMobius(Quaternion(0.3), ONE)
    A = SpOneOneMatrix.identity()
    for apply in (lambda: regular_apply(m, q), lambda: classical_apply(A, q),
                  lambda: matrix_regular_apply(A, q),
                  lambda: regular_apply_via_series(m, q)):
        with pytest.raises(DomainError):
            apply()
    inside = Quaternion(np.array([0.0, 0.5, -0.9]), np.zeros(3), np.zeros(3),
                        np.zeros(3))
    assert np.array_equal(regular_apply(m, inside).w,
                          [regular_apply(m, Quaternion(w)).w
                           for w in (0.0, 0.5, -0.9)])


def test_classical_identity_and_diagonal(rng):
    q = Quaternion(0.2, 0.3, -0.1, 0.4)
    assert_qclose(classical_apply(SpOneOneMatrix.identity(), q), q)
    u, v = random_unit_quaternion(rng), random_unit_quaternion(rng)
    got = classical_apply(SpOneOneMatrix.diagonal(u, v), q)
    assert_qclose(got, v.inv() * q * u, atol=1e-14)


def test_classical_preserves_ball(rng):
    for _ in range(200):
        A = random_sp11(rng)
        q = random_ball_point(rng)
        assert abs(classical_apply(A, q)) < 1.0
    with pytest.raises(DomainError):
        classical_apply(boost(0.3), Quaternion(1.0))


def test_classical_matches_regular_for_real_matrices(rng):
    # real matrix entries commute with every quaternion, so the two
    # transformation recipes define the same rational map
    for _ in range(100):
        A = boost(float(rng.uniform(-1.5, 1.5)))
        q = random_ball_point(rng)
        assert_qclose(matrix_regular_apply(A, q), classical_apply(A, q),
                      atol=1e-12)


def test_regular_apply_spot():
    m = RegularMobius(Quaternion(0.5), ONE)
    got = regular_apply(m, Quaternion(0.0, 0.0, 0.5, 0.0))
    assert_qclose(got, Quaternion(10.0 / 17.0, 0.0, -6.0 / 17.0, 0.0),
                  atol=1e-12)
    got2 = regular_apply_via_series(m, Quaternion(0.0, 0.0, 0.5, 0.0))
    assert_qclose(got2, got, atol=1e-12)


def test_regular_fixed_values(rng):
    for _ in range(50):
        a = random_ball_point(rng, 0.2)
        u = random_unit_quaternion(rng)
        m = RegularMobius(a, u)
        assert abs(regular_apply(m, a)) <= 1e-12
        assert_qclose(regular_apply(m, Quaternion()), a * u, atol=1e-13)
    m0 = RegularMobius(Quaternion(), ONE)
    q = Quaternion(0.1, 0.2, 0.3, 0.4)
    assert_qclose(regular_apply(m0, q), -q)


def test_closed_form_vs_series(rng):
    for _ in range(200):
        a = random_ball_point(rng, 0.2)
        u = random_unit_quaternion(rng)
        m = RegularMobius(a, u)
        q = random_ball_point(rng)
        if abs(q) > 0.7:
            continue
        assert_qclose(regular_apply_via_series(m, q), regular_apply(m, q),
                      atol=1e-10)


def test_regular_differential_spot():
    m = RegularMobius(Quaternion(0.5), ONE)
    d = regular_differential(m, Quaternion(0.5), ONE)
    assert_qclose(d, Quaternion(-4.0 / 3.0), atol=1e-12)
    dj = regular_differential(m, Quaternion(0.5), J)
    assert_qclose(dj, Quaternion(0.0, 0.0, -4.0 / 3.0, 0.0), atol=1e-12)


def _fd(apply_fn, q, alpha, h=1e-5):
    up = apply_fn(q + alpha * h)
    down = apply_fn(q - alpha * h)
    return (up - down) / (2.0 * h)


def test_differentials_match_finite_differences(rng):
    for _ in range(50):
        A = random_sp11(rng)
        q = random_ball_point(rng)
        if abs(q) > 0.8:
            continue
        alpha = Quaternion(*rng.standard_normal(4))
        fd = _fd(lambda w: classical_apply(A, w), q, alpha)
        an = classical_differential(A, q, alpha)
        assert max_component_diff(fd, an) <= 1e-6 * max(abs(an), 1.0)

        fd = _fd(lambda w: matrix_regular_apply(A, w), q, alpha)
        an = matrix_regular_differential(A, q, alpha)
        assert max_component_diff(fd, an) <= 1e-6 * max(abs(an), 1.0)

        a = random_ball_point(rng, 0.2)
        m = RegularMobius(a, random_unit_quaternion(rng))
        fd = _fd(lambda w: regular_apply(m, w), q, alpha)
        an = regular_differential(m, q, alpha)
        assert max_component_diff(fd, an) <= 1e-6 * max(abs(an), 1.0)


def _column_differential(A, q, alpha):
    # the derivative of S^{-1} N as S^{-1} dN - S^{-1} dS S^{-1} N, one
    # column at a time; the reference for the quotient-rule form
    sym, num = matrix_regular_series(A)
    si, nv = sym.eval(q).inv(), num.eval(q)
    pair = q * alpha + alpha * q
    ds = pair * sym.coeffs[2].w + alpha * sym.coeffs[1].w
    dn = pair * num.coeffs[2] + alpha * num.coeffs[1]
    return si * dn - si * ds * si * nv, si, ds, dn, si * nv


@pytest.mark.parametrize("max_boost", [1.5, 3.0])
def test_quotient_rule_differential_matches_the_column_formula(rng,
                                                               max_boost):
    # both forms round within a few ulps of the scale of their terms;
    # 1e-14 was fixed ahead of the run, about 20x the worst ratio
    # (5.2e-16) over 4000 draws
    for _ in range(200):
        A = random_sp11(rng, max_boost)
        q = random_ball_point(rng, 0.2)
        alpha = Quaternion(*rng.standard_normal(4))
        want, si, ds, dn, v = _column_differential(A, q, alpha)
        got = matrix_regular_differential(A, q, alpha)
        bound = 1e-14 * abs(si) * (abs(dn) + abs(ds) * abs(v))
        assert max_component_diff(got, want) <= bound
        fd = _fd(lambda w: matrix_regular_apply(A, w), q, alpha)
        assert max_component_diff(fd, got) <= 1e-6 * max(abs(got), 1.0)


@pytest.mark.parametrize("max_boost", [1.5, 3.0])
def test_newton_step_solves_the_real_jacobian(rng, max_boost):
    # the closed-form step against LAPACK on the 4x4 Jacobian of
    # columns dF_q(e), e = 1, i, j, k; both err by about cond(J) ulps of
    # the step, and 1e-14 cond(J) |step| was fixed ahead of the run.
    # The worst ratio over these 400 draws was 0.045.
    for _ in range(200):
        A = random_sp11(rng, max_boost)
        q = random_ball_point(rng)
        sym, num = matrix_regular_series(A)
        nv = num.eval(q)
        val = sym.eval(q).inv() * nv
        got = mobius._newton_step(q, nv,
                                  *mobius._quotient_terms(sym, num, val))
        jac = np.array([to_vec(matrix_regular_differential(A, q, e))
                        for e in (ONE, I, J, K)]).T
        want = np.linalg.solve(jac, -to_vec(val))
        bound = 1e-14 * np.linalg.cond(jac) * np.linalg.norm(want)
        assert np.max(np.abs(to_vec(got) - want)) <= bound


def test_conversion_error_quotes_a_replayable_matrix(capsys):
    # the first draw of a fixed random_sp11 stream whose search fails
    rng, message = np.random.default_rng(0), None
    while message is None:
        A = random_sp11(rng, 3.0)
        try:
            matrix_to_canonical(A)
        except ConversionError as exc:
            message = str(exc)
    head, text = message.split(" for --matrix ")
    assert head == "zero search did not converge in 100 iterations"
    data = json.loads(text)
    B = SpOneOneMatrix(*(Quaternion(*data[n]) for n in "abcd"))
    for n in "abcd":
        assert getattr(B, n).components() == getattr(A, n).components()
    with pytest.raises(ConversionError) as replay:
        matrix_to_canonical(B)
    assert str(replay.value) == message
    # the quoted object is what `transform --matrix` takes
    assert main(["transform", "--matrix", text, "--q", "[0.1,0,0,0]"]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == "matrix"


def test_matrix_to_canonical_spots(rng):
    m = matrix_to_canonical(SpOneOneMatrix.identity())
    assert abs(m.a) <= 1e-12
    assert_qclose(m.u, -ONE, atol=1e-12)

    u0 = random_unit_quaternion(rng)
    m = matrix_to_canonical(SpOneOneMatrix.diagonal(u0, ONE))
    assert abs(m.a) <= 1e-10
    assert_qclose(m.u, -u0, atol=1e-9)


def test_matrix_to_canonical_roundtrip(rng):
    for _ in range(30):
        A = random_sp11(rng)
        m = matrix_to_canonical(A)
        assert abs(m.a) < 1.0
        assert abs(abs(m.u) - 1.0) <= 1e-12
        for _ in range(10):
            q = random_ball_point(rng)
            assert_qclose(regular_apply(m, q), matrix_regular_apply(A, q),
                          atol=1e-9)


def test_matrix_to_canonical_near_identity(rng):
    # boosts down to t = 0 put the zero a, of size about t, near the
    # origin, where u comes from the same differential as elsewhere;
    # the worst roundtrip over these 1800 draws was 6.0e-14
    for t in (0.0, 1e-300, 1e-16, 1e-13, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        ch, sh = math.cosh(t), math.sinh(t)
        for _ in range(200):
            u1, v1, u2, v2 = (random_unit_quaternion(rng) for _ in range(4))
            A = SpOneOneMatrix(a=(u1 * u2) * ch, b=(v1 * u2) * sh,
                               c=(u1 * v2) * sh, d=(v1 * v2) * ch)
            m = matrix_to_canonical(A)
            assert abs(m.a) <= 2.0 * t + 1e-13
            q = random_ball_point(rng, 0.3, size=5)
            err = max_component_diff(regular_apply(m, q),
                                     matrix_regular_apply(A, q))
            assert np.max(err) <= 1e-12


def _star_series(A):
    # the series of matrix_regular_series through the *-product
    f = RegularPowerSeries([A.d, A.c])
    g = RegularPowerSeries([A.b, A.a])
    return f.symmetrize(), f.conjugate().star(g)


def _series_bits(series, shape):
    # float.hex of every component of every element of every coefficient
    return [float.hex(v) for f in series for c in f.coeffs
            for comp in c.components()
            for v in np.broadcast_to(comp, shape).ravel().tolist()]


def test_closed_form_series_equal_the_star_product_bit_for_bit(rng):
    # every component, signed zeros included; the identity and the
    # diagonal matrices have zero entries b and c, with signs chosen so
    # that d conj(c) and conj(c) a have components -0.0
    cases = [(SpOneOneMatrix.identity(), ()),
             (SpOneOneMatrix.diagonal(Quaternion(0.0, -0.6, 0.0, 0.8),
                                      -J), ()),
             (SpOneOneMatrix.diagonal(Quaternion(0.5, -0.5, -0.5, 0.5),
                                      Quaternion(0.5, 0.5, -0.5, -0.5)), ())]
    for max_boost in (1.5, 3.0):
        cases += [(random_sp11(rng, max_boost), ()) for _ in range(20)]
        cases.append((random_sp11(rng, max_boost, size=50), (50,)))
    for A, shape in cases:
        got, want = matrix_regular_series(A), _star_series(A)
        assert _series_bits(got, shape) == _series_bits(want, shape)


def test_newton_evaluates_each_series_once_per_iterate(monkeypatch):
    # S(q) and N(q) are evaluated once per iterate, and c2, c1 once per
    # step and once for u, so a search with `steps` Newton steps makes
    # 2 (steps + 1) Horner evaluations and steps + 1 _quotient_terms
    # calls; no step goes through numpy's linear algebra
    calls = {"eval": 0, "terms": 0}
    real_eval, real_terms = RegularPowerSeries.eval, mobius._quotient_terms

    def counted_eval(self, q):
        calls["eval"] += 1
        return real_eval(self, q)

    def counted_terms(sym, num, v):
        calls["terms"] += 1
        return real_terms(sym, num, v)

    def no_solve(*args):
        raise AssertionError("np.linalg.solve called")

    A = random_sp11(np.random.default_rng(3))
    monkeypatch.setattr(RegularPowerSeries, "eval", counted_eval)
    monkeypatch.setattr(mobius, "_quotient_terms", counted_terms)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    m = matrix_to_canonical(A)
    assert abs(m.a) > 1e-8 and calls["terms"] > 1
    assert calls["eval"] == 2 * calls["terms"]


def test_matrix_to_canonical_rejects_invalid():
    bad = SpOneOneMatrix(Quaternion(2.0), ONE, ONE, Quaternion(2.0))
    with pytest.raises(PreconditionError):
        matrix_to_canonical(bad)


def test_normalize_pair(rng):
    a = random_ball_point(rng, 0.2)
    u1, u2 = random_unit_quaternion(rng), random_unit_quaternion(rng)
    m1, m2 = RegularMobius(a, u1), RegularMobius(a, u2)
    u = normalize_pair(m1, m2)
    q = random_ball_point(rng)
    assert_qclose(rotation_ru(u, regular_apply(m2, q)),
                  regular_apply(m1, q), atol=1e-12)
    with pytest.raises(PreconditionError):
        normalize_pair(m1, RegularMobius(Quaternion(0.3), ONE))


def test_conjugation_and_rotation():
    assert_qclose(conjugation_cu(I, J), -J, atol=1e-15)
    assert_qclose(conjugation_cu(I, I), I, atol=1e-15)
    assert_qclose(rotation_ru(J, I), I * J, atol=1e-15)
    with pytest.raises(PreconditionError):
        conjugation_cu(Quaternion(0.5), J)
    with pytest.raises(PreconditionError):
        rotation_ru(Quaternion(0.5), J)


def test_regular_map_preserves_ball(rng):
    for _ in range(300):
        A = random_sp11(rng)
        q = random_ball_point(rng)
        assert abs(matrix_regular_apply(A, q)) < 1.0


def test_regular_injective(rng):
    for _ in range(50):
        a = random_ball_point(rng, 0.2)
        m = RegularMobius(a, random_unit_quaternion(rng))
        p, q = random_ball_point(rng), random_ball_point(rng)
        if abs(p - q) < 1e-6:
            continue
        assert abs(regular_apply(m, p) - regular_apply(m, q)) > 1e-9
