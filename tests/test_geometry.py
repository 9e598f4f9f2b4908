import math

import mpmath
import numpy as np
import pytest

from conftest import assert_qclose
from sliceball import (DomainError, I, J, K, ONE, PreconditionError,
                       Quaternion, SingularValueError,
                       arcozzi_sarfatti_norm, classical_differential,
                       conjugation_cu, curve_length, delta, distance_estimate,
                       geometry,
                       hyperbolic_metric, kahler_rank, max_component_diff,
                       noninvariance_witness, random_ball_point,
                       random_imaginary_unit, random_sp11, random_tangent,
                       random_unit_quaternion, representation_transform,
                       classical_apply, slice_hermitian,
                       slice_hermitian_via_definition, slice_kahler,
                       slice_restriction_kahler, slice_riemannian,
                       tensor_value)

HALF_I = Quaternion(0.0, 0.5, 0.0, 0.0)


def test_tensor_spot_values_on_slice_tangent():
    # q = i/2, alpha = beta = j: the orthogonal part carries all of it
    h = slice_hermitian(HALF_I, J, J)
    assert_qclose(h, Quaternion(0.64), atol=1e-14)
    assert abs(slice_riemannian(HALF_I, J, J) - 0.64) <= 1e-14
    assert abs(slice_riemannian(HALF_I, J, J, formula="corrected")
               - 0.64) <= 1e-14
    assert abs(slice_hermitian(HALF_I, J, J).w - 0.64) <= 1e-14
    assert abs(arcozzi_sarfatti_norm(HALF_I, J) - 0.64) <= 1e-14
    assert abs(hyperbolic_metric(HALF_I, J, J) - 16.0 / 9.0) <= 1e-14
    assert abs(arcozzi_sarfatti_norm(HALF_I, ONE) - 16.0 / 9.0) <= 1e-14


def test_tensor_spot_value_off_diagonal():
    # q = i/2, alpha = j, beta = 1: H is purely imaginary along j
    h = slice_hermitian(HALF_I, J, ONE)
    assert_qclose(h, Quaternion(0.0, 0.0, 16.0 / 15.0, 0.0), atol=1e-14)
    assert abs(slice_riemannian(HALF_I, J, ONE)) <= 1e-14
    assert_qclose(slice_kahler(HALF_I, J, ONE),
                  Quaternion(0.0, 0.0, 16.0 / 15.0, 0.0), atol=1e-14)


def test_origin_values():
    zero = Quaternion()
    assert_qclose(slice_hermitian(zero, I, J), I * J.conj(), atol=1e-15)
    assert abs(slice_riemannian(zero, I, I) - 1.0) <= 1e-15
    assert abs(hyperbolic_metric(zero, I, I) - 1.0) <= 1e-15


def test_scalar_split_identity(rng):
    for _ in range(500):
        q = random_ball_point(rng)
        q2 = q * q
        lhs = (1.0 - q2).norm_sq() - 4.0 * q.im_norm() ** 2
        rhs = (1.0 - q.norm_sq()) ** 2
        assert abs(lhs - rhs) <= 1e-13


def test_riemannian_formulas_agree(rng):
    for _ in range(300):
        q = random_ball_point(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        g1 = slice_riemannian(q, alpha, beta)
        g2 = slice_riemannian(q, alpha, beta, formula="corrected")
        g3 = slice_hermitian(q, alpha, beta).w
        scale = max(abs(g1), 1.0)
        assert abs(g1 - g2) <= 1e-11 * scale
        assert abs(g1 - g3) <= 1e-11 * scale


def _mp_riemannian(q, alpha, beta):
    # G_q(alpha, beta) by the closed form in 50-digit arithmetic, with
    # the quaternion product from its matrix
    def vec(v):
        return mpmath.matrix([mpmath.mpf(c) for c in v.components()])

    def left(v):
        w, x, y, z = v
        return mpmath.matrix([[w, -x, -y, -z], [x, w, -z, y],
                              [y, z, w, -x], [z, -y, x, w]])

    def tilt(v):
        return v - left(vq) * (left(v) * vq)

    vq = vec(q)
    ta, tb = tilt(vec(alpha)), tilt(vec(beta))
    one_minus_q2 = mpmath.matrix([1, 0, 0, 0]) - left(vq) * vq
    den = 1 - sum(c * c for c in vq)
    re_ab = sum(x * y for x, y in zip(ta, tb))   # Re(ta conj(tb))
    return re_ab / (sum(c * c for c in one_minus_q2) * den * den)


def test_riemannian_formulas_match_mpmath_at_a_cancelling_witness():
    # Ghat's off-slice part and the correction of "corrected" each grow
    # like 1 / (1 - |q|^2)^2 and nearly cancel here; summed separately
    # they were off by 3.7e-13 of the Cauchy-Schwarz scale
    q = Quaternion(0.2329259402165015, 0.3033302881281882,
                   -0.3814054689962534, 0.8174485194750746)
    a = Quaternion(-0.030469268147029598, 2.220244541760437,
                   1.380601689510815, -0.1523376163833036)
    b = Quaternion(-0.022681738546122848, 0.4249951711846484,
                   1.524761200810051, 0.5810712795978034)
    with mpmath.workdps(50):
        want = _mp_riemannian(q, a, b)
        scale = mpmath.sqrt(_mp_riemannian(q, a, a) * _mp_riemannian(q, b, b))
        for formula in ("closed", "corrected"):
            got = slice_riemannian(q, a, b, formula)
            assert abs(got - want) <= 1e-14 * scale, formula
        assert abs(slice_hermitian(q, a, b).w - want) <= 1e-14 * scale


def test_riemannian_equals_split_norm(rng):
    for _ in range(300):
        q = random_ball_point(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        got = slice_riemannian(q, alpha, alpha)
        want = arcozzi_sarfatti_norm(q, alpha)
        assert abs(got - want) <= 1e-11 * max(want, 1.0)


def test_hermitian_closed_form_vs_definition(rng):
    for _ in range(100):
        q = random_ball_point(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        closed = slice_hermitian(q, alpha, beta)
        defn = slice_hermitian_via_definition(q, alpha, beta)
        assert max_component_diff(closed, defn) <= 1e-11 * max(abs(closed),
                                                               1.0)
        u = random_unit_quaternion(rng)
        defn_u = slice_hermitian_via_definition(q, alpha, beta, u)
        assert max_component_diff(defn, defn_u) <= 1e-11 * max(abs(closed),
                                                               1.0)


def test_hermitian_structure(rng):
    for _ in range(200):
        q = random_ball_point(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        h_ab = slice_hermitian(q, alpha, beta)
        h_ba = slice_hermitian(q, beta, alpha)
        assert max_component_diff(h_ab, h_ba.conj()) <= 1e-11 * max(
            abs(h_ab), 1.0)
        h_aa = slice_hermitian(q, alpha, alpha)
        assert abs(h_aa.im) <= 1e-11 * max(abs(h_aa), 1.0)
        assert h_aa.re >= -1e-13
        # G and Omega are the real and imaginary parts of H
        tv = tensor_value(q, alpha, beta)
        assert abs(tv.g - h_ab.re) <= 1e-13 * max(abs(h_ab), 1.0)
        assert max_component_diff(tv.omega + Quaternion(tv.g), h_ab) \
            <= 1e-13 * max(abs(h_ab), 1.0)


def test_kahler_antisymmetric(rng):
    for _ in range(200):
        q = random_ball_point(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        w_ab = slice_kahler(q, alpha, beta)
        w_ba = slice_kahler(q, beta, alpha)
        assert max_component_diff(w_ab, -w_ba) <= 1e-11 * max(abs(w_ab), 1.0)
        assert abs(slice_kahler(q, alpha, alpha)) <= 1e-11 * max(
            abs(w_ab), 1.0)


def test_kahler_rank_is_full():
    # the quaternion-valued 2-form pairs nondegenerately everywhere
    assert kahler_rank(Quaternion()) == 4
    assert kahler_rank(Quaternion(0.3)) == 4
    assert kahler_rank(HALF_I) == 4
    assert kahler_rank(Quaternion(0.2, 0.1, -0.3, 0.2)) == 4
    # a batch gets one rank per element
    q = random_ball_point(np.random.default_rng(3), size=50)
    assert kahler_rank(q).tolist() == [4] * 50


def test_hyperbolic_invariance(rng):
    for _ in range(100):
        A = random_sp11(rng)
        q = random_ball_point(rng)
        if abs(q) > 0.9:
            continue
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))
        fq = classical_apply(A, q)
        fa = classical_differential(A, q, alpha)
        fb = classical_differential(A, q, beta)
        got = hyperbolic_metric(fq, fa, fb)
        want = hyperbolic_metric(q, alpha, beta)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1.0)


def test_noninvariance_witness():
    report = noninvariance_witness()
    assert report.violation_found
    assert report.omega_violation > 1.0
    assert report.g_max_error <= 1e-12
    assert_qclose(report.witness_d, I)
    assert_qclose(report.witness_a, ONE)


def test_representation_formulas(rng):
    # representation_transform carries (q, alpha, beta) through the
    # unit conjugation and wraps; the result equals the direct value
    for _ in range(100):
        u = random_unit_quaternion(rng)
        q = random_ball_point(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        beta = Quaternion(*rng.standard_normal(4))

        g = slice_riemannian(q, alpha, beta)
        got = representation_transform(u, "G", q, alpha, beta)
        assert abs(got - g) <= 1e-11 * max(abs(g), 1.0)

        h = slice_hermitian(q, alpha, beta)
        got = representation_transform(u, "H", q, alpha, beta)
        assert max_component_diff(got, h) <= 1e-11 * max(abs(h), 1.0)

        w = slice_kahler(q, alpha, beta)
        got = representation_transform(u, "Omega", q, alpha, beta)
        assert max_component_diff(got, w) <= 1e-11 * max(abs(h), 1.0)

        # the same equivariance written out with conjugation_cu, which
        # conjugates by u^{-1}
        uq = conjugation_cu(u, q)
        ua = conjugation_cu(u, alpha)
        ub = conjugation_cu(u, beta)
        assert abs(slice_riemannian(uq, ua, ub) - g) <= 1e-11 * max(
            abs(g), 1.0)
        assert max_component_diff(slice_hermitian(uq, ua, ub),
                                  u.inv() * h * u) <= 1e-11 * max(abs(h), 1.0)
        assert max_component_diff(slice_kahler(uq, ua, ub),
                                  u.inv() * w * u) <= 1e-11 * max(abs(h), 1.0)


def test_slice_restrictions(rng):
    for _ in range(100):
        unit = random_imaginary_unit(rng)
        x, y = rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
        if math.hypot(x, y) > 0.9:
            continue
        q = Quaternion(x) + y * unit
        s, t = rng.standard_normal(2)
        alpha = Quaternion(s) + t * unit
        beta_c = rng.standard_normal(2)
        beta = Quaternion(beta_c[0]) + beta_c[1] * unit

        # on slice tangents the metric is the hyperbolic one
        want = hyperbolic_metric(q, alpha, beta)
        assert abs(slice_riemannian(q, alpha, beta) - want) <= 1e-11 * max(
            abs(want), 1.0)

        # the restricted 2-form lies along the slice unit
        omega = slice_kahler(q, alpha, beta)
        w_i = slice_restriction_kahler(unit, q, alpha, beta)
        assert max_component_diff(omega, w_i * unit) <= 1e-11 * max(
            abs(omega), 1.0)


def test_slice_restriction_requires_slice_tangents():
    with pytest.raises(PreconditionError,
                       match="^alpha has a component of size 1 off the slice$"):
        slice_restriction_kahler(I, HALF_I, J, ONE)
    with pytest.raises(PreconditionError):
        slice_restriction_kahler(I, Quaternion(0.5, 0.7, 0.0, 0.0), ONE, J)
    # a batch fails when any element is off the slice, and names the
    # largest off-slice size
    alpha = Quaternion(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                       np.array([0.0, 0.0, 0.25]), 0.0)
    with pytest.raises(PreconditionError, match="^alpha has a component "
                                                "of size 0.25 off the slice$"):
        slice_restriction_kahler(I, HALF_I, alpha, ONE)


def test_curve_length_segment():
    n = 4000
    pts = Quaternion(0.5 * np.arange(n + 1) / n)
    want = math.atanh(0.5)
    assert abs(curve_length(pts, "Ghat") - want) <= 1e-6
    assert abs(curve_length(pts, "G") - want) <= 1e-6
    # one point as a batch, or as a scalar Quaternion, is no curve
    for one in (Quaternion(*np.zeros((4, 1))), Quaternion()):
        with pytest.raises(PreconditionError):
            curve_length(one)
    with pytest.raises(ValueError):
        curve_length(Quaternion(np.array([0.0, 0.1])), "bogus")


def _curve_length_loop(points, metric):
    # one metric call per segment, added left to right
    g = slice_riemannian if metric == "G" else hyperbolic_metric
    total = 0.0
    for p0, p1 in zip(points[:-1], points[1:]):
        mid = (p0 + p1) * 0.5
        v = p1 - p0
        total += math.sqrt(max(g(mid, v, v), 0.0))
    return total


def _points(batch):
    # the elements of a batch as scalar Quaternions
    return [Quaternion(*c) for c in np.array(batch.components()).T.tolist()]


def test_curve_length_equals_segment_loop_bit_for_bit(rng):
    unit = random_imaginary_unit(rng)
    radial = unit * (0.7 * np.arange(4001) / 4000.0)
    bent = Quaternion(*np.array([random_ball_point(rng, 0.1).components()
                                 for _ in range(1203)]).T)
    for batch in (radial, bent):
        for metric in ("G", "Ghat"):
            want = _curve_length_loop(_points(batch), metric)
            assert curve_length(batch, metric) == want, metric


def test_distance_estimate_measures_its_polyline_as_one_batch(
        monkeypatch, rng):
    # the same distance as measuring the polyline one segment at a time
    pairs = [(random_ball_point(rng, 0.3), random_ball_point(rng, 0.3))
             for _ in range(2)]
    batched = [distance_estimate(p, q, metric) for p, q in pairs
               for metric in ("G", "Ghat")]
    monkeypatch.setattr(geometry, "curve_length", lambda pts, metric:
                        _curve_length_loop(_points(pts), metric))
    assert [distance_estimate(p, q, metric) for p, q in pairs
            for metric in ("G", "Ghat")] == batched


def test_distance_estimate_self(rng):
    p = random_ball_point(rng, 0.2)
    res = distance_estimate(p, p)
    assert res.converged
    assert res.distance <= 1e-9
    # 1e-9 apart, rounding the points limits the descent: still converged
    q = p + Quaternion(1e-9, 0.0, 2e-9, 0.0)
    res = distance_estimate(p, q, metric="Ghat")
    assert res.converged
    exact = _ghat_distance(p, q)
    assert abs(res.distance - exact) <= 1e-6 * exact


def test_distance_estimate_rejects_an_end_outside_the_ball():
    # every midpoint of the straight start lies inside the ball here
    with pytest.raises(DomainError, match="open unit ball"):
        distance_estimate(Quaternion(1.0001), Quaternion(0.5))


def _disk_distance(z, w):
    # hyperbolic distance of the disk with the metric |dz|^2 / (1-|z|^2)^2
    return math.atanh(abs(z - w) / abs(1 - z * w.conjugate()))


def _ghat_distance(p, q):
    # Ghat is a quarter of the Poincare-ball metric (Ahlfors, Moebius
    # transformations in several dimensions, 1981)
    return math.atanh(abs(p - q) / abs(1 - q * p.conj()))


def test_distance_estimate_on_a_slice(rng):
    # each slice is the fixed set of the G-isometry q -> I^{-1} q I, so it
    # is totally geodesic and G there is the disk metric
    for _ in range(6):
        unit = random_imaginary_unit(rng)
        # uniform in the disk |z| <= 0.8
        z, w = 0.8 * np.sqrt(rng.random(2)) \
            * np.exp(2j * math.pi * rng.random(2))
        p = Quaternion(z.real) + z.imag * unit
        q = Quaternion(w.real) + w.imag * unit
        res = distance_estimate(p, q, metric="G")
        assert res.converged
        exact = _disk_distance(z, w)
        assert abs(res.distance - exact) <= 1e-6 * exact


def test_distance_estimate_curved(rng):
    for _ in range(10):
        p, q = random_ball_point(rng, 0.2), random_ball_point(rng, 0.2)
        res = distance_estimate(p, q, metric="Ghat")
        assert res.converged
        exact = _ghat_distance(p, q)
        assert abs(res.distance - exact) <= 1e-6 * exact


def test_distance_estimate_between_delta_and_ghat(rng):
    # delta is a metric whose infinitesimal form is the G norm, and
    # G <= Ghat pointwise since |1 - q^2|^2 = (1-|q|^2)^2 + 4 |Im q|^2
    # d_G 0.7384, d_Ghat 0.8279, delta 0.6357
    pairs = [(Quaternion(0.1, 0.2, 0.3, 0.1),
              Quaternion(-0.3, 0.1, -0.2, 0.4))]
    pairs += [(random_ball_point(rng, 0.2), random_ball_point(rng, 0.2))
              for _ in range(5)]
    for p, q in pairs:
        res = distance_estimate(p, q, metric="G")
        assert res.converged
        assert delta(p, q) <= res.distance \
            <= _ghat_distance(p, q) * (1.0 + 1e-9)


def _batch(points):
    return Quaternion(*(np.array([getattr(p, c) for p in points])
                        for c in "wxyz"))


def test_batched_formulas_equal_scalar_bit_for_bit(rng):
    n = 10_000
    qs = [random_ball_point(rng, 0.0) for _ in range(n)]
    # and points at |Im q| = 0, 1e-160, 1e-140 and 2e-13, on both sides
    # of the real-axis rule of quat.slice_components
    qs[-4:] = [Quaternion(0.5), Quaternion(0.3, 0.0, 1e-160, 0.0),
               Quaternion(-0.6, 0.0, 6e-141, 8e-141),
               Quaternion(0.2, 2e-13, 0.0, 0.0)]
    alphas = [random_tangent(rng) for _ in range(n)]
    betas = [random_tangent(rng) for _ in range(n)]
    q, alpha, beta = _batch(qs), _batch(alphas), _batch(betas)
    formulas = {
        "slice_hermitian": slice_hermitian,
        "slice_riemannian": lambda *a: slice_riemannian(*a, "closed"),
        "hyperbolic_metric": hyperbolic_metric,
        "tensor_value.h": lambda *a: tensor_value(*a).h,
        "tensor_value.g": lambda *a: tensor_value(*a).g,
        "tensor_value.omega": lambda *a: tensor_value(*a).omega,
        "slice_riemannian.corrected":
            lambda *a: slice_riemannian(*a, "corrected"),
        "slice_hermitian_via_definition": slice_hermitian_via_definition,
        "arcozzi_sarfatti_norm": lambda q, a, b: arcozzi_sarfatti_norm(q, a),
    }
    for name, f in formulas.items():
        batched = f(q, alpha, beta)
        scalar = [f(*args) for args in zip(qs, alphas, betas)]
        if isinstance(batched, Quaternion):
            for c in "wxyz":
                want = [getattr(s, c) for s in scalar]
                assert np.array_equal(np.broadcast_to(getattr(batched, c), n),
                                      want), (name, c)
        else:
            assert np.array_equal(batched, scalar), name
    # an array on the left defers to the quaternion's reflected methods
    scale = np.linspace(0.5, 2.0, n)
    left, right = scale * q, q * scale
    assert isinstance(left, Quaternion)
    assert all(np.array_equal(a, b) for a, b in
               zip(left.components(), right.components()))


def test_batched_checks_fail_on_any_element():
    q = Quaternion(np.array([0.0, 0.5, 1.0]), np.zeros(3), np.zeros(3),
                   np.zeros(3))
    with pytest.raises(DomainError, match="open unit ball"):
        slice_hermitian(q, ONE, ONE)
    with pytest.raises(DomainError, match="open unit ball"):
        hyperbolic_metric(q, ONE, ONE)
    with pytest.raises(SingularValueError, match="cannot invert"):
        q.inv()
    assert type(abs(Quaternion(0.1, 0.2, 0.3, 0.4))) is float
