import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_qclose, from_vec
from sliceball import (DomainError, I, J, K, ONE, Quaternion,
                       RegularPowerSeries, SingularValueError)

small = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
coeff = st.builds(Quaternion, small, small, small, small)
series = st.lists(coeff, min_size=1, max_size=6).map(RegularPowerSeries)


def test_eval_keeps_coefficients_on_the_right():
    f = RegularPowerSeries([Quaternion(), J])      # f(q) = q j
    q = Quaternion(0.0, 0.5, 0.0, 0.0)
    assert_qclose(f.eval(q), 0.5 * K, atol=1e-15)  # q j, not j q


def test_eval_matches_power_sum(rng):
    for _ in range(50):
        coeffs = [Quaternion(*rng.standard_normal(4)) for _ in range(7)]
        f = RegularPowerSeries(coeffs)
        q = Quaternion(*(0.4 * rng.standard_normal(4)))
        if abs(q) >= 1:
            continue
        acc = Quaternion()
        p = Quaternion(1.0)
        for a in coeffs:
            acc = acc + p * a
            p = p * q
        assert_qclose(f.eval(q), acc, atol=1e-12)


def test_eval_outside_ball():
    f = RegularPowerSeries([ONE, ONE])
    with pytest.raises(DomainError):
        f.eval(Quaternion(1.0))
    with pytest.raises(DomainError):
        f(Quaternion(0.8, 0.8, 0.0, 0.0))


def test_geometric_series_value():
    f = RegularPowerSeries([Quaternion(0.5 ** n) for n in range(60)])
    got = f.eval(Quaternion(0.3))
    assert abs(got - Quaternion(1.0 / 0.85)) <= 1e-9


def test_star_convolution_spot():
    # (q i) * (q i) = q^2 (i i) = -q^2
    f = RegularPowerSeries([Quaternion(), I])
    ff = f.star(f)
    assert ff.coeffs == (Quaternion(), Quaternion(), Quaternion(-1.0))
    # constants multiply like quaternions
    g = RegularPowerSeries([J]).star(RegularPowerSeries([I]))
    assert g.coeffs == (-K,)


@given(series, series, series)
@settings(max_examples=100, deadline=None)
def test_star_associative(f, g, h):
    lhs = f.star(g).star(h)
    rhs = f.star(g.star(h))
    assert lhs.order == rhs.order
    scale = max(max(abs(c) for c in lhs.coeffs), 1.0)
    for a, b in zip(lhs.coeffs, rhs.coeffs):
        assert abs(a - b) <= 1e-10 * scale


def test_star_noncommutative_evaluation(rng):
    # (f * g)(q) = f(q) g(f(q)^{-1} q f(q)) whenever f(q) != 0
    for _ in range(100):
        f = RegularPowerSeries([Quaternion(*rng.standard_normal(4))
                                for _ in range(5)])
        g = RegularPowerSeries([Quaternion(*rng.standard_normal(4))
                                for _ in range(5)])
        q = Quaternion(*(0.3 * rng.standard_normal(4)))
        if abs(q) >= 0.9:
            continue
        fq = f.eval(q)
        if abs(fq) < 1e-6:
            continue
        moved = fq.inv() * q * fq
        assert_qclose(f.star(g).eval(q), fq * g.eval(moved), atol=1e-9)


def test_star_is_pointwise_product_on_a_slice(rng):
    # series with coefficients in C_I evaluated on C_I behave like
    # one-variable power series
    for _ in range(50):
        cf = rng.standard_normal((4, 2))
        cg = rng.standard_normal((3, 2))
        f = RegularPowerSeries([Quaternion(a, b, 0, 0) for a, b in cf])
        g = RegularPowerSeries([Quaternion(a, b, 0, 0) for a, b in cg])
        x, y = 0.4 * rng.standard_normal(2)
        if math.hypot(x, y) >= 0.9:
            continue
        q = Quaternion(x, y, 0.0, 0.0)
        assert_qclose(f.star(g).eval(q), f.eval(q) * g.eval(q), atol=1e-12)


def test_conjugate_and_symmetrize():
    f = RegularPowerSeries([ONE, I, J])
    fc = f.conjugate()
    assert fc.coeffs == (ONE, -I, -J)
    fs = f.symmetrize()
    assert all(abs(c.im) <= 1e-15 for c in fs.coeffs)
    # f^s = f * f^c = f^c * f
    other = fc.star(f)
    for a, b in zip(fs.coeffs, other.coeffs):
        assert abs(a - b) <= 1e-15


@given(series)
@settings(max_examples=100, deadline=None)
def test_symmetrization_real(f):
    scale = max(max(abs(c) for c in f.coeffs) ** 2, 1.0)
    for c in f.symmetrize().coeffs:
        assert abs(c.im) <= 1e-12 * scale


def test_reciprocal_series_inverts(rng):
    for _ in range(20):
        tail = [Quaternion(*(0.3 * 0.5 ** n * rng.standard_normal(4)))
                for n in range(1, 8)]
        f = RegularPowerSeries([ONE] + tail)
        rec = f.reciprocal_series(24)
        prod = f.star(rec).truncate(24)
        assert abs(prod.coeffs[0] - ONE) <= 1e-12
        assert all(abs(c) <= 1e-12 for c in prod.coeffs[1:])


def test_eval_reciprocal_matches_series(rng):
    for _ in range(20):
        tail = [Quaternion(*(0.3 * 0.5 ** n * rng.standard_normal(4)))
                for n in range(1, 6)]
        f = RegularPowerSeries([ONE] + tail)
        rec = f.reciprocal_series(80)
        q = Quaternion(*(0.25 * rng.standard_normal(4)))
        if abs(q) > 0.5:
            continue
        assert_qclose(f.eval_reciprocal(q), rec.eval(q), atol=1e-9)


def test_reciprocal_of_mobius_factor():
    # f(q) = 1 - 2 q has f^s(q) = 1 - 4 q + 4 q^2, zero exactly at 1/2
    f = RegularPowerSeries([ONE, Quaternion(-2.0)])
    got = f.eval_reciprocal(Quaternion(0.25))
    assert_qclose(got, Quaternion(2.0), atol=1e-12)  # 1 / (1 - 0.5)
    with pytest.raises(SingularValueError):
        f.eval_reciprocal(Quaternion(0.5))


def test_reciprocal_zero_set_is_spherical():
    # the symmetrization of f(q) = q - i/2 vanishes on the whole sphere
    # of radius 1/2, so j/2 is singular for f even though f(j/2) != 0
    f = RegularPowerSeries([-0.5 * I, ONE])
    half_j = 0.5 * J
    assert abs(f.eval(half_j)) > 0.5
    with pytest.raises(SingularValueError):
        f.eval_reciprocal(half_j)


def test_truncate_and_order():
    f = RegularPowerSeries([ONE, I, J, K])
    assert f.order == 3
    g = f.truncate(1)
    assert g.coeffs == (ONE, I)
    assert f.truncate(10).order == 3
    assert RegularPowerSeries([]).coeffs == (Quaternion(),)


def test_coefficient_coercion():
    f = RegularPowerSeries([1.0, (0.0, 1.0, 0.0, 0.0), np.float64(2.0)])
    assert f.coeffs == (ONE, I, Quaternion(2.0))
    batch = RegularPowerSeries([np.array([1, 2])]).coeffs[0]
    assert batch.w.dtype == np.float64
    assert np.array_equal(batch.w, [1.0, 2.0]) and batch.x == 0.0


def _padded_batch(series):
    """One series whose coefficient k holds coefficient k of each given
    series, zero above an element's own order."""
    order = max(f.order for f in series)
    coeffs = [[f.coeffs[k].components() if k <= f.order else (0.0,) * 4
               for f in series] for k in range(order + 1)]
    return RegularPowerSeries([Quaternion(*np.array(c).T) for c in coeffs])


def _element(q, i):
    # element i of a batch; a scalar component is shared by every element
    return Quaternion(*(float(c[i]) if np.ndim(c) else float(c)
                        for c in q.components()))


def test_padded_batch_matches_scalar_calls_bit_for_bit(rng):
    # series of orders 0 to 6 side by side in one batch: the zero
    # padding leaves every value of star, symmetrize, eval and the
    # reciprocal recursion exactly as a scalar call gives it
    fs, gs = ([RegularPowerSeries(
        [Quaternion(*rng.standard_normal(4)) * (0.5 * 0.5 ** k)
         for k in range(order + 1)]) for order in rng.integers(0, 7, 40)]
        for _ in range(2))
    fs = [RegularPowerSeries([ONE + f.coeffs[0]] + list(f.coeffs[1:]))
          for f in fs]
    qs = [Quaternion(*rng.standard_normal(4)) * 0.1 for _ in fs]
    f, g = _padded_batch(fs), _padded_batch(gs)
    q = Quaternion(*np.array([p.components() for p in qs]).T)
    batched = {"star": f.star(g), "symmetrize": f.symmetrize(),
               "reciprocal_series": f.reciprocal_series(64)}
    for i, (fi, gi, qi) in enumerate(zip(fs, gs, qs)):
        scalar = {"star": fi.star(gi), "symmetrize": fi.symmetrize(),
                  "reciprocal_series": fi.reciprocal_series(64)}
        for name, s in scalar.items():
            got = [_element(c, i) for c in batched[name].coeffs]
            assert got[:len(s.coeffs)] == list(s.coeffs), name
            assert all(c == 0.0 for c in got[len(s.coeffs):]), name
            assert _element(batched[name].eval(q), i) == s.eval(qi), name
        assert _element(f.eval(q), i) == fi.eval(qi)
        assert _element(f.eval_reciprocal(q), i) == fi.eval_reciprocal(qi)


def test_singular_element_of_a_batch_raises_as_a_scalar_does():
    # 1 - 2q is singular at 1/2 and its symmetrization vanishes at 0
    # once the constant is 1e-14: one such element fails the batch
    f = RegularPowerSeries([ONE, Quaternion(-2.0)])
    with pytest.raises(SingularValueError,
                       match=r"^q lies on the zero set Z_\{f\^s\} of the "
                             r"symmetrization$"):
        f.eval_reciprocal(Quaternion(np.array([0.25, 0.5, 0.0]), 0.0,
                                     0.0, 0.0))
    tiny = RegularPowerSeries([Quaternion(np.array([1.0, 1e-14]), 0.0,
                                          0.0, 0.0), ONE])
    with pytest.raises(SingularValueError,
                       match="^symmetrization vanishes at 0; no reciprocal "
                             "series$"):
        tiny.reciprocal_series(8)


def _reference_star(f, g):
    """The *-product as a double loop over k and l, adding a_k b_l into
    coefficient k + l: the reference for RegularPowerSeries.star."""
    a, b = f.coeffs, g.coeffs
    out = [Quaternion(0.0, 0.0, 0.0, 0.0)
           for _ in range(len(a) + len(b) - 1)]
    for k, ak in enumerate(a):
        for l, bl in enumerate(b):
            out[k + l] = out[k + l] + ak * bl
    return out


def _bits(q, shape):
    # float.hex of every component of every element: equal bits, so a
    # signed zero differs from its opposite
    return [[float.hex(v) for v in np.broadcast_to(c, shape).ravel().tolist()]
            for c in q.components()]


def _assert_star_matches_reference(f, g):
    got, want = f.star(g).coeffs, _reference_star(f, g)
    assert len(got) == len(want)
    shape = np.broadcast_shapes(*(np.shape(v) for c in f.coeffs + g.coeffs
                                  for v in c.components()))
    for n, (p, q) in enumerate(zip(got, want)):
        assert _bits(p, shape) == _bits(q, shape), n


def _signed_coeffs(rng, count, size=None):
    # Gaussian components with a third of them set to +0.0 or -0.0, so
    # that products have signed zero terms
    shape = (count, 4) if size is None else (count, 4, size)
    v = rng.standard_normal(shape)
    zero = rng.random(shape) < 1 / 3
    v[zero] = np.copysign(0.0, rng.standard_normal(int(zero.sum())))
    if size is None:
        return [Quaternion(*c.tolist()) for c in v]
    return [Quaternion(*c) for c in v]


def test_star_matches_the_double_loop_on_scalar_series(rng):
    for order_f, order_g in [(0, 0), (1, 1), (0, 5), (6, 2), (8, 8)]:
        f = RegularPowerSeries(_signed_coeffs(rng, order_f + 1))
        g = RegularPowerSeries(_signed_coeffs(rng, order_g + 1))
        _assert_star_matches_reference(f, g)
        for c in f.star(g).coeffs:
            assert all(type(v) is float for v in c.components())


def test_star_matches_the_double_loop_on_padded_batches(rng):
    # each draw pads its series of order 0 to 8 with zero coefficients
    for _ in range(5):
        f, g = (_padded_batch([RegularPowerSeries(_signed_coeffs(rng, k + 1))
                               for k in rng.integers(0, 9, 30)])
                for _ in range(2))
        _assert_star_matches_reference(f, g)
        _assert_star_matches_reference(g, f)


def test_star_matches_the_double_loop_for_a_scalar_against_a_batch(rng):
    scalar = RegularPowerSeries(_signed_coeffs(rng, 4))
    batch = RegularPowerSeries(_signed_coeffs(rng, 6, size=25))
    _assert_star_matches_reference(scalar, batch)
    _assert_star_matches_reference(batch, scalar)


def test_star_matches_the_double_loop_for_a_real_left_factor(rng):
    # as in reciprocal_series: real array coefficients, whose x, y and z
    # are the Python float 0.0, against a batch of quaternion series
    real = RegularPowerSeries(list(rng.standard_normal((12, 25))))
    batch = RegularPowerSeries(_signed_coeffs(rng, 5, size=25))
    _assert_star_matches_reference(real, batch)
    real = RegularPowerSeries(rng.standard_normal(12).tolist())
    _assert_star_matches_reference(real, RegularPowerSeries(
        _signed_coeffs(rng, 5)))
