import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import assert_qclose, oracle_mul, to_vec
from sliceball import (DomainError, I, J, K, ONE, Quaternion,
                       SingularValueError, as_imaginary_unit,
                       is_imaginary_unit, max_component_diff, project_slice,
                       random_ball_point, random_imaginary_unit,
                       random_tangent, random_unit_quaternion,
                       slice_components)
from sliceball.quat import outside_ball

components = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, components, components, components, components)


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == Quaternion(-1.0)
    assert J * J == Quaternion(-1.0)
    assert K * K == Quaternion(-1.0)


@given(quats, quats)
def test_product_matches_matrix_oracle(p, q):
    assert_qclose(p * q, oracle_mul(p, q), atol=1e-9)


@given(quats, quats)
def test_norm_multiplicative(p, q):
    assert abs(abs(p * q) - abs(p) * abs(q)) <= 1e-9 * (1 + abs(p) * abs(q))


@given(quats, quats)
def test_conjugation_reverses_products(p, q):
    assert_qclose((p * q).conj(), q.conj() * p.conj(), atol=1e-9)


def test_inverse():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert_qclose(q * q.inv(), ONE, atol=1e-15)
    assert_qclose(q.inv() * q, ONE, atol=1e-15)
    with pytest.raises(SingularValueError):
        Quaternion().inv()


def test_real_imaginary_split():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    assert q.re == 1.5
    assert_qclose(q.im, Quaternion(0.0, -2.0, 0.25, 3.0))
    assert_qclose(Quaternion(q.re) + q.im, q)
    assert q.im_norm() == abs(q.im)


def test_scalar_arithmetic():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert_qclose(2.0 * q, q * 2.0)
    assert_qclose(q / 2.0, Quaternion(0.5, 1.0, 1.5, 2.0))
    assert_qclose(1.0 + q, Quaternion(2.0, 2.0, 3.0, 4.0))
    assert_qclose(1.0 - q, Quaternion(0.0, -2.0, -3.0, -4.0))
    assert Quaternion(3.0) == 3.0


def test_slice_components_roundtrip(rng):
    for _ in range(200):
        q = random_ball_point(rng)
        x, y, ux, uy, uz = slice_components(q)
        assert y >= 0.0
        assert abs(math.sqrt(ux * ux + uy * uy + uz * uz) - 1.0) <= 1e-15
        assert_qclose(Quaternion(x, y * ux, y * uy, y * uz), q, atol=1e-14)


def test_slice_components_near_real_defaults_to_i():
    # at or below |Im q| = 1e-150 the point is on the real axis
    for im in (0.0, 1e-160, 1e-150):
        assert slice_components(Quaternion(0.3, 0.0, 0.0, im)) == (
            0.3, 0.0, 1.0, 0.0, 0.0)
    # above it the unit keeps full precision, however small |Im q| is
    assert slice_components(Quaternion(0.3, 0.0, 0.0, 1e-140)) == (
        0.3, 1e-140, 0.0, 0.0, 1.0)


def test_slice_components_are_plain_numbers(rng):
    qs = [random_ball_point(rng) for _ in range(50)]
    qs += [Quaternion(0.5), Quaternion(0.3, 1e-15, 0.0, 0.0),
           Quaternion(-0.2, 0.0, 2e-13, 0.0),
           Quaternion(0.4, 0.0, 0.0, 1e-160),
           Quaternion(0.1, 1e-140, 0.0, 0.0)]
    batch = Quaternion(*np.array([c.components() for c in qs]).T)
    scalar = [slice_components(q) for q in qs]
    for q, got in zip(qs, scalar):
        y = q.im_norm()
        assert all(type(c) is float for c in got)
        assert got == ((q.w, 0.0, 1.0, 0.0, 0.0) if y <= 1e-150
                       else (q.w, y, q.x / y, q.y / y, q.z / y))
    # a batch: one array per number, each element the scalar value
    for got, want in zip(slice_components(batch), zip(*scalar)):
        assert np.array_equal(got, want)
    assert slice_components(qs[-1]) == (0.1, 1e-140, 1.0, 0.0, 0.0)
    assert slice_components(qs[-2]) == (0.4, 0.0, 1.0, 0.0, 0.0)


def test_batched_helpers_equal_scalar_calls(rng):
    qs = [random_ball_point(rng) for _ in range(200)]
    # on the real axis, within 1e-150 of it, and just outside that, down
    # to |Im q| = 1e-140 and up to 2e-13
    qs += [Quaternion(0.5), Quaternion(0.3, 1e-160, 0.0, 0.0),
           Quaternion(-0.6, 0.0, 0.0, 1e-160),
           Quaternion(0.3, 1e-15, 0.0, 0.0), Quaternion(-0.2, 0.0, 2e-13, 0.0),
           Quaternion(0.7, 0.0, 6e-141, 8e-141)]
    ps = [random_ball_point(rng) for _ in qs]
    q = Quaternion(*np.array([c.components() for c in qs]).T)
    p = Quaternion(*np.array([c.components() for c in ps]).T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # e.g. a division by zero
        norms = q.im_norm()
        diffs = max_component_diff(p, q)
        sc = slice_components(q)
    assert np.array_equal(norms, [c.im_norm() for c in qs])
    assert np.array_equal(diffs, [max_component_diff(a, b)
                                  for a, b in zip(ps, qs)])
    scalar = [slice_components(c) for c in qs]
    for got, want in zip(sc, zip(*scalar)):
        assert np.array_equal(got, want)
    assert scalar[-6:-3] == [(0.5, 0.0, 1.0, 0.0, 0.0),
                             (0.3, 0.0, 1.0, 0.0, 0.0),
                             (-0.6, 0.0, 1.0, 0.0, 0.0)]
    assert scalar[-1] == (0.7, 1e-140, 0.0, 0.6, 0.8)
    assert type(Quaternion(0.1, 0.2, 0.3, 0.4).im_norm()) is float


@pytest.mark.parametrize("component", range(4))
def test_max_component_diff_is_nan_when_a_component_is(component):
    c = [0.0, 0.0, 0.0, 0.0]
    c[component] = math.nan
    assert math.isnan(max_component_diff(Quaternion(*c), Quaternion()))
    c[(component + 1) % 4] = math.inf
    assert math.isnan(max_component_diff(Quaternion(), Quaternion(*c)))


def test_project_slice_spot():
    par, perp = project_slice(I, Quaternion(2.0, 3.0, 4.0, 5.0))
    assert_qclose(par, Quaternion(2.0, 3.0, 0.0, 0.0))
    assert_qclose(perp, Quaternion(0.0, 0.0, 4.0, 5.0))

    s = 1.0 / math.sqrt(2.0)
    unit = as_imaginary_unit(Quaternion(0.0, s, s, 0.0))
    par, perp = project_slice(unit, J)
    assert_qclose(par, Quaternion(0.0, 0.5, 0.5, 0.0), atol=1e-15)
    assert_qclose(perp, Quaternion(0.0, -0.5, 0.5, 0.0), atol=1e-15)


def test_projection_properties(rng):
    for _ in range(100):
        unit = random_imaginary_unit(rng)
        alpha = Quaternion(*rng.standard_normal(4))
        par, perp = project_slice(unit, alpha)
        assert_qclose(par + perp, alpha, atol=1e-13)
        # parallel part commutes with the slice unit, orthogonal part
        # anticommutes
        assert max_component_diff(unit * par, par * unit) <= 1e-13
        assert max_component_diff(unit * perp, -(perp * unit)) <= 1e-13
        # orthogonal for the real part of alpha conj(beta)
        assert abs((par * perp.conj()).re) <= 1e-13


def test_imaginary_unit_validation():
    assert is_imaginary_unit(I)
    assert is_imaginary_unit(Quaternion(0.0, 0.6, 0.8, 0.0))
    assert not is_imaginary_unit(Quaternion(1.0))
    assert not is_imaginary_unit(Quaternion(0.0, 3.0, 4.0, 0.0))
    with pytest.raises(DomainError):
        as_imaginary_unit(Quaternion(0.5, 1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        as_imaginary_unit(Quaternion(0.0, 0.0, 2.0, 0.0))
    with pytest.raises(DomainError):
        as_imaginary_unit(Quaternion())
    # near-unit inputs come out exactly normalized
    u = as_imaginary_unit(Quaternion(0.0, 0.0, 1.0 + 1e-12, 0.0))
    assert abs(u * u + ONE) <= 1e-15
    assert_qclose(u, J, atol=1e-11)


def test_outside_ball_on_points_and_batches():
    assert outside_ball(Quaternion(1.0)) is True       # the sphere is outside
    assert outside_ball(Quaternion(0.0, 0.6, 0.0, 0.79)) is False
    assert outside_ball(Quaternion(0.5), radius=0.5) is True
    batch = Quaternion(np.array([0.0, 0.5, 1.0]), np.zeros(3), np.zeros(3),
                       np.zeros(3))
    assert outside_ball(batch) is True                  # one element is
    assert outside_ball(batch * 0.9) is False
    assert outside_ball(batch, radius=1.5) is False


def test_samplers(rng):
    for _ in range(200):
        q = random_ball_point(rng, 1e-3)
        assert abs(q) < 1.0 - 1e-3
        assert all(isinstance(c, float) for c in q.components())
    for _ in range(50):
        unit = random_imaginary_unit(rng)
        assert unit.re == 0.0
        assert abs(abs(unit) - 1.0) <= 1e-12
        u = random_unit_quaternion(rng)
        assert abs(abs(u) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_samplers_with_size(rng, n):
    margin = 1e-3
    q = random_ball_point(rng, margin, size=n)
    unit = random_imaginary_unit(rng, size=n)
    u = random_unit_quaternion(rng, size=n)
    a = random_tangent(rng, size=n)
    for batch in (q, unit, u, a):
        assert all(isinstance(c, np.ndarray) and c.shape == (n,)
                   and c.dtype == np.float64 for c in batch.components())
    assert np.all(abs(q) <= 1.0 - margin)
    assert np.all(unit.w == 0.0)
    assert np.all(np.abs(abs(unit) - 1.0) <= 1e-12)
    assert np.all(np.abs(abs(u) - 1.0) <= 1e-12)


def test_ball_sampler_with_size_covers_radii(rng):
    radii = np.sort(abs(random_ball_point(rng, size=2000)))
    assert radii[0] < 0.4 and radii[-1] > 0.9
    # uniform in the 4-ball: P(|q| <= r) = (r / (1 - margin))^4
    assert abs(np.mean(radii <= 0.5 * 0.999) - 0.0625) < 0.02


def test_tangent_batch_equals_scalar_calls_bit_for_bit():
    batch = random_tangent(np.random.default_rng(5), size=1000)
    rng = np.random.default_rng(5)
    scalar = [random_tangent(rng) for _ in range(1000)]
    for i, c in enumerate("wxyz"):
        assert getattr(batch, c).tolist() == [getattr(t, c) for t in scalar]


def test_ball_sampler_covers_radii(rng):
    radii = sorted(abs(random_ball_point(rng)) for _ in range(500))
    assert radii[0] < 0.4 and radii[-1] > 0.9


def test_components_roundtrip():
    q = Quaternion(0.1, -0.2, 0.3, -0.4)
    assert Quaternion.from_components(q.components()) == q
    assert to_vec(q).tolist() == [0.1, -0.2, 0.3, -0.4]
