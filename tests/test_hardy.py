import importlib.util
import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_qclose
from sliceball import (EPS_ZERO, ZERO, DomainError, I, J, ONE,
                       PreconditionError, Quaternion, delta,
                       infinitesimal_ratio, kernel_inner, kernel_norm_sq,
                       random_ball_point, random_imaginary_unit, tail_bound,
                       truncation_for)
from sliceball.quat import outside_ball

TOL = 1e-10


def slow_kernel_inner(p, q, n_terms):
    # direct quaternion power sum, independent of the slice shortcut
    acc = Quaternion()
    qp = Quaternion(1.0)
    pp = Quaternion(1.0)
    for _ in range(n_terms + 1):
        acc = acc + qp * pp.conj()
        qp = qp * q
        pp = pp * p
    return acc


def test_kernel_norm_spot():
    assert abs(kernel_norm_sq(Quaternion(0.5)) - 4.0 / 3.0) <= 1e-12
    assert abs(kernel_norm_sq(Quaternion()) - 1.0) <= 1e-15


def test_kernel_inner_matches_direct_sum(rng):
    for _ in range(100):
        p = random_ball_point(rng)
        q = random_ball_point(rng)
        got = kernel_inner(p, q, 60)
        want = slow_kernel_inner(p, q, 60)
        assert_qclose(got, want, atol=1e-12)


def test_kernel_inner_spot():
    got = kernel_inner(Quaternion(0.5), Quaternion(0.5), 40)
    want = (1.0 - 0.25 ** 41) / 0.75
    assert_qclose(got, Quaternion(want), atol=1e-15)


def test_kernel_inner_conjugate_symmetry(rng):
    for _ in range(50):
        p = random_ball_point(rng)
        q = random_ball_point(rng)
        assert_qclose(kernel_inner(p, q, 50), kernel_inner(q, p, 50).conj(),
                      atol=1e-13)


def test_truncation_control(rng):
    for _ in range(100):
        p = random_ball_point(rng)
        q = random_ball_point(rng)
        trunc = truncation_for(p, q, 1e-12)
        assert trunc.tail_bound == tail_bound(p, q, trunc.order)
        assert trunc.tail_bound < 1e-12
        if trunc.order > 0:
            assert tail_bound(p, q, trunc.order - 1) >= 1e-12


def test_truncation_unreachable():
    p = Quaternion(0.9999995)
    q = Quaternion(0.0, 0.9999995, 0.0, 0.0)
    with pytest.raises(DomainError):
        truncation_for(p, q, 1e-15)


def test_delta_origin_radius(rng):
    for _ in range(200):
        q = random_ball_point(rng)
        assert abs(delta(Quaternion(), q) - abs(q)) <= TOL
    got = delta(Quaternion(), Quaternion(0.0, 0.3, 0.4, 0.0))
    assert abs(got - 0.5) <= 1e-12


def test_delta_symmetry_and_range(rng):
    for _ in range(200):
        p = random_ball_point(rng)
        q = random_ball_point(rng)
        d_pq = delta(p, q)
        d_qp = delta(q, p)
        assert abs(d_pq - d_qp) <= 2 * TOL
        assert 0.0 <= d_pq < 1.0
    assert delta(Quaternion(0.4), Quaternion(0.4)) == 0.0


def test_delta_same_slice_closed_form(rng):
    for _ in range(200):
        unit = random_imaginary_unit(rng)
        xp, yp = rng.uniform(-0.7, 0.7, 2)
        xq, yq = rng.uniform(-0.7, 0.7, 2)
        p = Quaternion(xp) + yp * unit
        q = Quaternion(xq) + yq * unit
        zp, zq = complex(xp, yp), complex(xq, yq)
        want = abs(zp - zq) / abs(1.0 - zq * zp.conjugate())
        assert abs(delta(p, q) - want) <= 1e-9


def test_delta_triangle(rng):
    for _ in range(500):
        p, q, r = (random_ball_point(rng) for _ in range(3))
        d_pq = delta(p, q)
        d_pr = delta(p, r)
        d_rq = delta(r, q)
        assert d_pq <= d_pr + d_rq + 4 * TOL


def test_delta_matches_truncated_kernel_sum(rng):
    # the direct-sum reference: 1 - |<k_p, k_q>|^2 / (||k_p||^2 ||k_q||^2)
    # with the kernel pairing summed until its tail is below 1e-14
    for _ in range(200):
        p = random_ball_point(rng, 0.1)
        q = random_ball_point(rng, 0.1)
        inner = kernel_inner(p, q, truncation_for(p, q, 1e-14).order)
        cos_sq = inner.norm_sq() / (kernel_norm_sq(p) * kernel_norm_sq(q))
        assert abs(delta(p, q) - math.sqrt(1.0 - cos_sq)) <= 1e-10


# -- accuracy against the 50-digit oracle --------------------------------

def _load_oracle():
    # the benchmark's closed-form mpmath evaluation, loaded read-only
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("delta_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()


def _unit4(rng):
    g = rng.standard_normal(4)
    return g / math.sqrt(float(g @ g))


def _assert_oracle_accuracy(pairs):
    for p, q in pairs:
        err = abs(delta(p, q) - float(ORACLE.delta(p, q)))
        top = max(abs(p), abs(q))
        assert err <= 1e-15 / (1.0 - top * top), (p, q, err)
        if 1.0 - top >= 1e-5:
            assert err <= 1e-10, (p, q, err)


@pytest.mark.parametrize("k", range(1, 10))
def test_delta_matches_oracle_on_boundary_shells(k):
    # q on the shell 1 - |q| = 10^-k; p on the same shell or anywhere inside
    gap = 10.0 ** -k
    rng = np.random.default_rng(k)
    pairs = []
    for n in range(16):
        q = Quaternion(*(_unit4(rng) * (1.0 - gap)).tolist())
        radius = 1.0 - gap if n % 2 else rng.random() ** 0.25 * (1.0 - gap)
        pairs.append((Quaternion(*(_unit4(rng) * radius).tolist()), q))
    _assert_oracle_accuracy(pairs)


@pytest.mark.parametrize("k", range(4, 13))
def test_delta_matches_oracle_on_nearly_equal_pairs(k):
    # |p - q| = h = 10^-k, with p anywhere up to 1 - |p| = 1e-3
    h = 10.0 ** -k
    rng = np.random.default_rng(k)
    pairs = []
    while len(pairs) < 16:
        p = random_ball_point(rng)
        q = p + Quaternion(*(_unit4(rng) * h).tolist())
        if abs(q) < 1.0:
            pairs.append((p, q))
    _assert_oracle_accuracy(pairs)


def test_delta_matches_oracle_next_to_the_real_axis():
    # imaginary parts far below EPS_ZERO still set the slice units: taking
    # them as 0 gave delta = 0 for the first pair (oracle 6.7e-13), and
    # a literal zero threshold put the second off by 2.4e-6, since
    # |Im p|^2 = 1e-320 is subnormal
    pairs = [(Quaternion(0.9, 9e-14, 0.0, 0.0),
              Quaternion(0.9, 0.0, 9e-14, 0.0)),
             (Quaternion(0.1, 1e-160, 0.0, 0.0), Quaternion(0.9)),
             (Quaternion(-0.5, 0.0, 3e-152, -4e-152),
              Quaternion(0.3, 1e-40, 0.0, 0.0))]
    _assert_oracle_accuracy(pairs)
    assert delta(*pairs[0]) > 0.0


def _batch(points):
    return Quaternion(*np.array([q.components() for q in points]).T)


def test_batched_delta_equals_scalar_calls_bit_for_bit(rng):
    n = 10_000
    ps = [random_ball_point(rng) for _ in range(n)]
    qs = [random_ball_point(rng) for _ in range(n)]
    # real-axis points, points within EPS_ZERO of the axis, and one pair
    # of equal points
    for k in range(0, 100, 4):
        ps[k] = Quaternion(ps[k].w)
        qs[k + 1] = Quaternion(qs[k + 1].w, 0.5 * EPS_ZERO, 0.0,
                               -0.5 * EPS_ZERO)
        ps[k + 2] = Quaternion(ps[k + 2].w, 0.0, EPS_ZERO, 0.0)
        qs[k + 2] = Quaternion(qs[k + 2].w)
    qs[3] = ps[3]
    batched = delta(_batch(ps), _batch(qs))
    assert batched.shape == (n,)
    assert np.array_equal(batched, [delta(p, q) for p, q in zip(ps, qs)])
    # one point against a batch
    assert np.array_equal(delta(ZERO, _batch(qs)),
                          [delta(ZERO, q) for q in qs])


def test_batch_with_a_point_on_the_sphere_is_rejected(rng):
    qs = [random_ball_point(rng) for _ in range(5)]
    qs[3] = Quaternion(0.0, 0.6, 0.0, 0.8)
    with pytest.raises(DomainError):
        delta(_batch(qs), ZERO)
    with pytest.raises(DomainError):
        delta(ZERO, _batch(qs))


# -- bit for bit against the Quaternion form ------------------------------

# slice coordinates q = x + y unit, with a unit Quaternion
_Slice = namedtuple("_Slice", "unit x y")


def _reference_slice(q):
    # |Im q| at or below 1e-150 counts as the real axis
    y = q.im_norm()
    try:
        if y <= 1e-150:
            return _Slice(I, q.w, 0.0)
    except ValueError:
        real = y <= 1e-150
        y = np.where(real, 0.0, y)
        d = np.where(real, 1.0, y)
        unit = Quaternion(np.zeros_like(y), np.where(real, 1.0, q.x / d),
                          np.where(real, 0.0, q.y / d),
                          np.where(real, 0.0, q.z / d))
        return _Slice(unit, q.w, y)
    return _Slice(Quaternion(0.0, q.x / y, q.y / y, q.z / y), q.w, y)


def _reference_delta(p, q):
    # the same closed form written with _Slice tuples, unit Quaternions and
    # the ball test on abs(q): delta must agree with it bit for bit
    if outside_ball(p) or outside_ball(q):
        raise DomainError("p and q must lie in the open unit ball")
    sq, sp = _reference_slice(q), _reference_slice(p)
    dx = sq.x - sp.x
    dx2 = dx * dx
    dy = sq.y - sp.y
    sy = sq.y + sp.y
    near = dx2 + dy * dy
    far = dx2 + sy * sy
    s = (1.0 - q.norm_sq()) * (1.0 - p.norm_sq())
    d2 = 0.25 * ((sq.unit + sp.unit).norm_sq() * near / (near + s)
                 + (sq.unit - sp.unit).norm_sq() * far / (far + s))
    try:
        return math.sqrt(d2)
    except TypeError:
        return np.sqrt(d2)


def _awkward_points(rng, n):
    """n points: a quarter uniform, the rest on the real axis, at |Im q|
    1e-160 or just above 1e-150, or with 1 - |q| from 1e-1 to 1e-9."""
    points = []
    for k in range(n):
        kind = k % 8
        if kind < 2:
            points.append(random_ball_point(rng))
            continue
        v = _unit4(rng) * (1.0 - 10.0 ** -rng.integers(1, 10)
                           if kind >= 5 else rng.random())
        if kind == 2:
            v[1:] = 0.0
        elif kind in (3, 4):
            im = _unit4(rng)[1:]
            v[1:] = im / math.sqrt(float(im @ im)) \
                * (1e-160 if kind == 3 else 1.0000001e-150)
        points.append(Quaternion(*v.tolist()))
    return points


def test_delta_equals_the_quaternion_form_bit_for_bit():
    rng = np.random.default_rng(15)
    n = 6000
    ps, qs = _awkward_points(rng, n), _awkward_points(rng, n)
    rng.shuffle(qs)
    for k in range(0, n, 50):
        qs[k] = ps[k]                   # p = q
    scalar = [delta(p, q) for p, q in zip(ps, qs)]
    assert scalar == [_reference_delta(p, q) for p, q in zip(ps, qs)]
    assert all(type(d) is float for d in scalar)
    batch = delta(_batch(ps), _batch(qs))
    assert np.array_equal(batch, _reference_delta(_batch(ps), _batch(qs)))
    assert np.array_equal(batch, scalar)
    # a point against a batch, either way round
    for p in ps[:8]:
        want = _reference_delta(p, _batch(qs))
        assert np.array_equal(delta(p, _batch(qs)), want)
        assert np.array_equal(delta(_batch(qs), p),
                              _reference_delta(_batch(qs), p))


def test_ball_test_on_squared_norms_keeps_its_boundary():
    # |q|^2 on either side of 1 in steps of one ulp: delta raises exactly
    # where the abs(q) >= 1 test raises, with the same message
    rng = np.random.default_rng(16)
    for _ in range(300):
        v = _unit4(rng) * (1.0 + float(rng.integers(-3, 4)) * 2.0 ** -53)
        q = Quaternion(*v.tolist())
        for args in ((q, ZERO), (ZERO, q), (_batch([ZERO, q]), ZERO)):
            try:
                want = _reference_delta(*args)
            except DomainError as e:
                with pytest.raises(DomainError, match="^%s$" % e):
                    delta(*args)
            else:
                assert np.array_equal(delta(*args), want)
    for q in (Quaternion(1.0), Quaternion(0.5, 0.5, -0.5, 0.5),
              Quaternion(0.0, 0.0, -1.0, 0.0)):
        assert q.norm_sq() == 1.0
        with pytest.raises(DomainError,
                           match="^p and q must lie in the open unit ball$"):
            delta(ZERO, q)
    below = Quaternion(math.nextafter(1.0, 0.0))
    assert below.norm_sq() < 1.0
    assert delta(ZERO, below) == _reference_delta(ZERO, below)


def test_infinitesimal_ratio_on_slice():
    probe = infinitesimal_ratio(Quaternion(0.5), ONE)
    assert probe.conclusive
    assert abs(probe.norm - 4.0 / 3.0) <= 1e-12
    assert abs(probe.limit - probe.norm) <= 1e-4 * probe.norm
    assert abs(probe.ratio - 1.0) <= 1e-4

    # a real point lies on every slice, so any slice direction works
    probe = infinitesimal_ratio(Quaternion(0.5), J)
    assert probe.conclusive
    assert abs(probe.norm - 4.0 / 3.0) <= 1e-12
    assert abs(probe.ratio - 1.0) <= 1e-4


def test_infinitesimal_ratio_generic_slice(rng):
    for _ in range(5):
        unit = random_imaginary_unit(rng)
        q = Quaternion(0.2) + 0.4 * unit
        alpha = Quaternion(0.7) + 0.3 * unit
        probe = infinitesimal_ratio(q, alpha)
        assert probe.conclusive
        assert abs(probe.ratio - 1.0) <= 1e-4


def test_infinitesimal_ratio_off_slice():
    # transverse direction: the limit is sqrt(G) here too
    q = Quaternion(0.0, 0.5, 0.0, 0.0)
    probe = infinitesimal_ratio(q, J)
    assert abs(probe.norm - 0.8) <= 1e-12
    assert probe.conclusive
    assert abs(probe.ratio - 1.0) <= 1e-4
    assert len(probe.step_values) == 4


def test_infinitesimal_ratio_of_a_batch_is_the_scalar_one_per_element(rng):
    # random points and tangents, then a real point with a slice tangent
    # and one at 0.95 whose probe does not settle
    n = 30
    q = random_ball_point(rng, margin=0.1, size=n + 2)
    alpha = Quaternion(*rng.standard_normal((4, n + 2)))
    q.w[n:], q.x[n:], q.y[n:], q.z[n:] = (0.5, 0.95), 0.0, 0.0, 0.0
    alpha.w[n], alpha.x[n], alpha.y[n], alpha.z[n] = 0.0, 0.0, 1.0, 0.0
    batch = infinitesimal_ratio(q, alpha)
    conclusive = batch.conclusive.tolist()
    assert conclusive[n] and not conclusive[n + 1]
    for i in range(n + 2):
        qi, ai = (Quaternion(*(c[i] for c in v.components()))
                  for v in (q, alpha))
        probe = infinitesimal_ratio(qi, ai)
        assert probe.conclusive is conclusive[i]
        assert (probe.limit, probe.norm, probe.ratio) == (
            batch.limit[i], batch.norm[i], batch.ratio[i])
        assert probe.step_values == tuple(v[i] for v in batch.step_values)
    # a batch fails when any element does
    alpha.w[3] = alpha.x[3] = alpha.y[3] = alpha.z[3] = 0.0
    with pytest.raises(PreconditionError):
        infinitesimal_ratio(q, alpha)
    q.x[5] = 1.0
    with pytest.raises(DomainError):
        infinitesimal_ratio(q, ONE)


def test_infinitesimal_ratio_validation():
    with pytest.raises(PreconditionError):
        infinitesimal_ratio(Quaternion(0.5), Quaternion())
    with pytest.raises(DomainError, match="largest probe step leaves"):
        infinitesimal_ratio(Quaternion(0.999), ONE)
