import cmath
import math

import numpy as np
import pytest

from conftest import assert_qclose
from sliceball import (DomainError, I, J, ONE, PreconditionError, Quaternion,
                       arcozzi_sarfatti_norm, delta, delta_detail,
                       infinitesimal_ratio, kernel_inner, kernel_norm_sq,
                       random_ball_point, random_imaginary_unit, tail_bound,
                       truncation_for)

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
        assert abs(delta(Quaternion(), q, TOL) - abs(q)) <= TOL
    got = delta(Quaternion(), Quaternion(0.0, 0.3, 0.4, 0.0), TOL)
    assert abs(got - 0.5) <= 1e-12


def test_delta_symmetry_and_range(rng):
    for _ in range(200):
        p = random_ball_point(rng)
        q = random_ball_point(rng)
        d_pq = delta(p, q, TOL)
        d_qp = delta(q, p, TOL)
        assert abs(d_pq - d_qp) <= 2 * TOL
        assert 0.0 <= d_pq < 1.0
    assert delta(Quaternion(0.4), Quaternion(0.4), TOL) <= TOL


def test_delta_same_slice_closed_form(rng):
    for _ in range(200):
        unit = random_imaginary_unit(rng)
        xp, yp = rng.uniform(-0.7, 0.7, 2)
        xq, yq = rng.uniform(-0.7, 0.7, 2)
        p = Quaternion(xp) + yp * unit
        q = Quaternion(xq) + yq * unit
        zp, zq = complex(xp, yp), complex(xq, yq)
        want = abs(zp - zq) / abs(1.0 - zq * zp.conjugate())
        assert abs(delta(p, q, TOL) - want) <= 1e-9


def test_delta_triangle(rng):
    for _ in range(500):
        p, q, r = (random_ball_point(rng) for _ in range(3))
        d_pq = delta(p, q, TOL)
        d_pr = delta(p, r, TOL)
        d_rq = delta(r, q, TOL)
        assert d_pq <= d_pr + d_rq + 4 * TOL


def test_delta_detail_reports_truncation():
    p = Quaternion(0.5)
    q = Quaternion(0.0, 0.5, 0.0, 0.0)
    d, trunc = delta_detail(p, q, 1e-10)
    assert 0.0 < d < 1.0
    assert trunc.order >= 1
    assert trunc.tail_bound <= 0.25 * (1e-10) ** 2
    assert abs(delta(p, q, 1e-10) - d) <= 1e-15


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


def test_infinitesimal_ratio_validation():
    with pytest.raises(PreconditionError):
        infinitesimal_ratio(Quaternion(0.5), Quaternion())
    with pytest.raises(DomainError):
        infinitesimal_ratio(Quaternion(0.999), ONE, steps=(1e-2, 5e-3,
                                                           2.5e-3, 1.25e-3))
    with pytest.raises(PreconditionError):
        infinitesimal_ratio(Quaternion(0.5), ONE, steps=(1e-2,))
