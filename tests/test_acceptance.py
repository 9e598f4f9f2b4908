"""Acceptance suite.

One test per documented acceptance criterion, each at its stated sample
count and tolerance, each printing a single PASS/FAIL line (run with
pytest -s to stream them).
"""
import math

import numpy as np

from sliceball import (ONE, Quaternion, RegularMobius, RegularPowerSeries,
                       RunConfig, arcozzi_sarfatti_norm, classical_apply,
                       classical_differential, curve_length, delta,
                       hyperbolic_metric, infinitesimal_ratio,
                       max_component_diff, noninvariance_witness,
                       random_ball_point, random_imaginary_unit, random_sp11,
                       random_unit_quaternion, regular_apply,
                       regular_apply_via_series, regular_differential,
                       representation_transform, run_checks, slice_hermitian,
                       slice_hermitian_via_definition, slice_kahler,
                       slice_restriction_kahler, slice_restriction_metric,
                       slice_riemannian)

HALF = Quaternion(0.5)
HALF_J = Quaternion(0.0, 0.0, 0.5, 0.0)


def _report(num, label, worst, allowed):
    ok = worst <= allowed
    print("criterion %02d %-38s %s  (worst %.3e, allowed %.3e)"
          % (num, label, "PASS" if ok else "FAIL", worst, allowed))
    assert ok, "criterion %d (%s): worst %g exceeds %g" % (num, label,
                                                           worst, allowed)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _relq(a, b):
    return max_component_diff(a, b) / max(abs(a), abs(b), 1.0)


def _triple(rng, margin=1e-3):
    q = random_ball_point(rng, margin)
    alpha = Quaternion(*rng.standard_normal(4))
    beta = Quaternion(*rng.standard_normal(4))
    return q, alpha, beta


def test_criterion_01_hermitian_well_defined():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        q, alpha, beta = _triple(rng)
        closed = slice_hermitian(q, alpha, beta)
        base = slice_hermitian_via_definition(q, alpha, beta)
        worst = max(worst, _relq(base, closed))
        for _ in range(50):
            u = random_unit_quaternion(rng)
            h_u = slice_hermitian_via_definition(q, alpha, beta, u)
            worst = max(worst, _relq(h_u, base))
    _report(1, "hermitian tensor well defined", worst, 1e-11)


def test_criterion_02_riemannian_equals_split_norm():
    rng = np.random.default_rng(102)
    worst_g = 0.0
    worst_s = 0.0
    for _ in range(10_000):
        q = random_ball_point(rng, 0.1)
        alpha = Quaternion(*rng.standard_normal(4))
        got = slice_riemannian(q, alpha, alpha)
        want = arcozzi_sarfatti_norm(q, alpha)
        worst_g = max(worst_g, _rel(got, want))
        q2 = q * q
        lhs = (1.0 - q2).norm_sq() - 4.0 * q.im_norm() ** 2
        rhs = (1.0 - q.norm_sq()) ** 2
        worst_s = max(worst_s, abs(lhs - rhs))
    _report(2, "riemannian equals split norm", worst_g, 1e-11)
    _report(2, "split scalar identity", worst_s, 1e-13)


def test_criterion_03_riemannian_triple_agreement():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10_000):
        q, alpha, beta = _triple(rng)
        g1 = slice_riemannian(q, alpha, beta)
        g2 = slice_riemannian(q, alpha, beta, formula="corrected")
        g3 = slice_riemannian(q, alpha, beta, formula="via-h")
        worst = max(worst, _rel(g1, g2), _rel(g1, g3))
    _report(3, "riemannian triple agreement", worst, 1e-11)


def test_criterion_04_mobius_closed_vs_series():
    rng = np.random.default_rng(104)
    worst = 0.0
    n = 0
    while n < 1000:
        q = random_ball_point(rng)
        if abs(q) > 0.7:
            continue
        n += 1
        a = random_ball_point(rng, 0.2)
        m = RegularMobius(a, random_unit_quaternion(rng))
        worst = max(worst, max_component_diff(
            regular_apply(m, q), regular_apply_via_series(m, q)))
    _report(4, "mobius closed form vs series", worst, 1e-10)

    m = RegularMobius(HALF, ONE)
    want = Quaternion(0.588235, 0.0, -0.352941, 0.0)
    spot = max(max_component_diff(regular_apply(m, HALF_J), want),
               max_component_diff(regular_apply_via_series(m, HALF_J), want))
    _report(4, "mobius spot value both routes", spot, 1e-6)


def test_criterion_05_differentials():
    rng = np.random.default_rng(105)
    h = 1e-5
    worst = 0.0
    for _ in range(1000):
        q = random_ball_point(rng, 0.1)
        alpha = Quaternion(*rng.standard_normal(4))

        A = random_sp11(rng)
        fd = (classical_apply(A, q + alpha * h)
              - classical_apply(A, q - alpha * h)) / (2.0 * h)
        an = classical_differential(A, q, alpha)
        worst = max(worst, _relq(fd, an))

        a = random_ball_point(rng, 0.2)
        m = RegularMobius(a, random_unit_quaternion(rng))
        fd = (regular_apply(m, q + alpha * h)
              - regular_apply(m, q - alpha * h)) / (2.0 * h)
        an = regular_differential(m, q, alpha)
        worst = max(worst, _relq(fd, an))
    _report(5, "differentials match finite diff", worst, 1e-6)

    m = RegularMobius(HALF, ONE)
    spot = max_component_diff(regular_differential(m, HALF, ONE),
                              Quaternion(-4.0 / 3.0))
    _report(5, "differential spot value at zero", spot, 1e-12)


def test_criterion_06_hyperbolic_invariance_and_witness():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        A = random_sp11(rng)
        q, alpha, beta = _triple(rng, 0.1)
        image = classical_apply(A, q)
        da = classical_differential(A, q, alpha)
        db = classical_differential(A, q, beta)
        worst = max(worst, _rel(hyperbolic_metric(image, da, db),
                                hyperbolic_metric(q, alpha, beta)))
    _report(6, "hyperbolic metric invariance", worst, 1e-8)

    report = noninvariance_witness()
    found = 0.0 if (report.violation_found
                    and report.omega_violation > 1e-6) else 1.0
    _report(6, "flat form violation found", found, 0.0)
    # the fixed witness, then G_0 under 200 sampled diagonal symmetries
    (check,) = run_checks(RunConfig(seed=106, samples=200),
                          "geometry/origin-noninvariance-witness")
    assert check.passed and check.samples == 201
    _report(6, "flat metric stays invariant", check.max_error,
            check.tolerance)


def test_criterion_07_representation_formulas():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(1000):
        q, alpha, beta = _triple(rng)
        u = random_unit_quaternion(rng)
        g = slice_riemannian(q, alpha, beta)
        h = slice_hermitian(q, alpha, beta)
        w = slice_kahler(q, alpha, beta)
        worst = max(
            worst,
            _rel(representation_transform(u, "G", q, alpha, beta), g),
            _relq(representation_transform(u, "H", q, alpha, beta), h),
            max_component_diff(
                representation_transform(u, "Omega", q, alpha, beta),
                w) / max(abs(h), 1.0))
    _report(7, "representation formulas", worst, 1e-11)


def test_criterion_08_slice_restrictions():
    rng = np.random.default_rng(108)
    worst_m = 0.0
    worst_k = 0.0
    n = 0
    while n < 1000:
        unit = random_imaginary_unit(rng)
        x, y = rng.uniform(-0.9, 0.9, 2)
        if math.hypot(x, y) > 0.9:
            continue
        n += 1
        q = Quaternion(x) + y * unit
        s, t = rng.standard_normal(2)
        alpha = Quaternion(s) + t * unit
        s, t = rng.standard_normal(2)
        beta = Quaternion(s) + t * unit

        g_i = slice_restriction_metric(unit, q, alpha, beta)
        worst_m = max(worst_m, _rel(g_i, hyperbolic_metric(q, alpha, beta)))

        omega = slice_kahler(q, alpha, beta)
        w_i = slice_restriction_kahler(unit, q, alpha, beta)
        worst_k = max(worst_k, max_component_diff(omega, w_i * unit)
                      / max(abs(omega), 1.0))
    _report(8, "slice metric is hyperbolic", worst_m, 1e-11)
    _report(8, "slice form along slice unit", worst_k, 1e-11)


def test_criterion_09_hardy_distance():
    rng = np.random.default_rng(109)
    tol = 1e-10

    worst = 0.0
    for _ in range(1000):
        q = random_ball_point(rng)
        worst = max(worst, abs(delta(Quaternion(), q, tol) - abs(q)))
    _report(9, "delta from origin is radius", worst, 1e-10)

    worst = 0.0
    for _ in range(1000):
        unit = random_imaginary_unit(rng)
        xp, yp, xq, yq = rng.uniform(-0.7, 0.7, 4)
        p = Quaternion(xp) + yp * unit
        q = Quaternion(xq) + yq * unit
        zp, zq = complex(xp, yp), complex(xq, yq)
        want = abs(zp - zq) / abs(1.0 - zq * zp.conjugate())
        worst = max(worst, abs(delta(p, q, tol) - want))
    _report(9, "delta same-slice closed form", worst, 1e-9)

    worst_sym = 0.0
    worst_tri = 0.0
    for _ in range(10_000):
        p, q, r = (random_ball_point(rng) for _ in range(3))
        d_pq = delta(p, q, tol)
        worst_sym = max(worst_sym, abs(d_pq - delta(q, p, tol)))
        worst_tri = max(worst_tri,
                        d_pq - delta(p, r, tol) - delta(r, q, tol))
    _report(9, "delta symmetry", worst_sym, 2 * tol)
    _report(9, "delta triangle inequality", worst_tri, 4 * tol)

    worst = 0.0
    for _ in range(20):
        unit = random_imaginary_unit(rng)
        x, y = rng.uniform(-0.5, 0.5, 2)
        q = Quaternion(x) + y * unit
        s, t = rng.standard_normal(2)
        alpha = Quaternion(s) + t * unit
        if abs(alpha) < 0.1:
            continue
        probe = infinitesimal_ratio(q, alpha)
        if not probe.conclusive:
            worst = max(worst, 1.0)
        worst = max(worst, abs(probe.ratio - 1.0))
    _report(9, "infinitesimal ratio on slices", worst, 1e-4)


def test_criterion_10_series_algebra():
    rng = np.random.default_rng(110)

    worst = 0.0
    for _ in range(300):
        f, g, h = (RegularPowerSeries(
            [Quaternion(*(0.5 * rng.standard_normal(4)))
             for _ in range(int(rng.integers(1, 10)))]) for _ in range(3))
        lhs = f.star(g).star(h)
        rhs = f.star(g.star(h))
        scale = max(max(abs(c) for c in lhs.coeffs), 1.0)
        for a, b in zip(lhs.coeffs, rhs.coeffs):
            worst = max(worst, abs(a - b) / scale)
    _report(10, "star product associative", worst, 1e-12)

    worst = 0.0
    for _ in range(300):
        f = RegularPowerSeries([Quaternion(*(0.5 * rng.standard_normal(4)))
                                for _ in range(int(rng.integers(1, 10)))])
        for c in f.symmetrize().coeffs:
            worst = max(worst, abs(c.im))
    _report(10, "symmetrization is real", worst, 1e-13)

    worst = 0.0
    for _ in range(100):
        tail = [Quaternion(*(0.3 * 0.5 ** n * rng.standard_normal(4)))
                for n in range(1, 9)]
        f = RegularPowerSeries([ONE] + tail)
        rec = f.reciprocal_series(64)
        prod = f.star(rec).truncate(64)
        q = random_ball_point(rng) * 0.5
        worst = max(worst, abs(prod.eval(q) - ONE))
    _report(10, "pointwise star reciprocal", worst, 1e-9)


def test_criterion_11_segment_length():
    n = 4000
    pts = [Quaternion(0.5 * k / n) for k in range(n + 1)]
    want = math.atanh(0.5)
    err = max(abs(curve_length(pts, "Ghat") - want),
              abs(curve_length(pts, "G") - want))
    _report(11, "hyperbolic segment length", err, 1e-6)
