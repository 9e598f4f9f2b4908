"""Acceptance suite.

One test per documented acceptance criterion, printing one PASS/FAIL
line per claim (run with pytest -s to stream them).  Each claim that a
verify check states runs that check through run_checks at the pinned
seed 100 + criterion and asserts that it passed and compared at least
as many values as the criterion asks for.  The few claims computed
directly say why next to their loop.
"""
import math

import numpy as np

from sliceball import (ONE, Quaternion, RegularMobius, RegularPowerSeries,
                       RunConfig, curve_length, delta, max_component_diff,
                       random_ball_point, random_imaginary_unit,
                       regular_apply, regular_apply_via_series,
                       regular_differential)
from sliceball.config import DEFAULT_ATOL
from sliceball.verify import run_checks

HALF = Quaternion(0.5)
HALF_J = Quaternion(0.0, 0.0, 0.5, 0.0)


def _line(num, label, worst, allowed, ok):
    print("criterion %02d %-38s %s  (worst %.3e, allowed %.3e)"
          % (num, label, "PASS" if ok else "FAIL", worst, allowed))
    assert ok, "criterion %d (%s): worst %g exceeds %g" % (num, label,
                                                           worst, allowed)


def _report(num, label, worst, allowed):
    _line(num, label, worst, allowed, worst <= allowed)


def _check(num, pattern, min_samples, samples=1000, **settings):
    (r,) = run_checks(RunConfig(seed=100 + num, samples=samples, **settings),
                      pattern)
    assert r.samples >= min_samples, (pattern, r.samples)
    _line(num, pattern, r.max_error, r.tolerance, r.passed)


def test_criterion_01_hermitian_well_defined():
    _check(1, "geometry/hermitian-u-independent", 50_000)
    _check(1, "geometry/hermitian-closed-form", 1000)


def test_criterion_02_riemannian_equals_split_norm():
    _check(2, "geometry/riemannian-vs-split-norm", 10_000)
    _check(2, "geometry/split-scalar-identity", 10_000)


def test_criterion_03_riemannian_triple_agreement():
    _check(3, "geometry/riemannian-triple-agreement", 20_000)


def test_criterion_04_mobius_closed_vs_series():
    _check(4, "mobius/closed-vs-series", 1000)

    # a frozen value, so both routes cannot drift together
    m = RegularMobius(HALF, ONE)
    want = Quaternion(0.588235, 0.0, -0.352941, 0.0)
    spot = max(max_component_diff(regular_apply(m, HALF_J), want),
               max_component_diff(regular_apply_via_series(m, HALF_J), want))
    _report(4, "mobius spot value both routes", spot, 1e-6)


def test_criterion_05_differentials():
    _check(5, "mobius/differential-fd", 2000)

    # a frozen value, so the differential and the map cannot drift together
    m = RegularMobius(HALF, ONE)
    spot = max_component_diff(regular_differential(m, HALF, ONE),
                              Quaternion(-4.0 / 3.0))
    _report(5, "differential spot value at zero", spot, 1e-12)


def test_criterion_06_hyperbolic_invariance_and_witness():
    _check(6, "geometry/hyperbolic-invariance", 200)
    # the fixed witness moves Omega_0, then G_0 stays put under sampled
    # diagonal symmetries
    _check(6, "geometry/origin-noninvariance-witness", 201)


def test_criterion_07_representation_formulas():
    for tensor in ("riemannian", "hermitian", "kahler"):
        _check(7, "geometry/representation-" + tensor, 1000)


def test_criterion_08_slice_restrictions():
    _check(8, "geometry/slice-restriction-metric", 1000)
    _check(8, "geometry/slice-restriction-kahler", 1000)


def test_criterion_09_hardy_distance():
    _check(9, "hardy/delta-origin", 1000)
    _check(9, "hardy/delta-symmetric", 10_000, samples=10_000)
    _check(9, "hardy/delta-triangle", 10_000)
    _check(9, "hardy/infinitesimal-slice-ratio", 20)
    _check(9, "hardy/infinitesimal-ratio", 20)

    # direct: delta-slice-form draws |p|, |q| <= 0.9, and this loop
    # reaches |p| = 0.99
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(1000):
        unit = random_imaginary_unit(rng)
        xp, yp, xq, yq = rng.uniform(-0.7, 0.7, 4)
        p = Quaternion(xp) + yp * unit
        q = Quaternion(xq) + yq * unit
        zp, zq = complex(xp, yp), complex(xq, yq)
        want = abs(zp - zq) / abs(1.0 - zq * zp.conjugate())
        worst = max(worst, abs(delta(p, q) - want))
    _report(9, "delta same-slice closed form", worst, 1e-9)


def test_criterion_10_series_algebra():
    # max_component_diff is at least |a - b| / 2, so a quarter of the
    # default atol keeps |a - b| within 1e-12 of the coefficient scale
    _check(10, "series/star-associative", 300, samples=1500,
           atol=DEFAULT_ATOL / 4)
    _check(10, "series/symmetrization-real", 300, samples=1500)

    # direct: verify's reciprocal-residual draws another family (Moebius
    # factors and unit-led series), not this geometric tail
    rng = np.random.default_rng(110)
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
    _check(11, "geometry/segment-length", 6)

    # direct: segment-length runs along imaginary units; this is the
    # real axis
    n = 4000
    pts = Quaternion(0.5 * np.arange(n + 1) / n)
    want = math.atanh(0.5)
    err = max(abs(curve_length(pts, "Ghat") - want),
              abs(curve_length(pts, "G") - want))
    _report(11, "hyperbolic segment length", err, 1e-6)
