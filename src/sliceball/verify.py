"""Named verification suites for every documented invariant.

Each check draws its own deterministic sample stream (seeded from the
run seed and a stable hash of the check name, so execution order never
matters) and yields blocks (errors, allowed) of arrays, one element per
compared value of one mathematical statement, with allowed derived
from the run configuration; run_checks alone counts the elements and
judges the worst error / allowed ratio, one block at a time.  Pinned
tolerances scale linearly with atol / rtol relative to their defaults,
so tightening either flag makes every check strictly harder.

A row is declared once, by the decorator _row above its measure, and
CHECKS lists the rows in definition order.  Most rows draw in uniform
blocks: draw(config, rng, n) returns one block's inputs, one array
Quaternion (or padded series) of n draws per value of a draw, each from
one sampler call with size=n, and measure(config, *inputs) returns the
block's (errors, allowed).  _blocks turns the pair into the row's
fn(config, rng), the one block loop; it reads the row's count and block
size from --samples and _BLOCK when the row runs.  Read in row-major
order, a block's elements come in draw order, each exactly what
evaluating its draw with scalar calls would give.  A block of power
series is one RegularPowerSeries with array coefficients, each draw's
series padded with zero coefficients to the block's largest order; a
block keeps each draw's own coefficients only.

Four rows register a hand-written fn(config, rng) instead:
canonical-roundtrip (one scalar Newton search per matrix, after which
the matrix's 20 points are drawn and evaluated as one block),
segment-length and distance-self, whose draws are fixed in number
(segment-length measures each radius as one array polyline of 4001
points), and origin-noninvariance-witness, whose fixed witness comes
before its blocks.  The cost of every row grows at most linearly in
--samples.
"""
from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import geometry, hardy, mobius
from .config import DEFAULT_ATOL, DEFAULT_RTOL, RunConfig
from .quat import (ONE, Quaternion, ZERO, max_component_diff, project_slice,
                   random_ball_point, random_imaginary_unit, random_tangent,
                   random_unit_quaternion, slice_components, sqrt)
from .series import RegularPowerSeries

# draws evaluated per array call; keeps memory flat in --samples
_BLOCK = 1000


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    claim: str
    samples: int
    max_error: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckDef:
    suite: str
    name: str
    claim: str
    fn: callable


# every row, in the order of its definition below
CHECKS = []


def _count(config, count=1, per=1, floor=1):
    """The number of draws of a row: --samples times count, divided by
    per and rounded down, and at least floor."""
    return max(floor, config.samples * count // per)


def _blocks(draw, measure, count=1, per=1, floor=1, block_per=1):
    """The fn(config, rng) of a row that draws in uniform blocks.

    It draws _count(config, count, per, floor) draws in consecutive
    blocks of n <= max(1, _BLOCK // block_per) draws, and yields
    measure(config, *draw(config, rng, n)) for each block.
    """
    def fn(config, rng):
        total = _count(config, count, per, floor)
        size = max(1, _BLOCK // block_per)
        for start in range(0, total, size):
            yield measure(config, *draw(config, rng,
                                        min(size, total - start)))
    return fn


def _row(suite, name, claim, draw=None, **sizes):
    """Register the decorated function as the row suite/name, and return
    it unchanged.  With a draw it is the row's measure, and sizes go to
    _blocks; without one it is the row's fn(config, rng) itself."""
    def register(measure):
        fn = measure if draw is None else _blocks(draw, measure, **sizes)
        CHECKS.append(CheckDef(suite, name, claim, fn))
        return measure
    return register


def _atol_scale(config):
    return config.atol / DEFAULT_ATOL


def _rtol_scale(config):
    return config.rtol / DEFAULT_RTOL


def _larger(*values):
    """Largest of values, per element for arrays; NaN when any is NaN."""
    return functools.reduce(np.maximum, values)


def _rel_q(v1, v2):
    return max_component_diff(v1, v2) / _larger(abs(v1), abs(v2), 1e-12)


def _rel_s(x, y):
    return abs(x - y) / _larger(abs(x), abs(y), 1e-12)


def _cauchy_schwarz(metric, q, a, b):
    """sqrt(metric(q, a, a) metric(q, b, b)), per element for a batch.

    It bounds |metric(q, a, b)| and, unlike that value, does not vanish
    for nearly orthogonal a and b, so round-off is measured against it;
    for G it equals |H_q(a, b)|.
    """
    return sqrt(metric(q, a, a) * metric(q, b, b))


def _columns(*values):
    """One row per draw with one column per value, each value an array
    over the block or one value for all of it."""
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def _masked(errors, allowed, own):
    """The block (errors, allowed) cut down to the elements marked by
    own, a boolean array of the shape of errors, in row-major order;
    allowed broadcasts against errors."""
    errors, allowed = np.broadcast_arrays(errors, allowed)
    return errors[own], allowed[own]


def _reshape(q, shape):
    return Quaternion(*(np.reshape(c, shape) for c in q.components()))


def _where(mask, p, q):
    """Elementwise p where mask holds, else q."""
    return Quaternion(*(np.where(mask, a, b)
                        for a, b in zip(p.components(), q.components())))


def _ball(rng, radius, size=None):
    # uniform in the solid ball of the given radius
    return random_ball_point(rng, margin=0.0, size=size) * radius


def _slice_points(rng, unit, radius):
    """One point per element of the batch unit, uniform in the half disk
    x + y unit, x^2 + y^2 < radius^2, y >= 0, in polar coordinates (no
    rejection, so a block takes one call per coordinate)."""
    n = len(unit.x)
    r = radius * np.sqrt(rng.random(n))
    t = math.pi * rng.random(n)
    x, y = r * np.cos(t), r * np.sin(t)
    return Quaternion(x, y * unit.x, y * unit.y, y * unit.z)


def _slice_tangents(rng, unit):
    """One standard Gaussian tangent along the slice of each element of
    the batch unit."""
    g = rng.standard_normal((2, len(unit.x)))
    return Quaternion(g[0], g[1] * unit.x, g[1] * unit.y, g[1] * unit.z)


# ---------------------------------------------------------- shared draws

def _ball_points(k):
    """The draw of k points uniform in the ball |q| <= 1 -
    boundary_margin."""
    def draw(config, rng, n):
        return tuple(random_ball_point(rng, config.boundary_margin, size=n)
                     for _ in range(k))
    return draw


def _tangent_triple(config, rng, n):
    return (random_ball_point(rng, config.boundary_margin, size=n),
            random_tangent(rng, size=n), random_tangent(rng, size=n))


def _triple_and_unit(config, rng, n):
    return _tangent_triple(config, rng, n) \
        + (random_unit_quaternion(rng, size=n),)


def _on_slice(config, rng, n):
    """A unit, a point of its half disk of radius 0.9 and two tangents
    along its slice."""
    unit = random_imaginary_unit(rng, size=n)
    return (unit, _slice_points(rng, unit, 0.9),
            _slice_tangents(rng, unit), _slice_tangents(rng, unit))


# ----------------------------------------------------------------- quat

def _unit_and_tangent(config, rng, n):
    return random_imaginary_unit(rng, size=n), random_tangent(rng, size=n)


@_row("quat", "norm-multiplicative", "abs(p q) equals abs(p) abs(q)",
      lambda config, rng, n: (random_tangent(rng, size=n),
                              random_tangent(rng, size=n)))
def check_norm_multiplicative(config, p, q):
    scale = abs(p) * abs(q)
    return (abs(abs(p * q) - scale),
            1e-12 * _larger(1.0, scale) * _atol_scale(config))


@_row("quat", "projection-resolution",
      "slice projections resolve the identity, are idempotent and "
      "mutually orthogonal", _unit_and_tangent)
def check_projection_resolution(config, unit, a):
    par, perp = project_slice(unit, a)
    allowed = config.atol + config.rtol * _larger(1.0, abs(a))
    return (
        _columns(max_component_diff(par + perp, a),
                 max_component_diff(project_slice(unit, par)[0], par),
                 abs((par * perp.conj()).w)),
        _columns(allowed, allowed,
                 config.atol + config.rtol * _larger(1.0, a.norm_sq())))


@_row("quat", "projection-anticommute",
      "I anticommutes with the orthogonal projection of any tangent",
      _unit_and_tangent)
def check_projection_anticommute(config, unit, a):
    perp = project_slice(unit, a)[1]
    return (max_component_diff(unit * perp, -(perp * unit)),
            config.atol + config.rtol * _larger(1.0, abs(a)))


@_row("quat", "slice-roundtrip",
      "x + y I rebuilds q from its slice coordinates", _ball_points(1))
def check_slice_roundtrip(config, q):
    x, y, ux, uy, uz = slice_components(q)
    return (max_component_diff(Quaternion(x, y * ux, y * uy, y * uz), q),
            1e-14 * _atol_scale(config))


# --------------------------------------------------------------- series

def _padded_series(coeffs, orders):
    """One series holding len(orders) series: draw i has order orders[i],
    and its orders[i] + 1 coefficients come in turn from the batch
    coeffs, draw after draw."""
    own = np.arange(orders.max() + 1) <= orders[:, None]
    padded = np.zeros((4,) + own.shape)
    for out, c in zip(padded, coeffs.components()):
        out[own] = c
    padded = np.ascontiguousarray(padded.transpose(2, 0, 1))
    return RegularPowerSeries([Quaternion(*c) for c in padded])


def _coefficient_pairs(errors, allowed, orders):
    """The block of errors[k], an array over the block per coefficient k
    of a padded series, cut down to each draw's coefficients k <=
    orders[i], in draw order; allowed is one value per draw or one for
    the block."""
    errors = _columns(*errors)
    own = np.arange(errors.shape[-1]) <= orders[:, None]
    return _masked(errors, np.reshape(allowed, (-1, 1)), own)


def _random_series(rng, n, max_order):
    """n series of orders uniform in 0..max_order with Gaussian
    coefficients of standard deviation 0.7, as one padded series, and
    their orders."""
    orders = rng.integers(0, max_order + 1, size=n)
    coeffs = random_tangent(rng, size=int(orders.sum()) + n) * 0.7
    return _padded_series(coeffs, orders), orders


def _coeff_scale(*fs):
    """max(1, largest |coefficient|), per draw of padded series."""
    return _larger(1.0, *(abs(c) for f in fs for c in f.coeffs))


def _series(config, rng, n):
    return _random_series(rng, n, 8)


def _three_series(config, rng, n):
    return _series(config, rng, n) + _series(config, rng, n) \
        + _series(config, rng, n)


@_row("series", "star-associative", "the *-product is associative",
      _three_series, per=5, floor=10)
def check_star_associative(config, f, of, g, og, h, oh):
    lhs = f.star(g).star(h)
    rhs = f.star(g.star(h))
    scale = _coeff_scale(lhs, rhs)
    return _coefficient_pairs(
        [max_component_diff(a, b) for a, b in zip(lhs.coeffs, rhs.coeffs)],
        1e-12 * scale * _atol_scale(config), of + og + oh)


@_row("series", "symmetrization-commutes",
      "f * f^c equals f^c * f coefficientwise", _series,
      per=5, floor=10)
def check_symmetrization_commutes(config, f, order):
    lhs = f.star(f.conjugate())
    rhs = f.conjugate().star(f)
    scale = _coeff_scale(lhs, rhs)
    return _coefficient_pairs(
        [max_component_diff(a, b) for a, b in zip(lhs.coeffs, rhs.coeffs)],
        1e-12 * scale * _atol_scale(config), 2 * order)


@_row("series", "symmetrization-real", "every coefficient of f^s is real",
      _series, per=5, floor=10)
def check_symmetrization_real(config, f, order):
    return _coefficient_pairs([c.im_norm() for c in f.symmetrize().coeffs],
                              1e-13 * _atol_scale(config), 2 * order)


def _slice_series(rng, unit):
    """One series of order 0 to 5 per element of the batch unit, its
    coefficients on the slice of that unit, as one padded series."""
    orders = rng.integers(0, 6, size=len(unit.x))
    per_coeff = Quaternion(*(np.repeat(c, orders + 1)
                             for c in unit.components()))
    return _padded_series(_slice_tangents(rng, per_coeff), orders)


def _series_on_slice(config, rng, n):
    unit = random_imaginary_unit(rng, size=n)
    f = _slice_series(rng, unit)
    g = _slice_series(rng, unit)
    return f, g, _slice_points(rng, unit, 0.9)


@_row("series", "slice-evaluation-homomorphism",
      "on a common slice, evaluation turns * into the pointwise product",
      _series_on_slice)
def check_slice_evaluation_homomorphism(config, f, g, q):
    lhs = f.star(g).eval(q)
    rhs = f.eval(q) * g.eval(q)
    return (max_component_diff(lhs, rhs),
            config.atol + config.rtol * 10.0
            * _larger(1.0, abs(lhs), abs(rhs)))


@_row("series", "star-evaluation",
      "(f * g)(q) equals f(q) g(f(q)^{-1} q f(q)) where f(q) is not 0",
      lambda config, rng, n: (_series(config, rng, n)[0],
                              _series(config, rng, n)[0], _ball(rng, 0.9, n)))
def check_star_evaluation(config, f, g, q):
    # off the slices the opposite product breaks this identity by O(1);
    # the bound is eps times (sum_k |a_k|) (sum_l |b_l|), about 100 times
    # the worst over seeds 1-100
    fq = f.eval(q)
    own = abs(fq) > 1e-6
    # inv raises on a batch with any small element
    safe = _where(own, fq, ONE)
    rhs = fq * g.eval(safe.inv() * q * safe)
    scale = sum(abs(c) for c in f.coeffs) * sum(abs(c) for c in g.coeffs)
    return _masked(max_component_diff(f.star(g).eval(q), rhs),
                   4e-14 * scale * _atol_scale(config), own)


def _reciprocal_friendly(config, rng, n):
    # spectrum kept away from the ball so the reciprocal series converges
    # fast on |q| <= 0.5: each draw is either a Moebius linear factor
    # q conj(a) - 1 or a perturbation of a unit constant with
    # geometrically decaying coefficients, of order 1 to 5, and a point
    # of |q| <= 0.5; a block draws the values of both kinds for every
    # draw and keeps one
    linear = rng.random(n) < 0.5
    a = _ball(rng, 0.9, n).conj()
    orders = np.where(linear, 1, rng.integers(1, 6, size=n))
    coeffs = [_where(linear, -ONE, random_unit_quaternion(rng, size=n))]
    for k in range(1, 6):
        tail = _where(k <= orders,
                      random_tangent(rng, size=n) * (0.5 * 0.25 ** k), ZERO)
        coeffs.append(_where(linear, a if k == 1 else ZERO, tail))
    return RegularPowerSeries(coeffs), _ball(rng, 0.5, n)


@_row("series", "reciprocal-residual",
      "f * f^{-*} evaluates to 1 on |q| <= 1/2", _reciprocal_friendly,
      per=5, floor=10)
def check_reciprocal_residual(config, f, q):
    recip = f.reciprocal_series()
    return (_columns(abs(recip.star(f).eval(q) - 1),
                     abs(f.star(recip).eval(q) - 1)),
            1e-9 * _rtol_scale(config))


# --------------------------------------------------------------- mobius

def _random_canonical(rng, n):
    # n canonical maps, each zero uniform in the ball |a| <= 0.9
    return mobius.RegularMobius(_ball(rng, 0.9, n),
                                random_unit_quaternion(rng, n))


@_row("mobius", "generator-valid",
      "sampled matrices satisfy the defining relations of the ball "
      "symmetry group", lambda config, rng, n: (
          mobius.random_sp11(rng, size=n),))
def check_generator_valid(config, A):
    return A.residual(), 1e-12 * _atol_scale(config)


@_row("mobius", "ball-preserved",
      "classical and regular transformations map the ball into itself",
      lambda config, rng, n: (
          mobius.random_sp11(rng, size=n), _random_canonical(rng, n),
          random_ball_point(rng, config.boundary_margin, size=n)))
def check_ball_preserved(config, A, m, q):
    # allowed is the largest float below 1, so |image| < 1 passes
    return (_columns(abs(mobius.classical_apply(A, q)),
                     abs(mobius.regular_apply(m, q))),
            math.nextafter(1.0, 0.0))


@_row("mobius", "fixed-points",
      "the canonical map sends a to 0 and 0 to a u; a = 0 gives minus the "
      "identity", lambda config, rng, n: (
          _random_canonical(rng, n), _ball(rng, 0.9, n)))
def check_fixed_points(config, m, q):
    minus_q = mobius.regular_apply(mobius.RegularMobius(ZERO, ONE), q)
    return (
        _columns(abs(mobius.regular_apply(m, m.a)),
                 max_component_diff(mobius.regular_apply(m, ZERO), m.a * m.u),
                 max_component_diff(minus_q, -q)),
        config.atol + config.rtol)


@_row("mobius", "closed-vs-series",
      "closed-form and series evaluations of the regular map agree",
      lambda config, rng, n: (_random_canonical(rng, n),
                              _ball(rng, 0.7, n)))
def check_closed_vs_series(config, m, q):
    return (max_component_diff(mobius.regular_apply(m, q),
                               mobius.regular_apply_via_series(m, q)),
            1e-10 * _rtol_scale(config))


@_row("mobius", "differential-fd",
      "analytic differentials match central finite differences",
      lambda config, rng, n: (
          _ball(rng, 0.9, n), random_tangent(rng, size=n),
          _random_canonical(rng, n), mobius.random_sp11(rng, size=n)))
def check_differential_fd(config, q, alpha, m, A):
    h = 1e-5
    ana = mobius.regular_differential(m, q, alpha)
    fd = (mobius.regular_apply(m, q + alpha * h)
          - mobius.regular_apply(m, q - alpha * h)) / (2.0 * h)
    ana_c = mobius.classical_differential(A, q, alpha)
    fd_c = (mobius.classical_apply(A, q + alpha * h)
            - mobius.classical_apply(A, q - alpha * h)) / (2.0 * h)
    return (_columns(_rel_q(ana, fd), _rel_q(ana_c, fd_c)),
            1e-6 * _rtol_scale(config))


@_row("mobius", "origin-isotropy",
      "canonical maps fixing 0 are exactly the right rotations",
      lambda config, rng, n: (
          random_unit_quaternion(rng, size=n),
          random_ball_point(rng, config.boundary_margin, size=n),
          _ball(rng, 0.9, n)))
def check_origin_isotropy(config, u, q, a):
    rot = mobius.RegularMobius(ZERO, u)
    # a map whose zero a is away from 0 must move 0; where it does not,
    # an infinite error follows the draw's value
    moved = abs(mobius.regular_apply(mobius.RegularMobius(a, u), ZERO))
    return _masked(
        _columns(max_component_diff(mobius.regular_apply(rot, q), q * (-u)),
                 math.inf),
        _columns(config.atol + config.rtol, 1.0),
        _columns(True, (abs(a) > 1e-6) & (moved <= 1e-6)))


def _redraw_close(rng, q1, q2):
    """q2 with each element within 1e-6 of q1 redrawn until none is."""
    close = abs(q1 - q2) <= 1e-6
    while close.any():
        redrawn = _ball(rng, 0.9, int(close.sum()))
        q2 = Quaternion(*(c.copy() for c in q2.components()))
        for c, r in zip(q2.components(), redrawn.components()):
            c[close] = r
        close = abs(q1 - q2) <= 1e-6
    return q2


def _separated_pair(config, rng, n):
    m, q1 = _random_canonical(rng, n), _ball(rng, 0.9, n)
    return m, q1, _redraw_close(rng, q1, _ball(rng, 0.9, n))


@_row("mobius", "injectivity",
      "separated inputs stay separated under the regular map",
      _separated_pair)
def check_injectivity(config, m, q1, q2):
    # error is the float just above 1e-9 and allowed the separation of
    # the images, so a separation greater than 1e-9 passes
    return (math.nextafter(1e-9, math.inf),
            abs(mobius.regular_apply(m, q1) - mobius.regular_apply(m, q2)))


@_row("mobius", "canonical-roundtrip",
      "matrix_to_canonical reproduces the matrix map on samples")
def check_canonical_roundtrip(config, rng):
    # a matrix's points are drawn only once its Newton search succeeded
    allowed = 1e-8 * _rtol_scale(config)
    for _ in range(_count(config, per=10, floor=5)):
        A = mobius.random_sp11(rng)
        m = mobius.matrix_to_canonical(A)
        if abs(m.a) >= 1.0 or abs(abs(m.u) - 1.0) > 1e-12:
            yield math.inf, 1.0
            continue
        # 20 scalar draws, evaluated as one batch
        q = Quaternion(*np.array([_ball(rng, 0.7).components()
                                  for _ in range(20)]).T)
        yield (max_component_diff(mobius.regular_apply(m, q),
                                  mobius.matrix_regular_apply(A, q)), allowed)


def _maps_sharing_a_zero(config, rng, n):
    # five points per pair of maps: a row of the block per pair
    a, u1, u2 = (_reshape(v, (n, 1)) for v in (
        _ball(rng, 0.9, n), random_unit_quaternion(rng, size=n),
        random_unit_quaternion(rng, size=n)))
    return a, u1, u2, _reshape(_ball(rng, 0.9, 5 * n), (n, 5))


@_row("mobius", "normalize-pair",
      "canonical maps sharing a zero differ by a right rotation",
      _maps_sharing_a_zero, per=5, floor=10, block_per=5)
def check_normalize_pair(config, a, u1, u2, q):
    m1 = mobius.RegularMobius(a, u1)
    m2 = mobius.RegularMobius(a, u2)
    u = mobius.normalize_pair(m1, m2)
    return (max_component_diff(mobius.regular_apply(m1, q),
                               mobius.regular_apply(m2, q) * u),
            1e-12 * _rtol_scale(config))


# ------------------------------------------------------------- geometry

def _triple_and_units(config, rng, n):
    # a row of the block per triple, holding 50 units: a constant, so the
    # cost grows linearly in samples; a block of _BLOCK // 10 triples is
    # 5000 elements per array call, few enough that its temporaries stay
    # well under a MiB
    triple = tuple(_reshape(v, (n, 1))
                   for v in _tangent_triple(config, rng, n))
    return triple + (_reshape(random_unit_quaternion(rng, size=n * 50),
                              (n, 50)),)


@_row("geometry", "hermitian-u-independent",
      "the Hermitian tensor does not depend on the unit chosen in its "
      "definition", _triple_and_units, block_per=10)
def check_hermitian_u_independent(config, q, a, b, u):
    ref = geometry.slice_hermitian_via_definition(q, a, b, ONE)
    val = geometry.slice_hermitian_via_definition(q, a, b, u)
    return (max_component_diff(val, ref) / _larger(abs(ref), 1e-12),
            1e-11 * _rtol_scale(config))


@_row("geometry", "hermitian-closed-form",
      "the definition of H matches its closed form", _triple_and_unit)
def check_hermitian_closed_form(config, q, a, b, u):
    return (_rel_q(geometry.slice_hermitian_via_definition(q, a, b, u),
                   geometry.slice_hermitian(q, a, b)),
            1e-11 * _rtol_scale(config))


@_row("geometry", "riemannian-triple-agreement",
      "closed, corrected and via-H routes to G agree", _tangent_triple,
      count=10)
def check_riemannian_triple(config, q, a, b):
    closed = geometry.slice_riemannian(q, a, b, "closed")
    corrected = geometry.slice_riemannian(q, a, b, "corrected")
    via_h = geometry.slice_hermitian(q, a, b).w
    scale = _cauchy_schwarz(geometry.slice_riemannian, q, a, b)
    # two values per draw: closed vs corrected, then closed vs via-h
    return (_columns(abs(closed - corrected) / scale,
                     abs(closed - via_h) / scale),
            1e-13 * _rtol_scale(config))


@_row("geometry", "riemannian-vs-split-norm",
      "G equals the split tangent norm along the slice of q",
      lambda config, rng, n: (_ball(rng, 0.9, n),
                              random_tangent(rng, size=n)), count=10)
def check_riemannian_vs_split_norm(config, q, a):
    return (_rel_s(geometry.slice_riemannian(q, a, a),
                   geometry.arcozzi_sarfatti_norm(q, a)),
            1e-11 * _rtol_scale(config))


@_row("geometry", "split-scalar-identity",
      "|1 - q^2|^2 - 4 |Im q|^2 equals (1 - |q|^2)^2", _ball_points(1),
      count=10)
def check_split_scalar_identity(config, q):
    lhs = (1 - q * q).norm_sq() - 4.0 * q.im.norm_sq()
    # float_power squares with the C library's pow, as float ** 2 does;
    # ndarray ** 2 multiplies, which differs from it in the last bit for
    # about 0.07% of values
    rhs = np.float_power(1.0 - q.norm_sq(), 2)
    return abs(lhs - rhs), 1e-13 * _atol_scale(config)


@_row("geometry", "hermitian-symmetric", "H(a, b) equals conj(H(b, a))",
      _tangent_triple)
def check_hermitian_symmetric(config, q, a, b):
    hab = geometry.slice_hermitian(q, a, b)
    hba = geometry.slice_hermitian(q, b, a)
    return (max_component_diff(hab, hba.conj()),
            config.atol + config.rtol * _larger(1.0, abs(hab)))


@_row("geometry", "hermitian-positive",
      "H(a, a) is real and positive down to tiny tangents", _tangent_triple)
def check_hermitian_positive(config, q, a, _):
    # error im_norm, or infinite where the real part is not positive
    errors, allowed = [], []
    for v in (a, a * 1e-8):
        h = geometry.slice_hermitian(q, v, v)
        errors.append(np.where(h.w > 0.0, h.im_norm(), math.inf))
        allowed.append(config.atol + config.rtol * _larger(1.0, abs(h)))
    return _columns(*errors), _columns(*allowed)


@_row("geometry", "decomposition-h-g-omega", "H decomposes as G + Omega",
      _tangent_triple)
def check_decomposition(config, q, a, b):
    tv = geometry.tensor_value(q, a, b)
    g_closed = geometry.slice_riemannian(q, a, b, "closed")
    recon = Quaternion(g_closed, 0, 0, 0) + tv.omega
    return (max_component_diff(tv.h, recon),
            config.atol + config.rtol * _larger(1.0, abs(tv.h)))


@_row("geometry", "kahler-antisymmetric", "Omega(a, b) equals -Omega(b, a)",
      _tangent_triple)
def check_kahler_antisymmetric(config, q, a, b):
    oab = geometry.slice_kahler(q, a, b)
    oba = geometry.slice_kahler(q, b, a)
    return (max_component_diff(oab, -oba),
            config.atol + config.rtol * _larger(1.0, abs(oab)))


@_row("geometry", "kahler-rank",
      "Omega has full rank 4 against the standard basis",
      lambda config, rng, n: (_ball(rng, 0.9, n),), per=10, floor=5)
def check_kahler_rank(config, q):
    # error is the rank deficit, so only full rank passes
    return 4.0 - geometry.kahler_rank(q), 0.5


@_row("geometry", "hyperbolic-invariance",
      "the hyperbolic metric is invariant under classical pushforward",
      lambda config, rng, n: ((mobius.random_sp11(rng, size=n),)
                              + _tangent_triple(config, rng, n)),
      per=5, floor=5)
def check_hyperbolic_invariance(config, A, q, a, b):
    image = mobius.classical_apply(A, q)
    da = mobius.classical_differential(A, q, a)
    db = mobius.classical_differential(A, q, b)
    ghat = geometry.hyperbolic_metric(q, a, b)
    return (abs(geometry.hyperbolic_metric(image, da, db) - ghat)
            / _cauchy_schwarz(geometry.hyperbolic_metric, q, a, b),
            1e-11 * _rtol_scale(config))


def _diagonal_symmetry(config, rng, n):
    return (random_unit_quaternion(rng, size=n),
            random_unit_quaternion(rng, size=n),
            random_tangent(rng, size=n), random_tangent(rng, size=n))


def _g0_invariance(config, d, a, al, be):
    ta, tb = d.inv() * al * a, d.inv() * be * a
    scale = _larger(1.0, abs(al) * abs(be))
    return (abs((ta * tb.conj()).w - (al * be.conj()).w) / scale,
            1e-12 * _atol_scale(config))


@_row("geometry", "origin-noninvariance-witness",
      "a diagonal symmetry violates Omega_0 while G_0 stays invariant")
def check_origin_noninvariance(config, rng):
    # the fixed witness must move Omega_0 by more than 1e-6; then G_0 =
    # Re(alpha conj(beta)) must stay put under random diagonal symmetries
    # alpha -> d^{-1} alpha a
    witness = geometry.noninvariance_witness()
    yield math.nextafter(1e-6, math.inf), witness.omega_violation
    yield from _blocks(_diagonal_symmetry, _g0_invariance)(config, rng)


@_row("geometry", "representation-riemannian",
      "G transforms by unit conjugation of point and tangents",
      _triple_and_unit)
def check_representation_riemannian(config, q, a, b, u):
    rhs = geometry.representation_transform(u, "G", q, a, b)
    return (abs(geometry.slice_riemannian(q, a, b) - rhs)
            / _cauchy_schwarz(geometry.slice_riemannian, q, a, b),
            2e-12 * _rtol_scale(config))


@_row("geometry", "representation-hermitian",
      "H transforms by unit conjugation with u^{-1} . u wrapping",
      _triple_and_unit)
def check_representation_hermitian(config, q, a, b, u):
    return (_rel_q(geometry.slice_hermitian(q, a, b),
                   geometry.representation_transform(u, "H", q, a, b)),
            1e-11 * _rtol_scale(config))


@_row("geometry", "representation-kahler",
      "Omega transforms by unit conjugation with u^{-1} . u wrapping",
      _triple_and_unit)
def check_representation_kahler(config, q, a, b, u):
    return (_rel_q(geometry.slice_kahler(q, a, b),
                   geometry.representation_transform(u, "Omega", q, a, b)),
            1e-11 * _rtol_scale(config))


@_row("geometry", "slice-restriction-metric",
      "G restricts on each slice to the classical disk metric", _on_slice)
def check_slice_restriction_metric(config, unit, q, a, b):
    # on the slice G and Ghat agree, and so do their scales
    scale = _cauchy_schwarz(geometry.hyperbolic_metric, q, a, b)
    return (abs(geometry.hyperbolic_metric(q, a, b)
                - geometry.slice_riemannian(q, a, b)) / scale,
            1e-13 * _rtol_scale(config))


@_row("geometry", "slice-restriction-kahler",
      "Omega restricts on each slice to I times the disk area form",
      _on_slice)
def check_slice_restriction_kahler(config, unit, q, a, b):
    omega_i = geometry.slice_restriction_kahler(unit, q, a, b)
    # |Omega| <= |H_q(a, b)|, which on the slice is Ghat's scale
    scale = _cauchy_schwarz(geometry.hyperbolic_metric, q, a, b)
    return (max_component_diff(geometry.slice_kahler(q, a, b),
                               unit * omega_i) / scale,
            1e-13 * _rtol_scale(config))


@_row("geometry", "segment-length",
      "radial segments have hyperbolic length atanh(r) under both metrics")
def check_segment_length(config, rng):
    allowed = 1e-6 * _rtol_scale(config)
    for r in (0.3, 0.5, 0.7):
        unit = random_imaginary_unit(rng)
        target = math.atanh(r)
        pts = unit * (r * np.arange(4001) / 4000.0)
        for metric in ("Ghat", "G"):
            yield abs(geometry.curve_length(pts, metric) - target), allowed


@_row("geometry", "distance-self",
      "the geodesic estimate between a point and itself is 0")
def check_distance_self(config, rng):
    for _ in range(3):
        p = _ball(rng, 0.9)
        res = geometry.distance_estimate(p, p)
        yield res.distance, 1e-9
        if not res.converged:
            yield math.inf, 1.0


# ---------------------------------------------------------------- hardy

@_row("hardy", "delta-origin", "delta(0, q) equals |q|", _ball_points(1))
def check_delta_origin(config, q):
    return abs(hardy.delta(ZERO, q) - abs(q)), 1e-10 * _rtol_scale(config)


@_row("hardy", "delta-symmetric", "delta is symmetric in its arguments",
      _ball_points(2))
def check_delta_symmetric(config, p, q):
    # exact: swapping p and q swaps the operands of sums and products only
    return abs(hardy.delta(p, q) - hardy.delta(q, p)), 1e-15


@_row("hardy", "delta-range", "delta takes values in [0, 1)",
      _ball_points(2))
def check_delta_range(config, p, q):
    d = hardy.delta(p, q)
    return np.maximum(np.maximum(-d, d - 1.0), 0.0), 1e-15


def _slice_pair(config, rng, n):
    unit = random_imaginary_unit(rng, size=n)
    return _slice_points(rng, unit, 0.9), _slice_points(rng, unit, 0.9)


@_row("hardy", "delta-slice-form",
      "on a common slice delta is the classical disk pseudo-hyperbolic "
      "distance", _slice_pair)
def check_delta_slice_form(config, p, q):
    xp, yp = slice_components(p)[:2]
    xq, yq = slice_components(q)[:2]
    # points share a slice, so the classical disk formula
    # |zq - zp| / |1 - zq conj(zp)| applies; in real arithmetic, since
    # numpy's complex product and abs round unlike Python's
    dx, dy = xq - xp, yq - yp
    re = 1.0 - (xq * xp + yq * yp)
    im = yq * xp - xq * yp
    closed = np.sqrt((dx * dx + dy * dy) / (re * re + im * im))
    return abs(hardy.delta(p, q) - closed), 1e-9 * _rtol_scale(config)


@_row("hardy", "delta-triangle", "delta satisfies the triangle inequality",
      _ball_points(3), count=10)
def check_delta_triangle(config, p, q, r):
    # each delta is within about 1e-16 / (1 - |q|^2) of exact: under
    # 5e-14 in the ball |q| <= 0.999 of the default margin
    excess = hardy.delta(p, r) - hardy.delta(p, q) - hardy.delta(q, r)
    return np.maximum(excess, 0.0), 1e-12


def _disk_div(ax, ay, bx, by):
    """(ax + i ay) / (bx + i by) in real arithmetic, per element for
    arrays, since numpy's complex division rounds unlike Python's."""
    d = bx * bx + by * by
    return (ax * bx + ay * by) / d, (ay * bx - ax * by) / d


def _disk_points(rng, n, radius):
    """Real and imaginary parts of n points uniform in the disk of the
    given radius, in polar coordinates."""
    r = radius * np.sqrt(rng.random(n))
    t = 2.0 * math.pi * rng.random(n)
    return r * np.cos(t), r * np.sin(t)


def _geodesic_triples(config, rng, n):
    """n draws of p, q, r on one random slice, p and r uniform in its
    disk of radius 0.9 and q = phi_p^{-1}(t phi_p(r)) with t uniform in
    [0, 1), phi_p(z) = (z - p) / (1 - conj(p) z): q lies on the
    hyperbolic geodesic from p to r."""
    unit = random_imaginary_unit(rng, size=n)
    xp, yp = _disk_points(rng, n, 0.9)
    xr, yr = _disk_points(rng, n, 0.9)
    t = rng.random(n)
    wx, wy = _disk_div(xr - xp, yr - yp, 1.0 - (xp * xr + yp * yr),
                       yp * xr - xp * yr)
    wx, wy = t * wx, t * wy
    xq, yq = _disk_div(wx + xp, wy + yp, 1.0 + (xp * wx + yp * wy),
                       xp * wy - yp * wx)
    return tuple(Quaternion(x, y * unit.x, y * unit.y, y * unit.z)
                 for x, y in ((xp, yp), (xq, yq), (xr, yr)))


@_row("hardy", "geodesic-additivity",
      "along a geodesic delta(p, r) = (a + b) / (1 + a b) with "
      "a = delta(p, q) and b = delta(q, r)", _geodesic_triples)
def check_geodesic_additivity(config, p, q, r):
    # on a geodesic the strong triangle inequality
    # delta(p, r) <= (a + b) / (1 + a b), a = delta(p, q), b = delta(q, r),
    # is an equality; a relative defect e in delta moves it by about
    # e delta(p, r) 2 a b / (1 + a b), far more than its round-off
    a, b = hardy.delta(p, q), hardy.delta(q, r)
    return abs(hardy.delta(p, r) - (a + b) / (1.0 + a * b)), 5e-14


def _slice_probe(config, rng, n):
    unit = random_imaginary_unit(rng, size=n)
    return _slice_points(rng, unit, 0.8), _slice_tangents(rng, unit)


# decorators apply from the bottom up: the slice row is registered first
@_row("hardy", "infinitesimal-ratio",
      "in every tangent direction the infinitesimal form of delta is "
      "sqrt(G)", lambda config, rng, n: (_ball(rng, 0.8, n),
                                         random_tangent(rng, size=n)),
      per=50, floor=3)
@_row("hardy", "infinitesimal-slice-ratio",
      "on slices the infinitesimal form of delta is the split tangent "
      "norm", _slice_probe, per=50, floor=3)
def check_infinitesimal_ratio(config, q, a):
    # an inconclusive probe counts as an infinite error
    probe = hardy.infinitesimal_ratio(q, a)
    return _masked(np.where(probe.conclusive, abs(probe.ratio - 1.0),
                            math.inf),
                   1e-4 * _rtol_scale(config), abs(a) >= 1e-3)


# -------------------------------------------------------------- running

def _rng_for(seed, suite, name):
    key = zlib.crc32(("%s/%s" % (suite, name)).encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def _matches(check, pattern):
    if pattern is None:
        return True
    full = "%s/%s" % (check.suite, check.name)
    return pattern in full


def _run_check(check, config):
    rng = _rng_for(config.seed, check.suite, check.name)
    count, ratio, details = 0, -math.inf, {}
    error = allowed = math.nan
    try:
        for block in check.fn(config, rng):
            e, a = (np.ravel(v) for v in np.broadcast_arrays(*block))
            count += e.size
            if not e.size:
                continue
            with np.errstate(all="ignore"):
                r = e / a
            # later ties win; a NaN ratio is worse than any number
            nan = np.isnan(r)
            i = np.flatnonzero(nan if nan.any() else r == r.max())[-1]
            if r[i] >= ratio or nan[i]:
                ratio, error, allowed = float(r[i]), float(e[i]), float(a[i])
    except Exception as exc:
        ratio = error = allowed = math.nan
        details = {"error": "%s: %s" % (type(exc).__name__, exc)}
    return CheckResult(suite=check.suite, name=check.name, claim=check.claim,
                       samples=count, max_error=error, tolerance=allowed,
                       passed=count > 0 and ratio <= 1.0, details=details)


def run_checks(config=None, pattern=None):
    """Run all (or the matching) checks; returns CheckResult list.

    A check yields blocks (errors, allowed), two arrays that broadcast
    together or two numbers, one compared value per element.  Its row
    counts the elements as samples, reports the worst ratio error /
    allowed (the last among ties, in yield and row-major order), and
    passes when that ratio is at most 1.  A NaN ratio is worse than any
    number, and a zero allowed gives an infinite or NaN ratio.  A check
    that yields nothing fails.  A check that raises gives a failed row
    with NaN error and tolerance and details {"error": "<Type>:
    <message>"}, counting the blocks before the raise; the other checks
    still run.
    """
    config = config or RunConfig()
    return [_run_check(check, config) for check in CHECKS
            if _matches(check, pattern)]
