"""Invariant metric structures on the unit ball of the quaternions.

Three tensors live on tangent pairs (q; alpha, beta):

* the hyperbolic metric Ghat_q(alpha, beta) = Re(alpha conj(beta)) /
  (1 - |q|^2)^2, the unique Riemannian metric invariant under every
  classical ball symmetry;

* the slice Hermitian form H, built so that the regular transformation
  vanishing at q becomes an isometry of the flat form at the origin:

      H_q(a, b) = (1-q^2)^{-1} (a - q a q) conj(b - q b q)
                  (1 - conj(q)^2)^{-1} / (1 - |q|^2)^2;

* its real and imaginary parts G = Re H (a Riemannian metric) and
  Omega = Im H (a nondegenerate 2-form with imaginary values).

G is not invariant under the full classical symmetry group; it differs
from Ghat by a correction supported off the slice of the base point,
and coincides with the norm induced by the Hardy-kernel distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .mobius import RegularMobius, regular_differential
from .quat import (I, J, K, ONE, Quaternion, any_of, outside_ball,
                   project_slice, slice_components)

_BASIS = (ONE, I, J, K)

# distance_estimate: interior points, difference step, steps per level
_GEODESIC_POINTS = 32
_GEODESIC_STEP = 1e-6
_GEODESIC_ITERATIONS = 200
_DIRECTIONS = Quaternion(*np.eye(4)[:, :, None])    # the basis, shape (4, 1)

# curve_length: segments per batched metric call; one call on all 4000
# segments of a fine polyline held enough temporaries to raise the peak
# memory of a verify run by about 0.7 MiB
_SEGMENT_BLOCK = 1000


def _check_base(q):
    if outside_ball(q):
        raise DomainError("tensor base point must lie in the open unit ball")


def _slice_unit(q):
    # the unit I of q = x + y I; 0.0 * y gives a batch an array real part
    _, y, ux, uy, uz = slice_components(q)
    return Quaternion(0.0 * y, ux, uy, uz)


def hyperbolic_metric(q, alpha, beta):
    """Ghat_q(alpha, beta) = Re(alpha conj(beta)) / (1 - |q|^2)^2."""
    _check_base(q)
    den = 1.0 - q.norm_sq()
    return (alpha * beta.conj()).w / (den * den)


def slice_hermitian(q, alpha, beta):
    """Closed form of the Hermitian tensor H at q."""
    _check_base(q)
    one_minus_q2 = 1 - q * q
    left = one_minus_q2.inv()
    ta = alpha - q * alpha * q
    tb = (beta - q * beta * q).conj()
    den = 1.0 - q.norm_sq()
    return left * ta * tb * left.conj() / (den * den)


def slice_hermitian_via_definition(q, alpha, beta, u=ONE):
    """H via its definition: push tangents with the regular map killing q.

    For any unit u the map rF = R_u after the canonical transformation
    with zero q is regular, sends q to 0, and

        H_q(alpha, beta) = d(rF)_q(alpha) . conj(d(rF)_q(beta)).

    The value is independent of u; computing with an explicit u and
    watching the cancellation is the well-definedness check.
    """
    _check_base(q)
    m = RegularMobius(q, u)
    da = regular_differential(m, q, alpha)
    db = regular_differential(m, q, beta)
    return da * db.conj()


def slice_riemannian(q, alpha, beta, formula="closed"):
    """G_q(alpha, beta) = Re H_q(alpha, beta), by one of two routes.

    formula="closed"     Re((a - q a q) conj(b - q b q)) over
                         |1 - q^2|^2 (1 - |q|^2)^2,
    formula="corrected"  Ghat plus the off-slice correction
                         4 |Im q|^2 Re(perp(a) perp(b)) /
                         (|1 - q^2|^2 (1 - |q|^2)^2).

    The real part of slice_hermitian is a third route to the same value.

    "corrected" splits Ghat along the slice of q.  Its off-slice part
    -Re(perp(a) perp(b)) / (1 - |q|^2)^2 and the correction are each
    O(1 / (1 - |q|^2)^2) and nearly cancel; since |1 - q^2|^2 -
    4 |Im q|^2 = (1 - |q|^2)^2 they sum to -Re(perp(a) perp(b)) /
    |1 - q^2|^2, which is evaluated as one term:

        Re(pi(a) conj(pi(b))) / (1 - |q|^2)^2
            - Re(perp(a) perp(b)) / |1 - q^2|^2.
    """
    _check_base(q)
    one_minus_q2 = 1 - q * q
    m2 = one_minus_q2.norm_sq()
    den = 1.0 - q.norm_sq()
    den2 = den * den
    if formula == "closed":
        ta = alpha - q * alpha * q
        tb = beta - q * beta * q
        return (ta * tb.conj()).w / (m2 * den2)
    if formula == "corrected":
        unit = _slice_unit(q)
        par_a, perp_a = project_slice(unit, alpha)
        par_b, perp_b = project_slice(unit, beta)
        # plain product here, not conj: perp parts anticommute with I
        return ((par_a * par_b.conj()).w / den2
                - (perp_a * perp_b).w / m2)
    raise ValueError("formula must be 'closed' or 'corrected'")


def arcozzi_sarfatti_norm(q, alpha):
    """Squared tangent norm splitting along the slice of q:

        |pi_I(alpha)|^2 / (1 - |q|^2)^2 + |perp_I(alpha)|^2 / |1 - q^2|^2.

    Equals G_q(alpha, alpha); the two conformal factors are tied by the
    scalar identity |1 - q^2|^2 - 4 |Im q|^2 = (1 - |q|^2)^2.
    """
    _check_base(q)
    par, perp = project_slice(_slice_unit(q), alpha)
    den = 1.0 - q.norm_sq()
    m2 = (1 - q * q).norm_sq()
    return par.norm_sq() / (den * den) + perp.norm_sq() / m2


def slice_kahler(q, alpha, beta):
    """Omega_q(alpha, beta) = Im H_q(alpha, beta), a purely imaginary
    quaternion; antisymmetric and nondegenerate."""
    return slice_hermitian(q, alpha, beta).im


@dataclass(frozen=True)
class TensorValue:
    """One evaluation of the Hermitian tensor with its decomposition
    H = G + Omega (g is the real part, omega the imaginary part)."""
    h: Quaternion
    g: float
    omega: Quaternion


def tensor_value(q, alpha, beta):
    h = slice_hermitian(q, alpha, beta)
    return TensorValue(h=h, g=h.w, omega=h.im)


def _require_on_slice(unit, label, value, tol=1e-12):
    size = abs(project_slice(unit, value)[1])
    if any_of(size > tol):
        raise PreconditionError(
            "%s has a component of size %g off the slice"
            % (label, np.max(size)))


def slice_restriction_kahler(unit, q, alpha, beta):
    """Scalar disk form omega_I on the slice: the I-component of
    Im(alpha conj(beta)) / (1 - |q|^2)^2.  The full form restricts as
    Omega = I . omega_I on C_I.
    """
    _check_base(q)
    for label, v in (("q", q), ("alpha", alpha), ("beta", beta)):
        _require_on_slice(unit, label, v)
    im = (alpha * beta.conj()).im
    coeff = im.x * unit.x + im.y * unit.y + im.z * unit.z
    den = 1.0 - q.norm_sq()
    return coeff / (den * den)


def representation_transform(u, tensor, q, alpha, beta):
    """Right side of the unit-conjugation representation formulas.

    With q' = u q u^{-1} and transported tangents a' = u alpha u^{-1},
    b' = u beta u^{-1}:

        G_q(a, b)     = G_q'(a', b')
        H_q(a, b)     = u^{-1} H_q'(a', b') u
        Omega_q(a, b) = u^{-1} Omega_q'(a', b') u
    """
    ui = u.inv()
    qt = u * q * ui
    at = u * alpha * ui
    bt = u * beta * ui
    if tensor == "G":
        return slice_riemannian(qt, at, bt)
    if tensor == "H":
        return ui * slice_hermitian(qt, at, bt) * u
    if tensor == "Omega":
        return ui * slice_kahler(qt, at, bt) * u
    raise ValueError("tensor must be 'G', 'H' or 'Omega'")


def kahler_rank(q):
    """Rank of alpha -> Omega_q(alpha, .) paired against the basis.

    Stacks the three imaginary components of Omega_q(e_n, e_m) into a
    12 x 4 real matrix; full rank 4 means nondegeneracy at q.  For a
    batch, an integer array with one rank per element.
    """
    rows = []
    for em in _BASIS:
        vals = [slice_kahler(q, en, em) for en in _BASIS]
        rows.append([v.x for v in vals])
        rows.append([v.y for v in vals])
        rows.append([v.z for v in vals])
    # a batch stacks one 12 x 4 matrix per element
    stack = np.moveaxis(np.array(rows), (0, 1), (-2, -1))
    ranks = np.linalg.matrix_rank(stack)
    return int(ranks) if ranks.ndim == 0 else ranks


@dataclass(frozen=True)
class NoninvarianceReport:
    """How far the diagonal symmetry alpha -> d^{-1} alpha a with
    |a| = |d| = 1 moves the flat forms Omega_0 and G_0 at the witness."""
    violation_found: bool
    witness_d: Quaternion
    witness_a: Quaternion
    omega_violation: float
    g_max_error: float


def noninvariance_witness():
    """Show Omega_0 / H_0 are not invariant under all diagonal
    symmetries while G_0 is, at the explicit witness d = i, a = 1,
    alpha = j, beta = 1 (Im flips j to -j).  The verify check
    origin-noninvariance-witness samples the invariance of G_0.
    """
    d, a, alpha, beta = I, ONE, J, ONE
    # change of the flat form H_0(alpha, beta) = alpha conj(beta)
    moved = ((d.inv() * alpha * a) * (d.inv() * beta * a).conj()
             - alpha * beta.conj())
    return NoninvarianceReport(
        violation_found=abs(moved.im) > 1e-6, witness_d=d, witness_a=a,
        omega_violation=abs(moved.im), g_max_error=abs(moved.w))


def curve_length(points, metric="G"):
    """Length of a polyline by the composite midpoint rule.

    points is one array Quaternion with 1-D components, one element per
    point, and at least two of them.
    Each segment contributes |v| sqrt of the metric at its midpoint in
    its own direction; refining the polyline converges to the smooth
    length.  metric is "G" or "Ghat".  The midpoints are evaluated in
    batches of at most _SEGMENT_BLOCK.
    """
    c = np.array(np.broadcast_arrays(*points.components()), dtype=float)
    if c.ndim != 2 or c.shape[1] < 2:
        raise PreconditionError("a curve needs at least two points")
    g = _metric_fn(metric)
    total = 0.0
    for start in range(0, c.shape[1] - 1, _SEGMENT_BLOCK):
        mid, v = _segments(c[:, start:start + _SEGMENT_BLOCK + 1])
        # cumsum adds left to right, as a loop over the segments would
        lengths = np.sqrt(np.maximum(g(mid, v, v), 0.0))
        total = np.cumsum(np.concatenate(([total], lengths)))[-1]
    return float(total)


def _metric_fn(metric):
    if metric == "G":
        return slice_riemannian
    if metric == "Ghat":
        return hyperbolic_metric
    raise ValueError("metric must be 'G' or 'Ghat'")


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    converged: bool
    iterations: int
    energy: float


def distance_estimate(p, q, metric="G"):
    """Geodesic distance estimate from a polyline of least energy.

    The polyline from p to q minimizes the sum of g(mid, v, v) over its
    segments (midpoint mid, vector v): 32 interior points, then 65 from
    the halved segments, and Richardson extrapolation of their lengths.
    Converged means the fine level stopped on its own test (see
    _descend), not on the iteration cap or on a step that stalled.

    Known limit: the estimate does not converge when both ends lie
    within about 1e-6 of the sphere.  p = 1 - 5e-7 and
    q = (1 - 5e-7) e^{0.001 i} give 2.32 under Ghat, with
    converged=False, against Ghat's closed form 7.60: the geodesic dips
    far into the ball, and the polyline, started on the chord at
    uniform spacing, cannot follow it.
    """
    if outside_ball(p) or outside_ball(q):
        raise DomainError("p and q must lie in the open unit ball")
    g = _metric_fn(metric)
    x = np.linspace(p.components(), q.components(), _GEODESIC_POINTS + 2,
                    axis=1)
    lengths, iterations = [], 0
    for level in range(2):
        if level:                               # halve every segment
            mid, _ = _segments(x)
            x = np.insert(x, range(1, x.shape[1]), mid.components(), axis=1)
        x, energy, steps, converged = _descend(g, x)
        iterations += steps
        lengths.append(curve_length(Quaternion(*x), metric))
    return DistanceResult((4.0 * lengths[1] - lengths[0]) / 3.0, converged,
                          iterations, energy)


def _segments(x):
    # midpoints and vectors of the polyline through the columns of x
    return Quaternion(*((x[:, :-1] + x[:, 1:]) * 0.5)), Quaternion(*np.diff(x))


def _energy(g, x):
    if outside_ball(Quaternion(*x)):
        return math.inf
    mid, v = _segments(x)
    return float(np.sum(g(mid, v, v)))


def _descend(g, x):
    """Move all interior points of the polyline x (shape (4, n + 2)) at
    once by Polak-Ribiere conjugate gradients, preconditioned by the
    energy's Hessian with the metric frozen at Ghat's conformal factor
    (a weighted tridiagonal Laplacian, near exact for Ghat).  A step
    halves until the energy drops, then moves to the vertex of the
    parabola through the energies if that is lower.  Converged means the
    predicted relative decrease fell below _GEODESIC_STEP^2, the central
    difference's relative error, or the step below the points' rounding.
    """
    energy, direction, last, last_decrease = _energy(g, x), 0.0, 0.0, math.inf
    for step in range(_GEODESIC_ITERATIONS):
        mid, v = _segments(x)
        # the metric varies on the scale 1 - |mid|^2, and so does the step
        h = _GEODESIC_STEP * (1.0 - mid.norm_sq())
        dmid = (g(mid + _DIRECTIONS * h, v, v)
                - g(mid - _DIRECTIONS * h, v, v)) / (4.0 * h)
        dv = 2.0 * g(mid, v, _DIRECTIONS)
        grad = dmid[:, :-1] + dmid[:, 1:] + dv[:, :-1] - dv[:, 1:]
        w = 2.0 * hyperbolic_metric(mid, ONE, ONE)
        lap = np.diag(w[:-1] + w[1:]) - np.diag(w[1:-1], 1) \
            - np.diag(w[1:-1], -1)
        pre = np.linalg.solve(lap, grad.T).T
        decrease = float(np.sum(grad * pre))
        if decrease <= _GEODESIC_STEP ** 2 * energy \
                or np.max(np.abs(pre)) <= np.finfo(float).eps:
            return x, energy, step, True
        beta = max(float(np.sum(grad * (pre - last))) / last_decrease, 0.0)
        direction = pre + beta * direction
        slope = float(np.sum(grad * direction))
        if slope <= 0.0:
            direction, slope = pre, decrease
        last, last_decrease = pre, decrease
        move = np.pad(direction, ((0, 0), (1, 1)))
        t = 1.0
        while not (lowered := _energy(g, x - t * move)) < energy:
            if (t := 0.5 * t) < _GEODESIC_STEP:
                return x, energy, step, False
        curvature = (lowered - energy + slope * t) / (t * t)
        vertex = slope / (2.0 * curvature) if curvature > 0.0 else t
        if (at_vertex := _energy(g, x - vertex * move)) < lowered:
            t, lowered = vertex, at_vertex
        x, energy = x - t * move, lowered
    return x, energy, _GEODESIC_ITERATIONS, False
