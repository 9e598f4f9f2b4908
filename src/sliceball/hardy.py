"""Hardy-space reproducing kernels and the pseudo-hyperbolic distance.

The reproducing kernel of the slice-regular Hardy space of the ball is
k_q(w) = sum_n w^n conj(q)^n, so inner products of kernels reduce to

    <k_p, k_q> = sum_n q^n conj(p)^n,      ||k_q||^2 = 1 / (1 - |q|^2),

and the pseudo-hyperbolic distance is the defect of the normalized
kernels from alignment:

    delta(p, q) = sqrt(1 - |<k_p/||k_p||, k_q/||k_q||>|^2).

The pairing is four geometric series on the slices of p and q, so delta
has a closed form (Arcozzi-Sarfatti, J. Geom. Anal. 2015), which delta
evaluates in O(1) with no truncation and no cancellation, for single
points and batches alike, in plain float (or array) arithmetic on the
slice coordinates of quat.slice_components.  Its real-axis rule,
quat._REAL_AXIS, was chosen for delta, and its comment gives the
reasons.  Its error is about
1e-16 / (1 - max(|p|, |q|)^2), nearly all from forming 1 - |q|^2 and
1 - |p|^2; rounding the components of q alone moves delta that much
near the boundary, also for points next to the real axis.  kernel_inner
sums the pairing directly to an order that truncation_for picks: the
reference tests compare delta against.

delta(0, q) = |q|, and on a common slice delta is the classical disk
pseudo-hyperbolic distance |p - q| / |1 - q conj(p)|.  The square root
of the split tangent norm is its infinitesimal form, probed here by
step extrapolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .geometry import arcozzi_sarfatti_norm
from .quat import Quaternion, any_of, outside_ball, slice_components, sqrt

_ORDER_CAP = 2_000_000
_TRUNCATION_TOL = 1e-10     # default tail bound of truncation_for

# infinitesimal_ratio: the decreasing steps t of delta(q, q + t alpha) / t
_PROBE_STEPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def kernel_norm_sq(q):
    """||k_q||^2 = 1 / (1 - |q|^2)."""
    if outside_ball(q):
        raise DomainError("q must lie in the open unit ball")
    return 1.0 / (1.0 - q.norm_sq())


def kernel_inner(p, q, n_terms):
    """Truncated kernel pairing sum_{n=0}^{N} q^n conj(p)^n.

    Powers of a quaternion stay on its slice, so q^n and conj(p)^n are
    complex powers lifted back along the slice units of q and p; the
    whole sum collapses to four real dot products over n.
    """
    if outside_ball(p) or outside_ball(q):
        raise DomainError("p and q must lie in the open unit ball")
    xq, yq, u1, u2, u3 = slice_components(q)
    xp, yp, v1, v2, v3 = slice_components(p)
    n = np.arange(n_terms + 1)
    zq = complex(xq, yq) ** n
    zp = complex(xp, -yp) ** n          # conj(p) on the slice of p
    s00 = float(zq.real @ zp.real)
    s01 = float(zq.real @ zp.imag)
    s10 = float(zq.imag @ zp.real)
    s11 = float(zq.imag @ zp.imag)
    dot = u1 * v1 + u2 * v2 + u3 * v3
    cx = u2 * v3 - u3 * v2
    cy = u3 * v1 - u1 * v3
    cz = u1 * v2 - u2 * v1
    return Quaternion(s00 - s11 * dot,
                      s01 * v1 + s10 * u1 + s11 * cx,
                      s01 * v2 + s10 * u2 + s11 * cy,
                      s01 * v3 + s10 * u3 + s11 * cz)


@dataclass(frozen=True)
class KernelTruncation:
    """Truncation order with its a-priori geometric tail bound."""
    order: int
    tail_bound: float


def tail_bound(p, q, order):
    """(|p| |q|)^{order+1} / (1 - |p| |q|), bounding the omitted tail."""
    r = abs(p) * abs(q)
    if r < 1e-300:
        return 0.0
    return r ** (order + 1) / (1.0 - r)


def truncation_for(p, q, tol=_TRUNCATION_TOL):
    """Smallest order whose tail bound drops below tol."""
    if outside_ball(p) or outside_ball(q):
        raise DomainError("p and q must lie in the open unit ball")
    r = abs(p) * abs(q)
    if r < 1e-300:
        return KernelTruncation(order=0, tail_bound=0.0)
    n = max(0, int(math.ceil(math.log(tol * (1.0 - r)) / math.log(r))) - 1)
    while n <= _ORDER_CAP and tail_bound(p, q, n) >= tol:
        n += 1
    if n > _ORDER_CAP:
        raise DomainError(
            "points too close to the boundary for tolerance %g" % tol)
    while n > 0 and tail_bound(p, q, n - 1) < tol:
        n -= 1
    return KernelTruncation(order=n, tail_bound=tail_bound(p, q, n))


def delta(p, q):
    """Pseudo-hyperbolic distance between two points of the ball.

    With q = x_q + y_q u and p = x_p + y_p v in slice coordinates,
    z = x_q + i y_q and w = x_p + i y_p,

        delta^2 = |u + v|^2 / 4 * |z - w|^2 / |1 - z conj(w)|^2
                + |u - v|^2 / 4 * |z - conj(w)|^2 / |1 - z w|^2,

    where |1 - z conj(w)|^2 = |z - w|^2 + (1 - |z|^2)(1 - |w|^2) and
    |1 - z w|^2 = |z - conj(w)|^2 + (1 - |z|^2)(1 - |w|^2), with
    |z| = |q| and |w| = |p|.  Every term is a sum, product or quotient of
    nonnegative numbers, so nothing cancels between terms (delta(p, p)
    is exactly 0), and the cost does not depend on where p and q lie.
    p and q may be batches (array Quaternions of one shape, or one of
    them a single point); each element gets exactly the value of a
    scalar call.

    The evaluation is plain float (or array) arithmetic on slice
    coordinates; it builds no Quaternion.  The ball test reads |q|^2 >= 1,
    which holds exactly when |q| >= 1 since sqrt is correctly rounded
    and monotone.
    """
    nq = q.norm_sq()
    np_ = p.norm_sq()
    if any_of((nq >= 1.0) | (np_ >= 1.0)):
        raise DomainError("p and q must lie in the open unit ball")
    xq, yq, uq1, uq2, uq3 = slice_components(q)
    xp, yp, up1, up2, up3 = slice_components(p)
    dx = xq - xp
    dx2 = dx * dx
    dy = yq - yp
    sy = yq + yp
    near = dx2 + dy * dy                # |z - w|^2
    far = dx2 + sy * sy                 # |z - conj(w)|^2
    s = (1.0 - nq) * (1.0 - np_)
    c1, c2, c3 = uq1 + up1, uq2 + up2, uq3 + up3
    plus = c1 * c1 + c2 * c2 + c3 * c3  # |u + v|^2
    c1, c2, c3 = uq1 - up1, uq2 - up2, uq3 - up3
    minus = c1 * c1 + c2 * c2 + c3 * c3  # |u - v|^2
    d2 = 0.25 * (plus * near / (near + s) + minus * far / (far + s))
    return sqrt(d2)


def _neville_at_zero(ts, values):
    p = list(values)
    n = len(ts)
    prev = p[0]
    for level in range(1, n):
        for i in range(n - level):
            p[i] = (ts[i] * p[i + 1] - ts[i + level] * p[i]) \
                / (ts[i] - ts[i + level])
        prev = p[1] if n - level > 1 else prev
    return p[0], abs(p[0] - prev)


@dataclass(frozen=True)
class InfinitesimalProbe:
    """Extrapolated limit of delta(q, q + t alpha) / t with the tangent
    norm it should reproduce.  For a batch each field is an array with
    one value per element, and step_values a tuple of them."""
    limit: float
    norm: float
    ratio: float
    conclusive: bool
    step_values: tuple


def infinitesimal_ratio(q, alpha):
    """Probe the infinitesimal form of delta along alpha at q.

    Evaluates delta(q, q + t alpha) / t on the decreasing steps
    _PROBE_STEPS and extrapolates the polynomial error model to t = 0.
    The reported ratio compares the limit to sqrt of the split tangent
    norm; the probe is conclusive when the extrapolation table has
    settled.  q and alpha may be batches; each element gets exactly the
    value of a scalar call, and the guards fail when any element fails.
    """
    if any_of(abs(alpha) <= 1e-12):
        raise PreconditionError("probe direction must be nonzero")
    if outside_ball(q):
        raise DomainError("q must lie in the open unit ball")
    if outside_ball(q + alpha * _PROBE_STEPS[0]):
        raise DomainError("largest probe step leaves the unit ball")
    values = tuple(delta(q, q + alpha * t) / t for t in _PROBE_STEPS)
    limit, settle = _neville_at_zero(_PROBE_STEPS, values)
    # positive, since G is positive definite and |alpha| > 1e-12
    norm = sqrt(arcozzi_sarfatti_norm(q, alpha))
    conclusive = (settle <= 1e-5 * (abs(limit) + 1.0)) & (limit > 0.0)
    return InfinitesimalProbe(limit=limit, norm=norm, ratio=limit / norm,
                              conclusive=conclusive, step_values=values)
