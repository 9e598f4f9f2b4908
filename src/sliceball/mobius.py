"""Classical and regular Moebius transformations of the unit ball.

A matrix A = [[a, c], [b, d]] with quaternion entries belongs to the
symmetry group of the ball when A^* diag(1,-1) A = diag(1,-1), i.e.

    |a|^2 - |b|^2 = 1,   |d|^2 - |c|^2 = 1,   conj(a) c - conj(b) d = 0.

The classical transformation F_A(q) = (qc + d)^{-1} (qa + b) preserves
the ball but is not slice regular.  Its regular counterpart replaces
the quotient with the *-inverse,

    rF_A(q) = (qc + d)^{-*} * (qa + b),

and every such map factors uniquely through the canonical form

    rF(q) = (q conj(a) - 1)^{-*} * (q - a) . u,   |a| < 1, |u| = 1,

where a is the unique zero in the ball and u a unit constant acting by
right multiplication.  matrix_to_canonical recovers (a, u) numerically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BOUNDARY_MARGIN
from .errors import ConversionError, DomainError, PreconditionError
from .quat import (I, J, K, ONE, Quaternion, ZERO, max_component_diff,
                   outside_ball, random_unit_quaternion)
from .series import RegularPowerSeries

_NEWTON_CAP = 100
_NEWTON_DAMPING = 0.5
_NEWTON_RESIDUAL = 5e-14
_DEGENERATE_ZERO = 1e-8

# the defining relations of SpOneOneMatrix, in the order of _deviations
_RELATIONS = ("|a|^2 - |b|^2 = 1", "|d|^2 - |c|^2 = 1",
              "conj(a) c - conj(b) d = 0")


@dataclass(frozen=True)
class SpOneOneMatrix:
    """Ball symmetry matrix [[a, c], [b, d]] with quaternion entries."""
    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    def _deviations(self):
        # one entry per name in _RELATIONS
        a, b, c, d = self.a, self.b, self.c, self.d
        return (abs(a.norm_sq() - b.norm_sq() - 1.0),
                abs(d.norm_sq() - c.norm_sq() - 1.0),
                abs(a.conj() * c - b.conj() * d))

    def residual(self):
        """Largest deviation from the three defining relations; NaN when
        any deviation is NaN.  Per element for a batch of matrices."""
        devs = self._deviations()
        try:
            return math.nan if any(d != d for d in devs) else max(devs)
        except ValueError:
            # array entries: np.maximum keeps a NaN
            return np.maximum(np.maximum(devs[0], devs[1]), devs[2])

    def is_valid(self, tol=1e-10):
        return self.residual() <= tol

    def violated_relation(self, tol):
        """Name of the first defining relation not within tol (a NaN
        deviation counts as broken), or None."""
        for name, dev in zip(_RELATIONS, self._deviations()):
            if not dev <= tol:
                return name
        return None

    @classmethod
    def identity(cls):
        return cls(ONE, ZERO, ZERO, ONE)

    @classmethod
    def diagonal(cls, u, v):
        return cls(u, ZERO, ZERO, v)


def classical_apply(A, q):
    """F_A(q) = (qc + d)^{-1} (qa + b)."""
    if outside_ball(q):
        raise DomainError("classical transformation is applied inside the ball")
    return (q * A.c + A.d).inv() * (q * A.a + A.b)


def classical_differential(A, q, alpha):
    """Directional derivative of F_A at q, by the quotient rule."""
    den = (q * A.c + A.d).inv()
    num = q * A.a + A.b
    return -(den * (alpha * A.c) * den * num) + den * (alpha * A.a)


@dataclass(frozen=True)
class RegularMobius:
    """Canonical pair (a, u): q -> (q conj(a) - 1)^{-*} * (q - a) . u."""
    a: Quaternion
    u: Quaternion


def regular_apply(m, q):
    """Closed-form evaluation of the canonical regular transformation.

    Expanding the *-quotient gives the one-line rational form

        (q^2 |a|^2 - 2 q Re(a) + 1)^{-1} (q^2 a - q (a^2 + 1) + a) u.
    """
    if outside_ball(q):
        raise DomainError("regular transformation is applied inside the ball")
    a = m.a
    q2 = q * q
    den = q2 * a.norm_sq() - q * (2.0 * a.w) + 1
    num = q2 * a - q * (a * a + 1) + a
    return den.inv() * num * m.u


def _linear_factor_series(m):
    # f(q) = q conj(a) - 1 and g(q) = q - a for the canonical pair
    f = RegularPowerSeries([-ONE, m.a.conj()])
    g = RegularPowerSeries([-m.a, ONE])
    return f, g


def regular_apply_via_series(m, q, margin=DEFAULT_BOUNDARY_MARGIN):
    """Same map through series primitives only.

    Uses f^{-*} * g = (1/f^s) . (f^c * g) pointwise: the slice scalar
    f^s(q)^{-1} multiplies the evaluated convolution f^c * g.
    """
    if outside_ball(q, 1.0 - margin):
        raise DomainError("series evaluation stays a margin inside the ball")
    f, g = _linear_factor_series(m)
    sym = f.symmetrize()
    num = f.conjugate().star(g)
    return sym.eval(q).inv() * num.eval(q) * m.u


def regular_differential(m, q, alpha):
    """Directional derivative of the canonical map at any q in the ball.

    Differentiates the rational closed form; d(q^2) applied to alpha is
    q alpha + alpha q (order matters).  At q = a it reduces to

        (1 - a^2)^{-1} (a alpha a - alpha) / (1 - |a|^2) . u.
    """
    a = m.a
    q2 = q * q
    sym = q * alpha + alpha * q
    den = q2 * a.norm_sq() - q * (2.0 * a.w) + 1
    num = q2 * a - q * (a * a + 1) + a
    dden = sym * a.norm_sq() - alpha * (2.0 * a.w)
    dnum = sym * a - alpha * (a * a + 1)
    di = den.inv()
    return (di * dnum - di * dden * di * num) * m.u


def matrix_regular_series(A):
    """Symmetrization and convolution series of rF_A = (qc+d)^{-*} * (qa+b).

    With f = d + qc and g = b + qa both are quadratic, and are written
    out in closed form:

        f^s     = d conj(d) + q (d conj(c) + c conj(d)) + q^2 c conj(c),
        f^c * g = conj(d) b + q (conj(d) a + conj(c) b) + q^2 conj(c) a.

    Each coefficient adds its terms to ZERO in the order of the
    *-product, so every component, signed zeros included, equals that
    of f.symmetrize() and f.conjugate().star(g), without the *-product's
    cost on scalar entries.
    """
    a, b, c, d = A.a, A.b, A.c, A.d
    cc, dc = c.conj(), d.conj()
    sym = RegularPowerSeries([ZERO + d * dc, ZERO + d * cc + c * dc,
                              ZERO + c * cc])
    num = RegularPowerSeries([ZERO + dc * b, ZERO + dc * a + cc * b,
                              ZERO + cc * a])
    return sym, num


def matrix_regular_apply(A, q):
    """Evaluate the regular transformation of a matrix through its series."""
    if outside_ball(q):
        raise DomainError("regular transformation is applied inside the ball")
    sym, num = matrix_regular_series(A)
    return sym.eval(q).inv() * num.eval(q)


def _matrix_regular_differential(sym, num, q, alpha, si, nv):
    # derivative of S(q)^{-1} N(q) for quadratic S (real coeffs) and N,
    # given si = S(q)^{-1} and nv = N(q)
    s1, s2 = sym.coeffs[1].w, sym.coeffs[2].w
    n1, n2 = num.coeffs[1], num.coeffs[2]
    pair = q * alpha + alpha * q
    ds = pair * s2 + alpha * s1
    dn = pair * n2 + alpha * n1
    return si * dn - si * ds * si * nv


def matrix_regular_differential(A, q, alpha):
    sym, num = matrix_regular_series(A)
    return _matrix_regular_differential(sym, num, q, alpha,
                                        sym.eval(q).inv(), num.eval(q))


def matrix_to_canonical(A):
    """Factor rF_A as the canonical pair (a, u).

    a is the unique zero of rF_A in the ball, located by damped Newton
    started at the zero -b a^{-1} of the classical map (|a| >= 1 for a
    valid matrix, so the start always exists; 0 is the fallback).  The
    unit u then comes from rF_A(0) = a u, or from the differential at
    the zero when a is numerically 0, since rF(q) = -q u there.

    With rF_A = S^{-1} N for the series S, N of matrix_regular_series,
    each iterate evaluates S(q)^{-1} and N(q) once, and the residual and
    the four Jacobian columns share them, as does the differential for
    u at a numerically zero a: two Horner evaluations and one inversion
    per iterate.
    """
    if not A.is_valid(1e-8):
        raise PreconditionError(
            "matrix violates %s" % A.violated_relation(1e-8))
    sym, num = matrix_regular_series(A)

    try:
        q = -(A.b * A.a.inv())
        if abs(q) >= 1.0:
            q = ZERO
    except ArithmeticError:
        q = ZERO

    basis = (ONE, I, J, K)
    converged = False
    for _ in range(_NEWTON_CAP):
        si, nv = sym.eval(q).inv(), num.eval(q)
        val = si * nv
        if abs(val) <= _NEWTON_RESIDUAL:
            converged = True
            break
        cols = [_matrix_regular_differential(sym, num, q, e, si, nv)
                for e in basis]
        jac = np.array([[c.w for c in cols], [c.x for c in cols],
                        [c.y for c in cols], [c.z for c in cols]])
        rhs = -np.array(val.components())
        step = np.linalg.solve(jac, rhs)
        q = q + Quaternion(*(float(s) * _NEWTON_DAMPING for s in step))
        r = abs(q)
        if r >= 1.0 - 1e-9:
            q = q * ((1.0 - 1e-6) / r)
    if not converged:
        raise ConversionError("zero search did not converge in %d iterations"
                              % _NEWTON_CAP)

    a = q
    if abs(a) > _DEGENERATE_ZERO:
        u = a.inv() * (A.d.inv() * A.b)
    else:
        # the last iterate is a, so si and nv are S(a)^{-1} and N(a)
        u = -_matrix_regular_differential(sym, num, a, ONE, si, nv) \
            * (1.0 - a.norm_sq())
    u = u / abs(u)
    return RegularMobius(a, u)


def normalize_pair(m1, m2, tol=1e-10):
    """Unit u with m1 = R_u after m2, for canonical maps sharing a zero."""
    if np.any(max_component_diff(m1.a, m2.a) > tol):
        raise PreconditionError("canonical forms have different zeros")
    return m2.u.inv() * m1.u


def conjugation_cu(u, q):
    """C_u(q) = u^{-1} q u.  Slice preserving but not regular-linear."""
    _require_unit(u)
    return u.inv() * q * u


def rotation_ru(u, q):
    """R_u(q) = q u.  Regular, fixes 0."""
    _require_unit(u)
    return q * u


def _require_unit(u):
    if abs(abs(u) - 1.0) > 1e-9:
        raise PreconditionError("expected a unit quaternion, |u| = %g" % abs(u))


def random_sp11(rng, max_boost=1.5, size=None):
    """Random ball symmetry via the rotation-boost-rotation factorization.

    diag(u1, v1) . [[cosh t, sinh t], [sinh t, cosh t]] . diag(u2, v2)
    with unit quaternions on the diagonals and t uniform on [0, max_boost].
    size=n gives a batch of n matrices with array Quaternion entries.
    """
    u1 = random_unit_quaternion(rng, size)
    v1 = random_unit_quaternion(rng, size)
    u2 = random_unit_quaternion(rng, size)
    v2 = random_unit_quaternion(rng, size)
    if size is None:
        t = float(rng.uniform(0.0, max_boost))
        ch, sh = math.cosh(t), math.sinh(t)
    else:
        t = rng.uniform(0.0, max_boost, size)
        ch, sh = np.cosh(t), np.sinh(t)
    return SpOneOneMatrix(a=(u1 * u2) * ch, c=(u1 * v2) * sh,
                          b=(v1 * u2) * sh, d=(v1 * v2) * ch)
