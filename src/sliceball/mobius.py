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

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BOUNDARY_MARGIN
from .errors import ConversionError, DomainError, PreconditionError
from .quat import (_UNIT_TOL, ONE, Quaternion, ZERO, any_of,
                   max_component_diff, outside_ball, random_unit_quaternion)
from .series import RegularPowerSeries

_NEWTON_CAP = 100
_NEWTON_DAMPING = 0.5
_NEWTON_RESIDUAL = 5e-14

# the defining relations of SpOneOneMatrix, in the order of _deviations,
# and how far violated_relation lets each deviate
_RELATIONS = ("|a|^2 - |b|^2 = 1", "|d|^2 - |c|^2 = 1",
              "conj(a) c - conj(b) d = 0")
_RELATION_TOL = 1e-8

# normalize_pair: largest component difference of two zeros counted equal
_SAME_ZERO_TOL = 1e-10


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
        """Largest deviation from the three defining relations (NaN when
        any is NaN), per element for a batch of matrices."""
        devs = self._deviations()
        return np.maximum(np.maximum(devs[0], devs[1]), devs[2])

    def violated_relation(self):
        """Name of the first defining relation not within _RELATION_TOL
        (a NaN deviation counts as broken), or None."""
        for name, dev in zip(_RELATIONS, self._deviations()):
            if not dev <= _RELATION_TOL:
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


@dataclass(frozen=True, slots=True)
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


def regular_apply_via_series(m, q):
    """Same map through series primitives only, at |q| < 1 -
    DEFAULT_BOUNDARY_MARGIN.

    Uses f^{-*} * g = (1/f^s) . (f^c * g) pointwise: the slice scalar
    f^s(q)^{-1} multiplies the evaluated convolution f^c * g.
    """
    if outside_ball(q, 1.0 - DEFAULT_BOUNDARY_MARGIN):
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


def _quotient_terms(sym, num, v):
    # c2 = n2 - s2 v and c1 = n1 - s1 v at v = S(q)^{-1} N(q): S has
    # real coefficients, so the quotient rule
    #   d(S^{-1} N)(alpha) = S^{-1} dN(alpha) - S^{-1} dS(alpha) S^{-1} N,
    # with dS(alpha) = (q alpha + alpha q) s2 + alpha s1 and dN alike,
    # collects into S(q)^{-1} ((q alpha + alpha q) c2 + alpha c1)
    return (num.coeffs[2] - v * sym.coeffs[2].w,
            num.coeffs[1] - v * sym.coeffs[1].w)


def _newton_step(q, n, c2, c1):
    # the e with q e c2 + e b = -n, b = q c2 + c1, in the closed form
    # derived in matrix_to_canonical
    b = q * c2 + c1
    dot = b.w * c2.w + b.x * c2.x + b.y * c2.y + b.z * c2.z
    m = (q * q) * c2.norm_sq() + q * (2.0 * dot) + b.norm_sq()
    return m.inv() * -(q * n * c2.conj() + n * b.conj())


def matrix_regular_differential(A, q, alpha):
    """Directional derivative of rF_A at q in direction alpha.

    With rF_A = S^{-1} N for the series of matrix_regular_series, the
    quotient rule gives S(q)^{-1} ((q alpha + alpha q) c2 + alpha c1),
    where c2 = n2 - s2 v, c1 = n1 - s1 v and v = S(q)^{-1} N(q).
    """
    sym, num = matrix_regular_series(A)
    si = sym.eval(q).inv()
    c2, c1 = _quotient_terms(sym, num, si * num.eval(q))
    return si * ((q * alpha + alpha * q) * c2 + alpha * c1)


def _matrix_json(A):
    # A as the --matrix argument of `sliceball transform`; float repr
    # round-trips, so the JSON rebuilds A exactly
    return json.dumps({n: [float(v) for v in getattr(A, n).components()]
                       for n in "abcd"}, separators=(",", ":"))


def matrix_to_canonical(A):
    """Factor rF_A as the canonical pair (a, u).

    a is the unique zero of rF_A in the ball, located by damped Newton
    started at the zero -b a^{-1} of the classical map (|a| >= 1 for a
    valid matrix, so the start always exists; 0 is the fallback).  The
    unit u then comes from the differential at the zero: the canonical
    map has dF_a(1) = (1 - a^2)^{-1} (a^2 - 1) / (1 - |a|^2) . u
    = -u / (1 - |a|^2), which divides by nothing small for any a.

    With rF_A = S^{-1} N for the series S, N of matrix_regular_series,
    each iterate evaluates S(q)^{-1} and N(q) once: two Horner
    evaluations and one inversion.  The residual v = S(q)^{-1} N(q)
    gives c2 = n2 - s2 v and c1 = n1 - s1 v, and by the quotient rule
    dF_q(e) = S(q)^{-1} ((q e + e q) c2 + e c1).  S has real
    coefficients, so the Newton equation dF_q(e) = -v is the
    quaternion Sylvester equation

        q e c2 + e B = -N(q),   B = q c2 + c1.

    An equation p x + x b = c has the solution
    (p^2 + 2 Re(b) p + |b|^2)^{-1} (p c + c conj(b)): multiply it by p
    on the left and by conj(b) on the right, add the two, and use
    b + conj(b) = 2 Re(b).  Multiplying by conj(c2) on the right first,
    so that c2 is never inverted, gives the step

        e = m^{-1} (-q N(q) conj(c2) - N(q) conj(B)),
        m = |c2|^2 q^2 + 2 <B, c2> q + |B|^2,

    with < , > the dot product of R^4: 6 quaternion products and one
    inversion, equal to the step of the 4x4 real Jacobian up to
    rounding, and no linear algebra library.  m lies on the slice of q
    and is zero exactly when that Jacobian is singular; where |m| <=
    quat.EPS_ZERO the step raises SingularValueError (a singular
    Jacobian raised numpy's LinAlgError before).  What did not change:
    the start, each step damped by 0.5, an iterate that reaches the unit
    sphere clamped back inside it, and the stop at residual 5e-14 or
    after 100 iterations.

    The search does not always converge: it raised ConversionError on
    25 of 2000 random_sp11 draws at max_boost 1.5 and on 644 of 2000 at
    max_boost 3.  The message quotes A as the JSON object that
    `sliceball transform --matrix` takes, with floats in repr, so a
    failure can be replayed exactly.
    """
    violated = A.violated_relation()
    if violated:
        raise PreconditionError("matrix violates %s" % violated)
    sym, num = matrix_regular_series(A)

    try:
        q = -(A.b * A.a.inv())
        if abs(q) >= 1.0:
            q = ZERO
    except ArithmeticError:
        q = ZERO

    converged = False
    for _ in range(_NEWTON_CAP):
        si, nv = sym.eval(q).inv(), num.eval(q)
        val = si * nv
        if abs(val) <= _NEWTON_RESIDUAL:
            converged = True
            break
        step = _newton_step(q, nv, *_quotient_terms(sym, num, val))
        q = q + step * _NEWTON_DAMPING
        r = abs(q)
        if r >= 1.0 - 1e-9:
            q = q * ((1.0 - 1e-6) / r)
    if not converged:
        raise ConversionError(
            "zero search did not converge in %d iterations for --matrix %s"
            % (_NEWTON_CAP, _matrix_json(A)))

    # the last iterate is a, so si and val are S(a)^{-1} and rF_A(a);
    # u = -(1 - |a|^2) dF_a(1) with dF_a(1) = S(a)^{-1} ((a + a) c2 + c1),
    # and normalizing drops the positive factor 1 - |a|^2
    c2, c1 = _quotient_terms(sym, num, val)
    u = -(si * ((q + q) * c2 + c1))
    return RegularMobius(q, u / abs(u))


def normalize_pair(m1, m2):
    """Unit u with m1 = R_u after m2, for canonical maps sharing a zero."""
    if any_of(max_component_diff(m1.a, m2.a) > _SAME_ZERO_TOL):
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
    if abs(abs(u) - 1.0) > _UNIT_TOL:
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
