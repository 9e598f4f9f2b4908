"""Quaternion arithmetic, slice decomposition and seeded samplers.

A quaternion q = w + x i + y j + z k is stored as four real components.
Every point q with nonreal part lies on exactly one complex slice
C_I = {x + y I} where I is a unit imaginary quaternion (I^2 = -1);
slice_components, the one slice decomposition, gives q's slice
coordinates as plain numbers, and project_slice splits tangent vectors
into components parallel and orthogonal to a slice.

Components are Python floats, or numpy float64 arrays of one shape: a
Quaternion with array components is a batch of quaternions.  A formula
built from the arithmetic operators, abs and inv (such as the closed-form
tensors in geometry) evaluates a batch elementwise with the same
arithmetic as a scalar call, and a validity check on a batch fails when
any element fails.  im_norm, max_component_diff and slice_components
also take batches (one value per element, with the scalar rules applied
to each); comparisons take scalars only.  The samplers return one draw,
or with size=n a batch of n draws.

Other modules tell a scalar from a batch only through any_of and sqrt:
every validity check raises through any_of, and sqrt serves both.

Values are treated as immutable: all operations return new instances.
"""
from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_BOUNDARY_MARGIN
from .errors import DomainError, SingularValueError

EPS_ZERO = 1e-13            # magnitudes at or below this count as zero

# slice_components takes a point with |Im q| at or below this to be on
# the real axis.  The clamp moves delta by far less than its round-off,
# unlike EPS_ZERO's (p = 0.9 + 9e-14 i, q = 0.9 + 9e-14 j gave 0 for
# 6.7e-13); and unlike a literal 0 it keeps |Im q|^2 a normal float, so
# the slice unit Im q / |Im q| has full precision (p = 0.1 + 1e-160 i,
# q = 0.9 put delta off by 2.4e-6 with 0).
_REAL_AXIS = 1e-150

# how far a unit's |q| may be from 1 (is_imaginary_unit, and the unit u
# of conjugation_cu and rotation_ru), and an imaginary unit's Re q from 0
_UNIT_TOL = 1e-9

# real scalars; an array is a batch of them
_REAL = (int, float, np.ndarray)


class Quaternion:
    __slots__ = ("w", "x", "y", "z")

    # makes `ndarray op Quaternion` defer to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, _REAL):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, _REAL):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _REAL):
            return Quaternion(other - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self.w, self.x, self.y, self.z
            w2, x2, y2, z2 = other.w, other.x, other.y, other.z
            return Quaternion(
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            )
        if isinstance(other, _REAL):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # real scalars commute with every quaternion
        if isinstance(other, _REAL):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _REAL):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __pos__(self):
        return self

    def __abs__(self):
        return sqrt(self.norm_sq())

    def norm_sq(self):
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def inv(self):
        """Multiplicative inverse conj(q) / |q|^2."""
        n = self.norm_sq()
        if any_of(n <= EPS_ZERO * EPS_ZERO):
            raise SingularValueError(
                "cannot invert quaternion with |q| <= %g" % EPS_ZERO)
        return Quaternion(self.w / n, -self.x / n, -self.y / n, -self.z / n)

    # -- structure -----------------------------------------------------

    @property
    def re(self):
        return self.w

    @property
    def im(self):
        """Imaginary part as a quaternion (not a scalar)."""
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self):
        return sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def components(self):
        return (self.w, self.x, self.y, self.z)

    @classmethod
    def from_components(cls, seq):
        w, x, y, z = seq
        return cls(float(w), float(x), float(y), float(z))

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.w == other.w and self.x == other.x
                    and self.y == other.y and self.z == other.z)
        if isinstance(other, _REAL):
            return self.w == other and self.x == 0.0 and self.y == 0.0 \
                and self.z == 0.0
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "Quaternion(%r, %r, %r, %r)" % (self.w, self.x, self.y, self.z)


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def any_of(mask):
    """Whether mask holds: a bool, or for a batch whether any element
    does."""
    return mask is True or (mask is not False and bool(mask.any()))


def sqrt(x):
    """math.sqrt for a float, np.sqrt per element for an array."""
    try:
        return math.sqrt(x)
    except TypeError:
        # an array; math.sqrt goes first, as scalar delta takes three
        return np.sqrt(x)


def max_component_diff(p, q):
    """Largest |p - q| component, or NaN when any component differs by
    NaN; per element for a batch, an np.float64 for scalars."""
    return np.maximum(np.maximum(abs(p.w - q.w), abs(p.x - q.x)),
                      np.maximum(abs(p.y - q.y), abs(p.z - q.z)))


def outside_ball(q, radius=1.0):
    """Whether |q| >= radius; a batch is outside when any element is."""
    return any_of(abs(q) >= radius)


def is_imaginary_unit(q):
    return abs(q.w) <= _UNIT_TOL and abs(abs(q) - 1.0) <= _UNIT_TOL


def as_imaginary_unit(q):
    """Validate and exactly normalize a unit imaginary quaternion."""
    if not is_imaginary_unit(q):
        raise DomainError("expected a unit imaginary quaternion, got %r" % (q,))
    n = q.im_norm()
    return Quaternion(0.0, q.x / n, q.y / n, q.z / n)


def slice_components(q):
    """Slice coordinates of q as plain numbers (x, y, ux, uy, uz):
    q = x + y I with y = |Im q| >= 0 and I = ux i + uy j + uz k.

    Real axis points (y <= _REAL_AXIS) sit on every slice; the unit is i
    there and y is exactly 0.  For a batch each number is an array and
    the rule holds per element.
    """
    y = q.im_norm()
    real = y <= _REAL_AXIS
    if real is not False:
        if isinstance(real, np.ndarray):
            # a batch: the same rule per element, dividing no element by zero
            y = np.where(real, 0.0, y)
            d = np.where(real, 1.0, y)
            return (q.w, y, np.where(real, 1.0, q.x / d),
                    np.where(real, 0.0, q.y / d),
                    np.where(real, 0.0, q.z / d))
        if real:
            return q.w, 0.0, 1.0, 0.0, 0.0
    return q.w, y, q.x / y, q.y / y, q.z / y


def project_slice(unit, alpha):
    """Split alpha into its component in C_I and the orthogonal complement.

    pi_I(alpha) = (alpha - I alpha I) / 2 commutes with I,
    pi_I_perp(alpha) = (alpha + I alpha I) / 2 anticommutes with I,
    and the two are orthogonal for Re(a conj(b)).
    """
    s = unit * alpha * unit
    return (alpha - s) * 0.5, (alpha + s) * 0.5


# -- samplers ----------------------------------------------------------
# All sampling goes through an explicit numpy Generator so runs are
# reproducible from a seed alone.  A scalar call returns plain float
# components; size=n returns an array Quaternion of n draws, made from
# one standard_normal((n, d)) call (plus random(n) for a radius), far
# cheaper than n scalar calls.  Only random_tangent's batch equals n
# scalar calls bit for bit; the other batches draw the same
# distribution, but use the generator's output in another order or
# round it differently.

def random_ball_point(rng, margin=DEFAULT_BOUNDARY_MARGIN, size=None):
    """Uniform draw from the solid ball |q| <= 1 - margin."""
    v = _unit_vectors(rng, 4, size)
    r = (1.0 - margin) * rng.random(size) ** 0.25
    return Quaternion(r * v[0], r * v[1], r * v[2], r * v[3])


def random_imaginary_unit(rng, size=None):
    v = _unit_vectors(rng, 3, size)
    return Quaternion(0.0 if size is None else np.zeros(size), *v)


def random_unit_quaternion(rng, size=None):
    return Quaternion(*_unit_vectors(rng, 4, size))


def random_tangent(rng, size=None):
    """Standard Gaussian 4-vector, the generic tangent direction."""
    if size is None:
        g = rng.standard_normal(4)
        return Quaternion(float(g[0]), float(g[1]), float(g[2]), float(g[3]))
    return Quaternion(*np.ascontiguousarray(rng.standard_normal((size, 4)).T))


def _unit_vectors(rng, dim, size):
    """One uniform unit vector of R^dim as a list of floats, or with
    size=n the components of n of them as dim arrays."""
    if size is None:
        while True:
            g = rng.standard_normal(dim)
            n = math.sqrt(float(g @ g))
            if n > 1e-12:
                return [float(c) / n for c in g]
    # no redraw: a norm at or below 1e-12 has probability below 1e-35
    g = rng.standard_normal((size, dim))
    n = np.sqrt(np.einsum("ij,ij->i", g, g))
    return np.ascontiguousarray((g / n[:, None]).T)
