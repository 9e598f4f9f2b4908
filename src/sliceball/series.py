"""Truncated power series sum_n q^n a_n with quaternion coefficients.

Coefficients sit on the right of the powers; with that convention the
series are the polynomial slice-regular functions on the unit ball.
Pointwise products of two such functions are generally not regular, so
multiplication is the *-product (Cauchy convolution of coefficients).

The regular reciprocal f^{-*} is realized two ways: pointwise through
the identity f^{-*} = (1/f^s) f^c evaluated off the zero set of the
symmetrization f^s, and as a truncated series via recursive inversion
of the real-coefficient series f^s.

A batch of series is one series whose coefficients are array
Quaternions of one shape, as a batch of quaternions is one Quaternion:
every operation here acts on it elementwise, with the arithmetic of
scalar calls.  Series of different orders share a batch by padding the
shorter ones with zero coefficients, which changes no value of eval,
star or the reciprocal recursion.  A validity check on a batch fails
when any element fails.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_TRUNCATION
from .errors import DomainError, SingularValueError
from .quat import _REAL, EPS_ZERO, Quaternion, any_of, outside_ball


def _as_quat(c):
    if isinstance(c, Quaternion):
        return c
    if isinstance(c, _REAL):
        # a real array is a batch of real coefficients, as in Quaternion
        return Quaternion(1.0 * c, 0.0, 0.0, 0.0)
    return Quaternion.from_components(c)


class RegularPowerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(_as_quat(c) for c in coeffs)
        if not cs:
            cs = (Quaternion(0.0, 0.0, 0.0, 0.0),)
        self.coeffs = cs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def truncate(self, order):
        if order >= self.order:
            return self
        return RegularPowerSeries(self.coeffs[:order + 1])

    def eval(self, q):
        """Horner evaluation a_0 + q (a_1 + q (a_2 + ...)), |q| < 1."""
        if outside_ball(q):
            raise DomainError("series are functions on the open unit ball")
        acc = self.coeffs[-1]
        for a in reversed(self.coeffs[:-1]):
            acc = q * acc + a
        return acc

    __call__ = eval

    def star(self, other):
        """*-product: coefficient n is sum over k+l=n of a_k b_l.

        The coefficients of other are stacked on a leading axis, so each
        a_k takes one Hamilton product (Quaternion.__mul__) against all
        of them, which is added into coefficients k..k+len(b)-1.
        Coefficient n thus sums its terms from 0.0 in increasing k, the
        order of the double loop over k and l, so the result equals that
        loop's bit for bit, signed zeros included.  A scalar result has
        Python float components.
        """
        a, b = self.coeffs, other.coeffs
        shape = np.broadcast_shapes(*(np.shape(v) for c in a + b
                                      for v in c.components()))
        stacked = Quaternion(*(np.stack([np.broadcast_to(v, shape)
                                         for v in vs])
                               for vs in zip(*(c.components() for c in b))))
        out = np.zeros((4, len(a) + len(b) - 1) + shape)
        # overflow gives inf or NaN silently, as Python float arithmetic
        with np.errstate(all="ignore"):
            for k, ak in enumerate(a):
                for o, v in zip(out, (ak * stacked).components()):
                    o[k:k + len(b)] += v
        if not shape:
            out = out.tolist()
        return RegularPowerSeries([Quaternion(*c) for c in zip(*out)])

    def conjugate(self):
        """Regular conjugate f^c: conjugate each coefficient."""
        return RegularPowerSeries([a.conj() for a in self.coeffs])

    def symmetrize(self):
        """Symmetrization f^s = f * f^c = f^c * f; coefficients are real."""
        return self.star(self.conjugate())

    def eval_reciprocal(self, q):
        """Pointwise regular reciprocal f^{-*}(q) = f^s(q)^{-1} f^c(q).

        f^s has real coefficients, so f^s(q) lies on the slice of q and
        the left division is the scalar one of that slice.  Defined off
        the zero set Z_{f^s}.
        """
        sv = self.symmetrize().eval(q)
        if any_of(abs(sv) <= EPS_ZERO):
            raise SingularValueError(
                "q lies on the zero set Z_{f^s} of the symmetrization")
        return sv.inv() * self.conjugate().eval(q)

    def reciprocal_series(self, order=DEFAULT_TRUNCATION):
        """Truncated series of f^{-*} through the requested order.

        Inverts the real-coefficient series f^s by the convolution
        recursion, then *-multiplies by f^c.  Requires |f^s(0)| above
        the zero threshold.
        """
        sym = self.symmetrize()
        # real up to round-off; the recursion works on the real parts
        s = [c.w for c in sym.coeffs]
        if any_of(abs(s[0]) <= EPS_ZERO):
            raise SingularValueError(
                "symmetrization vanishes at 0; no reciprocal series")
        t = [1.0 / s[0]]
        for n in range(1, order + 1):
            acc = 0.0
            for k in range(1, min(n, len(s) - 1) + 1):
                acc += s[k] * t[n - k]
            t.append(-acc / s[0])
        inv_sym = RegularPowerSeries(t)
        return inv_sym.star(self.conjugate()).truncate(order)

    def __eq__(self, other):
        if isinstance(other, RegularPowerSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "RegularPowerSeries(%r)" % (list(self.coeffs),)
