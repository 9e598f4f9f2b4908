"""50-digit reference value of the pseudo-hyperbolic distance delta.

The kernel pairing <k_p, k_q> = sum_n q^n conj(p)^n splits, in the slice
coordinates q = x_q + y_q I and p = x_p + y_p J, into four real series
sum Re/Im(z^n) Re/Im(w^n) with z = x_q + i y_q and w = x_p - i y_p.  Each
is a combination of the complex geometric series sum (a b)^n = 1/(1 - ab)
over a in {z, conj z}, b in {w, conj w}, so the whole pairing has a
closed form with no truncation.  Evaluated at 50 significant digits the
cancellation in 1 - |cos|^2 for nearly equal points costs nothing.
"""
from __future__ import annotations

import mpmath

DIGITS = 50


def _mpf_components(q):
    return tuple(mpmath.mpf(c) for c in (q.w, q.x, q.y, q.z))


def _slice_coords(w, x, y, z):
    # q = w + r U with r >= 0; real points take U = i, as the library does
    r = mpmath.sqrt(x * x + y * y + z * z)
    if r == 0:
        return w, r, (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0))
    return w, r, (x / r, y / r, z / r)


def kernel_pairing(p, q):
    """<k_p, k_q> as four mpf components (w, x, y, z)."""
    xq, yq, u = _slice_coords(*_mpf_components(q))
    xp, yp, v = _slice_coords(*_mpf_components(p))
    z = mpmath.mpc(xq, yq)
    w = mpmath.mpc(xp, -yp)
    zc, wc = mpmath.conj(z), mpmath.conj(w)
    g1 = 1 / (1 - z * w)
    g2 = 1 / (1 - z * wc)
    g3 = 1 / (1 - zc * w)
    g4 = 1 / (1 - zc * wc)
    s00 = ((g1 + g2 + g3 + g4) / 4).real
    s01 = ((g1 - g2 + g3 - g4) / 4).imag
    s10 = ((g1 + g2 - g3 - g4) / 4).imag
    s11 = -((g1 - g2 - g3 + g4) / 4).real
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    cross = (u[1] * v[2] - u[2] * v[1],
             u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    return (s00 - s11 * dot,) + tuple(
        s01 * v[k] + s10 * u[k] + s11 * cross[k] for k in range(3))


def delta(p, q):
    """delta(p, q) = sqrt(1 - |<k_p, k_q>|^2 (1 - |p|^2)(1 - |q|^2)) as mpf."""
    with mpmath.workdps(DIGITS):
        inner = kernel_pairing(p, q)
        norm_p = sum(c * c for c in _mpf_components(p))
        norm_q = sum(c * c for c in _mpf_components(q))
        cos_sq = sum(c * c for c in inner) * (1 - norm_p) * (1 - norm_q)
        return +mpmath.sqrt(max(1 - cos_sq, mpmath.mpf(0)))
