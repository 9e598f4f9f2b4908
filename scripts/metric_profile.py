"""Profile the slice tensors along radial lines.

Tabulates Ghat, G for a slice tangent and a transverse tangent, and the
two split-norm pieces, as the base point moves toward the boundary
along a slice.  Shows the rate split between the hyperbolic weight
1/(1-|q|^2)^2 and the transverse weight 1/|1-q^2|^2, and ends with the
geodesic distance estimates on the slice next to the Ghat closed form
artanh(|p - q| / |1 - q conj(p)|) and delta, a lower bound for d_G.
"""
import argparse
import math

import numpy as np

from sliceball import (Quaternion, arcozzi_sarfatti_norm, delta,
                       distance_estimate, hyperbolic_metric, project_slice,
                       random_imaginary_unit, slice_riemannian)


def profile_radial(unit, angle, radii):
    trans = perp_direction(unit)
    print("# slice axis %s, ray angle %.2f" % (unit, angle))
    print("%8s %12s %12s %12s %12s" % ("r", "Ghat", "G_tangent",
                                       "G_transverse", "ratio"))
    for r in radii:
        q = Quaternion(r * math.cos(angle)) + (r * math.sin(angle)) * unit
        tangent = unit
        g_hat = hyperbolic_metric(q, tangent, tangent)
        g_tan = slice_riemannian(q, tangent, tangent)
        g_trn = slice_riemannian(q, trans, trans)
        print("%8.4f %12.5g %12.5g %12.5g %12.5g"
              % (r, g_hat, g_tan, g_trn, g_trn / g_tan))


def perp_direction(unit):
    # any unit imaginary axis orthogonal to the slice plane
    for cand in (Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1),
                 Quaternion(0, 1, 0, 0)):
        par, perp = project_slice(unit, cand)
        if abs(perp) > 0.5:
            return perp * (1.0 / abs(perp))
    raise AssertionError("no transverse direction found")


def compare_distances(unit, pairs):
    print("\n# geodesic estimates vs the Ghat closed form on the slice")
    print("%24s %12s %12s %12s %12s" % ("pair", "delta", "Ghat-closed",
                                        "Ghat-geo", "G-geo"))
    for x0, y0, x1, y1 in pairs:
        p = Quaternion(x0) + y0 * unit
        q = Quaternion(x1) + y1 * unit
        closed = math.atanh(abs(p - q) / abs(1 - q * p.conj()))
        ghat = distance_estimate(p, q, metric="Ghat")
        g = distance_estimate(p, q, metric="G")
        label = "(%.2f,%.2f)-(%.2f,%.2f)" % (x0, y0, x1, y1)
        print("%24s %12.6f %12.6f %12.6f %12.6f"
              % (label, delta(p, q), closed, ghat.distance, g.distance))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--angle", type=float, default=0.6,
                        help="ray angle inside the slice plane")
    parser.add_argument("--rmax", type=float, default=0.95)
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    unit = random_imaginary_unit(rng)
    radii = [args.rmax * (k + 1) / args.steps for k in range(args.steps)]
    profile_radial(unit, args.angle, radii)

    q = Quaternion(0.3) + 0.4 * unit
    print("\n# split norm pieces at q = 0.3 + 0.4 I")
    for label, v in (("tangent", unit), ("transverse", perp_direction(unit))):
        print("%12s |.|_q^2 = %.6f" % (label, arcozzi_sarfatti_norm(q, v)))

    compare_distances(unit, [(0.0, 0.0, 0.5, 0.0), (0.5, 0.0, 0.0, 0.5),
                             (-0.3, 0.2, 0.4, 0.4)])


if __name__ == "__main__":
    main()
