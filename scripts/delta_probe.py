"""Tabulate how the kernel truncation order of delta grows as both points
approach the boundary.

The infinitesimal form of delta is a verify check,
`sliceball verify hardy/infinitesimal`.
"""
import argparse

from sliceball import Quaternion, truncation_for


def probe_truncation(tol):
    print("# truncation order as the pair approaches the boundary")
    print("%8s %10s %14s" % ("radius", "order", "tail bound"))
    for r in (0.5, 0.7, 0.9, 0.99, 0.999):
        p = Quaternion(r)
        q = Quaternion(0.0, r, 0.0, 0.0)
        trunc = truncation_for(p, q, tol)
        print("%8.3f %10d %14.3e" % (r, trunc.order, trunc.tail_bound))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args()
    probe_truncation(args.tol)


if __name__ == "__main__":
    main()
