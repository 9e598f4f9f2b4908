"""Command line interface.

Subcommands: verify, sample-field, transform, distance, series.
Quaternions are written as 4-arrays [w, x, y, z] everywhere: flags,
JSON fields, CSV columns.  verify emits a JSON report grouped by suite
with one {name, claim, samples, max_error, tolerance, pass} row per
check.  Exit status is 0 when every requested check passes, 1 when a
check fails, 2 on usage or validation errors.  Each subcommand takes
only the flags it reads.  For verify, the environment variable
SLICEBALL_SEED overrides the default seed; an explicit --seed wins
over both.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shlex
import sys

import numpy as np

from .config import DEFAULT_TRUNCATION, RunConfig
from .errors import SingularValueError
from .geometry import hyperbolic_metric, tensor_value
from .hardy import delta
from .mobius import (RegularMobius, SpOneOneMatrix, classical_apply,
                     matrix_regular_apply, regular_apply)
from .quat import ZERO, Quaternion, as_imaginary_unit
from .series import RegularPowerSeries

_ENV_SEED = "SLICEBALL_SEED"


class UsageError(ValueError):
    pass


def _decode(text, label):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError("%s is not valid JSON: %s" % (label, e))


def _as_quat(data, label):
    # exact types keep out true/false; the comparison keeps out NaN and inf
    if isinstance(data, list) and len(data) == 4 and all(
            type(v) in (int, float) and -math.inf < v < math.inf
            for v in data):
        return Quaternion.from_components(data)
    raise UsageError("%s must be a 4-array [w, x, y, z]" % label)


def _parse_quat(text, label):
    return _as_quat(_decode(text, label), label)


def _parse_entries(text, label, names):
    """Decode a JSON object and return its named entries as quaternions."""
    data = _decode(text, label)
    if not isinstance(data, dict):
        raise UsageError("%s must be a JSON object" % label)
    missing = [n for n in names if n not in data]
    if missing:
        raise UsageError("%s needs entries %s (missing %s)"
                         % (label, ", ".join(names), ", ".join(missing)))
    return [_as_quat(data[n], "%s entry %s" % (label, n)) for n in names]


def _parse_series(text, label):
    data = _decode(text, label)
    coeffs = data.get("coeffs") if isinstance(data, dict) else None
    if not isinstance(coeffs, list) or not coeffs:
        raise UsageError('%s must look like {"coeffs": [[w,x,y,z], ...]}'
                         % label)
    return RegularPowerSeries([_as_quat(c, "%s coefficient %d" % (label, n))
                               for n, c in enumerate(coeffs)])


def _require_in_ball(q, label, name):
    """Reject a point outside the open unit ball, quoting its norm."""
    norm = abs(q)
    if norm >= 1.0:
        raise UsageError("%s must lie in the open unit ball: |%s| = %r"
                         % (label, name, norm))
    return q


def _quat_list(q):
    return [float(q.w), float(q.x), float(q.y), float(q.z)]


@contextlib.contextmanager
def _output(out_path):
    if out_path:
        with open(out_path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text, out_path):
    with _output(out_path) as fh:
        fh.write(text)


def _emit_json(payload, args, what, flags, indent=None):
    """Write payload as strict JSON (RFC 8259 has no NaN or infinity).

    A non-finite value in it, such as an overflow from finite inputs,
    is a usage error that names what was computed and quotes the input
    flags among `flags` that were given, so the call can be replayed.
    """
    try:
        text = json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError:
        given = " ".join("--%s %s" % (f, shlex.quote(str(getattr(args, f))))
                         for f in flags if getattr(args, f) is not None)
        raise UsageError("%s gave a non-finite result for %s"
                         % (what, given))
    _emit(text + "\n", args.out)


# ---------------------------------------------------------------- verify

def cmd_verify(args):
    # the suite loads here, so no other subcommand compiles it
    from .verify import run_checks
    seed = args.seed
    if seed is None:
        raw = os.environ.get(_ENV_SEED, RunConfig.seed)
        try:
            seed = int(raw)
        except ValueError:
            raise UsageError("%s must be an integer, got %r"
                             % (_ENV_SEED, raw))
    config = RunConfig(seed=seed, samples=args.samples, atol=args.atol,
                       rtol=args.rtol)
    results = run_checks(config, args.pattern)
    if not results:
        raise UsageError("no suite matches %r" % args.pattern)
    suites = []
    for r in results:
        row = {"name": r.name, "claim": r.claim, "samples": r.samples,
               "max_error": _json_number(r.max_error),
               "tolerance": _json_number(r.tolerance), "pass": r.passed}
        if r.details:
            row["details"] = r.details
        if not suites or suites[-1]["suite"] != r.suite:
            suites.append({"suite": r.suite, "checks": []})
        suites[-1]["checks"].append(row)
    failed = sum(1 for r in results if not r.passed)
    report = {"seed": config.seed, "samples": config.samples,
              "suites": suites, "checks": len(results),
              "passed": len(results) - failed, "failed": failed,
              "pass": failed == 0}
    _emit(json.dumps(report, indent=1, allow_nan=False) + "\n", args.out)
    return 0 if failed == 0 else 1


def _json_number(x):
    # JSON has no NaN or infinity (RFC 8259), so such a value is null
    return x if math.isfinite(x) else None


# ----------------------------------------------------------- sample-field

_PAIR_COLUMNS = tuple("%s_%s" % (v, c) for v in ("alpha", "beta")
                      for c in "wxyz")
_TENSOR_COLUMNS = _PAIR_COLUMNS + ("H_w", "H_x", "H_y", "H_z", "G",
                                   "Omega_x", "Omega_y", "Omega_z")
# the columns after q_w..q_z for each tensor; G, H and Omega share them
_FIELD_COLUMNS = {"G": _TENSOR_COLUMNS, "H": _TENSOR_COLUMNS,
                  "Omega": _TENSOR_COLUMNS, "Ghat": _PAIR_COLUMNS + ("Ghat",),
                  "delta0": ("delta0",)}


def _grid_coords(n):
    # n interior lattice points per axis on (-1, 1)
    return -1.0 + 2.0 * np.arange(1, n + 1) / (n + 1)


def cmd_sample_field(args):
    unit = as_imaginary_unit(_parse_quat(args.slice, "--slice"))
    offset = _parse_quat(args.offset, "--offset") if args.offset else None
    alpha = _parse_quat(args.alpha, "--alpha")
    beta = _parse_quat(args.beta, "--beta")
    if args.grid < 1:
        raise UsageError("--grid must be at least 1")
    columns = ("q_w", "q_x", "q_y", "q_z") + _FIELD_COLUMNS[args.tensor]

    # the grid as one batch: q_w varies with x alone (axis 0) and q_x..q_z
    # with y alone (axis 1), so each is formatted once per grid line
    coords = _grid_coords(args.grid)
    x, y = coords[:, None], coords[None, :]
    grid = Quaternion(x, y * unit.x, y * unit.y, y * unit.z)
    if offset is not None:
        grid = grid + offset
    # i and j are the x and y grid lines of each row, in x-major order
    i, j = np.nonzero(abs(grid) < 1.0 - RunConfig.boundary_margin)
    q = Quaternion(grid.w[i, 0], grid.x[0, j], grid.y[0, j], grid.z[0, j])

    # each row is q, the alpha/beta pair, then `repeat` copies of the
    # distinct values: the G and Omega columns repeat H = G + Omega
    pair, repeat = (), 1
    if args.tensor == "delta0":
        values = (delta(ZERO, q),)
    else:
        pair = alpha.components() + beta.components()
        if args.tensor == "Ghat":
            values = (hyperbolic_metric(q, alpha, beta),)
        else:
            values = tensor_value(q, alpha, beta).h.components()
            repeat = 2
    # adding 0.0 folds negative zero into plain zero
    pair = tuple(float(v) + 0.0 for v in pair)
    values = [c + 0.0 for c in values]

    if args.format == "json":
        cells = [c + 0.0 for c in q.components()] + values
        rows = [dict(zip(columns, r[:4] + pair + r[4:] * repeat))
                for r in zip(*(c.tolist() for c in cells))]
        _emit_json(rows, args,
                   "sample-field --tensor %s --format json" % args.tensor,
                   ("slice", "offset", "alpha", "beta", "grid"), indent=2)
        return 0
    w_text = list(map(float.__repr__, grid.w[:, 0] + 0.0))
    xyz_text = list(map(",".join, zip(*(map(float.__repr__, c[0] + 0.0)
                                         for c in grid.components()[1:]))))
    fixed = "".join("," + repr(v) for v in pair)
    lines = ("%s,%s%s%s\n" % (w_text[a], xyz_text[b], fixed,
                              ("," + ",".join(t)) * repeat)
             for a, b, t in zip(i.tolist(), j.tolist(),
                                zip(*(map(float.__repr__, c)
                                      for c in values))))
    with _output(args.out) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)
    return 0


# -------------------------------------------------------------- transform

def cmd_transform(args):
    q = _require_in_ball(_parse_quat(args.q, "--q"), "--q", "q")
    if args.matrix:
        A = SpOneOneMatrix(*_parse_entries(args.matrix, "--matrix", "abcd"))
        violated = A.violated_relation()
        if violated:
            raise UsageError("matrix violates %s" % violated)
        if args.mode == "classical":
            result = classical_apply(A, q)
        else:
            result = matrix_regular_apply(A, q)
        payload = {"input": "matrix", "mode": args.mode,
                   "q": _quat_list(q), "result": _quat_list(result)}
    else:
        m = RegularMobius(*_parse_entries(args.canonical, "--canonical",
                                          "au"))
        _require_in_ball(m.a, "--canonical entry a", "a")
        if abs(abs(m.u) - 1.0) > 1e-6:
            raise UsageError("--canonical entry u must have |u| = 1: "
                             "|u| = %r" % abs(m.u))
        if args.mode == "classical":
            raise UsageError("canonical pairs define regular maps only")
        result = regular_apply(m, q)
        payload = {"input": "canonical", "mode": "regular",
                   "q": _quat_list(q), "result": _quat_list(result)}
    _emit_json(payload, args, "transform --mode %s" % args.mode,
               ("matrix", "canonical", "q"))
    return 0


# --------------------------------------------------------------- distance

def cmd_distance(args):
    p = _require_in_ball(_parse_quat(args.p, "--p"), "--p", "p")
    q = _require_in_ball(_parse_quat(args.q, "--q"), "--q", "q")
    _emit_json({"delta": delta(p, q)}, args, "distance", ("p", "q"))
    return 0


# ----------------------------------------------------------------- series

def cmd_series(args):
    f = _parse_series(args.f, "--f")
    if args.op == "star":
        if not args.g:
            raise UsageError("op star needs --g")
        g = _parse_series(args.g, "--g")
        payload = {"coeffs": [_quat_list(c) for c in f.star(g).coeffs]}
    elif args.op == "conjugate":
        payload = {"coeffs": [_quat_list(c) for c in f.conjugate().coeffs]}
    elif args.op == "symmetrize":
        payload = {"coeffs": [_quat_list(c) for c in f.symmetrize().coeffs]}
    elif args.op == "reciprocal":
        rec = f.reciprocal_series(args.truncation)
        payload = {"coeffs": [_quat_list(c) for c in rec.coeffs]}
    else:  # eval
        if not args.q:
            raise UsageError("op eval needs --q")
        q = _parse_quat(args.q, "--q")
        payload = {"value": _quat_list(f.eval(q))}
    flags = ("f", "g", "q") + (("truncation",) if args.op == "reciprocal"
                               else ())
    _emit_json(payload, args, "series %s" % args.op, flags)
    return 0


# ----------------------------------------------------------------- parser

# flags shared between subcommands; each subcommand adds the ones it reads
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=None,
                   help="sample stream seed (default: env %s or %d)"
                   % (_ENV_SEED, RunConfig.seed)),
    "--samples": dict(type=int, default=RunConfig.samples),
    "--atol": dict(type=float, default=RunConfig.atol),
    "--rtol": dict(type=float, default=RunConfig.rtol),
    "--out": dict(default=None, help="write output to a file"),
}


def _add_shared(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sliceball",
        description="slice-regular analysis and invariant geometry on "
                    "the quaternionic unit ball")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run named invariant suites")
    p.add_argument("pattern", nargs="?", default=None,
                   help="only run checks whose suite/name contains this")
    _add_shared(p, *_SHARED_FLAGS)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sample-field", help="tabulate a tensor on a slice")
    p.add_argument("--tensor", choices=_FIELD_COLUMNS, default="G",
                   help="G, H and Omega write the same row: H, then "
                        "G = Re H, then Omega = Im H; Ghat the hyperbolic "
                        "metric, delta0 the distance delta(0, q)")
    p.add_argument("--slice", default="[0, 1, 0, 0]",
                   help="unit imaginary slice axis")
    p.add_argument("--offset", default=None,
                   help="constant offset added to every grid point")
    p.add_argument("--alpha", default="[1, 0, 0, 0]")
    p.add_argument("--beta", default="[1, 0, 0, 0]")
    p.add_argument("--grid", type=int, default=16,
                   help="interior lattice points per axis")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_shared(p, "--out")
    p.set_defaults(handler=cmd_sample_field)

    p = sub.add_parser("transform", help="apply a ball transformation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help='JSON {"a":..,"b":..,"c":..,"d":..}')
    group.add_argument("--canonical", help='JSON {"a":.., "u":..}')
    p.add_argument("--q", required=True, help="point to transform")
    p.add_argument("--mode", choices=("regular", "classical"),
                   default="regular")
    _add_shared(p, "--out")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("distance", help="pseudo-hyperbolic distance")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    _add_shared(p, "--out")
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("series", help="operate on power series")
    p.add_argument("op", choices=("star", "conjugate", "symmetrize",
                                  "reciprocal", "eval"))
    p.add_argument("--f", required=True, help='JSON {"coeffs": [...]}')
    p.add_argument("--g", default=None)
    p.add_argument("--q", default=None)
    p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    _add_shared(p, "--out")
    p.set_defaults(handler=cmd_series)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        return args.handler(args)
    except (ValueError, SingularValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
