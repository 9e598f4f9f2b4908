import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sliceball
from sliceball import (ZERO, Quaternion, RunConfig, as_imaginary_unit,
                       delta, hyperbolic_metric, tensor_value, verify)
from sliceball.cli import _FIELD_COLUMNS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "quat", "--samples", "30")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["seed"] == 7
    assert report["failed"] == 0
    assert report["suites"][0]["suite"] == "quat"
    row = report["suites"][0]["checks"][0]
    assert set(row) >= {"name", "claim", "samples", "max_error",
                        "tolerance", "pass"}


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "definitely-not-a-suite")
    assert code == 2
    assert "no suite matches" in err


def test_verify_collapsed_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "quat/norm-multiplicative",
                       "--samples", "20", "--rtol", "1e-20",
                       "--atol", "1e-20")
    assert code == 1
    report = json.loads(out)
    assert report["failed"] >= 1
    row = report["suites"][0]["checks"][0]
    assert row["pass"] is False
    assert row["max_error"] > row["tolerance"]


def test_verify_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "hardy", "--samples", "25")
    _, out2, _ = run(capsys, "verify", "hardy", "--samples", "25")
    assert out1 == out2


def _reject_constant(name):
    # NaN, Infinity and -Infinity are not JSON (RFC 8259)
    raise ValueError("not JSON: %s" % name)


def test_verify_check_that_raises_is_a_failed_row(capsys, monkeypatch):
    def boom(config, rng):
        raise ArithmeticError("boom")

    checks = [dataclasses.replace(c, fn=boom)
              if c.name == "norm-multiplicative" else c
              for c in verify.CHECKS]
    monkeypatch.setattr(verify, "CHECKS", checks)
    code, out, _ = run(capsys, "verify", "quat", "--samples", "10")
    assert code == 1
    report = json.loads(out, parse_constant=_reject_constant)
    rows = {r["name"]: r for r in report["suites"][0]["checks"]}
    assert report["failed"] == 1 and len(rows) == report["checks"] > 1
    row = rows["norm-multiplicative"]
    assert row["pass"] is False
    assert row["max_error"] is None and row["tolerance"] is None
    assert row["details"] == {"error": "ArithmeticError: boom"}
    assert all(r["pass"] for n, r in rows.items() if n != row["name"])


_IMPORT_THEN_VERIFY = """
import sys
import sliceball, sliceball.cli
assert "sliceball.verify" not in sys.modules, "import loaded the suite"
sys.exit(sliceball.cli.main(["verify", "quat", "--samples", "1"]))
"""


def test_import_leaves_the_verify_suite_unloaded():
    # a fresh interpreter, since this one has loaded the suite already
    src = Path(sliceball.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _IMPORT_THEN_VERIFY],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout, parse_constant=_reject_constant)
    assert report["pass"] is True and report["checks"] > 1
    assert [s["suite"] for s in report["suites"]] == ["quat"]


def test_seed_resolution(capsys, monkeypatch):
    monkeypatch.setenv("SLICEBALL_SEED", "123")
    _, out, _ = run(capsys, "verify", "quat/slice-roundtrip",
                    "--samples", "10")
    assert json.loads(out)["seed"] == 123
    _, out, _ = run(capsys, "verify", "quat/slice-roundtrip",
                    "--samples", "10", "--seed", "99")
    assert json.loads(out)["seed"] == 99
    monkeypatch.delenv("SLICEBALL_SEED")
    _, out, _ = run(capsys, "verify", "quat/slice-roundtrip",
                    "--samples", "10")
    assert json.loads(out)["seed"] == 7


def test_non_integer_env_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SLICEBALL_SEED", "abc")
    code, out, err = run(capsys, "verify", "quat/slice-roundtrip",
                         "--samples", "10")
    assert (code, out) == (2, "")
    assert err == "error: SLICEBALL_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("flag, value, name", [("--atol", "nan", "atol"),
                                               ("--rtol", "inf", "rtol")])
def test_verify_rejects_non_finite_tolerance(capsys, flag, value, name):
    code, out, err = run(capsys, "verify", "--samples", "50", flag, value)
    assert (code, out) == (2, "")
    assert err == "error: %s must be positive and finite, got %s\n" \
        % (name, value)


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "quat/slice-roundtrip",
                       "--samples", "10", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


def test_sample_field_grid_contains_spot_value(capsys):
    code, out, _ = run(capsys, "sample-field", "--tensor", "G",
                       "--slice", "[0,1,0,0]", "--alpha", "[0,0,1,0]",
                       "--beta", "[0,0,1,0]", "--grid", "3")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header == ["q_w", "q_x", "q_y", "q_z", "alpha_w", "alpha_x",
                      "alpha_y", "alpha_z", "beta_w", "beta_x", "beta_y",
                      "beta_z", "H_w", "H_x", "H_y", "H_z", "G", "Omega_x",
                      "Omega_y", "Omega_z"]
    assert len(lines) == 10  # 3x3 interior grid, all inside the ball
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    spot = [r for r in rows if r["q_w"] == 0.0 and r["q_x"] == 0.5]
    assert len(spot) == 1
    assert abs(spot[0]["G"] - 0.64) <= 1e-12
    assert abs(spot[0]["H_w"] - 0.64) <= 1e-12
    assert abs(spot[0]["Omega_y"]) <= 1e-12
    assert "-0.0" not in out


def test_sample_field_json_and_offset(capsys):
    code, out, _ = run(capsys, "sample-field", "--tensor", "Ghat",
                       "--grid", "2", "--format", "json",
                       "--offset", "[0,0,0.1,0]")
    assert code == 0
    rows = json.loads(out)
    assert rows and all("Ghat" in r and "q_z" in r for r in rows)
    assert all(abs(r["q_y"] - 0.1) < 1e-12 for r in rows)


def test_sample_field_delta0(capsys):
    code, out, _ = run(capsys, "sample-field", "--tensor", "delta0",
                       "--grid", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q_w,q_x,q_y,q_z,delta0"
    for ln in lines[1:]:
        vals = list(map(float, ln.split(",")))
        r = math.sqrt(sum(v * v for v in vals[:4]))
        assert abs(vals[4] - r) <= 1e-9


def test_sample_field_skips_exterior(capsys):
    code, out, _ = run(capsys, "sample-field", "--tensor", "G", "--grid",
                       "7")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    # the 7x7 interior lattice has corner points outside the ball
    assert len(rows) < 49
    for ln in rows:
        vals = list(map(float, ln.split(",")))
        assert math.sqrt(sum(v * v for v in vals[:4])) < 1.0


@pytest.mark.parametrize("tensor", ["G", "H", "Omega", "Ghat", "delta0"])
def test_sample_field_csv_and_json_agree(capsys, tensor):
    argv = ["sample-field", "--tensor", tensor, "--grid", "4",
            "--offset", "[0,0,0.1,0]", "--alpha", "[0,0,1,0]",
            "--beta", "[0.5,-0.25,0.5,0.75]"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == len(lines) - 1 > 0
    for line, row in zip(lines[1:], rows):
        assert list(row) == header
        assert [float(v) for v in line.split(",")] == list(row.values())
    # a grid with every point outside the ball keeps the tensor's header
    code, out, _ = run(capsys, "sample-field", "--tensor", tensor,
                       "--grid", "1", "--offset", "[1,0,0,0]")
    assert code == 0
    assert out == ",".join(header) + "\n"


def _reference_sample_field(argv):
    """sample-field output computed point by point with scalar calls."""
    args = build_parser().parse_args(argv)

    def parse(text):
        return Quaternion(*map(float, json.loads(text)))

    def f(v):
        return float(v) + 0.0

    unit = as_imaginary_unit(parse(args.slice))
    alpha, beta = parse(args.alpha), parse(args.beta)
    columns = ("q_w", "q_x", "q_y", "q_z") + _FIELD_COLUMNS[args.tensor]
    pair = tuple(f(getattr(v, c)) for v in (alpha, beta) for c in "wxyz")
    coords = [-1.0 + 2.0 * (k + 1) / (args.grid + 1)
              for k in range(args.grid)]
    rows = []
    for x in coords:
        for y in coords:
            q = Quaternion(x, y * unit.x, y * unit.y, y * unit.z)
            if args.offset:
                q = q + parse(args.offset)
            if abs(q) >= 1.0 - RunConfig.boundary_margin:
                continue
            row = (f(q.w), f(q.x), f(q.y), f(q.z))
            if args.tensor == "delta0":
                row += (f(delta(ZERO, q)),)
            elif args.tensor == "Ghat":
                row += pair + (f(hyperbolic_metric(q, alpha, beta)),)
            else:
                tv = tensor_value(q, alpha, beta)
                h, om = tv.h, tv.omega
                row += pair + (f(h.w), f(h.x), f(h.y), f(h.z), f(tv.g),
                               f(om.x), f(om.y), f(om.z))
            rows.append(row)
    if args.format == "json":
        text = json.dumps([dict(zip(columns, row)) for row in rows],
                          indent=2)
    else:
        text = "\n".join([",".join(columns)]
                         + [",".join(map(repr, row)) for row in rows])
    return text + "\n"


_FIELD_FLAGS = ["--offset", "[0,0,0.1,0]", "--slice", "[0,0.6,0,0.8]",
                "--alpha", "[0,0,1,0]", "--beta", "[0.5,-0.25,0.5,0.75]"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("tensor", ["G", "H", "Omega", "Ghat", "delta0"])
@pytest.mark.parametrize("flags", [
    ["--grid", "40"] + _FIELD_FLAGS,
    ["--grid", "1", "--offset", "[1,0,0,0]"],
    # an odd grid has a line of points on the real axis, and with this
    # offset within EPS_ZERO of it
    ["--grid", "41"],
    ["--grid", "41", "--offset", "[0,0,5e-14,0]"],
], ids=["grid40", "all-outside", "grid41-axis", "grid41-near-axis"])
def test_sample_field_matches_pointwise_reference(capsys, fmt, tensor,
                                                  flags):
    argv = ["sample-field", "--tensor", tensor, "--format", fmt] + flags
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = _reference_sample_field(argv)
    # report the first differing line, not a diff of the whole output
    first = next(((n, a, b) for n, (a, b) in enumerate(
        zip(out.split("\n"), want.split("\n"))) if a != b), "lengths")
    same = out == want
    assert same, first


def test_sample_field_rejects_bad_slice(capsys):
    code, _, err = run(capsys, "sample-field", "--slice", "[0,2,0,0]")
    assert code == 2
    assert "unit imaginary" in err


def test_transform_canonical(capsys):
    code, out, _ = run(capsys, "transform", "--canonical",
                       '{"a": [0, 0.5, 0, 0], "u": [1, 0, 0, 0]}',
                       "--q", "[0, 0.5, 0, 0]")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == [0.0, 0.0, 0.0, 0.0]
    assert payload["mode"] == "regular"


def test_transform_matrix_modes(capsys):
    t = 0.4
    c, s = math.cosh(t), math.sinh(t)
    matrix = json.dumps({"a": [c, 0, 0, 0], "b": [s, 0, 0, 0],
                         "c": [s, 0, 0, 0], "d": [c, 0, 0, 0]})
    code, out, _ = run(capsys, "transform", "--matrix", matrix,
                       "--q", "[0,0,0,0]", "--mode", "classical")
    assert code == 0
    got = json.loads(out)["result"]
    assert abs(got[0] - math.tanh(t)) <= 1e-12
    code, out2, _ = run(capsys, "transform", "--matrix", matrix,
                        "--q", "[0,0,0,0]", "--mode", "regular")
    assert code == 0
    assert json.loads(out2)["result"] == got


def test_transform_rejects_invalid_matrix(capsys):
    matrix = '{"a": [2,0,0,0], "b": [1,0,0,0], "c": [1,0,0,0], "d": [2,0,0,0]}'
    code, _, err = run(capsys, "transform", "--matrix", matrix,
                       "--q", "[0.1,0,0,0]")
    assert code == 2
    assert "|a|^2 - |b|^2 = 1" in err


def test_transform_rejects_bad_input(capsys):
    code, _, err = run(capsys, "transform", "--canonical",
                       '{"a": [0,0.5,0,0], "u": [1,0,0,0]}',
                       "--q", "[1.5,0,0,0]")
    assert code == 2
    assert "unit ball" in err
    code, _, err = run(capsys, "transform", "--canonical",
                       '{"a": [0,0.5,0,0], "u": [1,0,0,0]}',
                       "--q", "[0.1,0,0,0]", "--mode", "classical")
    assert code == 2
    code, _, err = run(capsys, "transform", "--canonical",
                       '{"a": [0,0.5,0,0]}', "--q", "[0.1,0,0,0]")
    assert code == 2
    code, _, err = run(capsys, "transform", "--canonical", "not json",
                       "--q", "[0.1,0,0,0]")
    assert code == 2


def test_distance(capsys):
    code, out, _ = run(capsys, "distance", "--p", "[0,0,0,0]",
                       "--q", "[0,0.3,0.4,0]")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["delta"]
    assert abs(payload["delta"] - 0.5) <= 1e-12
    # 1 - |p| = 1 - |q| = 1e-9, beyond where a truncated kernel sum ran
    # out of terms; p = r i and q = r share a slice, so delta is the disk
    # distance |r - r i| / |1 + r^2 i|
    r = 0.999999999
    code, out, _ = run(capsys, "distance", "--p", "[0,%r,0,0]" % r,
                       "--q", "[%r,0,0,0]" % r)
    assert code == 0
    want = r * math.sqrt(2.0) / math.sqrt(1.0 + r ** 4)
    assert abs(json.loads(out)["delta"] - want) <= 1e-15
    code, _, err = run(capsys, "distance", "--p", "[1,0,0,0]",
                       "--q", "[0,0,0,0]")
    assert code == 2


@pytest.mark.parametrize("args, message", [
    (["distance", "--p", "[1,0,0,0]", "--q", "[0,0,0,0]"],
     "--p must lie in the open unit ball: |p| = 1.0"),
    (["distance", "--p", "[0,0,0,0]", "--q", "[0,0.6,0,0.8]"],
     "--q must lie in the open unit ball: |q| = 1.0"),
    (["distance", "--p", "[0,0,0,0]", "--q", "[0,0,-1.5,0]"],
     "--q must lie in the open unit ball: |q| = 1.5"),
    (["transform", "--canonical", '{"a": [0,0.5,0,0], "u": [1,0,0,0]}',
      "--q", "[1.5,0,0,0]"],
     "--q must lie in the open unit ball: |q| = 1.5"),
    (["transform", "--matrix",
      '{"a": [1,0,0,0], "b": [0,0,0,0], "c": [0,0,0,0], "d": [1,0,0,0]}',
      "--q", "[0,0,2,0]"],
     "--q must lie in the open unit ball: |q| = 2.0"),
    (["transform", "--canonical", '{"a": [0,0,0,1], "u": [1,0,0,0]}',
      "--q", "[0.1,0,0,0]"],
     "--canonical entry a must lie in the open unit ball: |a| = 1.0"),
    (["transform", "--canonical", '{"a": [0,0.5,0,0], "u": [0,2,0,0]}',
      "--q", "[0.1,0,0,0]"],
     "--canonical entry u must have |u| = 1: |u| = 2.0"),
])
def test_out_of_range_points_are_quoted(capsys, args, message):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_series_ops(capsys):
    f = '{"coeffs": [[0,0,0,0],[0,1,0,0]]}'
    code, out, _ = run(capsys, "series", "star", "--f", f, "--g", f)
    assert code == 0
    assert json.loads(out)["coeffs"] == [[0.0, 0.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.0, 0.0],
                                         [-1.0, 0.0, 0.0, 0.0]]

    code, out, _ = run(capsys, "series", "conjugate", "--f", f)
    assert json.loads(out)["coeffs"][1] == [0.0, -1.0, 0.0, 0.0]

    g = '{"coeffs": [[1,0,0,0],[0,0.5,0,0]]}'
    code, out, _ = run(capsys, "series", "symmetrize", "--f", g)
    coeffs = json.loads(out)["coeffs"]
    assert coeffs[0] == [1.0, 0.0, 0.0, 0.0]
    assert coeffs[2] == [0.25, 0.0, 0.0, 0.0]

    code, out, _ = run(capsys, "series", "eval", "--f", g,
                       "--q", "[0.5,0,0,0]")
    val = json.loads(out)["value"]
    assert abs(val[0] - 1.0) <= 1e-15
    assert abs(val[1] - 0.25) <= 1e-15

    code, out, _ = run(capsys, "series", "reciprocal", "--f", g,
                       "--truncation", "8")
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == 9
    assert coeffs[0] == [1.0, 0.0, 0.0, 0.0]


def test_series_usage_errors(capsys):
    f = '{"coeffs": [[1,0,0,0]]}'
    code, _, err = run(capsys, "series", "star", "--f", f)
    assert code == 2
    assert "--g" in err
    code, _, err = run(capsys, "series", "eval", "--f", f)
    assert code == 2
    code, _, err = run(capsys, "series", "eval", "--f", "{}",
                       "--q", "[0,0,0,0]")
    assert code == 2


def test_series_reciprocal_of_a_series_vanishing_at_0_exits_2(capsys):
    # SingularValueError is no ValueError; main reports it all the same
    code, out, err = run(capsys, "series", "reciprocal",
                         "--f", '{"coeffs":[[0,0,0,0],[1,0,0,0]]}')
    assert (code, out) == (2, "")
    assert "error: symmetrization vanishes at 0" in err


@pytest.mark.parametrize("argv, what", [
    (["series", "star", "--f", '{"coeffs":[[1e308,0,0,0]]}',
      "--g", '{"coeffs":[[1e308,0,0,0]]}'], "series star"),
    (["series", "symmetrize",
      "--f", '{"coeffs":[[1e200,1e200,0,0],[1e200,0,0,0]]}'],
     "series symmetrize"),
    (["series", "eval", "--f", '{"coeffs":[[1e308,0,0,0],[1e308,0,0,0]]}',
      "--q", "[0.9,0,0,0]"], "series eval"),
    (["sample-field", "--tensor", "Ghat", "--format", "json", "--grid", "1",
      "--alpha", "[1e200,0,0,0]", "--beta", "[1e200,0,0,0]"],
     "sample-field --tensor Ghat --format json"),
])
def test_non_finite_result_exits_2_and_quotes_the_inputs(capsys, tmp_path,
                                                          argv, what):
    # finite inputs that overflow: no Infinity or NaN is printed, and the
    # message names the operation and quotes each input flag for a shell
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: %s gave a non-finite result for " % what)
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--f", "--g", "--q", "--alpha", "--beta"):
            assert "%s '%s'" % (flag, value) in err
    target = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(target))[0] == 2
    assert not target.exists()


_BASE_ARGV = {
    "verify": ["verify", "quat/slice-roundtrip", "--samples", "10"],
    "sample-field": ["sample-field", "--grid", "1"],
    "transform": ["transform", "--canonical",
                  '{"a": [0,0.5,0,0], "u": [1,0,0,0]}', "--q", "[0,0,0,0]"],
    "distance": ["distance", "--p", "[0,0,0,0]", "--q", "[0,0.3,0.4,0]"],
    "series": ["series", "conjugate", "--f", '{"coeffs": [[1,0,0,0]]}'],
}
_REMOVED_FLAGS = {
    "verify": ["--tol", "--truncation"],
    "sample-field": ["--seed", "--samples", "--tol", "--atol", "--rtol",
                     "--truncation"],
    "transform": ["--seed", "--samples", "--tol", "--atol", "--rtol",
                  "--truncation"],
    "distance": ["--seed", "--samples", "--tol", "--atol", "--rtol",
                 "--truncation"],
    "series": ["--seed", "--samples", "--tol", "--atol", "--rtol"],
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in _REMOVED_FLAGS.items()
    for flag in flags])
def test_unread_flag_is_rejected(capsys, command, flag):
    code, _, _ = run(capsys, *_BASE_ARGV[command])
    assert code == 0
    code, _, err = run(capsys, *_BASE_ARGV[command], flag, "1")
    assert code == 2
    assert "unrecognized arguments: %s" % flag in err


def test_cli_settable_values():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    settable = {name: [a.dest for a in p._actions
                       if not isinstance(a, argparse._HelpAction)]
                for name, p in subparsers.choices.items()}
    assert settable == {
        "verify": ["pattern", "seed", "samples", "atol", "rtol", "out"],
        "sample-field": ["tensor", "slice", "offset", "alpha", "beta",
                         "grid", "format", "out"],
        "transform": ["matrix", "canonical", "q", "mode", "out"],
        "distance": ["p", "q", "out"],
        "series": ["op", "f", "g", "q", "truncation", "out"],
    }
    assert sum(map(len, settable.values())) == 28


@pytest.mark.parametrize("value", ["[0,0,true,0]", "[0,NaN,0,0]",
                                   "[Infinity,0,0,0]", '"[0,0,0,0]"'])
def test_quaternion_flags_reject_non_numbers(capsys, value):
    code, _, err = run(capsys, "transform", "--canonical",
                       '{"a": %s, "u": [1,0,0,0]}' % value,
                       "--q", "[0,0,0,0]")
    assert code == 2
    assert "--canonical entry a must be a 4-array" in err
    code, _, err = run(capsys, "distance", "--p", value, "--q", "[0,0,0,0]")
    assert code == 2
    assert "--p must be a 4-array" in err


def test_argparse_usage_error_becomes_exit_2(capsys):
    code = main(["no-such-command"])
    assert code == 2
    code = main([])
    assert code == 2
