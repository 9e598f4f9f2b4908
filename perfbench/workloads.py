"""The four workloads: inputs from a seed, one timed pass, and its check.

A workload builds its inputs once from the seed; every pass then runs
the same items, so passes are comparable and their results must agree
bit for bit.  Inputs are drawn with numpy here, not with the library's
own samplers, so a change to a sampler cannot change the workload.

Each item is isolated: an exception becomes a `Raised` result and the
pass carries on.  `check` turns the results of one pass into one
failure reason per item (None for an item that passed), so a failed
item is either one that raised or one whose result missed its
tolerance or oracle.

    verify-suite    every registered check, one run_checks call each
    delta-boundary  hardy.delta near the boundary and on nearly equal
                    points, against the 50-digit oracle
    sp11-canonical  mobius.matrix_to_canonical on sampled ball symmetries
    sample-field    the sample-field subcommand writing a CSV file
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
from time import perf_counter as _clock

import numpy as np

import oracle
from sliceball import cli, geometry, hardy, mobius, verify
from sliceball.config import RunConfig
from sliceball.quat import Quaternion


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


class Raised:
    """Result of an item whose call raised."""
    __slots__ = ("cls", "message")

    def __init__(self, exc):
        self.cls = type(exc).__name__
        self.message = str(exc)

    def __repr__(self):
        return "Raised(%s)" % self.cls

    def reason(self):
        return "raised %s: %s" % (self.cls, self.message)


def attempt(fn, *args):
    """Call fn; an exception becomes a Raised result instead of ending
    the pass."""
    try:
        return fn(*args)
    except Exception as exc:
        return Raised(exc)


def no_span(name):
    return contextlib.nullcontext()


def _unit4(rng):
    v = rng.standard_normal(4)
    return v / math.sqrt(float(v @ v))


def _quat(v):
    return Quaternion(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


def _qmul(p, q):
    # Hamilton product of 4-arrays, kept here so inputs never depend on
    # the library's arithmetic
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])


def _ball_point(rng, radius):
    return _quat(_unit4(rng) * radius * rng.random() ** 0.25)


def _max_diff(p, q):
    # np.max, unlike max(), keeps a NaN
    return float(np.max(np.abs([p.w - q.w, p.x - q.x, p.y - q.y,
                                p.z - q.z])))


class Workload:
    name = ""

    def run_pass(self, span=no_span):
        """The timed region: every item once.  Returns the raw results."""
        raise NotImplementedError

    def fingerprint(self, raw):
        """A value equal for two passes exactly when their results are."""
        return repr(raw)

    def check(self, raw):
        """One failure reason (or None) per item of the pass."""
        raise NotImplementedError

    def release(self, raw):
        """Free what a pass left behind outside the process."""

    def layer_values(self, raws, failures):
        """Per-layer metrics only this workload can supply, from the
        untraced passes and the reasons of the checked pass."""
        return {}


class VerifySuite(Workload):
    name = "verify-suite"

    def __init__(self, seed, out_dir):
        self.config = RunConfig(seed=seed)
        self.checks = [(c.suite, "%s/%s" % (c.suite, c.name))
                       for c in verify.CHECKS]
        for _, pattern in self.checks:
            hits = [p for _, p in self.checks if pattern in p]
            if hits != [pattern]:
                raise BenchmarkError("pattern %r selects %r" % (pattern, hits))

    def run_pass(self, span=no_span):
        results, seconds = [], []
        for suite, pattern in self.checks:
            with span("verify." + suite):
                t0 = _clock()
                results.append(attempt(verify.run_checks, self.config,
                                       pattern))
                seconds.append(_clock() - t0)
        return results, seconds

    def fingerprint(self, raw):
        return repr([r if isinstance(r, Raised)
                     else [(c.passed, c.max_error, c.tolerance) for c in r]
                     for r in raw[0]])

    def check(self, raw):
        reasons = []
        for (_, pattern), result in zip(self.checks, raw[0]):
            if isinstance(result, Raised):
                reasons.append("%s %s" % (pattern, result.reason()))
                continue
            if len(result) != 1 \
                    or "%s/%s" % (result[0].suite, result[0].name) != pattern:
                raise BenchmarkError("run_checks(%r) returned %r"
                                     % (pattern, result))
            r = result[0]
            reasons.append(None if r.passed else
                           "%s missed: max_error %.3g > %.3g"
                           % (pattern, r.max_error, r.tolerance))
        return reasons

    def layer_values(self, raws, failures):
        out = {}
        for suite in sorted({s for s, _ in self.checks}):
            per_pass = [sum(t for (s, _), t in zip(self.checks, raw[1])
                            if s == suite) for raw in raws]
            out["verify.%s.s" % suite] = float(np.median(per_pass))
        raised = sum(1 for r in failures if r and " raised " in r)
        out["verify.checks.raised"] = raised
        out["verify.checks.failed"] = sum(1 for r in failures if r) - raised
        return out


class DeltaBoundary(Workload):
    name = "delta-boundary"

    TOL = 1e-10                               # documented delta tolerance
    SHELL_GAPS = np.logspace(-1, -4, 7)       # 1 - |p| = 1 - |q|
    PAST_CAP_GAP = 1e-5                       # beyond the truncation cap
    PAIRS_PER_GAP = 8
    STEPS = np.logspace(-4, -12, 9)           # |q - p| of nearly equal pairs
    PAIRS_PER_STEP = 8
    NEAR_RADIUS = 0.9

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.pairs = []
        for gap in list(self.SHELL_GAPS) + [self.PAST_CAP_GAP]:
            r = 1.0 - gap
            for _ in range(self.PAIRS_PER_GAP):
                self.pairs.append((_quat(_unit4(rng) * r),
                                   _quat(_unit4(rng) * r)))
        for h in self.STEPS:
            for _ in range(self.PAIRS_PER_STEP):
                p = _ball_point(rng, self.NEAR_RADIUS)
                a = _unit4(rng) * h
                self.pairs.append((p, _quat([p.w + a[0], p.x + a[1],
                                             p.y + a[2], p.z + a[3]])))
        self.expected = [float(oracle.delta(p, q)) for p, q in self.pairs]

    def run_pass(self, span=no_span):
        return [attempt(hardy.delta, p, q) for p, q in self.pairs]

    def check(self, raw):
        reasons = []
        for d, want in zip(raw, self.expected):
            if isinstance(d, Raised):
                reasons.append(d.reason())
            elif not abs(d - want) <= self.TOL:
                reasons.append("|delta - oracle| > %g: %.3g"
                               % (self.TOL, abs(d - want)))
            else:
                reasons.append(None)
        return reasons


class Sp11Canonical(Workload):
    name = "sp11-canonical"

    BOOSTS = (1.5, 3.0)
    MATRICES_PER_BOOST = 400
    POINTS_PER_MATRIX = 4
    POINT_RADIUS = 0.7                  # as in verify's canonical-roundtrip
    TOL = 1e-8

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.items = []
        for boost in self.BOOSTS:
            for _ in range(self.MATRICES_PER_BOOST):
                self.items.append((self._sp11(rng, boost), [
                    _ball_point(rng, self.POINT_RADIUS)
                    for _ in range(self.POINTS_PER_MATRIX)]))

    @staticmethod
    def _sp11(rng, max_boost):
        # the rotation-boost-rotation family of mobius.random_sp11:
        # diag(u1, v1) [[cosh t, sinh t], [sinh t, cosh t]] diag(u2, v2)
        u1, v1, u2, v2 = (_unit4(rng) for _ in range(4))
        t = float(rng.uniform(0.0, max_boost))
        ch, sh = math.cosh(t), math.sinh(t)
        return mobius.SpOneOneMatrix(
            a=_quat(_qmul(u1, u2) * ch), c=_quat(_qmul(u1, v2) * sh),
            b=_quat(_qmul(v1, u2) * sh), d=_quat(_qmul(v1, v2) * ch))

    def run_pass(self, span=no_span):
        return [attempt(mobius.matrix_to_canonical, A) for A, _ in self.items]

    def fingerprint(self, raw):
        return repr([m if isinstance(m, Raised)
                     else (m.a.components(), m.u.components()) for m in raw])

    def check(self, raw):
        reasons = []
        for m, (A, points) in zip(raw, self.items):
            if isinstance(m, Raised):
                reasons.append(m.reason())
            elif not (abs(m.a) < 1.0 and abs(abs(m.u) - 1.0) <= 1e-12):
                reasons.append("not a canonical pair: |a| = %r, |u| = %r"
                               % (abs(m.a), abs(m.u)))
            else:
                err = attempt(self._roundtrip_error, m, A, points)
                if isinstance(err, Raised):
                    reasons.append("check " + err.reason())
                else:
                    reasons.append(None if err <= self.TOL else
                                   "roundtrip error > %g: %.3g"
                                   % (self.TOL, err))
        return reasons

    @staticmethod
    def _roundtrip_error(m, A, points):
        return float(np.max([_max_diff(mobius.regular_apply(m, q),
                                       mobius.matrix_regular_apply(A, q))
                             for q in points]))


class SampleField(Workload):
    name = "sample-field"

    GRID = 256
    MARGIN = RunConfig.boundary_margin
    ALPHA = [0.0, 0.0, 1.0, 0.0]
    BETA = [0.5, -0.25, 0.5, 0.75]
    CHECKED_ROWS = 256
    VALUE_COLUMNS = ("H_w", "H_x", "H_y", "H_z", "G",
                     "Omega_x", "Omega_y", "Omega_z")

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(3)
        self.unit = [0.0] + [float(c) for c in v / math.sqrt(float(v @ v))]
        self.out_dir = out_dir
        self.passes = 0
        self.bytes_out = 0
        coords = [-1.0 + 2.0 * (k + 1) / (self.GRID + 1)
                  for k in range(self.GRID)]
        limit = (1.0 - self.MARGIN) ** 2
        # the grid points inside |q| < 1 - margin, in the CLI's row order
        self.points = [(x, y) for x in coords for y in coords
                       if x * x + y * y < limit]
        picks = rng.choice(len(self.points), self.CHECKED_ROWS, replace=False)
        self.checked = sorted(int(i) for i in picks)
        self.argv = ["sample-field", "--tensor", "G",
                     "--grid", str(self.GRID),
                     "--slice", repr(self.unit),
                     "--alpha", repr(self.ALPHA), "--beta", repr(self.BETA)]

    def run_pass(self, span=no_span):
        # a new file every pass: overwriting a large file makes ext4 wait
        # for the old data to reach the disk, which is not the CLI's cost
        self.passes += 1
        path = os.path.join(self.out_dir, "sample-field-%d-%d.csv"
                            % (os.getpid(), self.passes))
        return attempt(cli.main, self.argv + ["--out", path]), path

    def fingerprint(self, raw):
        # the file's digest; also keeps its size for cli.bytes_out
        status, path = raw
        if not os.path.exists(path):
            return repr(status)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        self.bytes_out = os.path.getsize(path)
        return "%r %s" % (status, digest.hexdigest())

    def release(self, raw):
        with contextlib.suppress(FileNotFoundError):
            os.remove(raw[1])

    def check(self, raw):
        # items: the exit status with the row count, then each checked row
        status, path = raw
        items = 1 + len(self.checked)
        if isinstance(status, Raised):
            return [status.reason()] * items
        if status != 0 or not os.path.exists(path):
            return ["exit status: %r" % (status,)] * items
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = len(self.points)
        reasons = [None if len(rows) == want else
                   "row count: %d, expected %d" % (len(rows), want)]
        alpha, beta = Quaternion(*self.ALPHA), Quaternion(*self.BETA)
        for i in self.checked:
            reason = attempt(self._check_row, rows[i] if i < len(rows)
                             else None, self.points[i], alpha, beta)
            reasons.append("check " + reason.reason()
                           if isinstance(reason, Raised) else reason)
        return reasons

    def _check_row(self, row, point, alpha, beta):
        if row is None:
            return "row missing: fewer rows than expected"
        try:
            q = Quaternion(*(float(row["q_" + c]) for c in "wxyz"))
            got = [float(row[c]) for c in self.VALUE_COLUMNS]
        except (KeyError, TypeError, ValueError) as exc:
            return "unreadable row: %r" % (exc,)
        # comparisons are written so that a NaN fails them
        x, y = point
        u = self.unit
        want_q = Quaternion(x, y * u[1], y * u[2], y * u[3])
        if not _max_diff(q, want_q) <= 1e-12:
            return "row point: %r, expected %r" % (q, want_q)
        tv = geometry.tensor_value(q, alpha, beta)
        want = [tv.h.w, tv.h.x, tv.h.y, tv.h.z, tv.g,
                tv.omega.x, tv.omega.y, tv.omega.z]
        for col, g, w in zip(self.VALUE_COLUMNS, got, want):
            if not abs(g - w) <= 1e-12 * max(1.0, abs(w)):
                return "value differs from tensor_value: %s = %r, not %r" % (
                    col, g, w)
        closed = geometry.slice_riemannian(q, alpha, beta, "closed")
        if not abs(got[4] - closed) <= 1e-9 * max(1.0, abs(closed)):
            return "G differs from the closed formula: %r, not %r" % (
                got[4], closed)
        return None

    def layer_values(self, raws, failures):
        return {"cli.bytes_out": self.bytes_out}


WORKLOADS = {w.name: w for w in (VerifySuite, DeltaBoundary, Sp11Canonical,
                                  SampleField)}
