"""The rule that tells a scalar from a batch, and the code that uses it.

quat.any_of and quat.sqrt are its one home: every validity check raises
on a batch when any element fails, and the NaN-keeping maximum is
np.maximum for scalars and batches alike.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from sliceball import (I, ONE, ZERO, DomainError, PreconditionError,
                       Quaternion, RegularPowerSeries, SingularValueError,
                       SpOneOneMatrix, delta, geometry, kernel_norm_sq,
                       max_component_diff, verify)
from sliceball.quat import any_of, slice_components, sqrt

SRC = Path(__file__).resolve().parents[1] / "src" / "sliceball"


@pytest.mark.parametrize("mask, holds", [
    (True, True), (False, False), (np.bool_(True), True),
    (np.bool_(False), False), (np.array(True), True),
    (np.array([False, False, True]), True), (np.array([False, False]), False),
    (np.zeros(0, dtype=bool), False)])
def test_any_of(mask, holds):
    assert any_of(mask) is holds


def test_sqrt_is_math_sqrt_for_floats_and_np_sqrt_per_element():
    assert type(sqrt(2.0)) is float and sqrt(2.0) == math.sqrt(2.0)
    assert type(sqrt(np.float64(2.0))) is float
    for x in (np.array([2.0]), np.array([0.0, 2.0, 9.0])):
        got = sqrt(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert got.tolist() == [math.sqrt(v) for v in x.tolist()]


# every guard of the library, as (call, a clean argument, a bad one, the
# exception); the argument is one quaternion or a batch of them
_GUARDS = {
    "Quaternion.inv": (Quaternion.inv, Quaternion(0.3, 0.1), ZERO,
                       SingularValueError),
    "outside_ball": (kernel_norm_sq, Quaternion(0.3, 0.1), ONE, DomainError),
    "RegularPowerSeries.eval": (RegularPowerSeries([ONE, I]).eval,
                                Quaternion(0.3, 0.1), ONE, DomainError),
    # f(q) = q - 1/2, so f^s(q) = (q - 1/2)^2 vanishes at 1/2
    "RegularPowerSeries.eval_reciprocal": (
        RegularPowerSeries([-0.5, ONE]).eval_reciprocal,
        Quaternion(0.1, 0.2), Quaternion(0.5), SingularValueError),
    # the argument is the constant coefficient, and f^s(0) = |c|^2
    "RegularPowerSeries.reciprocal_series": (
        lambda c: RegularPowerSeries([c, ONE]).reciprocal_series(4),
        ONE, ZERO, SingularValueError),
    "geometry._require_on_slice": (
        lambda v: geometry._require_on_slice(I, "v", v),
        Quaternion(0.3, 0.1), Quaternion(0.3, 0.1, 0.2), PreconditionError),
    "hardy.delta": (lambda q: delta(ZERO, q), Quaternion(0.3, 0.1), ONE,
                    DomainError),
}


def _batch(clean, bad, at, n=5):
    """n copies of clean, with bad at index at (None: nowhere)."""
    comps = [np.full(n, c) for c in clean.components()]
    if at is not None:
        for c, b in zip(comps, bad.components()):
            c[at] = b
    return Quaternion(*comps)


def _float64(q):
    # scalar components of type np.float64, whose comparisons give np.bool_
    return Quaternion(*map(np.float64, q.components()))


@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_a_guard_fails_a_batch_with_one_bad_element(name, at):
    call, clean, bad, exc = _GUARDS[name]
    with pytest.raises(exc):
        call(_batch(clean, bad, at))


@pytest.mark.parametrize("name", sorted(_GUARDS))
def test_a_guard_passes_clean_input_and_fails_a_bad_scalar(name):
    call, clean, bad, exc = _GUARDS[name]
    call(_batch(clean, bad, None))
    # Python floats give bool masks, np.float64 components np.bool_ ones
    for scalar in (clean, _float64(clean)):
        call(scalar)
    for scalar in (bad, _float64(bad)):
        with pytest.raises(exc):
            call(scalar)


def _elements(q, n):
    return [Quaternion(*(c[i] for c in q.components())) for i in range(n)]


def test_max_component_diff_keeps_a_nan_for_scalars_and_batches():
    # row k has its NaN in component k; the last row has none
    rows = np.array([[0.5, -1.0, 2.0, 0.25]] * 5)
    rows[np.arange(4), np.arange(4)] = math.nan
    p = Quaternion(*rows.T.copy())
    q = Quaternion(0.25, 0.5, -0.5, 1.0)
    scalar = [max_component_diff(e, q) for e in _elements(p, 5)]
    assert [math.isnan(v) for v in scalar] == [True] * 4 + [False]
    assert scalar[4] == 2.5
    assert np.array_equal(max_component_diff(p, q), scalar, equal_nan=True)
    assert np.array_equal(max_component_diff(q, p), scalar, equal_nan=True)


def test_residual_keeps_a_nan_for_scalars_and_batches():
    # a NaN in entry a, b, c and d in turn, then no NaN
    entries = [[ONE, ZERO, ZERO, ONE] for _ in range(5)]
    for k in range(4):
        entries[k][k] = Quaternion(math.nan)
    scalar = [SpOneOneMatrix(*row).residual() for row in entries]
    assert [math.isnan(v) for v in scalar] == [True] * 4 + [False]
    batch = SpOneOneMatrix(*(Quaternion(*(np.array(c) for c in zip(
        *(e.components() for e in column)))) for column in zip(*entries)))
    assert np.array_equal(batch.residual(), scalar, equal_nan=True)


@pytest.mark.parametrize("values", [(math.nan, 1.0), (1.0, math.nan),
                                    (2.0, math.nan, 1.0)])
def test_larger_keeps_a_nan_for_scalars_and_batches(values):
    assert math.isnan(verify._larger(*values))
    # the same values as the last element of batches of two
    batch = verify._larger(*(np.array([0.5, v]) for v in values))
    assert batch[0] == 0.5 and math.isnan(batch[1])
    mixed = verify._larger(np.array([0.5, values[0]]), *values[1:])
    assert math.isnan(mixed[1])


@pytest.mark.parametrize("rows", [
    [(0.5, 0.0, 0.0, 0.0)], [(0.3, 0.1, 0.2, 0.0)],
    [(0.3, 0.1, 0.2, 0.0), (0.5, 0.0, 0.0, 0.0), (-0.2, 0.0, 0.0, 1e-160),
     (0.1, 0.0, 1e-140, 0.0)]],
    ids=["one-real", "one-off-axis", "mixed"])
def test_slice_components_of_a_batch_are_arrays_of_scalar_values(rows):
    # a one-element batch on the real axis once came back with float y
    # and unit
    batch = Quaternion(*(np.array(c) for c in zip(*rows)))
    scalar = [slice_components(Quaternion(*row)) for row in rows]
    for got, want in zip(slice_components(batch), zip(*scalar)):
        assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
        assert got.tolist() == list(want)
    # geometry's slice unit of a batch has an array real part too
    unit = geometry._slice_unit(batch)
    assert all(isinstance(c, np.ndarray) for c in unit.components())


def test_only_quat_tells_a_scalar_from_a_batch():
    # any other module reaches the rule through quat.any_of and quat.sqrt
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = ["%s:%d: %s" % (path.name, n, line.strip())
             for path in paths if path.name != "quat.py"
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if "is not False and" in line or "except TypeError" in line]
    assert not found, found
