"""The public API, pinned as test_cli_settable_values pins the CLI: the
names sliceball exports, and each parameter of theirs that has a default.

A keyword that takes one value in every caller is a module constant
instead, so a new default or a new export shows up here first.
"""
import dataclasses
import inspect

import sliceball


def _callables(name, obj):
    """(name, callable) for a function, or for a class its constructor
    and public methods; a dataclass's constructor takes its fields, which
    test_dataclass_fields_with_defaults pins."""
    if not inspect.isclass(obj):
        if callable(obj):
            yield name, obj
        return
    if not dataclasses.is_dataclass(obj):
        yield name, obj
    for attr, value in vars(obj).items():
        fn = getattr(value, "__func__", value)     # class and static methods
        if not attr.startswith("_") and callable(fn):
            yield "%s.%s" % (name, attr), fn


def _defaulted():
    found = {}
    for name in sliceball.__all__:
        for label, fn in _callables(name, getattr(sliceball, name)):
            try:
                params = inspect.signature(fn).parameters.values()
            except ValueError:      # no signature, as for a builtin
                continue
            defaulted = [p.name for p in params
                         if p.default is not inspect.Parameter.empty]
            if defaulted:
                found[label] = defaulted
    return found


def test_exported_names():
    assert sorted(sliceball.__all__) == sorted([
        "ConversionError", "DEFAULT_ATOL", "DEFAULT_BOUNDARY_MARGIN",
        "DEFAULT_RTOL", "DEFAULT_SAMPLES",
        "DEFAULT_SEED", "DEFAULT_TRUNCATION", "DistanceResult", "DomainError",
        "EPS_ZERO", "I", "InfinitesimalProbe", "J", "K", "KernelTruncation",
        "NoninvarianceReport", "ONE", "PreconditionError", "Quaternion",
        "RegularMobius", "RegularPowerSeries", "RunConfig",
        "SingularValueError", "SpOneOneMatrix", "TensorValue", "ZERO",
        "arcozzi_sarfatti_norm", "as_imaginary_unit", "classical_apply",
        "classical_differential", "conjugation_cu", "curve_length", "delta",
        "distance_estimate", "hyperbolic_metric", "infinitesimal_ratio",
        "is_imaginary_unit", "kahler_rank", "kernel_inner", "kernel_norm_sq",
        "matrix_regular_apply", "matrix_regular_differential",
        "matrix_regular_series", "matrix_to_canonical", "max_component_diff",
        "noninvariance_witness", "normalize_pair", "project_slice",
        "random_ball_point", "random_imaginary_unit", "random_sp11",
        "random_tangent", "random_unit_quaternion", "regular_apply",
        "regular_apply_via_series", "regular_differential",
        "representation_transform", "rotation_ru", "slice_components",
        "slice_hermitian", "slice_hermitian_via_definition", "slice_kahler",
        "slice_restriction_kahler", "slice_riemannian", "tail_bound",
        "tensor_value", "truncation_for", "__version__"])
    assert len(sliceball.__all__) == len(set(sliceball.__all__)) == 68


def test_defaulted_parameters():
    defaulted = _defaulted()
    assert defaulted == {
        "Quaternion": ["w", "x", "y", "z"],
        "RegularPowerSeries.reciprocal_series": ["order"],
        "curve_length": ["metric"],
        "distance_estimate": ["metric"],
        "random_ball_point": ["margin", "size"],
        "random_imaginary_unit": ["size"],
        "random_sp11": ["max_boost", "size"],
        "random_tangent": ["size"],
        "random_unit_quaternion": ["size"],
        "slice_hermitian_via_definition": ["u"],
        "slice_riemannian": ["formula"],
        "truncation_for": ["tol"],
    }
    assert sum(map(len, defaulted.values())) == 17


def test_dataclass_fields_with_defaults():
    found = {}
    for name in sliceball.__all__:
        obj = getattr(sliceball, name)
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            fields = [f.name for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
            if fields:
                found[name] = fields
    assert found == {
        "RunConfig": ["seed", "samples", "atol", "rtol", "boundary_margin"],
    }
