"""Slice-regular quaternionic analysis on the unit ball.

Quaternion algebra, truncated regular power series under the *-product,
classical and regular Mobius transformations of the ball, the family of
slice Hermitian / Riemannian / Kahler structures they induce, and the
Hardy-kernel pseudo-hyperbolic distance.

The verification suite for the documented identities is the submodule
sliceball.verify (run_checks, CheckResult).  Importing the package does
not load it; `sliceball verify` imports it when it runs.
"""

from .config import (DEFAULT_ATOL, DEFAULT_BOUNDARY_MARGIN, DEFAULT_RTOL,
                     DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_TRUNCATION,
                     RunConfig)
from .errors import (ConversionError, DomainError, PreconditionError,
                     SingularValueError)
from .geometry import (DistanceResult, NoninvarianceReport, TensorValue,
                       arcozzi_sarfatti_norm, curve_length, distance_estimate,
                       hyperbolic_metric, kahler_rank, noninvariance_witness,
                       representation_transform, slice_hermitian,
                       slice_hermitian_via_definition, slice_kahler,
                       slice_restriction_kahler, slice_riemannian,
                       tensor_value)
from .hardy import (InfinitesimalProbe, KernelTruncation, delta,
                    infinitesimal_ratio, kernel_inner, kernel_norm_sq,
                    tail_bound, truncation_for)
from .mobius import (RegularMobius, SpOneOneMatrix, classical_apply,
                     classical_differential, conjugation_cu,
                     matrix_regular_apply, matrix_regular_differential,
                     matrix_regular_series, matrix_to_canonical,
                     normalize_pair, random_sp11, regular_apply,
                     regular_apply_via_series, regular_differential,
                     rotation_ru)
from .quat import (EPS_ZERO, I, J, K, ONE, ZERO, Quaternion,
                   as_imaginary_unit, is_imaginary_unit, max_component_diff,
                   project_slice, random_ball_point, random_imaginary_unit,
                   random_tangent, random_unit_quaternion, slice_components)
from .series import RegularPowerSeries

__version__ = "0.1.0"

__all__ = [
    "ConversionError", "DEFAULT_ATOL", "DEFAULT_BOUNDARY_MARGIN",
    "DEFAULT_RTOL", "DEFAULT_SAMPLES", "DEFAULT_SEED", "DEFAULT_TRUNCATION",
    "DistanceResult", "DomainError", "EPS_ZERO", "I", "InfinitesimalProbe",
    "J", "K", "KernelTruncation", "NoninvarianceReport", "ONE",
    "PreconditionError", "Quaternion", "RegularMobius", "RegularPowerSeries",
    "RunConfig", "SingularValueError", "SpOneOneMatrix", "TensorValue",
    "ZERO", "arcozzi_sarfatti_norm", "as_imaginary_unit", "classical_apply",
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
    "tensor_value", "truncation_for", "__version__",
]
