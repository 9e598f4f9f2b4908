"""Run configuration shared by the verification suites and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 7
DEFAULT_SAMPLES = 1000
DEFAULT_TRUNCATION = 64
DEFAULT_ATOL = 1e-12
DEFAULT_RTOL = 1e-9
DEFAULT_BOUNDARY_MARGIN = 1e-3   # samplers stay inside |q| <= 1 - margin


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES
    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL
    boundary_margin: float = DEFAULT_BOUNDARY_MARGIN

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0.0 < self.boundary_margin < 1.0:
            raise ValueError("boundary_margin must lie in (0, 1)")
        for name in ("atol", "rtol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, value))
