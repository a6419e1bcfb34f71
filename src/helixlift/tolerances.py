"""Shared numeric tolerances."""

import math
from dataclasses import dataclass

from .errors import InvalidField


@dataclass(frozen=True)
class Tolerances:
    """Knobs that decide when numbers count as zero, unit, or constant.

    vector_tol gates unit length, orthogonality, and frame agreement checks.
    constancy_tol is the relative deviation a sampled quantity may show and
    still count as constant. speed_tol is the degeneracy threshold for both
    the speed and the velocity cross acceleration norm.
    """

    vector_tol: float = 1e-6
    constancy_tol: float = 1e-4
    speed_tol: float = 1e-8

    def __post_init__(self):
        for name in ("vector_tol", "constancy_tol", "speed_tol"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidField(f"{name} must be a real number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise InvalidField(f"{name} must be strictly positive and finite, got {value!r}")


DEFAULT_TOLERANCES = Tolerances()
