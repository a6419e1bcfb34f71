"""Shared numeric tolerances."""

import math
from dataclasses import dataclass

from .errors import InvalidField

#: How far a unit length, an orthogonality or a frame agreement may miss.
VECTOR_TOL = 1e-6

#: Degeneracy threshold for both the speed and the velocity cross
#: acceleration norm.
SPEED_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The one decision knob callers set.

    constancy_tol is the relative deviation a sampled quantity may show and
    still count as constant.
    """

    constancy_tol: float = 1e-4

    def __post_init__(self):
        value = self.constancy_tol
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidField(f"constancy_tol must be a real number, got {value!r}")
        if not (math.isfinite(value) and value > 0):
            raise InvalidField(f"constancy_tol must be strictly positive and finite, got {value!r}")

    def report(self) -> dict:
        """Every tolerance in force, as the verification reports list them."""
        return {"vector_tol": VECTOR_TOL, "constancy_tol": self.constancy_tol,
                "speed_tol": SPEED_TOL}


DEFAULT_TOLERANCES = Tolerances()
