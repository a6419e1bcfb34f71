"""Exception hierarchy.

Callers mostly care about two families: InputError for malformed documents,
fields, or arguments (CLI exit code 1), and DegenerateGeometryError for
curves that violate the geometric preconditions of an operation (CLI exit
code 2).
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToolkitError):
    """Malformed document, field, or argument."""


class DegenerateGeometryError(ToolkitError):
    """The curve fails a geometric precondition of the operation."""


class OutOfDomain(InputError):
    """Parameter value outside the curve's closed domain."""

    def __init__(self, t, lo, hi):
        super().__init__(f"parameter {t} outside domain [{lo}, {hi}]")
        self.t = t
        self.lo = lo
        self.hi = hi


class UnsupportedOrder(InputError):
    """Derivative order outside 0..highest."""

    def __init__(self, order, highest):
        super().__init__(f"derivative order {order!r} not supported (expected 0 to {highest})")
        self.order = order


class ParseError(InputError):
    """Curve spec document is not well formed."""


class UnknownKind(InputError):
    """Curve spec document names a kind this toolkit does not provide."""

    def __init__(self, kind):
        super().__init__(f"unknown curve kind {kind!r}")
        self.kind = kind


class InvalidField(InputError):
    """A field value violates the schema or a constructor invariant."""


class DomainMismatch(InputError):
    """Two curves were expected to share a parameter domain but do not."""


class ZeroSpeed(DegenerateGeometryError):
    """The velocity vanishes where a regular curve is required."""


class DegenerateFrame(DegenerateGeometryError):
    """The Frenet frame is undefined: velocity and acceleration are parallel,
    or torsion vanishes where a twisted curve is required."""


class NotAHelix(DegenerateGeometryError):
    """Curvature to torsion ratio is not constant within tolerance."""


class NotUnitSpeed(DegenerateGeometryError):
    """Operation requires an arc length parameterized curve."""


class ThetaMismatch(DegenerateGeometryError):
    """Requested lift angle disagrees with the helix angle of the base curve."""


class DegenerateDenominator(DegenerateGeometryError):
    """Closed form coefficient denominator vanishes."""


class StencilOutOfDomain(DegenerateGeometryError):
    """Finite difference stencil does not fit inside the curve domain."""
