"""Space curve representations with derivative evaluation.

Every curve maps a scalar parameter from a closed interval into three
dimensional Euclidean space and exposes derivatives up to order 4
(``MAX_DERIVATIVE_ORDER``) through a single ``eval(t, order)`` entry point,
which takes one parameter or a 1-D array of them. Analytic kinds
(polynomial components, circular helix) differentiate exactly. A polyline
carries no smooth structure of its own, so it is interpolated once by a
natural cubic spline and the spline is differentiated; curves known only
through sampled positions go through ``Polyline``. No kind differentiates
by finite differences. Every uniform parameter grid comes from
``uniform_grid``, and every grid size passes ``check_grid_size``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InvalidField, OutOfDomain, UnsupportedOrder

MAX_DERIVATIVE_ORDER = 4

#: Largest grid ``uniform_grid`` builds: 2048 times every default grid size,
#: and small enough that a mistyped size fails before it allocates gigabytes.
MAX_GRID_SIZE = 1 << 20


def outside(ts, lo: float, hi: float) -> np.ndarray:
    """Mask of the parameters that lie outside [lo, hi], NaN included.

    Each end carries a slack of 1e-12 * max(1, hi - lo), which absorbs the
    round off that quadrature, root finding and JSON round trips put on a
    parameter. Every domain comparison in the package goes through here.
    """
    slack = 1e-12 * max(1.0, hi - lo)
    ts = np.asarray(ts, dtype=float)
    return ~((ts >= lo - slack) & (ts <= hi + slack))


def same_domain(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """True when each of two intervals contains the other up to the slack."""
    return not (outside(a, *b).any() or outside(b, *a).any())


def check_grid_size(size, least: int = 2, name: str = "grid_size") -> int:
    """``size`` as an int; raises InvalidField, naming the size ``name``,
    unless least <= size <= MAX_GRID_SIZE."""
    size = int(size)
    if size < least:
        raise InvalidField(f"{name} must be at least {least}, got {size}")
    if size > MAX_GRID_SIZE:
        raise InvalidField(f"{name} must be at most {MAX_GRID_SIZE}, got {size}")
    return size


def uniform_grid(lo: float, hi: float, size, least: int = 2, name: str = "grid_size") -> np.ndarray:
    """``size`` evenly spaced parameters from lo to hi, the size checked by
    ``check_grid_size``."""
    return np.linspace(lo, hi, check_grid_size(size, least, name))


def as_vec3(value, field: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 vector of shape (3,), or raise InvalidField."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise InvalidField(f"{field} must have exactly three components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidField(f"{field} must be finite, got {arr.tolist()}")
    return arr


class ParamCurve:
    """A curve over a closed parameter interval.

    There are two hooks: leaf kinds implement ``_evaluate(ts, order)`` for
    all orders 0..MAX_DERIVATIVE_ORDER on a 1-D parameter array, returning
    shape (n, 3), and kinds built on a base curve implement
    ``_jet(ts, orders)``, which returns one such array per order. Instances
    are immutable after construction and safe to evaluate concurrently;
    results do not depend on evaluation order.
    """

    kind: str = "opaque"

    def __init__(self, t_lo: float, t_hi: float):
        t_lo = float(t_lo)
        t_hi = float(t_hi)
        if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
            raise InvalidField(f"domain endpoints must be finite, got [{t_lo}, {t_hi}]")
        if not t_lo < t_hi:
            raise InvalidField(f"domain [{t_lo}, {t_hi}] is empty")
        if not math.isfinite(t_hi - t_lo):
            raise InvalidField(f"domain [{t_lo}, {t_hi}] is wider than the float range")
        self._t_lo = t_lo
        self._t_hi = t_hi

    @property
    def t_lo(self) -> float:
        return self._t_lo

    @property
    def t_hi(self) -> float:
        return self._t_hi

    @property
    def domain(self) -> tuple[float, float]:
        return (self._t_lo, self._t_hi)

    @property
    def span(self) -> float:
        return self._t_hi - self._t_lo

    def eval(self, t, order: int = 0) -> np.ndarray:
        """Derivative of the given order at ``t``, a parameter or a 1-D array.

        Returns shape (3,) for a scalar and (n, 3) for an array of n. Raises
        UnsupportedOrder for orders outside 0..MAX_DERIVATIVE_ORDER and
        OutOfDomain, naming the first offending entry, for parameters outside
        the closed interval (see ``outside`` for the round off slack).
        """
        return self.jet(t, (order,))[0]

    def jet(self, t, orders) -> list:
        """One array per order in ``orders``, each as ``eval(t, order)`` returns
        it, from one domain check and, for kinds built on a base, one base jet."""
        orders = tuple(orders)
        for order in orders:
            if order not in range(MAX_DERIVATIVE_ORDER + 1):
                raise UnsupportedOrder(order, MAX_DERIVATIVE_ORDER)
        ts = np.asarray(t, dtype=float)
        lo, hi = self._t_lo, self._t_hi
        bad = outside(ts, lo, hi)
        if bad.any():
            raise OutOfDomain(float(ts[bad].flat[0]), lo, hi)
        outs = self._jet(np.clip(np.atleast_1d(ts), lo, hi), tuple(map(int, orders)))
        return outs if ts.ndim else [out[0] for out in outs]

    def _jet(self, ts: np.ndarray, orders: tuple) -> list:
        return [self._evaluate(ts, order) for order in orders]

    def _evaluate(self, ts: np.ndarray, order: int) -> np.ndarray:
        raise NotImplementedError("curve kinds must implement _evaluate or _jet")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r} domain=[{self._t_lo}, {self._t_hi}]>"


class PolynomialCurve(ParamCurve):
    """Curve with one ascending degree coefficient list per component."""

    kind = "polynomial"

    def __init__(self, coeffs, domain):
        super().__init__(domain[0], domain[1])
        if len(coeffs) != 3:
            raise InvalidField(f"polynomial curves need exactly three coefficient lists, got {len(coeffs)}")
        cleaned = []
        for i, comp in enumerate(coeffs):
            arr = np.asarray(comp, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise InvalidField(f"coefficient list {i} must be a non-empty sequence of reals")
            if not np.all(np.isfinite(arr)):
                raise InvalidField(f"coefficient list {i} contains non-finite values")
            cleaned.append(arr.copy())
        self._coeffs = tuple(cleaned)
        # One zero padded (degree + 1, 3) table per order for one polyval. Each
        # column is differentiated alone, so every result equals polyval on it.
        self._tables, comps = [], self._coeffs
        for order in range(MAX_DERIVATIVE_ORDER + 1):
            comps = [npoly.polyder(c) for c in comps] if order else comps
            self._tables.append(np.zeros((max(c.size for c in comps), 3)))
            for i, c in enumerate(comps):
                self._tables[-1][: c.size, i] = c

    @property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._coeffs

    def _evaluate(self, ts: np.ndarray, order: int) -> np.ndarray:
        # C order, as the stacked columns were, so products downstream round alike.
        return np.ascontiguousarray(npoly.polyval(ts, self._tables[order]).T)


class CircularHelix(ParamCurve):
    """The helix (r cos t, r sin t, p t); p is the axial advance per radian.

    Curvature r / (r^2 + p^2) and torsion p / (r^2 + p^2) are both constant,
    which makes this the canonical circular helix. Pitch 0 gives a planar
    circle of radius r.
    """

    kind = "circular_helix"

    def __init__(self, radius, pitch, domain=(0.0, 2.0 * math.pi)):
        super().__init__(domain[0], domain[1])
        radius = float(radius)
        pitch = float(pitch)
        if not (math.isfinite(radius) and radius > 0):
            raise InvalidField(f"radius must be strictly positive, got {radius}")
        if not math.isfinite(pitch):
            raise InvalidField(f"pitch must be finite, got {pitch}")
        self._radius = radius
        self._pitch = pitch

    @property
    def radius(self) -> float:
        return self._radius

    @property
    def pitch(self) -> float:
        return self._pitch

    def _evaluate(self, ts: np.ndarray, order: int) -> np.ndarray:
        r, p = self._radius, self._pitch
        if order == 0:
            return np.stack([r * np.cos(ts), r * np.sin(ts), p * ts], axis=-1)
        # d^k/dt^k of (cos, sin) is a quarter turn phase shift per order
        ph = ts + order * (math.pi / 2.0)
        z = np.full_like(ts, p if order == 1 else 0.0)
        return np.stack([r * np.cos(ph), r * np.sin(ph), z], axis=-1)


class Polyline(ParamCurve):
    """Point sequence interpolated by a natural cubic spline.

    A raw polyline has no curvature to speak of; the spline supplies the C2
    structure, and derivatives are derivatives of the spline (order 3 is
    piecewise constant, order 4 zero). scipy is imported here rather than
    at module level, so commands on other curves never load it.
    """

    kind = "polyline"

    def __init__(self, points, knots):
        pts = np.asarray(points, dtype=float)
        kns = np.asarray(knots, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidField(f"points must be an (n, 3) array, got shape {pts.shape}")
        if kns.ndim != 1:
            raise InvalidField(f"knots must be a one dimensional array, got shape {kns.shape}")
        if pts.shape[0] != kns.shape[0]:
            raise InvalidField(f"{pts.shape[0]} points but {kns.shape[0]} knots")
        if pts.shape[0] < 2:
            raise InvalidField("polyline needs at least two points")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(kns))):
            raise InvalidField("points and knots must be finite")
        if not np.all(np.diff(kns) > 0):
            raise InvalidField("knots must be strictly increasing")
        from scipy.interpolate import CubicSpline

        super().__init__(kns[0], kns[-1])
        self._points = pts.copy()
        self._knots = kns.copy()
        self._spline = CubicSpline(kns, pts, axis=0, bc_type="natural")

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def knots(self) -> np.ndarray:
        return self._knots

    def _evaluate(self, ts: np.ndarray, order: int) -> np.ndarray:
        return self._spline(ts, nu=order)


class TransformedCurve(ParamCurve):
    """Similarity image (rotation, translation, uniform scale) of a base curve.

    Derivatives map exactly: order k picks up scale * rotation, and the
    translation only enters at order 0. Useful for invariance checks.
    """

    kind = "transformed"

    def __init__(self, base: ParamCurve, rotation=None, translation=None, scale=1.0):
        super().__init__(base.t_lo, base.t_hi)
        self._base = base
        if rotation is None:
            rotation = np.eye(3)
        rotation = np.asarray(rotation, dtype=float)
        if rotation.shape != (3, 3) or not np.all(np.isfinite(rotation)):
            raise InvalidField("rotation must be a finite 3x3 matrix")
        self._rotation = rotation.copy()
        self._translation = (
            np.zeros(3) if translation is None else as_vec3(translation, "translation")
        )
        scale = float(scale)
        if not (math.isfinite(scale) and scale > 0):
            raise InvalidField(f"scale must be strictly positive, got {scale}")
        self._scale = scale

    @property
    def base(self) -> ParamCurve:
        return self._base

    def _jet(self, ts: np.ndarray, orders: tuple) -> list:
        outs = [self._scale * (d @ self._rotation.T) for d in self._base.jet(ts, orders)]
        return [out + self._translation if k == 0 else out for k, out in zip(orders, outs)]
