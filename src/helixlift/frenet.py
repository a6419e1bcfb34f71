"""Frenet apparatus: frames, curvature, torsion, arc length, reparameterization.

All formulas here are the general parameter ones, valid for any regular
parameterization:

    T = a' / |a'|
    B = (a' x a'') / |a' x a''|
    N = B x T
    kappa = |a' x a''| / |a'|^3
    tau   = det(a', a'', a''') / |a' x a''|^2

Every frame comes from one kernel, ``frames_from_derivatives``, which works
on arrays of samples. Arc length integrates the speed with one adaptive
Simpson integrator that refines all panels together, and the unit speed
reparameterization inverts the cumulative arc length map with a bracketed
Newton iteration run on all queries at once, whose steps reuse the speed the
quadrature evaluated at each iterate, its end point. Nothing is cached. The
reparameterized curve differentiates through the chain rule, so its
derivatives are as exact as the base curve's. Frames evaluate the first
three derivatives as one ``jet``, which on a reparameterized curve solves
the arc length inverse once for all three orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ParamCurve, uniform_grid
from .errors import DegenerateFrame, InputError, ZeroSpeed
from .tolerances import SPEED_TOL


@dataclass(frozen=True)
class FrenetFrame:
    """Orthonormal frame with curvature data at one parameter value.

    A frame built at an array of n parameters holds them all: T, N and B
    have shape (n, 3), and kappa, tau and speed shape (n,).
    """

    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    speed: float


def cross3(a, b) -> np.ndarray:
    """a x b of (3,) vectors or (n, 3) rows: np.cross's slice arithmetic, without its overhead."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def frames_from_derivatives(d1, d2, d3):
    """The frame kernel: Frenet frames from the first three derivatives.

    d1, d2, d3 are (3,) vectors or (n, 3) arrays. Returns the frame, its
    fields shaped like the input rows, and a mask of the rows where the
    frame exists: speed and |a' x a''| above SPEED_TOL, and speed,
    |a' x a''|, kappa and tau all finite. Other rows hold meaningless values.
    """
    with np.errstate(all="ignore"):
        speed = np.linalg.norm(d1, axis=-1)
        cross = cross3(d1, d2)
        cross_norm = np.linalg.norm(cross, axis=-1)
        kappa = cross_norm / speed**3
        tau = np.sum(cross * d3, axis=-1) / cross_norm**2
        T = d1 / speed[..., None]
        B = cross / cross_norm[..., None]
        N = cross3(B, T)
    exists = (speed > SPEED_TOL) & (cross_norm > SPEED_TOL)
    exists &= np.all(np.isfinite([speed, cross_norm, kappa, tau]), axis=0)
    return FrenetFrame(T=T, N=N, B=B, kappa=kappa[()], tau=tau[()], speed=speed[()]), exists


def require_frames(frame: FrenetFrame, exists, ts) -> None:
    """Raise for the first sample of ``ts`` without a frame: ZeroSpeed when
    its speed vanished, DegenerateFrame otherwise."""
    missing = np.flatnonzero(~exists)
    if missing.size == 0:
        return
    i = missing[0]
    t, speed, kappa = (np.ravel(x)[i] for x in (ts, frame.speed, frame.kappa))
    if speed <= SPEED_TOL:
        raise ZeroSpeed(f"speed {speed:.3e} at t={t} is below the degeneracy threshold")
    raise DegenerateFrame(
        f"|a' x a''| = {kappa * speed**3:.3e} at t={t}; velocity and acceleration "
        "are parallel or not finite"
    )


def frame_at(curve, t) -> FrenetFrame:
    """Frenet frame at ``t``, one parameter or a 1-D array of them.

    The binormal comes from the velocity cross acceleration and the normal
    is defined as B x T, which keeps the triple right handed by
    construction. Raises ZeroSpeed or DegenerateFrame for the first sample
    where the frame does not exist.
    """
    frame, exists = frames_from_derivatives(*curve.jet(t, (1, 2, 3)))
    require_frames(frame, exists, t)
    return frame


#: Local tolerance of every arc length integral. Panels start short (a grid
#: cell or less), so most of them are accepted at the first refinement.
_QUAD_TOL = 1e-12
_MAX_DEPTH = 48
#: Most panels under refinement at once. Where round off never meets the
#: absolute tolerance (very long panels) the open panels would double at every
#: level; past this many every open panel is accepted, as at the depth cap.
#: A whole polyline integrated from one panel peaks near 6k.
_MAX_OPEN_PANELS = 1 << 18


def _speed(curve, ts):
    return np.sqrt(np.add.reduce(curve.eval(ts, 1) ** 2, axis=-1))  # np.linalg.norm's arithmetic


def integrate_speed(curve, a, b):
    """Arc length over each panel [a[i], b[i]] by adaptive Simpson quadrature,
    and the speed at each b[i], which the first level evaluates.

    All panels are refined together, one level at a time, with one speed
    evaluation per level. A panel is accepted when halving moves its
    estimate by less than 15 * tol, tol halves at each level, and the
    accepted value carries the Richardson correction, so it is one order
    better than plain Simpson. Depth 48, a width floor of 1e-14 of the
    starting panel and a cap on the open panels stop panels that round off
    keeps from converging; a non-finite estimate is final at once.
    """
    x0 = np.asarray(a, dtype=float)
    x2 = np.asarray(b, dtype=float)
    n = x0.size
    f0, f1, f2 = fs = _speed(curve, np.concatenate([x0, 0.5 * (x0 + x2), x2])).reshape(3, -1)
    whole = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    floor = (x2 - x0) * 1e-14
    owner = np.arange(n)
    owners, parts = [], []
    for depth in range(_MAX_DEPTH + 1):
        xm = 0.5 * (x0 + x2)
        fl, fr = _speed(curve, np.concatenate([0.5 * (x0 + xm), 0.5 * (xm + x2)])).reshape(2, -1)
        left = (xm - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - xm) / 6.0 * (f1 + 4.0 * fr + f2)
        diff = left + right - whole
        tol = _QUAD_TOL * 0.5**depth
        done = (np.abs(diff) < 15.0 * tol) | ~np.isfinite(diff) | ((x2 - x0) <= floor[owner])
        if depth == _MAX_DEPTH or np.count_nonzero(~done) > _MAX_OPEN_PANELS:
            done[:] = True
        owners.append(owner[done])
        parts.append((left + right + diff / 15.0)[done])
        more = ~done
        if not more.any():
            break
        # Left halves first, then right halves, each with its own parent data.
        owner = np.tile(owner[more], 2)
        x0, x2 = np.concatenate([x0[more], xm[more]]), np.concatenate([xm[more], x2[more]])
        f0, f1, f2 = (np.concatenate([u[more], w[more]]) for u, w in ((f0, f1), (fl, fr), (f1, f2)))
        whole = np.concatenate([left[more], right[more]])
    return np.bincount(np.concatenate(owners), weights=np.concatenate(parts), minlength=n), fs[2]


def arc_length(curve, t0, t1) -> float:
    """Arc length of the curve between t0 and t1 (t0 <= t1 required)."""
    if float(t0) > float(t1):
        raise InputError(f"arc_length needs t0 <= t1, got t0={t0}, t1={t1}")
    return float(integrate_speed(curve, [t0], [t1])[0][0])


class ArcLengthMap:
    """Cumulative arc length of a curve and its inverse, on parameter arrays.

    A uniform table of grid_size nodes brackets queries. forward(t) adds the
    integral from the nearest node below, and inverse(s) runs a bracketed
    Newton iteration against forward on all queries at once. Both share the
    adaptive Simpson rule of ``integrate_speed``, cache nothing, are
    deterministic, and are accurate to roughly 1e-12 in absolute terms, which
    keeps finite differences taken through this map well behaved.
    """

    def __init__(self, curve: ParamCurve, grid_size: int = 512):
        self._curve = curve
        ts = uniform_grid(curve.t_lo, curve.t_hi, grid_size)
        slow = np.flatnonzero(_speed(curve, ts) <= SPEED_TOL)
        if slow.size:
            raise ZeroSpeed(
                f"speed vanishes near t={ts[slow[0]]}; arc length map is not invertible"
            )
        seg = integrate_speed(curve, ts[:-1], ts[1:])[0]
        if not np.all(np.isfinite(seg) & (seg > 0)):
            raise ZeroSpeed("arc length table is not finite and strictly increasing")
        self._ts = ts
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def grid_size(self) -> int:
        return len(self._ts)

    @property
    def total_length(self) -> float:
        return float(self._cum[-1])

    def forward(self, t):
        """Arc length from the domain start to t (a parameter or an array)."""
        s = self._forward(np.atleast_1d(np.asarray(t, dtype=float)))[0]
        return s if np.ndim(t) else float(s[0])

    def _forward(self, ts: np.ndarray):
        ts = np.clip(ts, *self._curve.domain)
        k = np.clip(np.searchsorted(self._ts, ts, side="right") - 1, 0, len(self._ts) - 2)
        lengths, speed = integrate_speed(self._curve, self._ts[k], ts)
        return self._cum[k] + lengths, speed

    def inverse(self, s):
        """Parameter t with forward(t) = s (a length or an array), s clamped
        into [0, total_length]."""
        t = self._inverse(np.atleast_1d(np.asarray(s, dtype=float)))
        return t if np.ndim(s) else float(t[0])

    def _inverse(self, s: np.ndarray) -> np.ndarray:
        cum, ts = self._cum, self._ts
        s = np.clip(s, 0.0, self.total_length)
        k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(ts) - 2)
        lo_b, hi_b = ts[k], ts[k + 1]
        # The table is strictly increasing, so every cell has positive width.
        t = lo_b + (s - cum[k]) / (cum[k + 1] - cum[k]) * (hi_b - lo_b)
        step_tol = 1e-14 * max(1.0, self._curve.span)
        active = np.arange(t.size)
        for _ in range(12):
            ta = t[active]
            s_ta, speed = self._forward(ta)
            resid = s_ta - s[active]
            above = resid > 0
            hi_b[active] = np.where(above, ta, hi_b[active])
            lo_b[active] = np.where(above, lo_b[active], ta)
            t_new = ta - resid / speed
            inside = (lo_b[active] <= t_new) & (t_new <= hi_b[active])
            t_new = np.where(inside, t_new, 0.5 * (lo_b[active] + hi_b[active]))
            t[active] = t_new
            active = active[np.abs(t_new - ta) > step_tol]
            if active.size == 0:
                break
        return np.clip(t, self._curve.t_lo, self._curve.t_hi)


class ReparamCurve(ParamCurve):
    """Unit speed reparameterization of a regular base curve.

    The parameter is arc length s in [0, L]. Positions come from the base
    curve at t = inverse(s); derivatives apply the chain rule with the exact
    derivatives of the inverse map (dt/ds = 1/v and its derivatives), so no
    finite differencing is involved and the speed is exactly 1 by
    construction. A jet solves the inverse once and takes every base order
    it needs from one base jet, so a frame costs one inverse, not three.
    """

    kind = "arclength_reparam"

    def __init__(self, base: ParamCurve, length_map: ArcLengthMap):
        super().__init__(0.0, length_map.total_length)
        self._base = base
        self._map = length_map

    @property
    def base(self) -> ParamCurve:
        return self._base

    @property
    def length_map(self) -> ArcLengthMap:
        return self._map

    def _jet(self, s: np.ndarray, orders: tuple) -> list:
        # s is already a 1-D array; inverse() would only add shape handling.
        # Order k needs base orders 1..k; order 0 needs only the position.
        t = self._map._inverse(s)
        needed = range(min(min(orders), 1), max(orders) + 1)
        b = dict(zip(needed, self._base.jet(t, needed)))
        out = {0: b.get(0)}
        if 1 in b:
            # Column vectors, so the chain rule below broadcasts over the rows.
            v = np.linalg.norm(b[1], axis=1, keepdims=True)
            slow = np.flatnonzero(v <= SPEED_TOL)
            if slow.size:
                raise ZeroSpeed(f"base speed vanishes at t={t[slow[0]]}")
            t1 = 1.0 / v
            out[1] = b[1] * t1
        if 2 in b:
            vdot = np.sum(b[1] * b[2], axis=1, keepdims=True) / v
            t2 = -vdot / v**3
            out[2] = b[2] * (t1 * t1) + b[1] * t2
        if 3 in b:
            # w = (v^2)''/2 = v'^2 + v v''
            w = np.sum(b[2] * b[2] + b[1] * b[3], axis=1, keepdims=True)
            vddot = w / v - vdot * vdot / v
            t3 = (3.0 * vdot * vdot - v * vddot) / v**5
            out[3] = b[3] * t1**3 + 3.0 * b[2] * t1 * t2 + b[1] * t3
        if 4 in b:
            wdot = np.sum(3.0 * b[2] * b[3] + b[1] * b[4], axis=1, keepdims=True)
            vdddot = (wdot - 3.0 * vdot * vddot) / v
            t4 = (10.0 * v * vdot * vddot - v * v * vdddot - 15.0 * vdot**3) / v**7
            out[4] = (
                b[4] * t1**4
                + 6.0 * b[3] * (t1 * t1) * t2
                + b[2] * (3.0 * t2 * t2 + 4.0 * t1 * t3)
                + b[1] * t4
            )
        return [out[k] for k in orders]


def reparam_by_arclength(curve, grid_size: int = 512) -> ReparamCurve:
    """Arc length reparameterization of a regular curve.

    Raises ZeroSpeed when the speed falls to the degeneracy threshold
    anywhere on the sampling grid.
    """
    return ReparamCurve(curve, ArcLengthMap(curve, grid_size=grid_size))
