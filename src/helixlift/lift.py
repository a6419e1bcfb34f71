"""Helix lift: translate a general helix along its axis while shearing by
the tangent direction.

The lifted curve is

    lifted(s) = offset + sin(theta) * alpha(s) + axis * (s - s0) * cos(theta)

where theta is the helix angle of the base curve alpha and axis is its axis
direction. For a unit speed base the lifted tangent has the closed form
coefficients implemented by ``closed_form_lift_frame``; the printed binormal
coefficient pair (lambda, mu) and the normal factor c are implemented here
exactly as printed so the verification suite can audit them against the
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import ParamCurve, as_vec3
from .errors import DegenerateDenominator, InvalidField, NotAHelix, NotUnitSpeed, ThetaMismatch
from .frenet import require_frames
from .helix import axis_of, frame_grid, lancret_of
from .tolerances import DEFAULT_TOLERANCES, VECTOR_TOL, Tolerances

AXIS_MODES = ("unit", "paper_printed", "explicit")

#: Angles closer than this to 0 or pi/2 take the degenerate construction path.
_DEGENERATE_THETA = 1e-12

#: closed_form_lift_frame raises when lambda^2 + mu^2 falls to this.
_DENOM_TOL = 1e-12


@dataclass(eq=False)
class LiftSpec:
    """Parameters of a lift.

    theta lies in [0, pi/2], or is None for the base's measured helix angle.
    axis_mode chooses how the axis vector is obtained: "unit" measures the
    base helix axis and normalizes it, "paper_printed" doubles that unit
    axis (the convention used by the printed worked example), and
    "explicit" takes the axis field verbatim; theta = 0, where the lift is a
    line along the axis, needs it.
    """

    theta: float | None
    s0: float = 0.0
    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    axis_mode: str = "unit"
    axis: np.ndarray | None = None

    def __post_init__(self):
        if self.theta is not None:
            self.theta = float(self.theta)
            if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi / 2.0):
                raise InvalidField(f"theta must lie in [0, pi/2], got {self.theta}")
        self.s0 = float(self.s0)
        if not math.isfinite(self.s0):
            raise InvalidField(f"s0 must be finite, got {self.s0}")
        self.offset = as_vec3(self.offset, "offset")
        if self.axis_mode not in AXIS_MODES:
            raise InvalidField(f"axis_mode must be one of {AXIS_MODES}, got {self.axis_mode!r}")
        if self.axis_mode == "explicit":
            if self.axis is None:
                raise InvalidField("axis_mode 'explicit' requires an axis vector")
            self.axis = as_vec3(self.axis, "axis")
            if float(np.linalg.norm(self.axis)) == 0.0:
                raise InvalidField("explicit axis must be nonzero")
        elif self.axis is not None:
            raise InvalidField("axis field is only allowed with axis_mode 'explicit'")
        elif self.theta is not None and self.theta < _DEGENERATE_THETA:
            raise InvalidField("theta = 0 collapses the lift to a line along the axis; "
                               "axis_mode must be 'explicit'")

    @property
    def is_degenerate(self) -> bool:
        t = self.theta
        return t is not None and (t < _DEGENERATE_THETA or (math.pi / 2.0 - t) < _DEGENERATE_THETA)


class LiftedCurve(ParamCurve):
    """The lift of a base curve, axis already resolved to a constant vector."""

    kind = "lifted"

    def __init__(self, base: ParamCurve, spec: LiftSpec, axis: np.ndarray):
        super().__init__(base.t_lo, base.t_hi)
        self._base = base
        self._spec = spec
        self._axis = as_vec3(axis, "axis")
        self._sin = math.sin(spec.theta)
        self._cos = math.cos(spec.theta)

    @property
    def base(self) -> ParamCurve:
        return self._base

    @property
    def spec(self) -> LiftSpec:
        return self._spec

    @property
    def axis(self) -> np.ndarray:
        return self._axis

    def _jet(self, ts: np.ndarray, orders: tuple) -> list:
        return self.lift_jet(ts, orders, self._base.jet(ts, orders))

    def lift_jet(self, ts: np.ndarray, orders: tuple, base_jet: list) -> list:
        """The lift's jet of ``orders`` at the 1-D array ts, from the base's jet
        of the same orders there; equal to ``jet(ts, orders)``."""
        outs = [self._sin * d for d in base_jet]
        for i, k in enumerate(orders):
            if k == 0:
                line = self._axis * ((ts - self._spec.s0) * self._cos)[:, None]
                outs[i] = self._spec.offset + outs[i] + line
            elif k == 1:
                outs[i] = outs[i] + self._axis * self._cos
        return outs


def require_unit_speed(speed) -> None:
    """Strict lift_curve's gate: NotUnitSpeed unless every speed is within VECTOR_TOL of 1."""
    worst = float(np.max(np.abs(speed - 1.0)))
    if not worst <= VECTOR_TOL:
        raise NotUnitSpeed(f"speed deviates from 1 by {worst:.3e}; "
                           "reparameterize by arc length first")


def lift_curve(
    alpha: ParamCurve,
    spec: LiftSpec,
    grid_size: int = 256,
    tol: Tolerances = DEFAULT_TOLERANCES,
    strict: bool = True,
) -> LiftedCurve:
    """Construct the lift of ``alpha`` described by ``spec``.

    Everything measured comes from one frame grid of alpha with grid_size
    samples. spec.theta None means alpha's helix angle as classify_curve
    measures it; the returned curve's spec holds that angle. With strict=True
    (the default) the base must be unit speed within VECTOR_TOL, have a frame
    at every sample and pass the Lancret test, whatever the axis mode and
    theta, and for non-explicit axis modes and a theta not within 1e-12 of 0
    or pi/2 its measured helix angle must agree with spec.theta.
    strict=False skips the unit speed gate, which the printed worked example
    needs since its base keeps its non arc length parameter, and with an
    explicit axis or a degenerate theta it skips the Lancret test too.

    Degenerate angles are allowed: theta = pi/2 is a pure translation by
    offset (the axis term vanishes), theta = 0 produces the straight line
    offset + axis * (s - s0) and therefore requires an explicit axis. Without
    strict, a given degenerate theta builds no grid.
    """
    # One jet serves the unit speed gate, the frames and the measured angle.
    return _lift_on_grid(alpha, spec, lambda: frame_grid(alpha, grid_size), tol, strict)


def _lift_on_grid(alpha, spec, grid, tol, strict) -> LiftedCurve:
    """lift_curve on alpha's grid: grid() returns what frame_grid(alpha, ...)
    does, and is called only where lift_curve measures alpha."""

    def gated(spec):
        # Strict lifts pass every gate; others pass the Lancret test only
        # where the measured angle gives the axis.
        return strict or not (spec.axis_mode == "explicit" or spec.is_degenerate)

    if spec.theta is None or gated(spec):
        ts, _, frames, exists = grid()
        if strict:
            require_unit_speed(frames.speed)
        require_frames(frames, exists, ts)
        is_helix, theta_measured, ratio_stat = lancret_of(frames, tol)
        if spec.theta is None:
            spec = replace(spec, theta=theta_measured)

    if gated(spec) and not is_helix:
        raise NotAHelix(f"kappa/tau relative deviation {ratio_stat.rel_dev:.3e} exceeds tolerance")
    if spec.is_degenerate:
        # At theta = pi/2 the axis term carries cos(theta) = 0 and is inert.
        return LiftedCurve(alpha, spec, np.zeros(3) if spec.axis is None else spec.axis)
    if spec.axis_mode == "explicit":
        return LiftedCurve(alpha, spec, spec.axis)
    if abs(theta_measured - spec.theta) > tol.constancy_tol:
        raise ThetaMismatch(f"spec theta {spec.theta} vs measured helix angle {theta_measured}")
    unit_axis, _ = axis_of(frames, theta_measured, ratio_stat, tol)
    return LiftedCurve(alpha, spec, unit_axis if spec.axis_mode == "unit" else 2.0 * unit_axis)


@dataclass(frozen=True)
class ClosedFormFrame:
    """Printed closed form coefficients for the lifted frame.

    tbar_* are the tangent coefficients on (T, B) of the base frame; they
    are exact for a unit axis lift of a unit speed helix. bbar_* and c are
    the printed binormal and normal claims, kept verbatim for the errata
    audit; they do not agree with the oracle in general.
    """

    lam: float
    mu: float
    c: float
    tbar_T_coeff: float
    tbar_B_coeff: float
    bbar_T_coeff: float
    bbar_B_coeff: float


def closed_form_lift_frame(kappa: float, tau: float, theta: float) -> ClosedFormFrame:
    """Evaluate the printed lifted frame coefficients at one (kappa, tau).

    lambda = cos sin^2 + cos^3 sin depends on theta alone;
    mu = (sin + cos^2) kappa - lambda tau. Raises DegenerateDenominator when
    lambda^2 + mu^2 falls to 1e-12.
    """
    kappa = float(kappa)
    tau = float(tau)
    theta = float(theta)
    if not (math.isfinite(kappa) and math.isfinite(tau) and math.isfinite(theta)):
        raise InvalidField("kappa, tau, theta must be finite")
    s, c = math.sin(theta), math.cos(theta)
    tangent_norm = math.sqrt(1.0 + c * math.sin(2.0 * theta))
    tbar_T = (s + c * c) / tangent_norm
    tbar_B = (c * s) / tangent_norm
    lam = c * s * s + c**3 * s
    mu = (s + c * c) * kappa - lam * tau
    denom_sq = lam * lam + mu * mu
    if denom_sq <= _DENOM_TOL:
        raise DegenerateDenominator(f"lambda^2 + mu^2 = {denom_sq:.3e} is below {_DENOM_TOL:.1e}")
    denom = math.sqrt(denom_sq)
    bbar_T = lam / denom
    bbar_B = mu / denom
    return ClosedFormFrame(
        lam=lam,
        mu=mu,
        c=bbar_B * tbar_T - bbar_T * tbar_B,
        tbar_T_coeff=tbar_T,
        tbar_B_coeff=tbar_B,
        bbar_T_coeff=bbar_T,
        bbar_B_coeff=bbar_B,
    )
