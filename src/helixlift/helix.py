"""Helix classification: Lancret ratio, axis, slant test, Bertrand pairing.

A general helix is detected through the Lancret criterion, kappa / tau
constant, with the helix angle theta recovered from tan(theta) = kappa/tau.
The slant test (Izumiya and Takeuchi, Turk. J. Math. 28, 2004) checks
constancy of the dimensionless

    sigma = (kappa^2 / (kappa^2 + tau^2)^(3/2)) * d(tau/kappa)/ds

with the derivative taken with respect to arc length. sigma is evaluated
at each sample from the curve's first four derivatives in its own
parameter, so it needs no arc length and no differences between samples.
Bertrand pairing of two curves over the same parameter domain compares
principal normals pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import same_domain, uniform_grid
from .errors import DegenerateFrame, DomainMismatch, InvalidField, NotAHelix
from .frenet import cross3, frame_at, frames_from_derivatives, require_frames
from .tolerances import DEFAULT_TOLERANCES, SPEED_TOL, VECTOR_TOL, Tolerances

#: Denominator floor in relative deviation, keeps sigma == 0 well defined.
STAT_FLOOR = 1e-12

#: Floor used for the slant quantity sigma specifically. Sigma sits at exact
#: zero on every general helix, where the computed values are round off of
#: about 1e-15 to 1e-14 (circular helices, their lifts, the paper's cubic);
#: that must not register as relative deviation.
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class ConstancyStat:
    """How constant a sampled quantity was: mean, worst deviation, both sizes."""

    mean: float
    max_abs_dev: float
    rel_dev: float
    grid_size: int


def constancy_stat(values, floor: float = STAT_FLOOR) -> ConstancyStat:
    """Summarize a sample sequence; rel_dev = max deviation / max(|mean|, floor)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InvalidField("constancy_stat needs at least one sample")
    mean = float(arr.mean())
    max_dev = float(np.max(np.abs(arr - mean)))
    return ConstancyStat(
        mean=mean,
        max_abs_dev=max_dev,
        rel_dev=max_dev / max(abs(mean), floor),
        grid_size=int(arr.size),
    )


def frame_grid(curve, grid_size, orders=(1, 2, 3)):
    """(ts, jet, frames, exists): the uniform grid of grid_size parameters, at
    least 3, the curve's jet of ``orders`` (1, 2, 3, then any higher ones) on
    it, its frames and the mask of samples that have one; see require_frames."""
    ts = uniform_grid(curve.t_lo, curve.t_hi, grid_size, least=3)
    jet = curve.jet(ts, orders)
    return ts, jet, *frames_from_derivatives(*jet[:3])


def lancret_of(frames, tol: Tolerances):
    """The Lancret criterion on a frame grid: kappa / tau constant.

    Returns (is_general_helix, theta, ratio_stat). theta is reported in
    (0, pi/2) regardless of the torsion sign; it is only meaningful when the
    flag is true. Raises DegenerateFrame if the torsion vanishes at any
    sample, since the ratio is undefined there.
    """
    if np.any(np.abs(frames.tau) <= SPEED_TOL):
        raise DegenerateFrame("torsion vanishes at a sample; Lancret ratio undefined there")
    stat = constancy_stat(frames.kappa / frames.tau)
    theta = math.atan(abs(stat.mean))
    return stat.rel_dev <= tol.constancy_tol, theta, stat


def axis_of(frames, theta: float, ratio_stat: ConstancyStat, tol: Tolerances):
    """Axis of a general helix on a frame grid, given the grid's Lancret
    result: the unit mean of cos(theta) T + sin(theta) B, whose binormal term
    carries the torsion's sign, and the constancy stat of the samples around
    it. Raises NotAHelix when they wander from their mean."""
    sign = 1.0 if ratio_stat.mean >= 0 else -1.0
    samples = math.cos(theta) * frames.T + sign * math.sin(theta) * frames.B
    mean_vec = samples.mean(axis=0)
    mean_norm = float(np.linalg.norm(mean_vec))
    max_dev = float(np.max(np.linalg.norm(samples - mean_vec, axis=1)))
    stat = ConstancyStat(
        mean=mean_norm,
        max_abs_dev=max_dev,
        rel_dev=max_dev / max(mean_norm, STAT_FLOOR),
        grid_size=len(samples),
    )
    if stat.rel_dev > tol.constancy_tol:
        raise NotAHelix(f"axis direction wanders by {stat.rel_dev:.3e} relative")
    return mean_vec / mean_norm, stat


def slant_of(jet, frames, tol: Tolerances):
    """The slant helix test on a jet of orders 1..4 and its frames; see slant_test.

    With c = a' x a'', v = |a'|, P = c . a''' and Q = v^3 / |c|^3, tau/kappa
    is P Q. Since c' = a' x a''' is orthogonal to a''',

        d(tau/kappa)/dt = (c . a'''') Q + P Q (3 v'/v - 3 |c|'/|c|)

    with v' = a' . a'' / v and |c|' = c . (a' x a''') / |c|, and dividing by
    v gives the arc length derivative.
    """
    d1, d2, d3, d4 = jet
    v = frames.speed
    c = cross3(d1, d2)
    cn = np.linalg.norm(c, axis=1)
    vdot = np.sum(d1 * d2, axis=1) / v
    cndot = np.sum(c * cross3(d1, d3), axis=1) / cn
    p = np.sum(c * d3, axis=1)
    dratio = (v / cn) ** 3 * (np.sum(c * d4, axis=1) + 3.0 * p * (vdot / v - cndot / cn))
    k2 = frames.kappa * frames.kappa
    sigma = k2 / (k2 + frames.tau * frames.tau) ** 1.5 * dratio / v
    stat = constancy_stat(sigma, floor=SIGMA_FLOOR)
    return stat.rel_dev <= tol.constancy_tol, stat


def slant_test(curve, grid_size: int = 256, tol: Tolerances = DEFAULT_TOLERANCES):
    """Slant helix test: constancy of sigma over every grid sample.

    sigma is exact up to round off at each sample, from the curve's
    derivatives of orders 1 to 4, so the verdict does not depend on the
    grid spacing. Returns (is_slant_helix, sigma_stat); relative deviations
    are taken against at least SIGMA_FLOOR. sigma needs kappa != 0 only, so
    this serves curves whose torsion vanishes, which classify_curve rejects.
    """
    ts, jet, frames, exists = frame_grid(curve, grid_size, orders=(1, 2, 3, 4))
    require_frames(frames, exists, ts)
    return slant_of(jet, frames, tol)


def bertrand_test(curve_a, curve_b, grid_size: int = 256):
    """Bertrand mate test for two curves over the same parameter domain.

    Compares |N_a . N_b| pointwise; the pair passes when the minimum stays
    within VECTOR_TOL of 1. The test is symmetric in its arguments.
    """
    if not same_domain(curve_a.domain, curve_b.domain):
        raise DomainMismatch(
            f"domains [{curve_a.t_lo}, {curve_a.t_hi}] and [{curve_b.t_lo}, {curve_b.t_hi}] differ"
        )
    ts, _, frames_a, exists = frame_grid(curve_a, grid_size)
    require_frames(frames_a, exists, ts)
    dots = np.abs(np.sum(frames_a.N * frame_at(curve_b, ts).N, axis=1))
    stat = constancy_stat(dots)
    return bool(np.min(dots) >= 1.0 - VECTOR_TOL), stat


@dataclass(frozen=True)
class HelixClassification:
    """Combined classification of one curve."""

    is_general_helix: bool
    is_circular_helix: bool
    is_slant_helix: bool
    theta: float | None
    axis: np.ndarray | None
    ratio_stat: ConstancyStat
    sigma_stat: ConstancyStat
    kappa_stat: ConstancyStat
    tau_stat: ConstancyStat


def classify_curve(curve, grid_size: int = 256, tol: Tolerances = DEFAULT_TOLERANCES) -> HelixClassification:
    """Run the Lancret, circular, and slant tests and assemble the result.

    All three tests read one frame grid. A circular helix is a general helix
    whose curvature and torsion are each constant. theta and axis are
    populated only for general helices.
    """
    ts, jet, frames, exists = frame_grid(curve, grid_size, orders=(1, 2, 3, 4))
    require_frames(frames, exists, ts)
    return classify_of(jet, frames, tol)


def classify_of(jet, frames, tol: Tolerances) -> HelixClassification:
    """classify_curve on a jet of orders 1..4 and its frames; see classify_curve."""
    kappa_stat = constancy_stat(frames.kappa)
    tau_stat = constancy_stat(frames.tau)
    is_general, theta, ratio_stat = lancret_of(frames, tol)
    is_slant, sigma_stat = slant_of(jet, frames, tol)
    is_circular = bool(
        is_general
        and kappa_stat.rel_dev <= tol.constancy_tol
        and tau_stat.rel_dev <= tol.constancy_tol
    )
    axis = axis_of(frames, theta, ratio_stat, tol)[0] if is_general else None
    return HelixClassification(
        is_general_helix=bool(is_general),
        is_circular_helix=is_circular,
        is_slant_helix=bool(is_slant),
        theta=theta if is_general else None,
        axis=axis,
        ratio_stat=ratio_stat,
        sigma_stat=sigma_stat,
        kappa_stat=kappa_stat,
        tau_stat=tau_stat,
    )
