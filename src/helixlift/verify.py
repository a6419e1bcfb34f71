"""Independent verification: position-only oracle, theorem checks, errata suite.

The oracle here deliberately knows nothing about exact derivatives. It
reconstructs the frame of any curve from five position samples with second
order stencils, so agreement between the oracle and the analytic path is
evidence, not circularity. run_paper_suite audits every printed formula of
the worked example against this oracle and records an errata entry per
claim; the three lift theorems are checked at the oracle level on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .curves import check_grid_size, outside, uniform_grid
from .errors import StencilOutOfDomain
from .frenet import (
    FrenetFrame,
    frame_at,
    frames_from_derivatives,
    reparam_by_arclength,
    require_frames,
)
from .helix import STAT_FLOOR, classify_of, constancy_stat, frame_grid, slant_of, slant_test
from .lift import LiftSpec, _lift_on_grid, closed_form_lift_frame, lift_curve
from .tolerances import DEFAULT_TOLERANCES, VECTOR_TOL, Tolerances


def oracle_frame(curve, t, h) -> FrenetFrame:
    """Frenet frame reconstructed from five position samples around t.

    t is one parameter or a 1-D array of them. Derivative stencils are the
    second order central ones (three points for orders 1 and 2, all five for
    order 3), so oracle-versus-exact deltas shrink by about a factor of four
    when h is halved; the frame itself comes from the shared frame kernel.
    Raises StencilOutOfDomain when t +/- 2h leaves the curve domain.
    """
    ts = np.asarray(t, dtype=float)
    h = float(h)
    return _oracle_of(curve.eval(_stencil(curve.domain, ts, h).ravel(), 0), ts, h)


def _stencil(domain, ts, h) -> np.ndarray:
    """ts - 2h .. ts + 2h, one row per offset; StencilOutOfDomain outside domain."""
    if not h > 0:
        raise StencilOutOfDomain(f"step must be positive, got {h}")
    lo, hi = domain
    bad = outside(ts - 2.0 * h, lo, hi) | outside(ts + 2.0 * h, lo, hi)
    if bad.any():
        u = ts[bad].flat[0]
        raise StencilOutOfDomain(
            f"stencil [{u - 2 * h}, {u + 2 * h}] does not fit in [{lo}, {hi}]"
        )
    return np.add.outer(h * np.arange(-2.0, 3.0), ts)


def _oracle_of(positions, ts, h) -> FrenetFrame:
    """oracle_frame at ts from the positions on its raveled stencil."""
    f = positions.reshape((5,) + ts.shape + (3,))
    d1 = (f[3] - f[1]) / (2.0 * h)
    d2 = (f[3] - 2.0 * f[2] + f[1]) / (h * h)
    d3 = (f[4] - 2.0 * f[3] + 2.0 * f[1] - f[0]) / (2.0 * h**3)
    frame, exists = frames_from_derivatives(d1, d2, d3)
    require_frames(frame, exists, ts)
    return frame


@dataclass(frozen=True)
class FrameDelta:
    """Worst component differences between two frames.

    The (N, B) pair of the second frame is sign flipped as a unit, row by
    row for array frames, when that brings the normals into agreement, which
    resolves the orientation ambiguity of near-identical frames. Curvature and torsion deltas are
    relative.
    """

    dT: float
    dN: float
    dB: float
    dkappa: float
    dtau: float


def compare_frames(frame_a: FrenetFrame, frame_b: FrenetFrame) -> FrameDelta:
    """Worst deltas between frames at one point or at the same n points."""
    sign = np.where(np.sum(frame_a.N * frame_b.N, axis=-1) >= 0.0, 1.0, -1.0)[..., None]
    ka, ta = np.abs(frame_a.kappa), np.abs(frame_a.tau)
    return FrameDelta(
        dT=float(np.max(np.abs(frame_a.T - frame_b.T))),
        dN=float(np.max(np.abs(frame_a.N - sign * frame_b.N))),
        dB=float(np.max(np.abs(frame_a.B - sign * frame_b.B))),
        dkappa=float(np.max(np.abs(frame_a.kappa - frame_b.kappa) / np.maximum(ka, STAT_FLOOR))),
        dtau=float(np.max(np.abs(frame_a.tau - frame_b.tau) / np.maximum(ta, STAT_FLOOR))),
    )


@dataclass(frozen=True)
class TheoremResult:
    passed: bool
    residual: float
    value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class ErrataEntry:
    """One audited printed claim: the expression, what the oracle says, and
    whether they agree within the suite tolerance."""

    claim_id: str
    printed_value: str
    oracle_value: list
    location: str
    agrees: bool
    delta: float
    printed_samples: list | None = None
    sample_points: list | None = None


@dataclass
class VerificationReport:
    theorem1: TheoremResult | None = None
    theorem2: TheoremResult | None = None
    theorem3: TheoremResult | None = None
    example_checks: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def all_theorems_pass(self) -> bool:
        return all(
            r is None or r.passed for r in (self.theorem1, self.theorem2, self.theorem3)
        )

    def to_dict(self) -> dict:
        checks = [vars(e).copy() for e in self.example_checks]  # lists shared, not deep copied
        out = {"config": self.config, "example_checks": checks}
        for name in ("theorem1", "theorem2", "theorem3"):
            r = getattr(self, name)
            out[name] = None if r is None else {"pass": r.passed, "residual": r.residual,
                                                "value": r.value, "note": r.note}
        return out


def _theorem_oracle_step(span: float) -> float:
    # Balances h^2 stencil truncation against ~1e-12 position noise from
    # quadrature and root finding in reparameterized bases.
    return max(1e-3, 5e-5 * span)


def run_theorem_checks(
    alpha,
    spec: LiftSpec,
    grid_size: int = 100,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Oracle-level checks of the three lift theorems for one base curve.

    alpha must be a unit speed general helix, at any theta: one jet of alpha
    on a 256 point grid serves the strict lift's gates, alpha's
    classification and the lift's slant test. theorem1 checks constancy of
    the inner product between the unit helix axis and the oracle tangent of
    the lift; theorem2 checks that the slant test agrees between base and
    lift; theorem3 checks that oracle lifted normals stay parallel to the
    base normals. The oracle grid spans the domain minus the stencil margin;
    one jet of alpha on its stencil gives the lift's positions and alpha's frames.
    """
    lifted, cls, lift_slant = _strict_lift_and_slant(alpha, spec, 256, tol)
    return _theorem_checks(alpha, lifted, cls, lift_slant, grid_size, tol)


def _theorem_checks(alpha, lifted, base, lift_slant_test, grid_size, tol) -> VerificationReport:
    """run_theorem_checks on the strict lift of alpha, alpha's classification
    (which gives the axis and the base slant verdict) and the lift's slant test."""
    spec = lifted.spec
    h = _theorem_oracle_step(alpha.span)
    lo, hi = alpha.domain
    us = uniform_grid(lo + 2.0 * h, hi - 2.0 * h, grid_size, least=1)
    # One jet of alpha on the oracle stencil: lift positions, and alpha's frames on its row us.
    flat = np.clip(_stencil(lifted.domain, us, h).ravel(), lo, hi)  # as lifted.jet clips it
    pos, *derivs = alpha.jet(flat, (0, 1, 2, 3))
    lifted_frames = _oracle_of(lifted.lift_jet(flat, (0,), [pos])[0], us, h)
    alpha_frames, exists = frames_from_derivatives(*(d.reshape(5, -1, 3)[2] for d in derivs))
    require_frames(alpha_frames, exists, us)
    axis_dots = lifted_frames.T @ base.axis
    normal_dots = np.abs(np.sum(lifted_frames.N * alpha_frames.N, axis=1))

    t1_stat = constancy_stat(axis_dots)
    theorem1 = TheoremResult(
        passed=t1_stat.rel_dev <= VECTOR_TOL,
        residual=t1_stat.rel_dev,
        value=t1_stat.mean,
        note="relative deviation of <axis, oracle lifted tangent> over the grid",
    )

    base_slant = base.is_slant_helix
    lift_slant, lift_stat = lift_slant_test
    theorem2 = TheoremResult(
        passed=base_slant == lift_slant,
        residual=max(base.sigma_stat.rel_dev, lift_stat.rel_dev),
        value=1.0 if base_slant == lift_slant else 0.0,
        note=f"slant test base={base_slant} lift={lift_slant}",
    )

    t3_min = float(np.min(normal_dots))
    theorem3 = TheoremResult(
        passed=(1.0 - t3_min) <= VECTOR_TOL,
        residual=1.0 - t3_min,
        value=t3_min,
        note="worst |oracle lifted normal . base normal| over the grid",
    )

    return VerificationReport(
        theorem1=theorem1,
        theorem2=theorem2,
        theorem3=theorem3,
        config={
            "grid_size": int(grid_size),
            "oracle_step": h,
            "theta": spec.theta,
            "axis_mode": spec.axis_mode,
            "tolerances": tol.report(),
        },
    )


def _entry(claim, printed, oracle, rule, samples) -> ErrataEntry:
    """One audited claim. rule "abs" takes the worst component difference,
    "sign_free" the same allowing one global sign flip, and "rel" the worst
    difference relative to the oracle value."""
    claim_id, location, expr = claim
    printed = np.asarray(printed, float)
    oracle = np.asarray(oracle, float)
    if rule == "rel":
        delta = float(np.max(np.abs(printed - oracle) / np.maximum(np.abs(oracle), STAT_FLOOR)))
    else:
        delta = float(np.max(np.abs(printed - oracle)))
        if rule == "sign_free":
            delta = min(delta, float(np.max(np.abs(printed + oracle))))
    return ErrataEntry(
        claim_id=claim_id,
        printed_value=expr,
        oracle_value=oracle.tolist(),
        location=location,
        agrees=bool(delta <= VECTOR_TOL),
        delta=delta,
        printed_samples=printed.tolist(),
        sample_points=[float(s) for s in samples],
    )


def _strict_lift_and_slant(base, spec, grid_size, tol):
    """The strict lift of base, base's classification and the lift's slant
    test, from one frame grid of base: the lift's jet is derived from base's."""
    grid = frame_grid(base, grid_size, orders=(1, 2, 3, 4))
    ts, jet, frames, _ = grid
    lifted = _lift_on_grid(base, spec, lambda: grid, tol, strict=True)
    lifted_jet = lifted.lift_jet(ts, (1, 2, 3, 4), jet)
    lifted_frames, lifted_exists = frames_from_derivatives(*lifted_jet[:3])
    require_frames(lifted_frames, lifted_exists, ts)
    return lifted, classify_of(jet, frames, tol), slant_of(lifted_jet, lifted_frames, tol)


def run_paper_suite(tol: Tolerances = DEFAULT_TOLERANCES, grid_size: int = 256) -> VerificationReport:
    """Audit the printed worked example and check the lift theorems.

    Deterministic: repeated runs produce byte identical reports. The suite
    never fails because a printed expression disagrees with the oracle;
    disagreements are data, recorded with agrees=False. Only the theorem
    checks carry pass flags.
    """
    check_grid_size(grid_size, least=3)
    theta = math.pi / 4.0
    samples = (0.0, 0.5, 1.0, 2.0)
    literal = fixtures.paper_cubic()
    h_literal = 1e-3

    def printed(formula):
        return [formula(s) for s in samples]

    oracle_lit = oracle_frame(literal, samples, h_literal)
    exact_lit = frame_at(literal, samples)
    lifted_literal = lift_curve(
        literal, LiftSpec(theta=theta, axis_mode="paper_printed"), tol=tol, strict=False
    )
    # The printed axis is twice the unit axis, so halving it is exact.
    axis_unit = lifted_literal.axis / 2.0

    alpha_u = reparam_by_arclength(literal)
    lifted_u, cls_u, lift_slant_u = _strict_lift_and_slant(
        alpha_u, LiftSpec(theta=theta), 256, tol
    )
    h_main = _theorem_oracle_step(alpha_u.span)
    oracle_bar = oracle_frame(lifted_u, alpha_u.length_map.forward(samples), h_main)

    # Printed binormal coefficient pair (lambda, mu) and normal factor c,
    # evaluated at the oracle-confirmed kappa and tau of the base curve.
    closed = [
        closed_form_lift_frame(kappa, tau, theta)
        for kappa, tau in zip(exact_lit.kappa, exact_lit.tau)
    ]
    oracle_pairs = np.stack(
        [np.sum(oracle_bar.B * exact_lit.T, axis=1), np.sum(oracle_bar.B * exact_lit.B, axis=1)],
        axis=1,
    )

    claims = [
        (("example.T", "worked example, tangent formula", "T(s) = (2, 2s, s^2) / (s^2 + 2)"),
         printed(fixtures.printed_tangent), oracle_lit.T, "abs"),
        (("example.B", "worked example, binormal formula", "B(s) = (s^2, -2s, 2) / (s^2 + 2)"),
         printed(fixtures.printed_binormal), oracle_lit.B, "abs"),
        (("example.kappa", "worked example, curvature formula", "kappa(s) = 2 / (3 (s^2 + 2))"),
         printed(fixtures.printed_kappa), oracle_lit.kappa, "rel"),
        (("example.tau", "worked example, torsion formula", "tau(s) = 2 / (3 (s^2 + 2))"),
         printed(fixtures.printed_tau), oracle_lit.tau, "rel"),
        (("example.N", "worked example, principal normal formula",
          "N(s) = (-2s^3 - 4s, s^4 - 4s^2 - 8, 2s^3 + 4s) / (s^2 + 2)^2"),
         printed(fixtures.printed_normal), oracle_lit.N, "sign_free"),
        (("example.axis_norm", "worked example, helix axis",
          "axis = ((2 sqrt2 + sqrt2 s^2)/(s^2+2), 0, (2 sqrt2 + sqrt2 s^2)/(s^2+2)), norm 2"),
         [float(np.linalg.norm(v)) for v in printed(fixtures.printed_axis)],
         [float(np.linalg.norm(axis_unit))] * len(samples), "rel"),
        (("example.alphabar", "worked example, lifted curve components",
          "alphabar(s) = (((3 sqrt2 + 1)s^3 + (6 sqrt2 + 2)s)/(s^2+2), "
          "(3 sqrt2 / 2)s^2, ((sqrt2/2)s^5 + (sqrt2+1)s^3 + 2s)/(s^2+2))"),
         printed(fixtures.printed_lift), lifted_literal.eval(samples, 0), "abs"),
        (("example.Tbar", "worked example, lifted tangent formula",
          "Tbar(s) = (1 + 2 sqrt2/(s^2+2), 2 sqrt2 s/(s^2+2), 1 + sqrt2 s^2/(s^2+2)) "
          "/ sqrt(4 + 2 sqrt2)"),
         printed(fixtures.printed_lift_tangent), oracle_bar.T, "abs"),
        (("example.Bbar", "worked example, lifted binormal formula",
          "Bbar(s) = (6(s^2+2) + 2 sqrt2 s^2/(s^2+2), 6s(s^2+2) - 4 sqrt2 s/(s^2+2), "
          "3s^2(s^2+2) - 4 sqrt2/(s^2+2)) / sqrt(9(s^2+2)^4 + 8)"),
         printed(fixtures.printed_lift_binormal), oracle_bar.B, "sign_free"),
        (("example.Nbar", "worked example, lifted normal formula",
          "Nbar(s) = ((4 + 2 sqrt2 - 3(s^2+2)^2) / (sqrt(4 + 2 sqrt2) "
          "sqrt(9(s^2+2)^4 + 8))) N_printed(s)"),
         printed(fixtures.printed_lift_normal), oracle_bar.N, "sign_free"),
        (("closed_form.lambda_mu", "closed form lifted binormal coefficients",
          "Bbar = (lambda T + mu B)/sqrt(lambda^2 + mu^2), "
          "lambda = cos sin^2 + cos^3 sin, mu = (sin + cos^2) kappa - lambda tau"),
         [[cf.bbar_T_coeff, cf.bbar_B_coeff] for cf in closed], oracle_pairs, "sign_free"),
        (("closed_form.c", "closed form lifted normal factor",
          "c = (mu (sin + cos^2) - lambda cos sin) / "
          "(sqrt(lambda^2 + mu^2) sqrt(1 + cos sin2))"),
         [cf.c for cf in closed], np.sum(oracle_bar.N * exact_lit.N, axis=1), "rel"),
    ]
    entries = [_entry(*claim, samples) for claim in claims]

    main = _theorem_checks(alpha_u, lifted_u, cls_u, lift_slant_u, grid_size=100, tol=tol)

    # Theorem 2 across the circular helix family plus the twisted cubic control.
    slant_runs = [main.theorem2.residual]
    pair_flags = ["cubic:agree" if main.theorem2.passed else "cubic:disagree"]
    t2_pass = main.theorem2.passed
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        base_u = reparam_by_arclength(fixtures.circular_helix(a, b))
        _, cls, (lift_ok, lift_stat) = _strict_lift_and_slant(
            base_u, LiftSpec(theta=math.atan2(a, b)), grid_size, tol
        )
        base_ok = cls.is_slant_helix
        slant_runs.extend([cls.sigma_stat.rel_dev, lift_stat.rel_dev])
        pair_flags.append(f"helix({a:g},{b:g}):{'agree' if base_ok and lift_ok else 'broken'}")
        t2_pass = t2_pass and base_ok and lift_ok
    control_ok, _ = slant_test(fixtures.twisted_cubic(), grid_size=grid_size, tol=tol)
    pair_flags.append(f"twisted_cubic:{'not slant' if not control_ok else 'unexpectedly slant'}")
    t2_pass = t2_pass and not control_ok
    theorem2 = TheoremResult(
        passed=bool(t2_pass),
        residual=float(max(slant_runs)),
        value=main.theorem2.value,
        note="; ".join(pair_flags),
    )

    return VerificationReport(
        theorem1=main.theorem1,
        theorem2=theorem2,
        theorem3=main.theorem3,
        example_checks=entries,
        config={
            "grid_size": int(grid_size),
            "theorem_grid_size": 100,
            "oracle_step_literal": h_literal,
            "oracle_step_main": h_main,
            "sample_points": [float(s) for s in samples],
            "theta": theta,
            "tolerances": tol.report(),
        },
    )
