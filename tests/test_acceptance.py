"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Tolerances are pinned literals on purpose; loosening them is a behavior
change, not a test fix.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np

from helixlift import (
    LiftSpec,
    PolynomialCurve,
    TransformedCurve,
    bertrand_test,
    classify_curve,
    cli,
    compare_frames,
    frame_at,
    lift_curve,
    oracle_frame,
    reparam_by_arclength,
    run_theorem_checks,
    slant_test,
)
from helixlift.fixtures import (
    circular_helix,
    paper_cubic,
    printed_binormal,
    printed_lift,
    printed_tangent,
    quartic_non_helix,
    twisted_cubic,
)

THETA = math.pi / 4
AXIS_ANGLE_CONSTANT = 0.9238795325112867  # cos(pi/4)(1+sin(pi/4))/sqrt(1+cos(pi/4))


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_frame_formulas():
    """Analytic and oracle frames reproduce the published tangent and
    binormal of the cubic at s in {0, 1, 2} to 1e-6 per component."""
    start = time.perf_counter()
    curve = paper_cubic()
    worst = 0.0
    for s in (0.0, 1.0, 2.0):
        want_T = printed_tangent(s)
        want_B = printed_binormal(s)
        exact = frame_at(curve, s)
        oracle = oracle_frame(curve, s, 1e-3)
        for fr in (exact, oracle):
            worst = max(worst, float(np.max(np.abs(fr.T - want_T))))
            worst = max(worst, float(np.max(np.abs(fr.B - want_B))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, "frame formulas", ok, f"worst component {worst:.3e}, {elapsed:.3f}s")


def test_criterion_2_lancret_angle():
    """The cubic passes the Lancret test at theta = pi/4."""
    cls = classify_curve(paper_cubic())
    ok_flag, theta, stat = cls.is_general_helix, cls.theta, cls.ratio_stat
    ok = ok_flag and abs(theta - THETA) <= 1e-9 and stat.rel_dev < 1e-10
    report(
        2,
        "Lancret angle",
        ok,
        f"theta err {abs(theta - THETA):.3e}, ratio rel_dev {stat.rel_dev:.3e}",
    )


def test_criterion_3_axis_angle_constant():
    """The oracle tangent of the lift keeps a constant angle with the helix
    axis, at the closed form value, over a 100 point grid."""
    alpha = reparam_by_arclength(paper_cubic())
    rep = run_theorem_checks(alpha, LiftSpec(theta=THETA), grid_size=100)
    value_err = abs(rep.theorem1.value - AXIS_ANGLE_CONSTANT)
    ok = rep.theorem1.residual <= 1e-6 and value_err <= 1e-6
    report(
        3,
        "axis angle constant",
        ok,
        f"rel_dev {rep.theorem1.residual:.3e}, value err {value_err:.3e}",
    )


def test_criterion_4_parallel_normals():
    """Oracle lifted normals stay parallel to base normals for three pitch
    angles, and each base-lift pair passes the Bertrand test."""
    cases = (
        (math.pi / 6, circular_helix(1.0, math.sqrt(3.0))),
        (math.pi / 4, paper_cubic()),
        (math.pi / 3, circular_helix(math.sqrt(3.0), 1.0)),
    )
    worst = 0.0
    bertrand_ok = True
    for theta, base in cases:
        alpha = reparam_by_arclength(base)
        lifted = lift_curve(alpha, LiftSpec(theta=theta))
        h = max(1e-3, 5e-5 * alpha.span)
        us = np.linspace(alpha.t_lo + 2 * h, alpha.t_hi - 2 * h, 100)
        for u in us:
            dot = abs(
                float(np.dot(oracle_frame(lifted, u, h).N, frame_at(alpha, u).N))
            )
            worst = max(worst, 1.0 - dot)
        mates, _ = bertrand_test(alpha, lifted)
        bertrand_ok = bertrand_ok and mates
    ok = worst <= 1e-6 and bertrand_ok
    report(
        4,
        "parallel normals",
        ok,
        f"worst 1-|dot| {worst:.3e}, bertrand {bertrand_ok}",
    )


def test_criterion_5_slant_preservation():
    """Lifting preserves the slant helix property for circular helices;
    the twisted cubic stays a negative control."""
    all_slant = True
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        alpha = reparam_by_arclength(circular_helix(a, b))
        lifted = lift_curve(alpha, LiftSpec(theta=math.atan2(a, b)))
        base_ok, _ = slant_test(alpha)
        lift_ok, _ = slant_test(lifted)
        all_slant = all_slant and base_ok and lift_ok
    control_ok, _ = slant_test(twisted_cubic())
    ok = all_slant and not control_ok
    report(
        5,
        "slant preservation",
        ok,
        f"helices slant {all_slant}, twisted cubic slant {control_ok}",
    )


def test_criterion_6_published_lift_components():
    """The doubled-axis lift of the cubic in its original parameter
    reproduces the published lifted curve to 1e-9."""
    lifted = lift_curve(
        paper_cubic(), LiftSpec(theta=THETA, axis_mode="paper_printed"), strict=False
    )
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        worst = max(worst, float(np.max(np.abs(lifted.eval(s, 0) - printed_lift(s)))))
    ok = worst <= 1e-9
    report(6, "published lift components", ok, f"worst component {worst:.3e}")


def test_criterion_7_errata_ledger(tmp_path, capsys):
    """verify-paper exits 0 and its report carries the four known errata,
    each populated with printed and oracle values."""
    out = tmp_path / "report.json"
    code = cli.main(["verify-paper", "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    entries = {e["claim_id"]: e for e in doc["example_checks"]}
    required = ("example.kappa", "example.N", "example.axis_norm", "closed_form.lambda_mu")
    populated = all(
        claim in entries
        and entries[claim]["printed_value"]
        and entries[claim]["printed_samples"]
        and entries[claim]["oracle_value"]
        and not entries[claim]["agrees"]
        for claim in required
    )
    ok = code == 0 and populated
    report(7, "errata ledger", ok, f"exit {code}, required entries flagged {populated}")


def test_criterion_8_property_suites():
    """Orthonormality, structure equations, unit speed, stencil convergence
    and invariance, all inside 30 seconds."""
    start = time.perf_counter()
    notes = []

    # frame orthonormality to 1e-6 across a spread of curves
    ortho_worst = 0.0
    for curve in (
        reparam_by_arclength(paper_cubic()),
        circular_helix(1.0, 1.0),
        twisted_cubic(),
        quartic_non_helix(),
    ):
        for t in np.linspace(curve.t_lo + 1e-6, curve.t_hi - 1e-6, 64):
            fr = frame_at(curve, t)
            gram = np.abs(
                np.array(
                    [
                        np.dot(fr.T, fr.T) - 1.0,
                        np.dot(fr.N, fr.N) - 1.0,
                        np.dot(fr.B, fr.B) - 1.0,
                        np.dot(fr.T, fr.N),
                        np.dot(fr.T, fr.B),
                        np.dot(fr.N, fr.B),
                    ]
                )
            )
            ortho_worst = max(ortho_worst, float(np.max(gram)))
            ortho_worst = max(
                ortho_worst, float(np.max(np.abs(np.cross(fr.T, fr.N) - fr.B)))
            )
    ortho_ok = ortho_worst <= 1e-6
    notes.append(f"orthonormality {ortho_worst:.3e}")

    # Frenet structure equations to 1e-3 under numerical differentiation
    h = 1e-4
    frenet_worst = 0.0
    for curve, ts in (
        (reparam_by_arclength(paper_cubic()), (10.0, 45.0, 70.0)),
        (circular_helix(2.0, 1.0), (0.5, 3.0, 5.5)),
        (twisted_cubic(), (0.3, 0.8, 1.3)),
    ):
        for t in ts:
            fr = frame_at(curve, t)
            lo_fr = frame_at(curve, t - h)
            hi_fr = frame_at(curve, t + h)
            v = fr.speed
            resid = [
                (hi_fr.T - lo_fr.T) / (2 * h) - v * fr.kappa * fr.N,
                (hi_fr.N - lo_fr.N) / (2 * h)
                - v * (-fr.kappa * fr.T + fr.tau * fr.B),
                (hi_fr.B - lo_fr.B) / (2 * h) - v * (-fr.tau * fr.N),
            ]
            frenet_worst = max(frenet_worst, float(np.max(np.abs(resid))))
    frenet_ok = frenet_worst <= 1e-3
    notes.append(f"frenet residual {frenet_worst:.3e}")

    # arc length reparameterizations are unit speed to 1e-6
    speed_worst = 0.0
    for base in (paper_cubic(), circular_helix(2.0, 1.0), twisted_cubic()):
        alpha = reparam_by_arclength(base)
        for u in np.linspace(alpha.t_lo, alpha.t_hi, 101):
            speed_worst = max(
                speed_worst, abs(float(np.linalg.norm(alpha.eval(u, 1))) - 1.0)
            )
    speed_ok = speed_worst <= 1e-6
    notes.append(f"unit speed {speed_worst:.3e}")

    # halving the oracle's stencil step shrinks each frame error at second
    # order; (t, t^2, t^5) leaves a truncation error in all three stencils
    quintic = PolynomialCurve([[0, 1], [0, 0, 1], [0, 0, 0, 0, 0, 1]], (0.25, 2.0))
    exact = frame_at(quintic, 1.0)
    e1, e2 = (asdict(compare_frames(exact, oracle_frame(quintic, 1.0, h))) for h in (2e-2, 1e-2))
    factors = [e1[name] / e2[name] for name in e1]
    conv_ok = min(factors) >= 3.5
    notes.append("halving factors " + ",".join(f"{x:.2f}" for x in factors))

    # rigid motions and scalings act on kappa, tau, length as they must
    ang = 0.8
    rot = np.array(
        [
            [math.cos(ang), -math.sin(ang), 0.0],
            [math.sin(ang), math.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    inv_worst = 0.0
    for base in (paper_cubic(), twisted_cubic()):
        moved = TransformedCurve(
            base, rotation=rot, translation=np.array([0.3, -1.2, 2.0])
        )
        scaled = TransformedCurve(base, scale=2.5)
        for t in np.linspace(base.t_lo + 0.05, base.t_hi - 0.05, 7):
            fr0 = frame_at(base, t)
            fr1 = frame_at(moved, t)
            fr2 = frame_at(scaled, t)
            inv_worst = max(inv_worst, abs(fr1.kappa - fr0.kappa) / fr0.kappa)
            inv_worst = max(inv_worst, abs(fr1.tau - fr0.tau) / abs(fr0.tau))
            inv_worst = max(
                inv_worst, abs(fr2.kappa - fr0.kappa / 2.5) / (fr0.kappa / 2.5)
            )
            inv_worst = max(
                inv_worst, abs(fr2.tau - fr0.tau / 2.5) / (abs(fr0.tau) / 2.5)
            )
    inv_ok = inv_worst <= 1e-9
    notes.append(f"invariance {inv_worst:.3e}")

    elapsed = time.perf_counter() - start
    notes.append(f"{elapsed:.1f}s")
    ok = ortho_ok and frenet_ok and speed_ok and conv_ok and inv_ok and elapsed < 30.0
    report(8, "property suites", ok, "; ".join(notes))
