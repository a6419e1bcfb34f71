"""Lift construction, strict gates, and the closed form frame coefficients."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    DEFAULT_TOLERANCES,
    DegenerateFrame,
    LiftSpec,
    NotAHelix,
    NotUnitSpeed,
    ThetaMismatch,
    classify_curve,
    closed_form_lift_frame,
    frame_at,
    lift_curve,
    parse_curve_spec,
    reparam_by_arclength,
    serialize_curve_spec,
)
from helixlift import lift as lift_module
from helixlift.curves import PolynomialCurve
from helixlift.errors import DegenerateDenominator, InvalidField
from helixlift.fixtures import (
    SQRT2,
    circular_helix,
    paper_cubic,
    printed_lift,
    quartic_non_helix,
    twisted_cubic,
)
from helixlift.helix import frame_grid, lancret_of

THETA = math.pi / 4


def unit_cubic():
    return reparam_by_arclength(paper_cubic())


def test_spec_validation():
    with pytest.raises(InvalidField):
        LiftSpec(theta=-0.1)
    with pytest.raises(InvalidField):
        LiftSpec(theta=math.pi / 2 + 0.1)
    with pytest.raises(InvalidField):
        LiftSpec(theta=0.5, axis_mode="explicit")  # explicit mode needs an axis
    with pytest.raises(InvalidField):
        LiftSpec(theta=0.5, axis_mode="unit", axis=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidField):
        LiftSpec(theta=0.5, axis_mode="sideways")


def test_theta_zero_needs_an_explicit_axis():
    base = unit_cubic()
    with pytest.raises(InvalidField):
        lift_curve(base, LiftSpec(theta=0.0))


def test_theta_zero_gives_a_line():
    base = unit_cubic()
    spec = LiftSpec(
        theta=0.0,
        s0=1.0,
        offset=np.array([1.0, 2.0, 3.0]),
        axis_mode="explicit",
        axis=np.array([0.0, 0.0, 2.0]),
    )
    lifted = lift_curve(base, spec)
    npt.assert_allclose(lifted.eval(5.0, 0), [1.0, 2.0, 3.0 + 2.0 * 4.0], atol=1e-12)
    npt.assert_allclose(lifted.eval(5.0, 1), [0.0, 0.0, 2.0], atol=1e-12)


def test_theta_right_angle_is_a_translation():
    base = unit_cubic()
    off = np.array([-1.0, 0.5, 2.0])
    lifted = lift_curve(base, LiftSpec(theta=math.pi / 2, offset=off))
    for u in (0.0, 10.0, 47.0):
        npt.assert_allclose(lifted.eval(u, 0), base.eval(u, 0) + off, atol=1e-12)


def test_strict_requires_unit_speed():
    with pytest.raises(NotUnitSpeed):
        lift_curve(paper_cubic(), LiftSpec(theta=THETA))


def test_strict_requires_a_helix():
    base = reparam_by_arclength(quartic_non_helix())
    with pytest.raises(NotAHelix):
        lift_curve(base, LiftSpec(theta=THETA))


def test_strict_checks_theta():
    with pytest.raises(ThetaMismatch):
        lift_curve(unit_cubic(), LiftSpec(theta=math.pi / 3))


def test_strict_checks_the_helix_with_an_explicit_axis():
    base = reparam_by_arclength(twisted_cubic())
    spec = LiftSpec(theta=0.5, axis_mode="explicit", axis=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(NotAHelix):
        lift_curve(base, spec)
    assert lift_curve(base, spec, strict=False).axis.tolist() == [0.0, 0.0, 1.0]


def test_strict_needs_frames_with_an_explicit_axis():
    line = PolynomialCurve([[0.0, 1.0], [0.0], [0.0]], (0.0, 2.0))  # unit speed, no frame
    spec = LiftSpec(theta=0.5, axis_mode="explicit", axis=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(DegenerateFrame):
        lift_curve(line, spec)
    npt.assert_allclose(lift_curve(line, spec, strict=False).eval(1.0, 0),
                        [math.sin(0.5), math.cos(0.5), 0.0], atol=1e-15)


@pytest.mark.parametrize("axis_mode", ["unit", "paper_printed"])
def test_measured_theta_is_the_lancret_angle(axis_mode):
    base = unit_cubic()
    lifted = lift_curve(base, LiftSpec(theta=None, axis_mode=axis_mode))
    assert lifted.spec.theta == classify_curve(base).theta
    given = lift_curve(base, LiftSpec(theta=lifted.spec.theta, axis_mode=axis_mode))
    assert np.array_equal(lifted.axis, given.axis)
    text = serialize_curve_spec(lifted)
    assert serialize_curve_spec(parse_curve_spec(text)) == text
    assert parse_curve_spec(text).spec.theta == lifted.spec.theta


def test_measured_theta_without_strict_skips_the_lancret_gate():
    base = reparam_by_arclength(twisted_cubic())
    spec = LiftSpec(theta=None, axis_mode="explicit", axis=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(NotAHelix):
        lift_curve(base, spec)
    measured = lancret_of(frame_grid(base, 256)[2], DEFAULT_TOLERANCES)[1]
    assert lift_curve(base, spec, strict=False).spec.theta == measured


def test_a_measured_degenerate_theta_takes_the_degenerate_path():
    flat = reparam_by_arclength(circular_helix(1e-6, 1e-19))  # kappa/tau = 1e13
    lifted = lift_curve(flat, LiftSpec(theta=None))
    assert math.pi / 2 - lifted.spec.theta < 1e-12
    assert lifted.axis.tolist() == [0.0, 0.0, 0.0]
    steep = reparam_by_arclength(circular_helix(1e-19, 1e-6))  # kappa/tau = 1e-13
    with pytest.raises(InvalidField, match="axis_mode must be 'explicit'"):
        lift_curve(steep, LiftSpec(theta=None))


def test_a_given_degenerate_theta_builds_no_grid(monkeypatch):
    # Only without strict: a strict lift gates its base at every theta.
    with pytest.raises(NotUnitSpeed):
        lift_curve(twisted_cubic(), LiftSpec(theta=math.pi / 2))
    with pytest.raises(NotAHelix):
        lift_curve(reparam_by_arclength(twisted_cubic()),
                   LiftSpec(theta=0.0, axis_mode="explicit", axis=np.ones(3)))

    def no_grid(*args):
        raise AssertionError("a frame grid was built")

    monkeypatch.setattr(lift_module, "frame_grid", no_grid)
    lift_curve(twisted_cubic(), LiftSpec(theta=math.pi / 2), strict=False)
    lift_curve(paper_cubic(), LiftSpec(theta=0.5, axis_mode="explicit", axis=np.ones(3)),
               strict=False)


def test_anchor_and_offset():
    base = unit_cubic()
    off = np.array([0.5, 0.5, -0.5])
    lifted = lift_curve(base, LiftSpec(theta=THETA, s0=10.0, offset=off))
    # at s = s0 the axis displacement vanishes
    npt.assert_allclose(
        lifted.eval(10.0, 0), off + math.sin(THETA) * base.eval(10.0, 0), atol=1e-12
    )


def test_explicit_axis_is_used_verbatim():
    base = unit_cubic()
    axis = np.array([0.0, 0.0, 3.0])
    lifted = lift_curve(base, LiftSpec(theta=THETA, axis_mode="explicit", axis=axis))
    d1 = lifted.eval(20.0, 1)
    npt.assert_allclose(
        d1, math.sin(THETA) * base.eval(20.0, 1) + math.cos(THETA) * axis, atol=1e-12
    )


def test_printed_axis_mode_doubles_the_unit_axis():
    base = unit_cubic()
    lifted_unit = lift_curve(base, LiftSpec(theta=THETA, axis_mode="unit"))
    lifted_paper = lift_curve(base, LiftSpec(theta=THETA, axis_mode="paper_printed"))
    npt.assert_allclose(lifted_paper.axis, 2.0 * lifted_unit.axis, atol=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_literal_lift_reproduces_the_published_components(s):
    """The doubled-axis lift of the cubic in its original parameter matches
    ((3 sqrt2 + 1)s, (3 sqrt2 / 2)s^2, (sqrt2 / 2)s^3 + s)."""
    lifted = lift_curve(
        paper_cubic(), LiftSpec(theta=THETA, axis_mode="paper_printed"), strict=False
    )
    want = np.array(
        [(3 * SQRT2 + 1) * s, (3 * SQRT2 / 2) * s * s, (SQRT2 / 2) * s**3 + s]
    )
    npt.assert_allclose(lifted.eval(s, 0), want, atol=1e-9)
    npt.assert_allclose(lifted.eval(s, 0), printed_lift(s), atol=1e-9)


def test_closed_form_lambda_value():
    cf = closed_form_lift_frame(1.0 / 6.0, 1.0 / 6.0, THETA)
    assert abs(cf.lam - (SQRT2 / 4 + 0.25)) < 1e-15
    s, c = math.sin(THETA), math.cos(THETA)
    want_mu = (s + c * c) / 6.0 - cf.lam / 6.0
    assert abs(cf.mu - want_mu) < 1e-15


def test_closed_form_c_value():
    # frozen reference value at kappa = tau = 1/6, theta = pi/4
    c = closed_form_lift_frame(1.0 / 6.0, 1.0 / 6.0, THETA).c
    assert abs(c - (-0.22559175289915123)) < 1e-12


def test_tangent_coefficients_are_normalized():
    rng = np.random.default_rng(20260822)
    for _ in range(1000):
        theta = rng.uniform(0.05, math.pi / 2 - 0.05)
        kappa = rng.uniform(0.05, 3.0)
        tau = rng.uniform(0.05, 3.0)
        cf = closed_form_lift_frame(kappa, tau, theta)
        assert abs(cf.tbar_T_coeff**2 + cf.tbar_B_coeff**2 - 1.0) < 1e-12
        assert abs(cf.bbar_T_coeff**2 + cf.bbar_B_coeff**2 - 1.0) < 1e-12


def test_tangent_coefficients_match_the_lifted_frame():
    """T-bar really is tbar_T * T + tbar_B * B for the unit axis lift."""
    base = unit_cubic()
    lifted = lift_curve(base, LiftSpec(theta=THETA))
    m = base.length_map
    for s in (0.0, 1.0, 2.0):
        u = m.forward(s)
        base_fr = frame_at(base, u)
        cf = closed_form_lift_frame(base_fr.kappa, base_fr.tau, THETA)
        want = cf.tbar_T_coeff * base_fr.T + cf.tbar_B_coeff * base_fr.B
        npt.assert_allclose(frame_at(lifted, u).T, want, atol=1e-9)


def test_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        closed_form_lift_frame(0.0, 1.0, 0.0)  # lambda = 0 and mu = 0
