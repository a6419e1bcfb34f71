"""Frenet apparatus: frozen frame values, arc length, reparameterization.

Expected numbers below are closed forms evaluated by hand for the cubic
(6t, 3t^2, t^3) and the circular helix (a cos t, a sin t, b t):
cubic speed 3(t^2 + 2), kappa = tau = 2 / (3 (t^2 + 2)^2);
helix kappa = a / (a^2 + b^2), tau = b / (a^2 + b^2).
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    DegenerateFrame,
    InputError,
    PolynomialCurve,
    TransformedCurve,
    ZeroSpeed,
    arc_length,
    frame_at,
    frenet,
    reparam_by_arclength,
)
from helixlift.fixtures import circular_helix, paper_cubic, planar_circle, twisted_cubic

CUBIC = paper_cubic()


def test_cubic_frame_at_zero():
    fr = frame_at(CUBIC, 0.0)
    npt.assert_allclose(fr.T, [1, 0, 0], atol=1e-15)
    npt.assert_allclose(fr.N, [0, 1, 0], atol=1e-15)
    npt.assert_allclose(fr.B, [0, 0, 1], atol=1e-15)
    assert abs(fr.kappa - 1.0 / 6.0) < 1e-15
    assert abs(fr.tau - 1.0 / 6.0) < 1e-15
    assert abs(fr.speed - 6.0) < 1e-15


def test_cubic_frame_at_one():
    fr = frame_at(CUBIC, 1.0)
    npt.assert_allclose(fr.T, [2 / 3, 2 / 3, 1 / 3], atol=1e-15)
    npt.assert_allclose(fr.B, [1 / 3, -2 / 3, 2 / 3], atol=1e-15)
    npt.assert_allclose(fr.N, np.cross(fr.B, fr.T), atol=1e-15)
    assert abs(fr.kappa - 2.0 / 27.0) < 1e-15
    assert abs(fr.tau - 2.0 / 27.0) < 1e-15


@pytest.mark.parametrize("t", [-2.0, -0.5, 0.0, 0.5, 2.0])
def test_cubic_kappa_equals_tau_everywhere(t):
    fr = frame_at(CUBIC, t)
    want = 2.0 / (3.0 * (t * t + 2.0) ** 2)
    assert abs(fr.kappa - want) < 1e-14
    assert abs(fr.tau - want) < 1e-14


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_circular_helix_constants(a, b):
    h = circular_helix(a, b)
    denom = a * a + b * b
    fr = frame_at(h, np.array([0.0, 1.0, 4.0]))
    assert np.all(np.abs(fr.kappa - a / denom) < 1e-12)
    assert np.all(np.abs(fr.tau - b / denom) < 1e-12)


def test_planar_circle_has_zero_torsion():
    c = planar_circle(2.0)
    fr = frame_at(c, 0.7)
    assert abs(fr.kappa - 0.5) < 1e-12
    assert abs(fr.tau) < 1e-12


def test_straight_line_frame_degenerates():
    # exact derivatives: the cross product is identically zero on a line
    line = PolynomialCurve([[0, 1], [0, 2], [0, 3]], domain=(0, 1))
    with pytest.raises(DegenerateFrame):
        frame_at(line, 0.5)


def test_stationary_point_raises_zero_speed():
    c = PolynomialCurve([[0, 0, 0, 1], [0, 0, 0, 0, 1], [0]], domain=(-1, 1))
    with pytest.raises(ZeroSpeed):
        frame_at(c, 0.0)


def test_arc_length_of_the_cubic():
    # integral of 3(t^2 + 2) from 0 to 1 is exactly 7
    assert abs(arc_length(CUBIC, 0.0, 1.0) - 7.0) < 1e-9
    assert abs(arc_length(CUBIC, -3.0, 3.0) - 90.0) < 1e-8


def test_arc_length_of_a_helix_turn():
    h = circular_helix(1.0, 1.0)
    assert abs(arc_length(h, 0.0, 2 * math.pi) - 2 * math.pi * math.sqrt(2)) < 1e-9


def test_arc_length_argument_order():
    with pytest.raises(InputError):
        arc_length(CUBIC, 1.0, 0.0)


def test_reparam_is_unit_speed():
    alpha = reparam_by_arclength(CUBIC)
    assert abs(alpha.length_map.total_length - 90.0) < 1e-8
    us = np.linspace(alpha.t_lo, alpha.t_hi, 101)
    speeds = [float(np.linalg.norm(alpha.eval(u, 1))) for u in us]
    assert max(abs(v - 1.0) for v in speeds) < 1e-12


def test_reparam_preserves_geometry():
    alpha = reparam_by_arclength(CUBIC)
    m = alpha.length_map
    for s in (-2.0, 0.0, 1.5):
        u = m.forward(s)
        npt.assert_allclose(alpha.eval(u, 0), CUBIC.eval(s, 0), atol=1e-9)
        fr_u, fr_s = frame_at(alpha, u), frame_at(CUBIC, s)
        assert abs(fr_u.kappa - fr_s.kappa) < 1e-10
        assert abs(fr_u.tau - fr_s.tau) < 1e-10


def test_length_map_roundtrip():
    m = reparam_by_arclength(circular_helix(1.0, 1.0)).length_map
    for t in (0.3, 2.0, 5.5):
        assert abs(m.inverse(m.forward(t)) - t) < 1e-10


def test_frenet_equations_hold():
    """d/dt of the frame columns must match the structure equations."""
    h = 1e-4
    for curve, ts in (
        (reparam_by_arclength(CUBIC), (10.0, 45.0, 60.0)),
        (circular_helix(2.0, 1.0), (0.5, 2.0, 5.0)),
        (twisted_cubic(), (0.4, 0.8, 1.2)),
    ):
        for t in ts:
            lo_fr = frame_at(curve, t - h)
            hi_fr = frame_at(curve, t + h)
            fr = frame_at(curve, t)
            v = fr.speed
            dT = (hi_fr.T - lo_fr.T) / (2 * h)
            dN = (hi_fr.N - lo_fr.N) / (2 * h)
            dB = (hi_fr.B - lo_fr.B) / (2 * h)
            assert np.max(np.abs(dT - v * fr.kappa * fr.N)) < 1e-3
            assert np.max(np.abs(dN - v * (-fr.kappa * fr.T + fr.tau * fr.B))) < 1e-3
            assert np.max(np.abs(dB - v * (-fr.tau * fr.N))) < 1e-3


def test_rigid_motion_leaves_kappa_tau_alone():
    ang = 1.1
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(ang), -math.sin(ang)],
            [0.0, math.sin(ang), math.cos(ang)],
        ]
    )
    moved = TransformedCurve(CUBIC, rotation=rot, translation=np.array([3.0, -1.0, 2.0]))
    ts = np.array([-1.0, 0.0, 2.0])
    fr0, fr1 = frame_at(CUBIC, ts), frame_at(moved, ts)
    assert np.all(np.abs(fr1.kappa - fr0.kappa) / fr0.kappa < 1e-9)
    assert np.all(np.abs(fr1.tau - fr0.tau) / np.abs(fr0.tau) < 1e-9)


def test_scaling_divides_kappa_tau():
    scale = 2.5
    scaled = TransformedCurve(CUBIC, scale=scale)
    ts = np.array([-1.0, 0.5, 2.0])
    fr0, fr1 = frame_at(CUBIC, ts), frame_at(scaled, ts)
    assert np.all(np.abs(fr1.kappa - fr0.kappa / scale) / (fr0.kappa / scale) < 1e-9)
    assert np.all(np.abs(fr1.tau - fr0.tau / scale) / np.abs(fr0.tau / scale) < 1e-9)
    assert abs(arc_length(scaled, 0.0, 1.0) - scale * 7.0) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross3_equals_np_cross_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 64, 3)) * 10.0 ** rng.integers(-8, 9, size=(2, 64, 1))
    a[:4, 0] = 0.0  # zero components, signed zeros in the products
    b[2:6, 1] = -0.0
    for x, y in ((a, b), (a[0], b[0]), (a[5], b[3])):
        got, want = frenet.cross3(x, y), np.cross(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
