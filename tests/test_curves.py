"""Curve primitives: evaluation, derivatives, regularity."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial import polynomial as npoly

from helixlift import (
    CircularHelix,
    DegenerateFrame,
    OutOfDomain,
    PolynomialCurve,
    Polyline,
    TransformedCurve,
    frame_at,
)
from helixlift.errors import InvalidField, UnsupportedOrder
from helixlift.fixtures import paper_cubic


def cubic():
    return PolynomialCurve([[0, 6], [0, 0, 3], [0, 0, 0, 1]], domain=(-3, 3))


def test_polynomial_evaluates_exactly():
    c = cubic()
    npt.assert_allclose(c.eval(2.0, 0), [12.0, 12.0, 8.0], rtol=0, atol=0)
    npt.assert_allclose(c.eval(2.0, 1), [6.0, 12.0, 12.0], rtol=0, atol=0)
    npt.assert_allclose(c.eval(2.0, 2), [0.0, 6.0, 12.0], rtol=0, atol=0)
    npt.assert_allclose(c.eval(2.0, 3), [0.0, 0.0, 6.0], rtol=0, atol=0)


def test_polynomial_matches_fixture():
    ours = cubic()
    theirs = paper_cubic()
    for t in (-3.0, -0.7, 0.0, 1.3, 3.0):
        for k in range(4):
            npt.assert_allclose(ours.eval(t, k), theirs.eval(t, k), atol=0)


def test_circular_helix_derivatives():
    h = CircularHelix(2.0, 0.5)
    t = 1.234
    npt.assert_allclose(
        h.eval(t, 0), [2 * math.cos(t), 2 * math.sin(t), 0.5 * t], atol=1e-15
    )
    npt.assert_allclose(
        h.eval(t, 1), [-2 * math.sin(t), 2 * math.cos(t), 0.5], atol=1e-15
    )
    npt.assert_allclose(
        h.eval(t, 2), [-2 * math.cos(t), -2 * math.sin(t), 0.0], atol=1e-15
    )
    npt.assert_allclose(
        h.eval(t, 3), [2 * math.sin(t), -2 * math.cos(t), 0.0], atol=1e-15
    )


def test_circular_helix_rejects_bad_radius():
    with pytest.raises(InvalidField):
        CircularHelix(0.0, 1.0)
    with pytest.raises(InvalidField):
        CircularHelix(-1.0, 1.0)


def test_eval_validates_order_and_domain():
    c = cubic()
    with pytest.raises(UnsupportedOrder):
        c.eval(0.0, 5)
    with pytest.raises(UnsupportedOrder):
        c.eval(0.0, -1)
    with pytest.raises(OutOfDomain):
        c.eval(3.5, 0)
    with pytest.raises(OutOfDomain):
        c.eval(-3.0001, 1)
    # endpoint with roundoff slack still evaluates
    c.eval(3.0 + 1e-14, 0)


def test_polyline_interpolates_its_points():
    knots = np.linspace(0, 1, 7)
    pts = np.array([[math.cos(3 * k), math.sin(3 * k), k] for k in knots])
    p = Polyline(pts, knots)
    for k, pt in zip(knots, pts):
        npt.assert_allclose(p.eval(float(k), 0), pt, atol=1e-12)
    mid = p.eval(0.5 * (knots[2] + knots[3]), 0)
    assert np.all(np.isfinite(mid))


def test_regularity_on_the_cubic():
    # frame_at raises unless every sample has a frame; |a' x a''| = kappa speed^3
    fr = frame_at(paper_cubic(), np.linspace(-3.0, 3.0, 257))
    assert np.min(fr.kappa * fr.speed**3) > 1e-8
    # grid of 257 points on [-3, 3] hits s = 0 where the speed bottoms out at 6
    assert abs(np.min(fr.speed) - 6.0) < 1e-12


def test_regularity_flags_a_line():
    line = PolynomialCurve([[0, 1], [0, 2], [0, -1]], domain=(0.0, 1.0))
    with pytest.raises(DegenerateFrame):
        frame_at(line, np.linspace(0.0, 1.0, 256))
    assert np.min(np.linalg.norm(line.eval(np.linspace(0.0, 1.0, 256), 1), axis=1)) > 1e-8


def test_transform_maps_positions_and_derivatives():
    c = cubic()
    ang = 0.7
    rot = np.array(
        [
            [math.cos(ang), -math.sin(ang), 0.0],
            [math.sin(ang), math.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shift = np.array([1.0, -2.0, 0.5])
    moved = TransformedCurve(c, rotation=rot, translation=shift, scale=2.0)
    t = 1.1
    npt.assert_allclose(moved.eval(t, 0), 2.0 * rot @ c.eval(t, 0) + shift, atol=1e-12)
    npt.assert_allclose(moved.eval(t, 1), 2.0 * rot @ c.eval(t, 1), atol=1e-12)
    npt.assert_allclose(moved.eval(t, 3), 2.0 * rot @ c.eval(t, 3), atol=1e-12)


def test_polynomial_requires_three_components():
    with pytest.raises(InvalidField):
        PolynomialCurve([[1.0], [2.0]], domain=(0, 1))


@pytest.mark.parametrize(
    "coeffs",
    [
        [[0, 6], [0, 0, 3], [0, 0, 0, 1]],
        [[-5.0], [1.0, -2.0], [0.5, -1.0, 2.0, -3.0, 0.25]],
        [[2.0, 0.0, -0.0], [-0.0], [7.0, 1.0, 0.5, -1e-3]],
    ],
    ids=["paper_cubic", "negative_constant", "signed_zeros"],
)
def test_polynomial_orders_equal_the_per_component_polyval_stack(coeffs):
    # One polyval on a zero padded table per order returns exactly what one
    # polyval per component did, down to the sign of every zero.
    curve = PolynomialCurve(coeffs, domain=(-3, 3))
    ts = np.concatenate([np.linspace(-3.0, 3.0, 41), [-0.0, 0.0, -1e-300]])
    comps = [np.asarray(c, dtype=float) for c in coeffs]
    for order in range(5):
        want = np.stack([npoly.polyval(ts, c) for c in comps], axis=-1)
        got = curve.eval(ts, order)
        assert np.array_equal(got, want), order
        assert got.tobytes() == want.tobytes(), order
        comps = [npoly.polyder(c) for c in comps]
