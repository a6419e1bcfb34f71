"""Curve primitives: evaluation, derivatives, finite differences, regularity."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    CallableCurve,
    CircularHelix,
    OutOfDomain,
    PolynomialCurve,
    Polyline,
    finite_difference_derivative,
    regularity_check,
    transform_curve,
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


def test_callable_curve_falls_back_to_finite_differences():
    """Derivatives of an opaque curve come from position-only stencils."""
    c = CallableCurve(
        lambda t: np.array([math.sin(t), math.cos(2 * t), t]), domain=(0.0, 2.0)
    )
    t = 0.9
    npt.assert_allclose(
        c.eval(t, 1), [math.cos(t), -2 * math.sin(2 * t), 1.0], atol=1e-8
    )
    npt.assert_allclose(
        c.eval(t, 2), [-math.sin(t), -4 * math.cos(2 * t), 0.0], atol=1e-4
    )


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fd_halving_converges_second_order(order):
    f = lambda t: np.array([math.sin(t), math.exp(0.5 * t), t**4])
    exact = {
        1: np.array([math.cos(1.0), 0.5 * math.exp(0.5), 4.0]),
        2: np.array([-math.sin(1.0), 0.25 * math.exp(0.5), 12.0]),
        3: np.array([-math.cos(1.0), 0.125 * math.exp(0.5), 24.0]),
    }[order]
    h = 0.02
    e1 = np.max(np.abs(finite_difference_derivative(f, 1.0, order, h) - exact))
    e2 = np.max(np.abs(finite_difference_derivative(f, 1.0, order, h / 2) - exact))
    assert e1 / e2 >= 3.5, f"order {order}: factor {e1 / e2:.2f}"


@pytest.mark.parametrize("t,order", [(0.0, 1), (0.0, 2), (0.0, 3), (2.0, 1), (2.0, 3)])
def test_fd_one_sided_at_boundaries(t, order):
    # stencils flip to one sided forms when the window leaves the domain
    f = lambda u: np.array([u**4, math.sin(u), 1.0])
    d4 = {1: lambda u: 4 * u**3, 2: lambda u: 12 * u**2, 3: lambda u: 24 * u}
    dsin = {1: math.cos, 2: lambda u: -math.sin(u), 3: lambda u: -math.cos(u)}
    got = finite_difference_derivative(f, t, order, 1e-3, domain=(0.0, 2.0))
    want = np.array([d4[order](t), dsin[order](t), 0.0])
    npt.assert_allclose(got, want, atol=5e-4)


def test_polyline_interpolates_its_points():
    knots = np.linspace(0, 1, 7)
    pts = np.array([[math.cos(3 * k), math.sin(3 * k), k] for k in knots])
    p = Polyline(pts, knots)
    for k, pt in zip(knots, pts):
        npt.assert_allclose(p.eval(float(k), 0), pt, atol=1e-12)
    mid = p.eval(0.5 * (knots[2] + knots[3]), 0)
    assert np.all(np.isfinite(mid))


def test_regularity_on_the_cubic():
    rep = regularity_check(paper_cubic(), grid_size=257)
    assert rep.is_regular
    assert rep.is_twisted
    # grid of 257 points on [-3, 3] hits s = 0 where the speed bottoms out at 6
    assert abs(rep.min_speed - 6.0) < 1e-12


def test_regularity_flags_a_line():
    line = CallableCurve(lambda t: np.array([t, 2 * t, -t]), domain=(0.0, 1.0))
    rep = regularity_check(line)
    assert rep.is_regular
    assert not rep.is_twisted


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
    moved = transform_curve(c, rotation=rot, translation=shift, scale=2.0)
    t = 1.1
    npt.assert_allclose(moved.eval(t, 0), 2.0 * rot @ c.eval(t, 0) + shift, atol=1e-12)
    npt.assert_allclose(moved.eval(t, 1), 2.0 * rot @ c.eval(t, 1), atol=1e-12)
    npt.assert_allclose(moved.eval(t, 3), 2.0 * rot @ c.eval(t, 3), atol=1e-12)


def test_polynomial_requires_three_components():
    with pytest.raises(InvalidField):
        PolynomialCurve([[1.0], [2.0]], domain=(0, 1))
