"""The slant invariant sigma, computed exactly from derivative jets of order 4.

The witness is the Salkowski curve (Monterde, "Salkowski curves revisited",
CAGD 26, 2009): a slant helix that is not a general helix, with curvature
identically 1 and sigma identically -1/2 for m = 1/2. Differencing tau/kappa
over arc length rejected it at 64 and 256 samples.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    CircularHelix,
    LiftSpec,
    Polyline,
    PolynomialCurve,
    TransformedCurve,
    classify_curve,
    frame_at,
    lift_curve,
    reparam_by_arclength,
    slant_test,
)
from helixlift.curves import ParamCurve
from helixlift.fixtures import paper_cubic

HALF_TURN = math.pi / 2.0


class Salkowski(ParamCurve):
    """The Salkowski curve of parameter m; each component is a sum of
    a cos(w t + phase) terms, so order k is a w^k cos(w t + phase + k pi/2)."""

    kind = "salkowski"

    def __init__(self, m=0.5, domain=(0.3, 2.8)):
        super().__init__(*domain)
        n = m / math.sqrt(1.0 + m * m)
        k = 1.0 / math.sqrt(1.0 + m * m)
        p = (1.0 - n) / (4.0 * (1.0 + 2.0 * n))
        q = (1.0 + n) / (4.0 * (1.0 - 2.0 * n))
        # (component, amplitude, frequency, phase); a sine is a cosine a quarter turn late.
        self._terms = [
            (0, -k * p, 1.0 + 2.0 * n, -HALF_TURN),
            (0, -k * q, 1.0 - 2.0 * n, -HALF_TURN),
            (0, -0.5 * k, 1.0, -HALF_TURN),
            (1, k * p, 1.0 + 2.0 * n, 0.0),
            (1, k * q, 1.0 - 2.0 * n, 0.0),
            (1, 0.5 * k, 1.0, 0.0),
            (2, k / (4.0 * m), 2.0 * n, 0.0),
        ]

    def _evaluate(self, ts, order):
        out = np.zeros((len(ts), 3))
        for i, a, w, phase in self._terms:
            out[:, i] += a * w**order * np.cos(w * ts + phase + order * HALF_TURN)
        return out


def _rotation():
    c, s = math.cos(0.9), math.sin(0.9)
    about_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return about_x @ about_z


def test_salkowski_jet_matches_finite_differences():
    # Guards the test curve itself: each order against a central difference of the one below.
    curve = Salkowski()
    ts = np.linspace(1.0, 2.0, 5)
    h = 1e-5
    for k in range(1, 5):
        fd = (curve.eval(ts + h, k - 1) - curve.eval(ts - h, k - 1)) / (2.0 * h)
        npt.assert_allclose(curve.eval(ts, k), fd, atol=1e-8)


@pytest.mark.parametrize("grid_size", [64, 256])
def test_salkowski_is_slant_and_not_general(grid_size):
    cls = classify_curve(Salkowski(), grid_size=grid_size)
    assert cls.is_slant_helix
    assert not cls.is_general_helix
    assert cls.sigma_stat.grid_size == grid_size
    assert abs(cls.sigma_stat.mean + 0.5) + cls.sigma_stat.max_abs_dev <= 1e-10
    assert abs(cls.kappa_stat.mean - 1.0) + cls.kappa_stat.max_abs_dev <= 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda: reparam_by_arclength(Salkowski()),
        lambda: TransformedCurve(Salkowski(), rotation=_rotation(), translation=[1, 2, 3],
                                 scale=3.0),
    ],
    ids=["arclength_reparam", "rotated_scaled"],
)
def test_salkowski_stays_slant_under_reparameterization_and_similarity(make):
    # sigma is dimensionless and does not depend on the parameter.
    ok, stat = slant_test(make(), grid_size=64)
    assert ok
    assert abs(stat.mean + 0.5) + stat.max_abs_dev <= 1e-10


@pytest.mark.parametrize("radius,pitch", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_reparameterized_helix_jet_matches_the_closed_form(radius, pitch):
    # At unit speed the helix is helix(s / c) with c = sqrt(r^2 + p^2), so
    # order k is the helix's order k at s / c times c^-k.
    helix = CircularHelix(radius, pitch)
    c = math.hypot(radius, pitch)
    alpha = reparam_by_arclength(helix)
    s = np.linspace(0.0, alpha.t_hi, 17)
    for k, got in zip(range(5), alpha.jet(s, range(5))):
        npt.assert_allclose(got, helix.eval(np.minimum(s / c, helix.t_hi), k) / c**k, atol=1e-9)


def test_reparameterized_jet_order_four_is_the_derivative_of_order_three():
    # The paper cubic's speed varies, so every term of the order 4 chain rule counts.
    alpha = reparam_by_arclength(paper_cubic())
    s = np.linspace(0.1, alpha.t_hi - 0.1, 9)
    h = 1e-4
    fd = (alpha.eval(s + h, 3) - alpha.eval(s - h, 3)) / (2.0 * h)
    got = alpha.eval(s, 4)
    npt.assert_allclose(got, fd, rtol=0, atol=1e-6 * np.max(np.abs(got)))


def test_leaf_kinds_give_exact_fourth_derivatives():
    quartic = PolynomialCurve([[0, 0, 0, 0, 2], [1, 1], [0, 0, 0, 1]], (-1.0, 1.0))
    npt.assert_array_equal(quartic.eval([0.0, 0.5], 4), [[48.0, 0.0, 0.0]] * 2)
    helix = CircularHelix(2.0, 0.5)
    t = 0.7
    npt.assert_allclose(helix.eval(t, 4), [2 * math.cos(t), 2 * math.sin(t), 0.0], atol=1e-15)
    knots = np.linspace(0.0, 3.0, 7)
    line = Polyline(np.stack([knots, knots**2, np.sin(knots)], axis=1), knots)
    npt.assert_array_equal(line.eval(knots[:-1] + 0.2, 4), np.zeros((6, 3)))


def test_salkowski_normal_keeps_a_constant_angle_with_e3():
    # e3 is the slant axis: N . e3 = -1/sqrt(5) at every sample.
    curve = Salkowski()
    normal_z = frame_at(curve, np.linspace(curve.t_lo, curve.t_hi, 256)).N[:, 2]
    npt.assert_allclose(normal_z, -1.0 / math.sqrt(5.0), rtol=0, atol=1e-14)
    assert np.std(normal_z) < 1e-15


@pytest.mark.parametrize("theta, mean, rel_dev",
                         [(math.pi / 4, -0.8172, 8.80), (1.2, -0.6016, 0.181)])
def test_a_lift_of_the_salkowski_curve_along_its_slant_axis_is_not_slant(theta, mean, rel_dev):
    # Measured behaviour of the construction, not a claim of the paper. The
    # strict lift needs a general helix base, whose sigma is identically 0;
    # this slant base is not one, so the lift is non strict along e3.
    alpha = reparam_by_arclength(Salkowski())
    spec = LiftSpec(theta=theta, axis_mode="explicit", axis=[0.0, 0.0, 1.0])
    ok, stat = slant_test(lift_curve(alpha, spec, strict=False))
    assert not ok
    assert stat.mean == pytest.approx(mean, abs=5e-5)
    assert stat.rel_dev == pytest.approx(rel_dev, rel=5e-3)
