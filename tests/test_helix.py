"""Helix classification: Lancret, axis, slant and Bertrand tests."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    DEFAULT_TOLERANCES,
    DegenerateFrame,
    LiftSpec,
    TransformedCurve,
    bertrand_test,
    classify_curve,
    constancy_stat,
    lift_curve,
    reparam_by_arclength,
    slant_test,
)
from helixlift.errors import DomainMismatch
from helixlift.helix import axis_of, frame_grid
from helixlift.fixtures import (
    circular_helix,
    paper_cubic,
    planar_circle,
    quartic_non_helix,
    twisted_cubic,
)


def test_constancy_stat_basics():
    s = constancy_stat([2.0, 2.0, 2.0])
    assert s.mean == 2.0
    assert s.max_abs_dev == 0.0
    assert s.rel_dev == 0.0
    s = constancy_stat([0.0, 0.0])
    assert s.rel_dev == 0.0  # floor keeps the all-zero case finite
    s = constancy_stat([1.0, 2.0])
    assert abs(s.mean - 1.5) < 1e-15
    assert abs(s.max_abs_dev - 0.5) < 1e-15


def test_cubic_is_a_general_helix_at_pi_over_4():
    cls = classify_curve(paper_cubic())
    assert cls.is_general_helix
    assert abs(cls.theta - math.pi / 4) < 1e-12
    assert cls.ratio_stat.rel_dev < 1e-10


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (1.0, math.sqrt(3))])
def test_circular_helix_angle(a, b):
    cls = classify_curve(circular_helix(a, b))
    assert cls.is_general_helix
    assert abs(cls.theta - math.atan2(a, b)) < 1e-12


def test_quartic_is_not_a_helix():
    cls = classify_curve(quartic_non_helix())
    assert not cls.is_general_helix
    assert cls.ratio_stat.rel_dev > 1e-2
    assert cls.axis is None


def test_planar_circle_is_degenerate_for_lancret():
    with pytest.raises(DegenerateFrame):
        classify_curve(planar_circle())


def test_cubic_axis_direction():
    cls = classify_curve(paper_cubic())
    npt.assert_allclose(cls.axis, [math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2], atol=1e-10)
    frames = frame_grid(paper_cubic(), 256)[2]
    _, stat = axis_of(frames, cls.theta, cls.ratio_stat, DEFAULT_TOLERANCES)
    assert stat.rel_dev < 1e-10


def test_helix_axis_is_vertical():
    axis = classify_curve(circular_helix(2.0, 1.0)).axis
    npt.assert_allclose(axis, [0.0, 0.0, 1.0], atol=1e-10)


def test_axis_follows_rigid_motion():
    ang = 0.9
    rot = np.array(
        [
            [math.cos(ang), 0.0, math.sin(ang)],
            [0.0, 1.0, 0.0],
            [-math.sin(ang), 0.0, math.cos(ang)],
        ]
    )
    axis0 = classify_curve(paper_cubic()).axis
    axis1 = classify_curve(TransformedCurve(paper_cubic(), rotation=rot)).axis
    npt.assert_allclose(axis1, rot @ axis0, atol=1e-9)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)])
def test_circular_helices_are_slant(a, b):
    ok, stat = slant_test(circular_helix(a, b))
    assert ok
    assert stat.rel_dev < 1e-4


def test_general_helix_is_slant_too():
    # sigma is identically zero whenever tau/kappa is constant
    ok, _ = slant_test(paper_cubic())
    assert ok


def test_twisted_cubic_is_not_slant():
    ok, stat = slant_test(twisted_cubic())
    assert not ok
    assert stat.rel_dev > 1e-2


def test_bertrand_self_pair():
    h = circular_helix(1.0, 1.0)
    ok, stat = bertrand_test(h, h)
    assert ok
    assert stat.mean > 1.0 - 1e-12


def test_bertrand_normal_offset_pair():
    # moving a circular helix along its principal normal keeps normals parallel
    inner = circular_helix(0.5, 1.0)
    outer = circular_helix(1.0, 1.0)
    ok, _ = bertrand_test(inner, outer)
    assert ok


def test_bertrand_rejects_a_rotated_copy():
    h = circular_helix(1.0, 1.0)
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(0.4), -math.sin(0.4)],
            [0.0, math.sin(0.4), math.cos(0.4)],
        ]
    )
    ok, _ = bertrand_test(h, TransformedCurve(h, rotation=rot))
    assert not ok


def test_bertrand_is_symmetric():
    a = circular_helix(0.5, 1.0)
    b = circular_helix(1.0, 1.0)
    ok_ab, _ = bertrand_test(a, b)
    ok_ba, _ = bertrand_test(b, a)
    assert ok_ab == ok_ba


def test_bertrand_requires_shared_domain():
    with pytest.raises(DomainMismatch):
        bertrand_test(circular_helix(1.0, 1.0), paper_cubic())


def test_base_and_lift_are_bertrand_mates():
    base = reparam_by_arclength(paper_cubic())
    lifted = lift_curve(base, LiftSpec(theta=math.pi / 4))
    ok, _ = bertrand_test(base, lifted)
    assert ok


def test_classify_circular_helix():
    cls = classify_curve(circular_helix(1.0, 1.0))
    assert cls.is_general_helix
    assert cls.is_circular_helix
    assert cls.is_slant_helix
    assert abs(cls.theta - math.pi / 4) < 1e-12
    npt.assert_allclose(cls.axis, [0, 0, 1], atol=1e-10)


def test_classify_cubic():
    cls = classify_curve(paper_cubic())
    assert cls.is_general_helix
    assert not cls.is_circular_helix  # kappa varies along the curve
    assert cls.is_slant_helix
    assert cls.axis is not None


def test_classify_twisted_cubic():
    cls = classify_curve(twisted_cubic())
    assert not cls.is_general_helix
    assert not cls.is_circular_helix
    assert not cls.is_slant_helix
    assert cls.theta is None
    assert cls.axis is None
