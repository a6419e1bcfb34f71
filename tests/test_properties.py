"""Properties of classify_curve over generated similarity motions.

A rotation, a translation and a uniform scale lambda leave every helix
verdict and the helix angle unchanged, turn the axis with the rotation,
scale curvature and torsion by 1 / lambda, and leave the dimensionless slant
invariant sigma unchanged.
"""

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helixlift import TransformedCurve, classify_curve  # noqa: E402
from helixlift.fixtures import circular_helix, paper_cubic, twisted_cubic  # noqa: E402

bases = st.one_of(
    st.just(paper_cubic()),
    st.just(twisted_cubic()),
    # Either handedness: a negative pitch turns the helix the other way.
    st.builds(circular_helix, st.floats(0.2, 5.0),
              st.one_of(st.floats(0.2, 5.0), st.floats(-5.0, -0.2))),
)


@st.composite
def rotations(draw):
    """A rotation matrix from a generated unit quaternion (w, x, y, z)."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    norm = float(np.linalg.norm(q))
    hypothesis.assume(norm > 0.1)
    w, x, y, z = q / norm
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(base=bases, rotation=rotations(),
       translation=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       scale=st.floats(0.1, 10.0))
def test_a_similarity_motion_keeps_the_classification(base, rotation, translation, scale):
    want = classify_curve(base)
    got = classify_curve(TransformedCurve(base, rotation, translation, scale))
    assert got.is_general_helix == want.is_general_helix
    assert got.is_circular_helix == want.is_circular_helix
    assert got.is_slant_helix == want.is_slant_helix
    if want.theta is None:
        assert got.theta is None and got.axis is None
    else:
        assert abs(got.theta - want.theta) < 1e-9
        npt.assert_allclose(got.axis, rotation @ want.axis, atol=1e-9)
    npt.assert_allclose(got.kappa_stat.mean, want.kappa_stat.mean / scale, rtol=1e-9)
    npt.assert_allclose(got.tau_stat.mean, want.tau_stat.mean / scale, rtol=1e-9)
    npt.assert_allclose(got.sigma_stat.mean, want.sigma_stat.mean, rtol=1e-8, atol=1e-12)
