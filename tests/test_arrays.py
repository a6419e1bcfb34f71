"""Array evaluation: every kind and layer agrees with its per-point calls."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from helixlift import (
    DEFAULT_TOLERANCES,
    LiftSpec,
    OutOfDomain,
    PolynomialCurve,
    Polyline,
    TransformedCurve,
    arc_length,
    classify_curve,
    cli,
    frame_at,
    frenet,
    helix,
    lift,
    lift_curve,
    oracle_frame,
    reparam_by_arclength,
    run_paper_suite,
    run_theorem_checks,
    verify,
)
from helixlift.curvespec import parse_curve_spec, serialize_curve_spec
from helixlift.errors import InvalidField, UnsupportedOrder
from helixlift.fixtures import circular_helix, paper_cubic
from helixlift.frenet import ArcLengthMap

EPS = np.finfo(float).eps


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _polyline():
    knots = np.linspace(0.0, 3.0, 9)
    return Polyline(np.stack([np.cos(knots), np.sin(knots), 0.5 * knots], axis=1), knots)


CURVES = {
    "polynomial": paper_cubic,
    "circular_helix": lambda: circular_helix(2.0, 0.5),
    "polyline": _polyline,
    "transformed": lambda: TransformedCurve(
        paper_cubic(), rotation=_rotation(0.7), translation=[1.0, -2.0, 0.5], scale=2.0
    ),
    "lifted": lambda: lift_curve(
        paper_cubic(), LiftSpec(theta=math.pi / 4, axis_mode="paper_printed"), strict=False
    ),
    "arclength_reparam": lambda: reparam_by_arclength(circular_helix(1.0, 1.0)),
}

# Jets matter most where a base is mapped: the lift over a reparameterized base.
JET_CURVES = {
    **CURVES,
    "lifted": lambda: lift_curve(reparam_by_arclength(paper_cubic()), LiftSpec(theta=math.pi / 4)),
}


def _close(got, want):
    # Same arithmetic on both sides; only vectorized transcendentals and
    # matrix products may round differently, by a few ulps.
    npt.assert_allclose(got, want, rtol=4 * EPS, atol=4 * EPS * max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("kind", sorted(CURVES))
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_array_eval_matches_scalar_calls(kind, order):
    curve = CURVES[kind]()
    assert curve.kind == kind
    ts = np.linspace(curve.t_lo, curve.t_hi, 11)
    got = curve.eval(ts, order)
    assert got.shape == (11, 3)
    assert curve.eval(ts[3], order).shape == (3,)
    _close(got, np.stack([curve.eval(float(t), order) for t in ts]))


@pytest.mark.parametrize("kind", sorted(JET_CURVES))
@pytest.mark.parametrize("orders", [(1, 2, 3), (0, 1, 2, 3), (2,), (0,), (1, 2, 3, 4), (0, 4)],
                         ids=lambda orders: "o" + "".join(map(str, orders)))
def test_jet_equals_stacked_eval_calls(kind, orders):
    curve = JET_CURVES[kind]()
    assert curve.kind == kind
    ts = np.linspace(curve.t_lo, curve.t_hi, 11)
    for t in (ts, float(ts[4])):
        got = curve.jet(t, orders)
        assert len(got) == len(orders)
        for k, value in zip(orders, got):
            assert np.array_equal(value, curve.eval(t, k))
    with pytest.raises(OutOfDomain):
        curve.jet(np.append(ts, curve.t_hi + 1.0), orders)
    with pytest.raises(UnsupportedOrder):
        curve.jet(ts, orders + (5,))


@pytest.mark.parametrize("base", [paper_cubic, lambda: reparam_by_arclength(paper_cubic())],
                         ids=["leaf", "arclength_reparam"])
def test_a_lifted_jet_from_its_base_jet_equals_the_lifted_jet(base):
    alpha = base()
    lifted = lift_curve(alpha, LiftSpec(theta=math.pi / 4, s0=0.3, offset=[1.0, -2.0, 0.5],
                                        axis_mode="paper_printed"), strict=False)
    ts = np.linspace(alpha.t_lo, alpha.t_hi, 11)
    orders = (0, 1, 2, 3, 4)
    for got, want in zip(lifted.lift_jet(ts, orders, alpha.jet(ts, orders)),
                         lifted.jet(ts, orders)):
        assert np.array_equal(got, want)


def test_classify_of_a_frame_grid_equals_classify_curve():
    curve = reparam_by_arclength(paper_cubic())
    _, jet, frames, _ = helix.frame_grid(curve, 64, orders=(1, 2, 3, 4))
    got = helix.classify_of(jet, frames, DEFAULT_TOLERANCES)
    want = classify_curve(curve, grid_size=64)
    for name in want.__dataclass_fields__:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_one_bad_entry_raises_out_of_domain():
    curve = paper_cubic()
    with pytest.raises(OutOfDomain) as exc:
        curve.eval(np.array([0.0, 1.0, 3.5, 2.0]), 1)
    assert exc.value.t == 3.5
    with pytest.raises(OutOfDomain):
        curve.eval(np.array([0.0, math.nan]), 0)


@pytest.mark.parametrize("kind", ["polynomial", "arclength_reparam", "lifted"])
def test_frame_at_on_arrays_matches_per_point(kind):
    curve = CURVES[kind]()
    ts = np.linspace(curve.t_lo + 0.01 * curve.span, curve.t_hi, 7)
    grid = frame_at(curve, ts)
    for i, t in enumerate(ts):
        one = frame_at(curve, float(t))
        for name in ("T", "N", "B", "kappa", "tau", "speed"):
            _close(getattr(grid, name)[i], getattr(one, name))


def test_oracle_frame_on_arrays_matches_per_point():
    curve = reparam_by_arclength(paper_cubic())
    h = 1e-3
    us = np.linspace(curve.t_lo + 2 * h, curve.t_hi - 2 * h, 9)
    grid = oracle_frame(curve, us, h)
    for i, u in enumerate(us):
        one = oracle_frame(curve, float(u), h)
        for name in ("T", "N", "B", "kappa", "tau", "speed"):
            _close(getattr(grid, name)[i], getattr(one, name))


def test_sample_frames_flags_the_polyline_end_rows(tmp_path, capsys):
    # The natural spline has a'' = 0 at both ends, so exactly the end rows
    # have no frame; every interior row carries a unit tangent.
    rng = np.random.default_rng(7)
    knots = np.cumsum(rng.uniform(0.5, 1.5, 12)) - 0.5
    points = np.stack([np.cos(knots), np.sin(knots), 0.3 * knots], axis=1)
    points += rng.uniform(-1e-3, 1e-3, points.shape)
    spec = tmp_path / "poly.json"
    spec.write_text(json.dumps({"kind": "polyline", "knots": knots.tolist(),
                                "points": points.tolist()}))
    assert cli.main(["sample", "--spec", str(spec), "--n", "9", "--frames"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[-1] for row in rows] == ["1"] + ["0"] * 7 + ["1"]
    for row in rows[1:-1]:
        assert abs(math.hypot(*(float(v) for v in row[4:7])) - 1.0) < 1e-12


class CountingPolyline(Polyline):
    points_evaluated = 0

    def _evaluate(self, ts, order):
        self.points_evaluated += len(ts)
        return super()._evaluate(ts, order)


@pytest.mark.parametrize("seed,scale", [(1, 1.0), (2, 1.0), (3, 1.0), (1, 1e9)])
def test_polyline_arc_length_matches_quad(seed, scale):
    # The spline speed has kinks at the knots; a fixed 8-point Gauss-Legendre
    # rule on a uniform 256-cell grid is off by up to ~1e-8 here, so the
    # integrator has to refine adaptively. At scale 1e9 round off exceeds the
    # absolute tolerance at every level; the open-panel cap must stop the
    # refinement (without it this needs gigabytes) and keep the accuracy.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 15))
    knots = np.cumsum(rng.uniform(0.2, 1.0, m))
    curve = CountingPolyline(scale * rng.normal(size=(m, 3)), knots)
    speed = lambda t: float(np.linalg.norm(curve.eval(t, 1)))
    want, _ = quad(speed, knots[0], knots[-1], points=knots[1:-1], limit=500,
                   epsabs=0.0, epsrel=1e-13)
    curve.points_evaluated = 0
    got = arc_length(curve, knots[0], knots[-1])
    assert abs(got - want) <= 1e-11 * want
    assert curve.points_evaluated < 4_000_000


class CountingCubic(PolynomialCurve):
    def __init__(self):
        super().__init__([[0, 6], [0, 0, 3], [0, 0, 0, 1]], (-3.0, 3.0))
        self.calls = 0

    def _evaluate(self, ts, order):
        self.calls += 1
        return super()._evaluate(ts, order)


def test_classify_work_does_not_grow_with_the_grid():
    counts = []
    for grid_size in (64, 256):
        curve = CountingCubic()
        classify_curve(curve, grid_size=grid_size)
        counts.append(curve.calls)
    assert counts[0] == counts[1]


@pytest.fixture
def inverse_calls(monkeypatch):
    calls = []
    inverse = ArcLengthMap._inverse

    def counting(self, s):
        calls.append(len(s))
        return inverse(self, s)

    monkeypatch.setattr(ArcLengthMap, "_inverse", counting)
    return calls


@pytest.mark.parametrize("kind", ["arclength_reparam", "lifted"])
def test_a_frame_grid_solves_the_arc_length_inverse_once(kind, inverse_calls):
    curve = JET_CURVES[kind]()
    inverse_calls.clear()
    frame_at(curve, np.linspace(curve.t_lo, curve.t_hi, 9))
    assert inverse_calls == [9]


def test_strict_lift_solves_the_arc_length_inverse_once(inverse_calls):
    alpha = reparam_by_arclength(paper_cubic())
    inverse_calls.clear()
    lift_curve(alpha, LiftSpec(theta=math.pi / 4), grid_size=64)
    assert inverse_calls == [64]


def test_paper_suite_inverse_solves_stay_pinned(inverse_calls):
    # Pinned at the measured count: one 256 point jet per reparameterized
    # base (alpha_u and three circular helices) serves its lift, its
    # classification and both slant tests; one solve for the lifted oracle
    # at the printed samples, and one for alpha's jet on the theorem grid's
    # oracle stencil, which serves the lifted oracle and alpha's frames.
    run_paper_suite()
    assert len(inverse_calls) <= 6
    assert sum(inverse_calls) <= 1_544


def test_an_inverse_evaluates_its_base_twice_per_newton_step():
    # Each step reads the speed at its iterate from the quadrature's first
    # level; the 256 queries take three steps, each of two levels.
    alpha = reparam_by_arclength(CountingCubic())
    queries = np.linspace(0.0, alpha.length_map.total_length, 256)
    alpha.base.calls = 0
    alpha.length_map.inverse(queries)
    assert alpha.base.calls == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "--samples", "2"],
        ["lift", "--spec", "paper_cubic", "--theta", "auto", "--samples", "2"],
        ["classify", "--spec", "paper_cubic", "--samples", "2"],
    ],
    ids=["verify-paper", "lift", "classify"],
)
def test_a_bad_grid_size_is_rejected_before_any_work(argv, inverse_calls, capsys):
    # paper_cubic is not unit speed, so lift would build an arc length map first.
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: grid_size must be at least 3, got 2\n"
    assert inverse_calls == []


@pytest.fixture
def arclength_maps(monkeypatch):
    built = []
    init = ArcLengthMap.__init__

    def counting(self, curve, *args, **kwargs):
        built.append(curve)
        init(self, curve, *args, **kwargs)

    monkeypatch.setattr(ArcLengthMap, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--offset", "1,2"], "--offset expects three comma separated numbers, got '1,2'"),
        (["--axis", "0,0"], "--axis expects three comma separated numbers, got '0,0'"),
        (["--axis", "0,0,0"], "explicit axis must be nonzero"),
        (["--s0", "nan"], "s0 must be finite, got nan"),
        (["--theta", "soon"], "--theta expects a number or 'auto', got 'soon'"),
        (["--theta", "2"], "theta must lie in [0, pi/2], got 2.0"),
    ],
    ids=["offset", "axis_short", "axis_zero", "s0_nan", "theta_word", "theta_range"],
)
def test_a_bad_lift_argument_is_rejected_before_any_work(argv, message, inverse_calls,
                                                         arclength_maps, capsys):
    # paper_cubic is not unit speed: any work would start with its arc length map.
    assert cli.main(["lift", "--spec", "paper_cubic", *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert arclength_maps == []
    assert inverse_calls == []


def test_an_auto_lift_measures_its_base_once(inverse_calls, capsys):
    assert cli.main(["lift", "--spec", "paper_cubic", "--theta", "auto"]) == 0
    assert inverse_calls == [256]


def test_an_auto_lift_of_a_reparameterized_spec_solves_its_inverse_once(inverse_calls, tmp_path,
                                                                       capsys):
    # The speed gate and the lift read one jet of the already unit speed base.
    spec = tmp_path / "base.json"
    spec.write_text(serialize_curve_spec(reparam_by_arclength(circular_helix(2.0, 1.0))))
    inverse_calls.clear()
    assert cli.main(["lift", "--spec", str(spec), "--theta", "auto"]) == 0
    assert inverse_calls == [256]


@pytest.fixture
def frame_grids(monkeypatch):
    sizes = []
    kernel = helix.frames_from_derivatives

    def counting(d1, *rest):
        sizes.append(len(d1))
        return kernel(d1, *rest)

    for module in (frenet, helix, verify, cli):
        monkeypatch.setattr(module, "frames_from_derivatives", counting)
    return sizes


def test_paper_suite_builds_each_frame_grid_once(frame_grids):
    run_paper_suite()
    # The literal cubic's lift, one grid per reparameterized base and one
    # per lift of it (alpha_u and three circular helices), the twisted cubic.
    assert frame_grids.count(256) == 10


@pytest.mark.parametrize("spec", ["paper_cubic", "circular_helix:0.6,0.8"])
def test_an_auto_lift_builds_one_frame_grid(spec, frame_grids, capsys):
    # The speed probe evaluates the base's jet only: a base that fails it is
    # reparameterized and lifted on its own grid, one that passes is lifted
    # on the probe's jet.
    assert cli.main(["lift", "--spec", spec, "--theta", "auto"]) == 0
    assert frame_grids == [256]


def test_theorem_checks_evaluate_their_base_once(inverse_calls, frame_grids):
    # One 256 point jet of the base serves the strict lift gate, the base's
    # classification and, through the lift's jet, the lift's slant test. On
    # the 100 point theorem grid one base jet on the oracle's five stencil
    # rows gives the lift's positions there and, on its middle row, the
    # base's frames.
    alpha = reparam_by_arclength(paper_cubic())
    inverse_calls.clear()
    run_theorem_checks(alpha, LiftSpec(theta=math.pi / 4))
    assert inverse_calls == [256, 500]
    assert frame_grids == [256, 256, 100, 100]  # base, lift, oracle, base


def test_a_bad_spec_grid_is_rejected_before_its_base_is_built(inverse_calls):
    # Building the lift of the inner reparameterized cubic takes a 256 point frame grid.
    cubic = {"kind": "polynomial", "domain": [-3, 3], "coeffs": [[0, 6], [0, 0, 3], [0, 0, 0, 1]]}
    lifted = {"kind": "lifted", "theta": math.pi / 4,
              "base": {"kind": "arclength_reparam", "base": cubic}}
    doc = {"kind": "arclength_reparam", "grid": 1, "base": lifted}
    with pytest.raises(InvalidField, match="grid_size must be at least 2, got 1"):
        parse_curve_spec(json.dumps(doc))
    assert inverse_calls == []
