"""JSON curve spec parsing and serialization round trips."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    LiftSpec,
    ParseError,
    UnknownKind,
    curve_from_dict,
    curve_to_dict,
    lift_curve,
    parse_curve_spec,
    reparam_by_arclength,
    serialize_curve_spec,
)
from helixlift.errors import InvalidField
from helixlift.fixtures import circular_helix, paper_cubic


def roundtrip(curve):
    return parse_curve_spec(serialize_curve_spec(curve))


def assert_same_curve(a, b, ts, atol=1e-9):
    for t in ts:
        npt.assert_allclose(a.eval(t, 0), b.eval(t, 0), atol=atol)


def test_polynomial_roundtrip():
    c = paper_cubic()
    again = roundtrip(c)
    assert again.kind == "polynomial"
    assert_same_curve(c, again, np.linspace(-3, 3, 9), atol=0)


def test_circular_helix_roundtrip():
    c = circular_helix(2.0, 0.5)
    again = roundtrip(c)
    assert again.kind == "circular_helix"
    assert_same_curve(c, again, np.linspace(0, 2 * math.pi, 9), atol=0)


def test_polyline_roundtrip():
    from helixlift import Polyline

    knots = np.linspace(0.0, 2.0, 6)
    pts = np.array([[k, k * k, math.sin(k)] for k in knots])
    c = Polyline(pts, knots)
    again = roundtrip(c)
    assert_same_curve(c, again, np.linspace(0, 2, 11), atol=1e-12)


def test_lifted_roundtrip():
    base = reparam_by_arclength(circular_helix(1.0, 1.0))
    lifted = lift_curve(base, LiftSpec(theta=math.pi / 4))
    again = roundtrip(lifted)
    assert again.kind == "lifted"
    assert_same_curve(lifted, again, np.linspace(lifted.t_lo, lifted.t_hi, 7), atol=1e-9)


def test_reparam_roundtrip():
    c = reparam_by_arclength(paper_cubic())
    again = roundtrip(c)
    assert again.kind == "arclength_reparam"
    assert_same_curve(c, again, np.linspace(c.t_lo, c.t_hi, 7), atol=1e-9)


def test_serialization_is_stable():
    text1 = serialize_curve_spec(paper_cubic())
    text2 = serialize_curve_spec(paper_cubic())
    assert text1 == text2
    assert text1.endswith("\n")
    doc = json.loads(text1)
    assert doc["kind"] == "polynomial"


HELIX = {"kind": "circular_helix", "domain": [0, 1], "radius": 1, "pitch": 1}


def test_not_json_raises_parse_error():
    with pytest.raises(ParseError):
        parse_curve_spec("{not json")


def test_non_object_raises_parse_error():
    with pytest.raises(ParseError):
        parse_curve_spec("[1, 2, 3]")


def test_unknown_kind():
    with pytest.raises(UnknownKind):
        curve_from_dict({"kind": "spiral", "domain": [0, 1]})


def test_missing_kind():
    with pytest.raises(InvalidField):
        curve_from_dict({"domain": [0, 1]})


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "polynomial", "domain": [0, 1]},
        {"kind": "polynomial", "domain": [0, 1], "coeffs": [[1], [2]]},
        {"kind": "polynomial", "domain": [1, 0], "coeffs": [[1], [2], [3]]},
        {"kind": "circular_helix", "domain": [0, 1], "radius": "big", "pitch": 1},
        {"kind": "circular_helix", "domain": [0, 1], "pitch": 1},
        {"kind": "polyline", "domain": [0, 1], "points": [[0, 0, 0]]},
        {"kind": "lifted", "theta": 0.5},
        {"kind": "arclength_reparam", "grid": 1,
         "base": {"kind": "circular_helix", "domain": [0, 1], "radius": 1, "pitch": 1}},
    ],
)
def test_malformed_fields_raise_invalid_field(doc):
    with pytest.raises(InvalidField):
        curve_from_dict(doc)


def test_polyline_domain_must_match_knots():
    doc = {
        "kind": "polyline",
        "domain": [0.0, 3.0],
        "points": [[0, 0, 0], [1, 1, 0], [2, 0, 1]],
        "knots": [0.0, 1.0, 2.0],
    }
    with pytest.raises(InvalidField):
        curve_from_dict(doc)


def test_a_reparam_grid_is_checked_before_its_base():
    doc = {"kind": "arclength_reparam", "grid": 1, "base": {"kind": "nope"}}
    with pytest.raises(InvalidField, match="^grid_size must be at least 2, got 1$"):
        curve_from_dict(doc)
    with pytest.raises(InvalidField, match="'grid' must be an integer >= 2, got 2.5"):
        curve_from_dict({**doc, "grid": 2.5})


@pytest.mark.parametrize(
    "name, doc",
    [
        ("coeffs", {"kind": "polynomial", "domain": [0, 1], "coeffs": [[0, True], [0], [0]]}),
        ("points", {"kind": "polyline", "points": [[0, 0, 0], [1, False, 0]], "knots": [0, 1]}),
        ("knots", {"kind": "polyline", "points": [[0, 0, 0], [1, 0, 0]], "knots": [False, 1]}),
        ("offset", {"kind": "lifted", "theta": 0.5, "offset": [True, 0, 0], "base": HELIX}),
        ("axis", {"kind": "lifted", "theta": 0.5, "axis_mode": "explicit", "axis": [0, 0, True],
                  "base": HELIX}),
    ],
)
def test_a_boolean_is_not_a_number_in_an_array_field(name, doc):
    with pytest.raises(InvalidField, match=f"^field '{name}' holds a boolean where a number belongs$"):
        curve_from_dict(doc)


@pytest.mark.parametrize(
    "name, doc, entry",
    [
        ("offset", {"kind": "lifted", "theta": 0.5, "offset": ["1e3", 0, 0], "base": HELIX}, "1e3"),
        ("axis", {"kind": "lifted", "theta": 0.5, "axis_mode": "explicit", "axis": [0, 0, "1"],
                  "base": HELIX}, "1"),
        ("coeffs", {"kind": "polynomial", "domain": [0, 1], "coeffs": [["0", "1"], [0], [0]]}, "0"),
        ("points", {"kind": "polyline", "points": [[0, 0, 0], [1, "0", 0]], "knots": [0, 1]}, "0"),
        ("knots", {"kind": "polyline", "points": [[0, 0, 0], [1, 0, 0]], "knots": [0, "1"]}, "1"),
    ],
    ids=["offset", "axis", "coeffs", "points", "knots"],
)
def test_a_numeric_string_is_not_a_number_in_an_array_field(name, doc, entry):
    with pytest.raises(InvalidField, match=f"^field '{name}' holds '{entry}' where a number belongs$"):
        curve_from_dict(doc)


def test_a_domain_wider_than_the_float_range_is_invalid():
    doc = {**HELIX, "domain": [-1e308, 1e308]}
    with pytest.raises(InvalidField, match=r"^domain \[-1e\+308, 1e\+308\] is wider than the float range$"):
        curve_from_dict(doc)
