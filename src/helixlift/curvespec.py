"""Parse and serialize curve spec documents.

A curve spec is a JSON object with a ``kind`` field. The schema kinds are
polynomial, circular_helix, polyline, and lifted; arclength_reparam is an
additional kind this toolkit emits when a lift needed its base curve
reparameterized first. parse and serialize are exact inverses on every
kind: serialize(parse(serialize(c))) == serialize(c). Every malformed
document raises an InputError: ValueError, TypeError and OverflowError
from building a curve become InvalidField; nesting is capped at MAX_SPEC_DEPTH.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .curves import (CircularHelix, ParamCurve, Polyline, PolynomialCurve, check_grid_size,
                     same_domain)
from .errors import InputError, InvalidField, ParseError, UnknownKind
from .frenet import ReparamCurve, reparam_by_arclength
from .lift import LiftSpec, LiftedCurve, lift_curve

#: Deepest chain of nested "base" specs accepted; a lift of a reparameterized
#: curve nests two levels, so this leaves ample room for real documents.
MAX_SPEC_DEPTH = 32


def parse_curve_spec(text: str) -> ParamCurve:
    """Parse a curve spec document into a curve object."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"curve spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"curve spec must be a JSON object, got {type(doc).__name__}")
    return curve_from_dict(doc)


def serialize_curve_spec(curve: ParamCurve) -> str:
    """Serialize a curve to its spec document, stable across runs."""
    return json.dumps(curve_to_dict(curve), sort_keys=True, indent=2) + "\n"


def _real(doc, name, default=None):
    if name not in doc:
        if default is not None:
            return default
        raise InvalidField(f"missing required field {name!r}")
    value = doc[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidField(f"field {name!r} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidField(f"field {name!r} must be finite, got {value!r}")
    return float(value)


def _domain(doc, required=True):
    if "domain" not in doc:
        if required:
            raise InvalidField("missing required field 'domain'")
        return None
    dom = doc["domain"]
    if not isinstance(dom, (list, tuple)) or len(dom) != 2:
        raise InvalidField(f"'domain' must be a [lo, hi] pair, got {dom!r}")
    lo, hi = dom
    for v in (lo, hi):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise InvalidField(f"'domain' endpoints must be finite numbers, got {dom!r}")
    if not lo < hi:
        raise InvalidField(f"'domain' must satisfy lo < hi, got {dom!r}")
    return (float(lo), float(hi))


def _array(doc, name):
    """Field ``name`` (None when absent), a list of numbers or of lists of
    them; raises InvalidField for any other entry, such as a boolean or a
    numeric string, which numpy would read as a number."""
    value = doc.get(name)
    for row in value if isinstance(value, list) else ():
        for v in row if isinstance(row, list) else (row,):
            if isinstance(v, bool):
                raise InvalidField(f"field {name!r} holds a boolean where a number belongs")
            if not isinstance(v, (int, float)):
                raise InvalidField(f"field {name!r} holds {v!r} where a number belongs")
    return value


def _vector(doc, name, default=None):
    if name not in doc:
        return default
    value = doc[name]
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise InvalidField(f"field {name!r} must be a 3-vector, got {value!r}")
    return [float(v) for v in _array(doc, name)]


def _base(doc, depth):
    base_doc = doc.get("base")
    if not isinstance(base_doc, dict):
        raise InvalidField("'base' must be a nested curve spec object")
    return _curve(base_doc, depth + 1)


def _check_domain(doc, curve, what):
    domain = _domain(doc, required=False)
    if domain is not None and not same_domain(domain, curve.domain):
        raise InvalidField(
            f"'domain' {list(domain)} disagrees with the {what} [{curve.t_lo}, {curve.t_hi}]"
        )
    return curve


def _build_polynomial(doc, depth):
    domain = _domain(doc)
    coeffs = _array(doc, "coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != 3:
        raise InvalidField("'coeffs' must be a list of three coefficient lists")
    for comp in coeffs:
        if not isinstance(comp, list) or not comp:
            raise InvalidField("each coefficient list must be a non-empty list of numbers")
    return PolynomialCurve(coeffs, domain)


def _build_circular_helix(doc, depth):
    domain = _domain(doc)
    return CircularHelix(_real(doc, "radius"), _real(doc, "pitch"), domain)


def _build_polyline(doc, depth):
    points = _array(doc, "points")
    knots = _array(doc, "knots")
    if points is None or knots is None:
        raise InvalidField("polyline needs 'points' and 'knots'")
    return _check_domain(doc, Polyline(points, knots), "knot range")


def _build_lifted(doc, depth):
    base = _base(doc, depth)
    axis_mode = doc.get("axis_mode", "unit")
    spec = LiftSpec(
        theta=_real(doc, "theta"),
        s0=_real(doc, "s0", default=0.0),
        offset=np.asarray(_vector(doc, "offset", default=[0.0, 0.0, 0.0])),
        axis_mode=axis_mode,
        axis=None if doc.get("axis") is None else np.asarray(_vector(doc, "axis")),
    )
    return _check_domain(doc, lift_curve(base, spec, strict=False), "base domain")


def _build_reparam(doc, depth):
    if "grid" not in doc:
        return reparam_by_arclength(_base(doc, depth))
    grid = doc["grid"]
    if isinstance(grid, bool) or not isinstance(grid, int):
        raise InvalidField(f"'grid' must be an integer >= 2, got {grid!r}")
    check_grid_size(grid)
    return reparam_by_arclength(_base(doc, depth), grid_size=grid)


_BUILDERS = {
    "polynomial": _build_polynomial,
    "circular_helix": _build_circular_helix,
    "polyline": _build_polyline,
    "lifted": _build_lifted,
    "arclength_reparam": _build_reparam,
}


def curve_from_dict(doc: dict) -> ParamCurve:
    return _curve(doc, 0)


def _curve(doc: dict, depth: int) -> ParamCurve:
    # depth counts the specs that enclose this one.
    if depth > MAX_SPEC_DEPTH:
        raise InvalidField(f"curve spec nests more than {MAX_SPEC_DEPTH} levels deep")
    if "kind" not in doc:
        raise InvalidField("curve spec is missing the 'kind' field")
    kind = doc["kind"]
    builder = _BUILDERS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise UnknownKind(kind)
    try:
        return builder(doc, depth)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidField(f"malformed {kind} spec: {exc}") from exc


def curve_to_dict(curve: ParamCurve) -> dict:
    if isinstance(curve, PolynomialCurve):
        return {
            "kind": "polynomial",
            "domain": [curve.t_lo, curve.t_hi],
            "coeffs": [[float(c) for c in comp] for comp in curve.coefficients],
        }
    if isinstance(curve, CircularHelix):
        return {
            "kind": "circular_helix",
            "domain": [curve.t_lo, curve.t_hi],
            "radius": curve.radius,
            "pitch": curve.pitch,
        }
    if isinstance(curve, Polyline):
        return {
            "kind": "polyline",
            "domain": [curve.t_lo, curve.t_hi],
            "points": [[float(v) for v in row] for row in curve.points],
            "knots": [float(v) for v in curve.knots],
        }
    if isinstance(curve, LiftedCurve):
        doc = {
            "kind": "lifted",
            "domain": [curve.t_lo, curve.t_hi],
            "base": curve_to_dict(curve.base),
            "theta": curve.spec.theta,
            "s0": curve.spec.s0,
            "offset": [float(v) for v in curve.spec.offset],
            "axis_mode": curve.spec.axis_mode,
        }
        if curve.spec.axis_mode == "explicit":
            doc["axis"] = [float(v) for v in curve.spec.axis]
        return doc
    if isinstance(curve, ReparamCurve):
        return {
            "kind": "arclength_reparam",
            "base": curve_to_dict(curve.base),
            "grid": curve.length_map.grid_size,
        }
    raise InputError(f"curve kind {curve.kind!r} has no spec document form")
