"""Command line front end.

Subcommands: classify, frenet, lift, sample, verify-paper. Exit codes are
0 on success, 1 for invalid input (including usage errors), 2 for
degenerate geometry, 3 when a theorem check fails. JSON output is sorted
and indented so repeated runs are byte identical; CSV numbers carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import fixtures
from .curvespec import parse_curve_spec, serialize_curve_spec
from .curves import check_grid_size, uniform_grid
from .errors import DegenerateGeometryError, InputError, InvalidField, NotUnitSpeed, ParseError
from .frenet import frame_at, frames_from_derivatives, reparam_by_arclength
from .helix import classify_curve
from .lift import LiftSpec, _lift_on_grid, lift_curve, require_unit_speed
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .verify import run_paper_suite


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # degenerate geometry, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_curve(spec_arg: str):
    path = Path(spec_arg)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"curve spec {spec_arg} is not UTF-8 text: {exc}") from None
        return parse_curve_spec(text)
    return fixtures.fixture_by_name(spec_arg)


def _tolerances(args):
    if args.tol is None:
        return DEFAULT_TOLERANCES
    if not (args.tol > 0):
        raise InvalidField(f"--tol must be positive, got {args.tol}")
    return Tolerances(float(args.tol))


def _emit_json(doc: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DegenerateGeometryError("the result holds a non-finite number") from None
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_vec3(text: str, name: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidField(f"{name} expects three comma separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts], dtype=float)
    except ValueError as exc:
        raise InvalidField(f"{name}: {exc}") from None


def _cmd_classify(args) -> int:
    check_grid_size(args.samples, least=3)
    curve = _load_curve(args.spec)
    tol = _tolerances(args)
    cls = classify_curve(curve, grid_size=args.samples, tol=tol)
    doc = {
        "general_helix": bool(cls.is_general_helix),
        "circular_helix": bool(cls.is_circular_helix),
        "slant_helix": bool(cls.is_slant_helix),
        "theta": None if cls.theta is None else float(cls.theta),
        "axis": None if cls.axis is None else cls.axis.tolist(),
        "stats": {
            "ratio": dataclasses.asdict(cls.ratio_stat),
            "sigma": dataclasses.asdict(cls.sigma_stat),
            "kappa": dataclasses.asdict(cls.kappa_stat),
            "tau": dataclasses.asdict(cls.tau_stat),
        },
        "samples": int(args.samples),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_frenet(args) -> int:
    curve = _load_curve(args.spec)
    frame = frame_at(curve, args.at)
    doc = {
        "t": float(args.at),
        "T": frame.T.tolist(),
        "N": frame.N.tolist(),
        "B": frame.B.tolist(),
        "kappa": float(frame.kappa),
        "tau": float(frame.tau),
        "speed": float(frame.speed),
    }
    _emit_json(doc, args.out)
    return 0


def _cmd_lift(args) -> int:
    check_grid_size(args.samples, least=3)
    tol = _tolerances(args)
    theta = None
    if args.theta != "auto":
        try:
            theta = float(args.theta)
        except ValueError:
            raise InvalidField(f"--theta expects a number or 'auto', got {args.theta!r}") from None
    offset = _parse_vec3(args.offset, "--offset")
    if args.axis in ("unit", "paper", "paper_printed"):
        mode, axis = ("paper_printed" if args.axis.startswith("paper") else "unit"), None
    else:
        mode, axis = "explicit", _parse_vec3(args.axis, "--axis")
    spec = LiftSpec(theta=theta, s0=args.s0, offset=offset, axis_mode=mode, axis=axis)

    base = _load_curve(args.spec)
    strict = not args.no_strict
    # One jet on strict lift_curve's grid: where its unit speed gate passes,
    # the lift reads its frames; elsewhere the base is reparameterized.
    ts = uniform_grid(base.t_lo, base.t_hi, args.samples)
    jet = base.jet(ts, (1, 2, 3))
    reparameterized = False
    try:
        require_unit_speed(np.linalg.norm(jet[0], axis=-1))
    except NotUnitSpeed:
        base = reparam_by_arclength(base)
        reparameterized = True
        lifted = lift_curve(base, spec, grid_size=args.samples, tol=tol, strict=strict)
    else:
        grid = (ts, jet, *frames_from_derivatives(*jet))
        lifted = _lift_on_grid(base, spec, lambda: grid, tol, strict)

    if args.emit:
        Path(args.emit).write_text(serialize_curve_spec(lifted))
    doc = {
        "theta": float(lifted.spec.theta),
        "axis_mode": spec.axis_mode,
        "axis": lifted.axis.tolist(),
        "s0": float(spec.s0),
        "offset": spec.offset.tolist(),
        "domain": [float(lifted.t_lo), float(lifted.t_hi)],
        "base_reparameterized": reparameterized,
        "emitted": args.emit or None,
    }
    _emit_json(doc, args.out)
    if reparameterized:
        print("note: base curve is not unit speed, reparameterized by arc length", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    n = check_grid_size(args.n, name="--n")
    curve = _load_curve(args.spec)
    ts = uniform_grid(curve.t_lo, curve.t_hi, n, name="--n")
    derivs = curve.jet(ts, (0, 1, 2, 3) if args.frames else (0,))
    table = np.column_stack([ts, derivs[0]])
    row = ",".join(["%.17g"] * 4)
    if args.frames:
        fr, exists = frames_from_derivatives(*derivs[1:])
        table = np.column_stack([table, fr.T, fr.N, fr.B, fr.kappa, fr.tau])
        framed = row + ",%.17g" * 11 + ",0"
        bare = row + "," * 11 + ",1"
        lines = ["t,x,y,z,Tx,Ty,Tz,Nx,Ny,Nz,Bx,By,Bz,kappa,tau,degenerate"]
        lines += [framed % tuple(v) if ok else bare % tuple(v[:4])
                  for v, ok in zip(table.tolist(), exists)]
    else:
        lines = ["t,x,y,z"] + [row % tuple(v) for v in table.tolist()]
    text = "\n".join(lines) + "\n"
    if args.csv:
        Path(args.csv).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_paper(args) -> int:
    report = run_paper_suite(tol=_tolerances(args), grid_size=args.samples)
    for name in ("theorem1", "theorem2", "theorem3"):
        res = getattr(report, name)
        flag = "PASS" if res.passed else "FAIL"
        value = "" if res.value is None else f" value={res.value:.12g}"
        print(f"{name}: {flag}{value} residual={res.residual:.3e}")
    for entry in report.example_checks:
        verdict = "agrees" if entry.agrees else "DISAGREES"
        print(f"errata {entry.claim_id}: {verdict} delta={entry.delta:.3e} ({entry.location})")
    if args.out:
        _emit_json(report.to_dict(), args.out)
    return 0 if report.all_theorems_pass() else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="helixlift",
                     description="Frenet frames, helix classification, and axis lifts "
                                 "for regular space curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True, tol=True, out=True):
        if spec:
            p.add_argument("--spec", required=True,
                           help="fixture name (paper_cubic, twisted_cubic, circular_helix:a,b, "
                                "circle:r) or path to a curve JSON file")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="override the constancy tolerance used for decisions")
        if out:
            p.add_argument("--out", default=None, help="write the JSON output to this file")

    p = sub.add_parser("classify", help="run the helix classification battery")
    common(p)
    p.add_argument("--samples", type=int, default=256, help="grid size (default 256)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("frenet", help="Frenet frame, curvature and torsion at one parameter")
    common(p, tol=False)
    p.add_argument("--at", type=float, required=True, help="parameter value")
    p.set_defaults(func=_cmd_frenet)

    p = sub.add_parser("lift", help="build the axis lift of a unit speed helix")
    common(p)
    p.add_argument("--theta", default="auto",
                   help="pitch angle in radians, or 'auto' to measure it (default auto)")
    p.add_argument("--s0", type=float, default=0.0, help="anchor parameter (default 0)")
    p.add_argument("--axis", default="unit",
                   help="'unit', 'paper' (double length printed axis), or an explicit x,y,z")
    p.add_argument("--offset", default="0,0,0", help="translation x,y,z (default 0,0,0)")
    p.add_argument("--samples", type=int, default=256, help="grid size for checks (default 256)")
    p.add_argument("--no-strict", action="store_true",
                   help="skip the unit speed check, and the helix check with an x,y,z --axis")
    p.add_argument("--emit", default=None, help="write the lifted curve spec JSON here")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("sample", help="sample positions (and optionally frames) to CSV")
    common(p, tol=False, out=False)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--frames", action="store_true", help="include frame columns")
    p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify-paper",
                       help="audit the worked example against the oracle and check the theorems")
    common(p, spec=False)
    p.add_argument("--samples", type=int, default=256, help="grid size (default 256)")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow is reported through the exit code, not numpy warnings.
        with np.errstate(all="ignore"):
            return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateGeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
