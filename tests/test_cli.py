"""Command line behavior: output shapes, determinism, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from helixlift import cli
from helixlift.curves import MAX_GRID_SIZE, ParamCurve
from helixlift.curvespec import parse_curve_spec, serialize_curve_spec
from helixlift.errors import UnsupportedOrder
from helixlift.verify import TheoremResult, VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fixture(capsys):
    code, out, _ = run(capsys, "classify", "--spec", "paper_cubic")
    assert code == 0
    doc = json.loads(out)
    assert doc["general_helix"] is True
    assert doc["circular_helix"] is False
    assert doc["slant_helix"] is True
    assert abs(doc["theta"] - math.pi / 4) < 1e-9
    assert len(doc["axis"]) == 3
    assert doc["stats"]["ratio"]["rel_dev"] < 1e-10


def test_classify_reads_a_spec_file(tmp_path, capsys):
    spec = tmp_path / "helix.json"
    spec.write_text(
        json.dumps(
            {"kind": "circular_helix", "radius": 1.0, "pitch": 1.0,
             "domain": [0.0, 2 * math.pi]}
        )
    )
    code, out, _ = run(capsys, "classify", "--spec", str(spec))
    assert code == 0
    doc = json.loads(out)
    assert doc["circular_helix"] is True


def test_classify_output_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["classify", "--spec", "paper_cubic", "--out", str(out1)]) == 0
    assert cli.main(["classify", "--spec", "paper_cubic", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_frenet_values(capsys):
    code, out, _ = run(capsys, "frenet", "--spec", "circular_helix:1,1", "--at", "0")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["kappa"] - 0.5) < 1e-12
    assert abs(doc["tau"] - 0.5) < 1e-12
    assert abs(doc["speed"] - math.sqrt(2)) < 1e-12


def test_frenet_out_of_domain_is_invalid_input(capsys):
    code, _, err = run(capsys, "frenet", "--spec", "paper_cubic", "--at", "99")
    assert code == 1
    assert "error" in err


def test_unknown_fixture_is_invalid_input(capsys):
    code, _, err = run(capsys, "classify", "--spec", "no_such_curve")
    assert code == 1
    assert "no_such_curve" in err


def test_malformed_spec_file_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, _ = run(capsys, "classify", "--spec", str(bad))
    assert code == 1


def test_degenerate_geometry_exit(capsys):
    # a planar circle has no Lancret ratio
    code, _, err = run(capsys, "classify", "--spec", "circle:1")
    assert code == 2
    assert "degenerate" in err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify"])  # --spec is required
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["polish"])
    assert exc.value.code == 1


def test_lift_auto_theta_reparameterizes(tmp_path, capsys):
    emitted = tmp_path / "lifted.json"
    code, out, err = run(
        capsys, "lift", "--spec", "circular_helix:1,1", "--emit", str(emitted)
    )
    assert code == 0
    assert "reparameterized" in err
    doc = json.loads(out)
    assert abs(doc["theta"] - math.pi / 4) < 1e-9
    assert doc["base_reparameterized"] is True
    emitted_doc = json.loads(emitted.read_text())
    assert emitted_doc["kind"] == "lifted"
    assert emitted_doc["base"]["kind"] == "arclength_reparam"


def test_emitted_lift_spec_loads_back(tmp_path, capsys):
    emitted = tmp_path / "lifted.json"
    assert cli.main(["lift", "--spec", "circular_helix:1,1", "--emit", str(emitted)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "classify", "--spec", str(emitted))
    assert code == 0
    assert json.loads(out)["general_helix"] is True


def test_lift_rejects_bad_theta(capsys):
    code, _, err = run(
        capsys, "lift", "--spec", "circular_helix:1,1", "--theta", "soon"
    )
    assert code == 1
    assert "theta" in err


def test_lift_theta_mismatch_is_degenerate_geometry(capsys):
    code, _, _ = run(
        capsys, "lift", "--spec", "circular_helix:1,1", "--theta", "1.2"
    )
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "2"])
def test_lift_rejects_a_tiny_grid_with_one_line(capsys, samples):
    code, _, err = run(
        capsys, "lift", "--spec", "circular_helix:1,1", "--theta", "0.7853981633974483",
        "--samples", samples,
    )
    assert code == 1
    assert err.splitlines()[-1] == f"error: grid_size must be at least 3, got {samples}"
    assert "Traceback" not in err


def test_sample_plain_csv(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    code, _, _ = run(
        capsys, "sample", "--spec", "paper_cubic", "--n", "5", "--csv", str(csv)
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 6
    # 17 significant digit round trip: parsing the text recovers the floats
    t, x, y, z = (float(v) for v in lines[1].split(","))
    assert t == -3.0 and x == -18.0 and y == 27.0 and z == -27.0


def test_sample_frames_csv(capsys):
    code, out, _ = run(
        capsys, "sample", "--spec", "circular_helix:2,1", "--n", "4", "--frames"
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header == [
        "t", "x", "y", "z", "Tx", "Ty", "Tz", "Nx", "Ny", "Nz",
        "Bx", "By", "Bz", "kappa", "tau", "degenerate",
    ]
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 16
        assert fields[-1] == "0"
        assert abs(float(fields[13]) - 0.4) < 1e-12


def test_sample_marks_degenerate_rows(tmp_path, capsys):
    spec = tmp_path / "line.json"
    spec.write_text(
        json.dumps(
            {
                "kind": "polynomial",
                "coeffs": [[0.0, 1.0], [0.0, 2.0], [0.0, -1.0]],
                "domain": [0.0, 1.0],
            }
        )
    )
    code, out, _ = run(capsys, "sample", "--spec", str(spec), "--n", "3", "--frames")
    assert code == 0
    for row in out.splitlines()[1:]:
        fields = row.split(",")
        assert fields[-1] == "1"
        assert fields[4] == ""  # frame columns stay empty


def test_sample_rejects_tiny_n(capsys):
    code, _, _ = run(capsys, "sample", "--spec", "paper_cubic", "--n", "1")
    assert code == 1


def test_verify_paper_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-paper", "--out", str(report_path))
    assert code == 0
    assert "theorem1: PASS" in out
    assert "theorem2: PASS" in out
    assert "theorem3: PASS" in out
    assert "errata example.kappa: DISAGREES" in out
    doc = json.loads(report_path.read_text())
    ids = [e["claim_id"] for e in doc["example_checks"]]
    assert "closed_form.lambda_mu" in ids


def test_verify_paper_report_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["verify-paper", "--out", str(a)]) == 0
    assert cli.main(["verify-paper", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_paper_exit_three_on_theorem_failure(monkeypatch, capsys):
    def broken_suite(tol=None, grid_size=256):
        return VerificationReport(
            theorem1=TheoremResult(passed=False, residual=1.0, value=0.0, note="forced"),
            theorem2=TheoremResult(passed=True, residual=0.0),
            theorem3=TheoremResult(passed=True, residual=0.0),
        )

    monkeypatch.setattr(cli, "run_paper_suite", broken_suite)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 3
    assert "theorem1: FAIL" in out


def _deep_lifted_spec(depth):
    doc = {"kind": "circular_helix", "radius": 1.0, "pitch": 1.0, "domain": [0.0, 1.0]}
    for _ in range(depth):
        doc = {"kind": "lifted", "theta": 0.5, "base": doc}
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "polynomial", "domain": [0, 1], "coeffs": [["a"], [0, 1], [0, 0, 1]]},
        {"kind": "polyline", "knots": [0, 1, 2], "points": [[0, 0, 0], [1, "x", 2], [2, 0, 1]]},
        {"kind": "lifted", "theta": 0.5, "offset": [1, "q", 2],
         "base": {"kind": "circular_helix", "radius": 1, "pitch": 1, "domain": [0, 1]}},
        _deep_lifted_spec(900),
    ],
    ids=["coeffs", "polyline_point", "offset", "nested_900"],
)
def test_malformed_spec_values_exit_one_with_one_line(tmp_path, capsys, doc):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", "--spec", str(spec))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_overflowing_geometry_exits_two_without_nan(tmp_path, capsys):
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps({
        "kind": "polynomial", "domain": [-3, 3],
        "coeffs": [[0, 1e308], [0, 0, 1e308], [0, 0, 0, 1e308]],
    }))
    code, out, err = run(capsys, "classify", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert err.startswith("degenerate geometry:") and err.count("\n") == 1


def _helix_doc(**fields):
    return {"kind": "circular_helix", "radius": 1, "pitch": 1, "domain": [0, 1], **fields}


_HUGE = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "doc",
    [
        _helix_doc(domain=[0, _HUGE]),
        _helix_doc(radius=_HUGE),
        {"kind": "lifted", "theta": 0.5, "s0": _HUGE, "base": _helix_doc()},
        {"kind": "lifted", "theta": 0.5, "offset": [_HUGE, 0, 0], "base": _helix_doc()},
        {"kind": "polynomial", "domain": [0, 1], "coeffs": [[_HUGE], [0, 1], [0, 0, 1]]},
    ],
    ids=["domain", "radius", "s0", "offset", "coeffs"],
)
def test_integers_past_float_range_exit_one_with_one_line(tmp_path, capsys, doc):
    spec = tmp_path / "huge_int.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", "--spec", str(spec))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_spec_file_that_is_not_utf8_exits_one_with_one_line(tmp_path, capsys):
    spec = tmp_path / "binary.json"
    spec.write_bytes(b"\xff\xfe\x00garbage")
    code, out, err = run(capsys, "classify", "--spec", str(spec))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# Sizes past the cap are rejected before any grid is allocated; a run at the
# cap itself would allocate hundreds of megabytes, so none is made here.
@pytest.mark.parametrize("size", [MAX_GRID_SIZE + 1, 1000000000000])
@pytest.mark.parametrize(
    "argv, name",
    [
        (["classify", "--spec", "paper_cubic", "--samples"], "grid_size"),
        (["lift", "--spec", "circular_helix:1,1", "--samples"], "grid_size"),
        (["verify-paper", "--samples"], "grid_size"),
        (["sample", "--spec", "paper_cubic", "--n"], "--n"),
    ],
    ids=["classify", "lift", "verify-paper", "sample"],
)
def test_oversized_grids_exit_one_with_one_line(capsys, argv, name, size):
    code, out, err = run(capsys, *argv, str(size))
    assert code == 1
    # lift may print its reparameterization note first.
    assert err.splitlines()[-1] == f"error: {name} must be at most {MAX_GRID_SIZE}, got {size}"
    assert "Traceback" not in err


@pytest.mark.parametrize("size", [MAX_GRID_SIZE + 1, 1000000000000])
def test_oversized_spec_grid_exits_one_with_one_line(tmp_path, capsys, size):
    spec = tmp_path / "reparam.json"
    spec.write_text(json.dumps({"kind": "arclength_reparam", "grid": size, "base": _helix_doc()}))
    code, out, err = run(capsys, "classify", "--spec", str(spec))
    assert code == 1
    assert err == f"error: grid_size must be at most {MAX_GRID_SIZE}, got {size}\n"


def test_tol_reaches_the_classification(capsys):
    _, out, _ = run(capsys, "classify", "--spec", "paper_cubic")
    assert json.loads(out)["general_helix"] is True
    code, out, _ = run(capsys, "classify", "--spec", "paper_cubic", "--tol", "1e-30")
    assert code == 0
    assert json.loads(out)["general_helix"] is False


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_non_positive_tol_exits_one_with_one_line(capsys, tol):
    code, out, err = run(capsys, "classify", "--spec", "paper_cubic", "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == f"error: --tol must be positive, got {float(tol)}\n"


@pytest.mark.parametrize("argv", [["frenet", "--spec", "paper_cubic", "--at", "0"],
                                  ["sample", "--spec", "paper_cubic", "--n", "3"]],
                         ids=["frenet", "sample"])
def test_tol_is_a_usage_error_where_no_decision_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--tol", "1e-3"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 2
    assert err.endswith(": error: unrecognized arguments: --tol 1e-3\n")


def test_sample_has_no_out_option(tmp_path, capsys, monkeypatch):
    # sample writes its CSV to --csv or stdout; --out would be silently ignored.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--spec", "paper_cubic", "--n", "2", "--out", "x.json"])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 2
    assert err.endswith(": error: unrecognized arguments: --out x.json\n")
    assert not (tmp_path / "x.json").exists()


def test_explicit_axis_lift_round_trips(tmp_path, capsys):
    emitted = tmp_path / "explicit.json"
    code, _, _ = run(
        capsys, "lift", "--spec", "circular_helix:1,1", "--theta", "0.5",
        "--axis", "0,0,1", "--emit", str(emitted),
    )
    assert code == 0
    text = emitted.read_text()
    doc = json.loads(text)
    assert doc["axis_mode"] == "explicit"
    assert doc["axis"] == [0.0, 0.0, 1.0]
    code, _, _ = run(capsys, "sample", "--spec", str(emitted), "--n", "5")
    assert code == 0
    assert serialize_curve_spec(parse_curve_spec(text)) == text


def test_lift_of_a_curve_with_zero_speed_exits_two(tmp_path, capsys):
    # (t^2, t^3, t^4) stops at t = 0, so its arc length map has no inverse.
    spec = tmp_path / "cusp.json"
    spec.write_text(json.dumps(
        {"kind": "polynomial", "domain": [0, 1], "coeffs": [[0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]]}
    ))
    code, out, err = run(capsys, "lift", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert err == (
        "degenerate geometry: speed vanishes near t=0.0; arc length map is not invertible\n"
    )


def test_the_cli_imports_without_scipy():
    # A fresh interpreter: this one has scipy loaded already. Only polylines need it.
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys; import helixlift.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--spec", "nope", "--samples", "2"], "grid_size must be at least 3, got 2"),
        (["lift", "--spec", "nope", "--samples", "2"], "grid_size must be at least 3, got 2"),
        (["sample", "--spec", "nope", "--n", "1"], "--n must be at least 2, got 1"),
    ],
    ids=["classify", "lift", "sample"],
)
def test_a_bad_grid_size_is_reported_before_a_bad_spec(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {message}\n"


def test_a_strict_explicit_axis_lift_checks_the_helix(capsys):
    argv = ["lift", "--spec", "twisted_cubic", "--theta", "auto", "--axis", "0,0,1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "degenerate geometry: kappa/tau relative deviation 2.918e-01 exceeds tolerance\n"
    code, out, _ = run(capsys, *argv, "--no-strict")
    assert code == 0
    assert json.loads(out)["axis"] == [0.0, 0.0, 1.0]


@pytest.mark.parametrize(
    "argv, want_code, want_err",
    [
        (["--spec", "nope", "--offset", "1,2"], 1,
         "error: --offset expects three comma separated numbers, got '1,2'\n"),
        (["--spec", "twisted_cubic", "--theta", "auto"], 2,
         "degenerate geometry: kappa/tau relative deviation 2.918e-01 exceeds tolerance\n"),
    ],
    ids=["arguments_before_spec", "no_note_on_failure"],
)
def test_a_failing_lift_prints_one_line(capsys, argv, want_code, want_err):
    assert run(capsys, "lift", *argv) == (want_code, "", want_err)


class WobblyHelix(ParamCurve):
    """The unit speed helix (0.6 cos u, 0.6 sin u, 0.8 u) at u = phi(t) on
    [0, 2 pi], with speed phi'(t) = 1 + 1e-3 sin^2(63 t / 2). The speed is 1
    at the 64 parameters 2 pi k / 63 and off by up to 1e-3 between them.
    Derivatives are exact, by the chain rule."""

    kind = "wobbly_helix"
    EPS, OMEGA = 1e-3, 31.5

    def __init__(self):
        super().__init__(0.0, 2.0 * math.pi)

    def _evaluate(self, ts, order):
        if order > 3:
            raise UnsupportedOrder(order, 3)
        e, w = self.EPS, self.OMEGA
        u = ts + e * (ts / 2.0 - np.sin(2.0 * w * ts) / (4.0 * w))
        phi = [u, 1.0 + e * np.sin(w * ts) ** 2, e * w * np.sin(2.0 * w * ts),
               2.0 * e * w * w * np.cos(2.0 * w * ts)]

        def h(k):  # k-th derivative of the unit speed helix at u
            out = np.zeros((len(ts), 3))
            out[:, 0] = 0.6 * np.cos(u + k * math.pi / 2.0)
            out[:, 1] = 0.6 * np.sin(u + k * math.pi / 2.0)
            out[:, 2] = 0.8 * u if k == 0 else (0.8 if k == 1 else 0.0)
            return out

        p1, p2, p3 = (phi[k][:, None] for k in (1, 2, 3))
        if order == 0:
            return h(0)
        if order == 1:
            return h(1) * p1
        if order == 2:
            return h(2) * p1**2 + h(1) * p2
        return h(3) * p1**3 + 3.0 * h(2) * p1 * p2 + h(1) * p3


def test_wobbly_helix_derivatives_match_differences():
    curve, ts, step = WobblyHelix(), np.linspace(0.5, 5.5, 7), 1e-5
    for k in (1, 2, 3):
        diff = (curve.eval(ts + step, k - 1) - curve.eval(ts - step, k - 1)) / (2.0 * step)
        np.testing.assert_allclose(curve.eval(ts, k), diff, atol=1e-6)


def test_lift_reparameterizes_by_the_strict_gate_grid(monkeypatch, capsys):
    # A 64 point probe sees unit speed here; the 256 point grid does not.
    curve = WobblyHelix()
    probe = np.linalg.norm(curve.eval(np.linspace(0.0, 2.0 * math.pi, 64), 1), axis=1)
    assert np.max(np.abs(probe - 1.0)) < 1e-12
    monkeypatch.setattr(cli, "_load_curve", lambda spec: curve)
    code, out, err = run(capsys, "lift", "--spec", "wobbly", "--theta", "auto")
    assert code == 0
    assert err == "note: base curve is not unit speed, reparameterized by arc length\n"
    doc = json.loads(out)
    assert doc["base_reparameterized"] is True
    assert abs(doc["theta"] - math.atan2(0.6, 0.8)) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [["--theta", "1.5707963267948966"], ["--theta", "0", "--axis", "1,0,0"]],
    ids=["right_angle", "zero"],
)
def test_a_strict_lift_gates_its_base_at_a_degenerate_theta(capsys, argv):
    argv = ["lift", "--spec", "twisted_cubic", *argv]
    assert run(capsys, *argv) == (
        2, "", "degenerate geometry: kappa/tau relative deviation 2.918e-01 exceeds tolerance\n"
    )
    code, out, err = run(capsys, *argv, "--no-strict")
    assert code == 0
    assert json.loads(out)["base_reparameterized"]
    assert err == "note: base curve is not unit speed, reparameterized by arc length\n"
