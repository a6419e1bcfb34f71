"""CLI outputs against goldens recorded at commits f9ae52a, 1425b73, 991e48e and 4023430.

The files under data/golden are the outputs of these commands, run in an
empty directory. The first three were recorded at f9ae52a, except
theorem2's residual in verify_paper.json and verify_paper.stdout. That
residual is sigma's round off over SIGMA_FLOOR, and it was recorded again
when sigma became exact (order 4 jets in place of differences over arc
length). The last two were recorded at 1425b73, before lift_curve measured
an auto theta itself; the second one's base is already unit speed, so it is
not reparameterized. The last one, recorded at 991e48e, pins verify-paper on
a grid other than the default. Both verify-paper reports were recorded again
without their "fd_step" line when Tolerances lost that field. The three
classify runs, recorded at 4023430, pin the decision layer's JSON: a general
and slant helix, a curve that is neither, and a --tol so tight that every
verdict fails:

    helixlift verify-paper --out verify_paper.json
    helixlift lift --spec circular_helix:2,1 --theta auto --emit lifted.json
    helixlift sample --spec lifted.json --n 50 --frames --csv sample.csv
    helixlift lift --spec paper_cubic --theta auto --axis paper --samples 128 --emit lifted_paper.json
    helixlift lift --spec circular_helix:0.6,0.8 --theta auto
    helixlift verify-paper --samples 64 --out verify_paper_64.json
    helixlift classify --spec paper_cubic
    helixlift classify --spec twisted_cubic
    helixlift classify --spec paper_cubic --tol 1e-30

with stdout and stderr saved as <name>.stdout and <name>.stderr (absent when
empty). Refactors must keep the same frames, verdicts, lifts and errata
ledger: every number within max(1e-12, 1e-12 |ref|), and every flag, string
and exit code exactly.
"""

import re
from pathlib import Path

from helixlift import cli

DATA = Path(__file__).parent / "data" / "golden"

# (name, argv, exit code, files the command writes)
RUNS = [
    ("verify_paper", ["verify-paper", "--out", "verify_paper.json"], 0, ["verify_paper.json"]),
    ("lift", ["lift", "--spec", "circular_helix:2,1", "--theta", "auto", "--emit", "lifted.json"],
     0, ["lifted.json"]),
    ("sample", ["sample", "--spec", "lifted.json", "--n", "50", "--frames", "--csv", "sample.csv"],
     0, ["sample.csv"]),
    ("lift_paper", ["lift", "--spec", "paper_cubic", "--theta", "auto", "--axis", "paper",
                    "--samples", "128", "--emit", "lifted_paper.json"], 0, ["lifted_paper.json"]),
    ("lift_unit_speed", ["lift", "--spec", "circular_helix:0.6,0.8", "--theta", "auto"], 0, []),
    ("verify_paper_64", ["verify-paper", "--samples", "64", "--out", "verify_paper_64.json"],
     0, ["verify_paper_64.json"]),
    ("classify_paper_cubic", ["classify", "--spec", "paper_cubic"], 0, []),
    ("classify_twisted_cubic", ["classify", "--spec", "twisted_cubic"], 0, []),
    ("classify_paper_cubic_tight", ["classify", "--spec", "paper_cubic", "--tol", "1e-30"], 0, []),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _recorded(name):
    path = DATA / name
    return path.read_text() if path.exists() else ""


def _assert_same(got, want, what):
    # The text between numbers must match exactly, the numbers within tolerance.
    assert NUMBER.split(got) == NUMBER.split(want), what
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert abs(float(g) - float(w)) <= max(1e-12, 1e-12 * abs(float(w))), (what, g, w)


def test_cli_outputs_match_the_recorded_goldens(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, argv, code, written in RUNS:
        assert cli.main(argv) == code, name
        out, err = capsys.readouterr()
        _assert_same(out, _recorded(f"{name}.stdout"), f"{name} stdout")
        _assert_same(err, _recorded(f"{name}.stderr"), f"{name} stderr")
        for file in written:
            _assert_same((tmp_path / file).read_text(), _recorded(file), file)
