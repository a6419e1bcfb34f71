"""The position-only oracle and the verification suites."""

import dataclasses
import json
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from helixlift import (
    DegenerateFrame,
    FrenetFrame,
    LiftSpec,
    NotAHelix,
    NotUnitSpeed,
    PolynomialCurve,
    StencilOutOfDomain,
    compare_frames,
    frame_at,
    oracle_frame,
    reparam_by_arclength,
    run_paper_suite,
    run_theorem_checks,
)
from helixlift.fixtures import circular_helix, paper_cubic, twisted_cubic

EXPECTED_CLAIM_IDS = [
    "example.T",
    "example.B",
    "example.kappa",
    "example.tau",
    "example.N",
    "example.axis_norm",
    "example.alphabar",
    "example.Tbar",
    "example.Bbar",
    "example.Nbar",
    "closed_form.lambda_mu",
    "closed_form.c",
]

AGREEING = {"example.T", "example.B", "example.alphabar", "example.Tbar"}


@pytest.mark.parametrize("t", [0.0, 1.0, -2.0])
def test_oracle_matches_exact_frames_on_the_cubic(t):
    exact = frame_at(paper_cubic(), t)
    oracle = oracle_frame(paper_cubic(), t, 1e-3)
    delta = compare_frames(exact, oracle)
    assert delta.dT < 1e-6
    assert delta.dN < 1e-6
    assert delta.dB < 1e-6
    assert delta.dkappa < 1e-6
    assert delta.dtau < 1e-5


def test_oracle_halving_converges():
    t = 0.7
    exact = frame_at(paper_cubic(), t)
    d1 = compare_frames(exact, oracle_frame(paper_cubic(), t, 2e-2))
    d2 = compare_frames(exact, oracle_frame(paper_cubic(), t, 1e-2))
    assert d1.dkappa / d2.dkappa >= 3.5
    assert d1.dT / d2.dT >= 3.5


def test_oracle_refuses_a_stencil_outside_the_domain():
    with pytest.raises(StencilOutOfDomain):
        oracle_frame(paper_cubic(), 3.0, 1e-3)
    with pytest.raises(StencilOutOfDomain):
        oracle_frame(paper_cubic(), 0.0, 2.0)
    with pytest.raises(StencilOutOfDomain):
        oracle_frame(paper_cubic(), 0.0, -1e-3)


def test_compare_frames_resolves_the_sign_ambiguity():
    fr = frame_at(paper_cubic(), 1.0)
    flipped = FrenetFrame(T=fr.T, N=-fr.N, B=-fr.B, kappa=fr.kappa, tau=fr.tau, speed=fr.speed)
    delta = compare_frames(fr, flipped)
    assert delta.dN < 1e-15
    assert delta.dB < 1e-15


def _row(frame, i):
    return FrenetFrame(*(np.asarray(getattr(frame, name))[i]
                         for name in ("T", "N", "B", "kappa", "tau", "speed")))


def test_compare_frames_on_arrays_is_the_worst_per_point_case():
    # The middle row is sign flipped; each row must flip on its own.
    ts = np.array([-1.0, 0.3, 1.2])
    exact = frame_at(paper_cubic(), ts)
    oracle = oracle_frame(paper_cubic(), ts, 1e-2)
    flip = np.array([1.0, -1.0, 1.0])[:, None]
    other = FrenetFrame(T=oracle.T, N=flip * oracle.N, B=flip * oracle.B,
                        kappa=oracle.kappa, tau=oracle.tau, speed=oracle.speed)
    delta = compare_frames(exact, other)
    rows = [compare_frames(_row(exact, i), _row(other, i)) for i in range(len(ts))]
    for name in ("dT", "dN", "dB", "dkappa", "dtau"):
        value = getattr(delta, name)
        assert type(value) is float
        assert value == max(getattr(row, name) for row in rows)
    assert delta.dN < 1e-3


def test_theorem_checks_pass_on_the_cubic():
    alpha = reparam_by_arclength(paper_cubic())
    report = run_theorem_checks(alpha, LiftSpec(theta=math.pi / 4), grid_size=50)
    assert report.theorem1.passed
    assert report.theorem2.passed
    assert report.theorem3.passed
    # the tangent-axis angle constant for theta = pi/4
    want = math.cos(math.pi / 4) * (1 + math.sin(math.pi / 4)) / math.sqrt(
        1 + math.cos(math.pi / 4) * math.sin(math.pi / 2)
    )
    assert abs(report.theorem1.value - want) < 1e-6


def test_theorem_checks_on_a_circular_helix():
    alpha = reparam_by_arclength(circular_helix(2.0, 1.0))
    theta = math.atan2(2.0, 1.0)
    report = run_theorem_checks(alpha, LiftSpec(theta=theta), grid_size=40)
    assert report.theorem1.passed
    assert report.theorem3.passed


@pytest.mark.parametrize(
    "make, error, message",
    [
        (paper_cubic, NotUnitSpeed, "speed deviates from 1 by 3.200e+01"),
        (lambda: reparam_by_arclength(PolynomialCurve([[0, 1], [0, 2], [0, 3]], (0.0, 1.0))),
         DegenerateFrame, "velocity and acceleration are parallel"),
        (lambda: reparam_by_arclength(twisted_cubic()), NotAHelix,
         "kappa/tau relative deviation 2.918e-01"),
    ],
    ids=["not_unit_speed", "line", "not_a_helix"],
)
def test_theorem_checks_gate_the_base_at_a_degenerate_theta(make, error, message):
    # The strict lift gates its base at a given theta of pi/2 too.
    with pytest.raises(error, match=re.escape(message)):
        run_theorem_checks(make(), LiftSpec(theta=math.pi / 2))


def test_suite_covers_every_claim():
    report = run_paper_suite()
    assert [e.claim_id for e in report.example_checks] == EXPECTED_CLAIM_IDS
    for entry in report.example_checks:
        assert entry.printed_value
        assert entry.oracle_value
        assert entry.printed_samples
        assert entry.location
        assert math.isfinite(entry.delta)


def test_suite_agreement_pattern():
    """Printed tangent, binormal, lifted curve and lifted tangent agree with
    the oracle; everything else is an erratum."""
    report = run_paper_suite()
    for entry in report.example_checks:
        assert entry.agrees == (entry.claim_id in AGREEING), entry.claim_id


def test_suite_theorems_pass():
    report = run_paper_suite()
    assert report.theorem1.passed
    assert report.theorem2.passed
    assert report.theorem3.passed
    assert report.all_theorems_pass()
    assert abs(report.theorem1.value - 0.9238795325112867) < 1e-6


def test_suite_known_error_magnitudes():
    report = run_paper_suite()
    by_id = {e.claim_id: e for e in report.example_checks}
    # curvature claim is off by the missing square: factor s^2 + 2
    assert abs(by_id["example.kappa"].delta - 5.0) < 1e-3  # worst at s = 2
    # printed axis has norm 2 instead of 1
    assert abs(by_id["example.axis_norm"].delta - 1.0) < 1e-9
    # lifted normal factor should be +-1; the printed scalar is not
    assert by_id["closed_form.c"].delta > 0.5


def test_suite_is_deterministic():
    a = json.dumps(run_paper_suite().to_dict(), sort_keys=True)
    b = json.dumps(run_paper_suite().to_dict(), sort_keys=True)
    assert a == b


def test_report_serializes():
    doc = run_paper_suite().to_dict()
    text = json.dumps(doc, sort_keys=True, indent=2)
    back = json.loads(text)
    assert back["theorem1"]["pass"] is True
    assert len(back["example_checks"]) == len(EXPECTED_CLAIM_IDS)
    assert back["config"]["sample_points"] == [0.0, 0.5, 1.0, 2.0]


def test_report_dict_serializes_as_the_asdict_one():
    report = run_paper_suite(grid_size=64)
    want = {"config": report.config,
            "example_checks": [dataclasses.asdict(e) for e in report.example_checks]}
    for name in ("theorem1", "theorem2", "theorem3"):
        r = getattr(report, name)
        want[name] = {"pass": r.passed, "residual": r.residual, "value": r.value, "note": r.note}
    assert json.dumps(report.to_dict()) == json.dumps(want)
