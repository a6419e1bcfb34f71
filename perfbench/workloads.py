"""Seeded inputs, operations and correctness checks for the benchmark workloads.

A workload turns a seed into blocks of operations. Every block holds the
same mix of operation kinds, so a run that measures whole blocks measures
the same mix whatever the seed. An operation is one or more ``helixlift``
command lines run in order; its ground truth is known from how its input
was generated, never from running the program. The checker of a workload
reads what the commands printed and wrote and returns ``None`` when the
output is correct, or a one-line reason when it is not. ``corrupt`` makes
one deliberately wrong copy of an observation, so a run can show that its
checker counts a wrong output as failed.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

# Acceptance tolerances of helixlift at the commit these checks were written
# (vector_tol and constancy_tol in helixlift.tolerances). They are copied
# here so a change to the program's own tolerances cannot loosen the checks.
VECTOR_TOL = 1e-6
CONSTANCY_TOL = 1e-4

PAPER_AXIS = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))
# The worked example's cubic (6t, 3t^2, t^3) and the twisted cubic
# (t, t^2, t^3) as vector coefficients of t^1, t^2, t^3.
PAPER_CUBIC = ((6.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 0.0, 1.0))
TWISTED_CUBIC = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# The four printed claims of the worked example that the oracle confirms.
AGREEING_CLAIMS = ("example.T", "example.B", "example.alphabar", "example.Tbar")


@dataclass
class Op:
    """One closed-loop operation: command lines run in order, with truth."""

    kind: str
    steps: list
    outputs: dict
    truth: dict = field(default_factory=dict)


@dataclass
class StepResult:
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class Observation:
    """What an operation printed and wrote; ``files`` maps output names to text."""

    steps: list
    files: dict


# ---------------------------------------------------------------------------
# Geometry helpers for the generators
# ---------------------------------------------------------------------------


def _rotation(rng: random.Random):
    """Uniform random proper rotation, from a unit quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(v * v for v in q))
    w, x, y, z = (v / n for v in q)
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )


def _apply(rot, vec):
    return [sum(rot[i][j] * vec[j] for j in range(3)) for i in range(3)]


def _similar_cubic(rng: random.Random, cubic, domain):
    """Polynomial spec of scale * R * cubic(t) + d, with the rotation R."""
    rot = _rotation(rng)
    scale = rng.uniform(0.5, 2.0)
    shift = [rng.uniform(-5.0, 5.0) for _ in range(3)]
    images = [[scale * v for v in _apply(rot, c)] for c in cubic]
    coeffs = [[shift[i]] + [images[k][i] for k in range(3)] for i in range(3)]
    spec = {"kind": "polynomial", "domain": list(domain), "coeffs": coeffs}
    return spec, rot


def _paper_cubic_spec(rng: random.Random):
    domain = (rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0))
    spec, rot = _similar_cubic(rng, PAPER_CUBIC, domain)
    return spec, _apply(rot, PAPER_AXIS)


def _circular_helix_spec(rng: random.Random, radius, pitch, turns):
    t0 = rng.uniform(-math.pi, math.pi)
    return {
        "kind": "circular_helix",
        "domain": [t0, t0 + 2.0 * math.pi * turns],
        "radius": radius,
        "pitch": pitch,
    }


def _stratified(rng: random.Random, count, lo, hi):
    """``count`` integers in [lo, hi], one per equal stratum, in random order."""
    width = (hi - lo) / count
    values = [int(round(lo + width * (j + rng.random()))) for j in range(count)]
    rng.shuffle(values)
    return values


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return str(path)


def _parse_json(text):
    try:
        return json.loads(text), None
    except (TypeError, ValueError) as exc:
        return None, f"output is not JSON: {exc}"


def _step_codes(obs: Observation, expected):
    codes = [s.code for s in obs.steps]
    for step in obs.steps:
        if step.error:
            return f"raised {step.error}"
    if codes != list(expected):
        return f"exit codes {codes}, expected {list(expected)}"
    return None


# ---------------------------------------------------------------------------
# paper_audit: verify-paper --out <file>
# ---------------------------------------------------------------------------


class PaperAudit:
    """The headline user path: the oracle, the three theorems and the errata ledger.

    verify-paper reads no input, so the seed only names the output files.
    Reference deltas for every claim were recorded at the commit that added
    this benchmark; a run must reproduce them within the acceptance
    tolerance, and every report in one run must be byte-identical.
    """

    name = "paper_audit"

    @functools.cached_property
    def reference(self):
        return json.loads(REFERENCE_FILE.read_text())

    def build(self, seed: int, workdir: Path):
        report = workdir / f"report-{seed}.json"
        op = Op("verify_paper", [["verify-paper", "--out", str(report)]], {"report": str(report)})
        return [[op]]

    def check(self, op: Op, obs: Observation, state: dict):
        reason = _step_codes(obs, [0])
        if reason:
            return reason
        lines = obs.steps[0].stdout.splitlines()
        if len(lines) != 15 or not all(": PASS" in line for line in lines[:3]):
            return f"stdout should list 3 passing theorems and 12 claims, got {len(lines)} lines"
        text = obs.files.get("report")
        if text is None:
            return "no report written"
        doc, reason = _parse_json(text)
        if reason:
            return reason
        ref = self.reference
        for name in ("theorem1", "theorem2", "theorem3"):
            if not (doc.get(name) or {}).get("pass"):
                return f"{name} did not pass"
        value = doc["theorem1"]["value"]
        if abs(value - ref["theorem1_value"]) > VECTOR_TOL:
            return f"theorem1 value {value} differs from reference {ref['theorem1_value']}"
        claims = {e["claim_id"]: e for e in doc.get("example_checks", [])}
        if sorted(claims) != sorted(ref["deltas"]):
            return f"claim ids {sorted(claims)} differ from the 12 reference claims"
        agreeing = sorted(c for c, e in claims.items() if e["agrees"])
        if agreeing != sorted(AGREEING_CLAIMS):
            return f"agreeing claims {agreeing}, expected {sorted(AGREEING_CLAIMS)}"
        for claim_id, want in ref["deltas"].items():
            delta = claims[claim_id]["delta"]
            if abs(delta - want) > VECTOR_TOL * max(1.0, abs(want)):
                return f"{claim_id}: delta {delta} vs reference {want}"
        first = state.setdefault("first_report", text)
        if text != first:
            return "report differs from the first report of this run"
        return None

    def corrupt(self, op: Op, obs: Observation) -> Observation:
        doc = json.loads(obs.files["report"])
        for entry in doc["example_checks"]:
            if entry["claim_id"] == "example.kappa":
                entry["agrees"] = True
        return replace(obs, files={"report": json.dumps(doc, sort_keys=True, indent=2) + "\n"})


def record_paper_reference(report_text: str) -> dict:
    """Reference values for PaperAudit.check, taken from one verify-paper report.

    reference.json holds this for the report written at the commit that
    added the benchmark.
    """
    doc = json.loads(report_text)
    return {
        "theorem1_value": doc["theorem1"]["value"],
        "deltas": {e["claim_id"]: e["delta"] for e in doc["example_checks"]},
    }


# ---------------------------------------------------------------------------
# classify_stream: classify --spec <file> --out <file>
# ---------------------------------------------------------------------------


class ClassifyStream:
    """Raw-parameter specs through the classification battery.

    A block of 20 holds 6 similarity copies of the paper cubic, 10 circular
    helices, 3 twisted-cubic variants and 1 planar circle. The kinds differ
    in cost (circle < twisted < circular < cubic), so the median sits inside
    the circular helices and the 90th percentile inside the cubics.
    """

    name = "classify_stream"
    blocks = 12
    MIX = (("cubic", 6), ("circular", 10), ("twisted", 3), ("circle", 1))

    def build(self, seed: int, workdir: Path):
        rng = random.Random(f"classify_stream:{seed}")
        blocks = []
        for b in range(self.blocks):
            kinds = [k for k, count in self.MIX for _ in range(count)]
            rng.shuffle(kinds)
            block = []
            for j, kind in enumerate(kinds):
                stem = workdir / f"c{b:02d}-{j:02d}"
                spec, truth = self._draw(rng, kind)
                spec_path = _write(stem.with_suffix(".spec.json"), spec)
                out = str(stem.with_suffix(".out.json"))
                argv = ["classify", "--spec", spec_path, "--out", out]
                block.append(Op(kind, [argv], {"out": out}, truth))
            blocks.append(block)
        return blocks

    @staticmethod
    def _draw(rng, kind):
        if kind == "cubic":
            spec, axis = _paper_cubic_spec(rng)
            return spec, {"code": 0, "flags": (True, False, True), "theta": math.pi / 4, "axis": axis}
        if kind == "circular":
            r, p = rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.0)
            spec = _circular_helix_spec(rng, r, p, rng.uniform(1.0, 4.0))
            return spec, {"code": 0, "flags": (True, True, True), "theta": math.atan(r / p),
                          "axis": [0.0, 0.0, 1.0]}
        if kind == "twisted":
            spec, _ = _similar_cubic(rng, TWISTED_CUBIC, (rng.uniform(0.1, 0.4), rng.uniform(1.1, 1.5)))
            return spec, {"code": 0, "flags": (False, False, False), "theta": None, "axis": None}
        spec = _circular_helix_spec(rng, rng.uniform(0.5, 3.0), 0.0, 1.0)
        return spec, {"code": 2}

    def check(self, op: Op, obs: Observation, state: dict):
        truth = op.truth
        reason = _step_codes(obs, [truth["code"]])
        if reason:
            return reason
        if truth["code"] == 2:
            message = obs.steps[0].stderr
            if message.count("\n") != 1 or not message.startswith("degenerate geometry:"):
                return f"planar circle should exit 2 with one line, got {message!r}"
            return None
        text = obs.files.get("out")
        if text is None:
            return "no classification written"
        doc, reason = _parse_json(text)
        if reason:
            return reason
        flags = (doc.get("general_helix"), doc.get("circular_helix"), doc.get("slant_helix"))
        if flags != truth["flags"]:
            return f"{op.kind}: flags {flags}, expected {truth['flags']}"
        if truth["theta"] is None:
            if doc.get("theta") is not None or doc.get("axis") is not None:
                return f"{op.kind}: a non-helix reports theta or axis"
            return None
        if abs(doc["theta"] - truth["theta"]) > CONSTANCY_TOL:
            return f"{op.kind}: theta {doc['theta']}, expected {truth['theta']}"
        axis, want = doc["axis"], truth["axis"]
        err = min(max(abs(a - w) for a, w in zip(axis, want)),
                  max(abs(a + w) for a, w in zip(axis, want)))
        if err > VECTOR_TOL:
            return f"{op.kind}: axis {axis} is {err:.2e} from {want} up to sign"
        return None

    def corrupt(self, op: Op, obs: Observation) -> Observation:
        if op.truth["code"] == 2:
            return replace(obs, steps=[replace(obs.steps[0], code=0)])
        doc = json.loads(obs.files["out"])
        doc["general_helix"] = not doc["general_helix"]
        return replace(obs, files={"out": json.dumps(doc)})


# ---------------------------------------------------------------------------
# lift_sample: lift --emit, then sample --frames of the emitted spec
# ---------------------------------------------------------------------------


def _csv_rows(text, n):
    if text is None:
        return None, "no CSV written"
    lines = text.splitlines()
    if len(lines) != n + 1:
        return None, f"CSV has {len(lines) - 1} rows, expected {n}"
    if len(lines[0].split(",")) != 16:
        return None, f"CSV header {lines[0]!r} lacks frame columns"
    return [line.split(",") for line in lines[1:]], None


def _unit_tangent(row):
    T = [float(v) for v in row[4:7]]
    if abs(math.sqrt(sum(v * v for v in T)) - 1.0) > VECTOR_TOL:
        return None
    return T


class LiftSample:
    """The README flow: lift a non unit speed helix, then sample its frames.

    A block of 10 holds 5 lifts of circular helices with r^2 + p^2 != 1,
    3 lifts of similarity copies of the paper cubic, and 2 ``sample
    --frames`` runs on polylines, with sample counts stratified over
    100..400 within each kind. Sorted by cost (polyline < circular < cubic)
    the median falls inside the circular lifts.
    """

    name = "lift_sample"
    blocks = 8
    MIX = (("lift_circular", 5), ("lift_cubic", 3), ("polyline", 2))

    def build(self, seed: int, workdir: Path):
        rng = random.Random(f"lift_sample:{seed}")
        blocks = []
        for b in range(self.blocks):
            ns = {kind: _stratified(rng, count, 100, 400) for kind, count in self.MIX}
            kinds = [k for k, count in self.MIX for _ in range(count)]
            rng.shuffle(kinds)
            block = []
            for j, kind in enumerate(kinds):
                stem = workdir / f"l{b:02d}-{j:02d}"
                n = ns[kind].pop()
                block.append(self._op(rng, kind, stem, n))
            blocks.append(block)
        return blocks

    @staticmethod
    def _op(rng, kind, stem: Path, n: int) -> Op:
        csv = str(stem.with_suffix(".csv"))
        sample = ["--n", str(n), "--frames", "--csv", csv]
        if kind == "polyline":
            spec, truth = LiftSample._polyline(rng)
            spec_path = _write(stem.with_suffix(".spec.json"), spec)
            truth["n"] = n
            return Op(kind, [["sample", "--spec", spec_path] + sample], {"csv": csv}, truth)
        if kind == "lift_circular":
            while True:
                r, p = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5)
                if abs(r * r + p * p - 1.0) >= 0.2:
                    break
            spec = _circular_helix_spec(rng, r, p, rng.uniform(1.0, 3.0))
            theta = math.atan(r / p)
        else:
            spec, _ = _paper_cubic_spec(rng)
            theta = math.pi / 4
        spec_path = _write(stem.with_suffix(".spec.json"), spec)
        lifted = str(stem.with_suffix(".lifted.json"))
        steps = [
            ["lift", "--spec", spec_path, "--theta", "auto", "--emit", lifted],
            ["sample", "--spec", lifted] + sample,
        ]
        return Op(kind, steps, {"lifted": lifted, "csv": csv}, {"n": n, "theta": theta})

    @staticmethod
    def _polyline(rng):
        """Knots and points of a rotated helix, jittered, as a polyline spec."""
        m = rng.randint(12, 40)
        r, p = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
        span = 2.0 * math.pi * rng.uniform(1.0, 2.5)
        jitter = [0.0] + [0.3 * (rng.random() - 0.5) for _ in range(m - 2)] + [0.0]
        knots = [span * (j + jitter[j]) / (m - 1) for j in range(m)]
        rot = _rotation(rng)
        shift = [rng.uniform(-3.0, 3.0) for _ in range(3)]
        points = []
        for t in knots:
            local = [r * math.cos(t), r * math.sin(t), p * t]
            local = [v + 1e-3 * rng.uniform(-1.0, 1.0) for v in local]
            points.append([a + b for a, b in zip(_apply(rot, local), shift)])
        spec = {"kind": "polyline", "knots": knots, "points": points}
        return spec, {"first": points[0], "last": points[-1]}

    def check(self, op: Op, obs: Observation, state: dict):
        truth = op.truth
        reason = _step_codes(obs, [0] * len(op.steps))
        if reason:
            return reason
        rows, reason = _csv_rows(obs.files.get("csv"), truth["n"])
        if reason:
            return reason
        if op.kind == "polyline":
            return self._check_polyline(rows, truth)
        doc, reason = _parse_json(obs.steps[0].stdout)
        if reason:
            return reason
        if doc.get("base_reparameterized") is not True:
            return "lift did not reparameterize its non unit speed base"
        if abs(doc["theta"] - truth["theta"]) > CONSTANCY_TOL:
            return f"lift theta {doc['theta']}, expected {truth['theta']}"
        lifted, reason = _parse_json(obs.files.get("lifted"))
        if reason:
            return reason
        if lifted.get("kind") != "lifted":
            return f"emitted spec has kind {lifted.get('kind')!r}"
        # Theorem 1, read from the output alone: <axis, T> is constant.
        axis = doc["axis"]
        dots = []
        for row in rows:
            if row[15] != "0":
                return f"lifted row at t={row[0]} is flagged degenerate"
            T = _unit_tangent(row)
            if T is None:
                return f"tangent at t={row[0]} is not unit length"
            dots.append(sum(a * b for a, b in zip(axis, T)))
        mean = sum(dots) / len(dots)
        dev = max(abs(d - mean) for d in dots)
        if dev > VECTOR_TOL * max(abs(mean), 1e-12):
            return f"<axis, T> varies by {dev:.2e} around {mean}"
        return None

    @staticmethod
    def _check_polyline(rows, truth):
        # The natural spline has a'' = 0 at both ends, so exactly the two end
        # rows carry the degenerate flag; that is what this commit writes.
        flags = [row[15] for row in rows]
        if flags != ["1"] + ["0"] * (len(rows) - 2) + ["1"]:
            bad = [i for i, f in enumerate(flags) if f != ("1" if i in (0, len(rows) - 1) else "0")]
            return f"degenerate flags differ from the end-rows-only pattern at rows {bad[:5]}"
        for row, point in ((rows[0], truth["first"]), (rows[-1], truth["last"])):
            xyz = [float(v) for v in row[1:4]]
            if max(abs(a - b) for a, b in zip(xyz, point)) > 1e-9 * max(1.0, max(map(abs, point))):
                return f"end row {xyz} does not interpolate the end point {point}"
        for row in rows[1:-1]:
            if _unit_tangent(row) is None:
                return f"tangent at t={row[0]} is not unit length"
        return None

    def corrupt(self, op: Op, obs: Observation) -> Observation:
        lines = obs.files["csv"].splitlines()
        mid = len(lines) // 2
        row = lines[mid].split(",")
        if op.kind == "polyline":
            row[15] = "1"
        else:
            # Tilt the tangent towards the axis while keeping it unit length,
            # so only the theorem 1 check can catch it.
            axis = json.loads(obs.steps[0].stdout)["axis"]
            T = [float(v) for v in row[4:7]]
            along = sum(a * t for a, t in zip(axis, T))
            u = [a - along * t for a, t in zip(axis, T)]
            norm = math.sqrt(sum(v * v for v in u))
            tilted = [math.cos(1e-3) * t + math.sin(1e-3) * v / norm for t, v in zip(T, u)]
            row[4:7] = [repr(v) for v in tilted]
        lines[mid] = ",".join(row)
        return replace(obs, files={**obs.files, "csv": "\n".join(lines) + "\n"})


WORKLOADS = {w.name: w for w in (PaperAudit(), ClassifyStream(), LiftSample())}
