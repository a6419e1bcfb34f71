"""helixlift benchmark: seeded closed-loop workloads through ``helixlift.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify_stream --seed 1 --seconds 20 --trace 0

One client runs one operation at a time in this process (a closed loop, no
threads) until the measured operation time reaches ``--seconds``, always
finishing the block of operations it started, so every run measures the
workload's exact mix. Each output is checked against the ground truth of
its generated input. Before timing, one operation runs as a warm-up, and a
deliberately corrupted copy of its output must fail the checker, or the run
aborts.

Host speed. A shared host can change speed by up to 2x over seconds to
minutes when other work lands on the same cores; wall time still equals CPU
time, so this is not steal and no statistic of one run removes it. Every
timing is therefore also taken at reference host speed: it is multiplied by
``PROBE_REF_MS`` over the time of a fixed Python and numpy loop that never
calls helixlift (``probe_ms``), measured right before and right after the
timed work. The end-to-end metrics are these scaled times; the run record
keeps the raw ones beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``setup_s``
is the median over several rounds of a fresh interpreter's
``import helixlift`` plus building the workload's inputs.

``--trace 1`` reports the per-layer metrics instead. It repeats the first
block of operations in pairs, once plain and once with tracing.py's spans
installed, so ``trace.overhead_ratio`` compares the same operations;
per-layer counts and self times are per traced operation.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A run record with versions, seed and op counts
goes to perfbench/out/records/, and the spans of the first traced block to
perfbench/out/spans/. Exit status is 0 when a result was printed, 1 on a
benchmark error and 2 when the checkout has no helixlift sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer
from workloads import WORKLOADS, Observation, StepResult

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_ROUNDS = 5
# Ends a run even inside a block, so a much slower program still exits in time.
WALL_LIMIT_S = 150.0
P90_MIN_OPS = 100
EVAL_KINDS = ("polynomial", "circular_helix", "polyline", "lifted", "arclength_reparam")

# probe_ms on the host the first baseline was recorded on, when it ran fast.
PROBE_REF_MS = 2.5
_PROBE_A = np.array([0.3, -1.2, 2.0])
_PROBE_B = np.array([1.1, 0.4, -0.7])

FRESH_IMPORT = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import helixlift\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


def probe_ms() -> float:
    """Best of three runs of a fixed loop of small numpy calls and Python arithmetic.

    It mixes the same kinds of work as helixlift (3-vector cross and dot
    products between interpreted statements) without calling helixlift, so
    its time follows the host's speed and not the program's.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100):
            acc += float(np.dot(np.cross(_PROBE_A, _PROBE_B), _PROBE_A)) + i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def import_helixlift():
    if not (SRC / "helixlift" / "__init__.py").is_file():
        raise FileNotFoundError(f"no helixlift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import helixlift
    import helixlift.cli

    if Path(helixlift.__file__).resolve().parent != SRC / "helixlift":
        raise BenchError(f"imported helixlift from {helixlift.__file__}, not from {SRC}")
    return helixlift


def run_op(hl, op) -> tuple[float, Observation]:
    """Run one operation's command lines; return its latency and what it produced."""
    for path in op.outputs.values():
        Path(path).unlink(missing_ok=True)
    steps = []
    start = time.perf_counter()
    for argv in op.steps:
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = "".join(traceback.format_exception_only(exc)).strip()
        steps.append(StepResult(code, out.getvalue(), err.getvalue(), error))
        if code != 0:
            break
    latency = time.perf_counter() - start
    files = {}
    for name, path in op.outputs.items():
        with contextlib.suppress(FileNotFoundError):
            files[name] = Path(path).read_text()
    return latency, Observation(steps, files)


class Loop:
    """Closed-loop client: runs and checks operations, keeps raw and scaled latencies."""

    def __init__(self, hl, workload):
        self.hl = hl
        self.workload = workload
        self.state = {}
        self.latencies = []
        self.scaled = []
        self.kinds = {}
        self.failures = []
        self._probe = None

    def run(self, op, call=None) -> float:
        """Run ``op`` (through ``call`` when given) and return its raw latency."""
        before = self._probe if self._probe is not None else probe_ms()
        if call is None:
            latency, obs = run_op(self.hl, op)
        else:
            latency, obs = call(lambda: run_op(self.hl, op))
        self._probe = probe_ms()
        reason = self.workload.check(op, obs, self.state)
        self.latencies.append(latency)
        self.scaled.append(latency * 2.0 * PROBE_REF_MS / (before + self._probe))
        self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
        if reason is not None:
            self.failures.append(f"{op.kind} {' '.join(op.steps[0][:3])}: {reason}")
        return latency

    def warm_up_and_self_test(self, op):
        _, obs = run_op(self.hl, op)
        reason = self.workload.check(op, obs, self.state)
        if reason is not None:
            raise BenchError(f"warm-up {op.kind} failed its check: {reason}")
        if self.workload.check(op, self.workload.corrupt(op, obs), {}) is None:
            raise BenchError(f"the {self.workload.name} checker accepted a corrupted output")


def median_setup(workload, seed) -> tuple[float, list, list]:
    """Median over rounds of a fresh interpreter's import plus an input build.

    Returns the scaled median and the raw import and build times of each round.
    """
    imports, builds, scaled = [], [], []
    for _ in range(SETUP_ROUNDS):
        before = probe_ms()
        done = subprocess.run([sys.executable, "-c", FRESH_IMPORT], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"fresh import failed: {done.stderr.strip()[-500:]}")
        imports.append(float(done.stdout.split()[-1]))
        scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="setup-"))
        try:
            t0 = time.perf_counter()
            workload.build(seed, scratch)
            builds.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(scratch)
        scaled.append((imports[-1] + builds[-1]) * 2.0 * PROBE_REF_MS / (before + probe_ms()))
    return statistics.median(scaled), imports, builds


def end_to_end(hl, workload, blocks, args, started) -> tuple[Loop, dict, dict]:
    setup_s, imports, builds = median_setup(workload, args.seed)
    loop = Loop(hl, workload)
    loop.warm_up_and_self_test(blocks[0][0])
    measured, i = 0.0, 0
    while measured < args.seconds and time.perf_counter() - started < WALL_LIMIT_S:
        for op in blocks[i % len(blocks)]:
            measured += loop.run(op)
            if time.perf_counter() - started > WALL_LIMIT_S:
                break
        i += 1
    n, ok = len(loop.latencies), len(loop.latencies) - len(loop.failures)
    lat_ms = np.array(loop.scaled) * 1e3
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": ok / sum(loop.scaled),
        "latency_p50_ms": float(np.median(lat_ms)),
        "error_rate": len(loop.failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if n >= P90_MIN_OPS:
        values["latency_p90_ms"] = float(np.percentile(lat_ms, 90))
    raw_ms = np.array(loop.latencies) * 1e3
    detail = {
        "measured_s": measured,
        "latency_samples": n,
        "raw": {"setup_s": statistics.median(imp + b for imp, b in zip(imports, builds)),
                "throughput_ops_s": ok / measured,
                "latency_p50_ms": float(np.median(raw_ms))},
        "host_speed": sum(loop.latencies) / sum(loop.scaled),
        "latencies_ms": raw_ms.tolist(),
        "scaled_latencies_ms": lat_ms.tolist(),
        "setup_import_s": imports,
        "setup_build_s": builds,
    }
    return loop, values, detail


def reparam_accuracy(hl) -> dict:
    """Unit speed and length error of the arc-length map of CircularHelix(1, 1, (0, 200))."""
    alpha = hl.reparam_by_arclength(hl.CircularHelix(1.0, 1.0, (0.0, 200.0)))
    ss = np.linspace(alpha.t_lo, alpha.t_hi, 1001)
    speed_err = max(abs(float(np.linalg.norm(alpha.eval(s, 1))) - 1.0) for s in ss)
    return {
        "frenet.reparam.speed_err_max": speed_err,
        "frenet.reparam.length_err": abs(alpha.t_hi - 200.0 * math.sqrt(2.0)),
    }


def traced(hl, workload, blocks, args, started) -> tuple[Loop, dict, dict]:
    values = reparam_accuracy(hl)
    loop = Loop(hl, workload)
    loop.warm_up_and_self_test(blocks[0][0])
    tracer = Tracer()
    batch = blocks[0]
    totals, plain_s, traced_s, traced_ops, elapsed, spans_file = {}, 0.0, 0.0, 0, 0.0, None

    def in_op_span(call):
        return tracer.run_op(traced_ops, call)

    while traced_ops == 0 or (elapsed < args.seconds
                              and time.perf_counter() - started < WALL_LIMIT_S):
        for op in batch:
            elapsed += loop.run(op)
        plain_s += sum(loop.scaled[-len(batch):])
        tracer.install()
        try:
            for op in batch:
                elapsed += loop.run(op, in_op_span)
                traced_ops += 1
        finally:
            tracer.uninstall()
        raw, scaled = sum(loop.latencies[-len(batch):]), sum(loop.scaled[-len(batch):])
        traced_s += scaled
        if spans_file is None:
            spans_file = OUT / "spans" / f"{workload.name}-seed{args.seed}-{args.stamp}.npz"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(spans_file, **tracer.spans())
        tracer.fold(totals, scale=scaled / raw)

    for name in tracer.names:
        if name != "op":
            values[f"{name}.calls"] = totals[name]["calls"] / traced_ops
            values[f"{name}.self_s"] = totals[name]["self_s"] / traced_ops
    for kind in sorted(set(EVAL_KINDS) | {k for k, _ in tracer.eval_calls}):
        for order in range(4):
            values[f"curves.eval.{kind}.o{order}.calls"] = tracer.eval_calls[(kind, order)] / traced_ops
    values["frenet.inverse.newton_steps"] = totals["newton_steps"] / traced_ops
    values["frenet.inverse.repeat_share"] = (
        tracer.inverse_repeats / tracer.inverse_queries if tracer.inverse_queries else 0.0)
    values["trace.overhead_ratio"] = plain_s / traced_s
    detail = {"traced_ops": traced_ops, "plain_s": plain_s, "traced_s": traced_s,
              "host_speed": sum(loop.latencies) / sum(loop.scaled),
              "missing_targets": tracer.missing, "spans_file": str(spans_file.relative_to(ROOT))}
    return loop, values, detail


def run_record(args, workload, loop, values, detail) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "helixlift").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": args.stamp,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, in process",
        "probe_ref_ms": PROBE_REF_MS,
        "ops": {"attempted": len(loop.latencies), "failed": len(loop.failures), "by_kind": loop.kinds},
        "failures": loop.failures[:20],
        "values": values,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    started = time.perf_counter()
    # One CPU for the whole run, inherited by the fresh-import children, so
    # the host speed probe always measures the CPU the timed work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        hl = import_helixlift()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{workload.name}-"))
    try:
        blocks = workload.build(args.seed, workdir)
        mode = traced if args.trace else end_to_end
        loop, values, detail = mode(hl, workload, blocks, args, started)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    record = run_record(args, workload, loop, values, detail)
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.stamp}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    n, failed = len(loop.latencies), len(loop.failures)
    print(f"{workload.name}: seed {args.seed}, {n} ops ({failed} failed), "
          f"closed loop with 1 client, {'traced' if args.trace else 'untraced'}; "
          f"host ran at {detail['host_speed']:.3f}x the reference time, "
          f"times below are at reference speed")
    for reason in loop.failures[:5]:
        print(f"  FAILED {reason}")
    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        units.update(latency_p90_ms="ms", error_rate="fraction")
    for name, unit in units.items():
        if name in values:
            note = f"  (n={n})" if name.startswith("latency_") else ""
            raw = detail.get("raw", {}).get(name)
            note += "" if raw is None else f"  (raw {raw:.6g})"
            print(f"  {name:40s} {values[name]:.6g} {unit}{note}")
    if not args.trace and "latency_p90_ms" not in values:
        print(f"  latency_p90_ms not reported: {n} ops < {P90_MIN_OPS}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
