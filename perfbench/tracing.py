"""Span tracing of helixlift from outside the package.

``Tracer.install`` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent, operation) per call, then
``uninstall`` puts the originals back. A module-level function is replaced
in every helixlift module that binds it, because the package imports most of
them with ``from .x import name``; methods are replaced on their class.
Spans stay in memory; ``fold`` turns them into per-name calls and self time
(a span's duration minus the durations of its direct children) and clears
the buffer. Wrapped names that a future version of the package no longer has
are reported in ``missing`` and count zero calls.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (span name, module, attribute) of module-level functions.
FUNCTIONS = (
    ("frenet.frame_at", "helixlift.frenet", "frame_at"),
    ("frenet.curvature_torsion", "helixlift.frenet", "curvature_torsion"),
    ("frenet.reparam_by_arclength", "helixlift.frenet", "reparam_by_arclength"),
    ("helix.classify_curve", "helixlift.helix", "classify_curve"),
    ("helix.lancret_test", "helixlift.helix", "lancret_test"),
    ("helix.slant_test", "helixlift.helix", "slant_test"),
    ("helix.helix_axis", "helixlift.helix", "helix_axis"),
    ("helix.bertrand_test", "helixlift.helix", "bertrand_test"),
    ("lift.lift_curve", "helixlift.lift", "lift_curve"),
    ("verify.oracle_frame", "helixlift.verify", "oracle_frame"),
    ("verify.run_theorem_checks", "helixlift.verify", "run_theorem_checks"),
    ("verify.run_paper_suite", "helixlift.verify", "run_paper_suite"),
    ("curvespec.parse_curve_spec", "helixlift.curvespec", "parse_curve_spec"),
    ("curvespec.serialize_curve_spec", "helixlift.curvespec", "serialize_curve_spec"),
    ("cli.main", "helixlift.cli", "main"),
)

# (span name, module, class, method) of methods, patched on the class.
METHODS = (
    ("curves.eval", "helixlift.curves", "ParamCurve", "eval"),
    ("frenet.forward", "helixlift.frenet", "ArcLengthMap", "forward"),
    ("frenet.inverse", "helixlift.frenet", "ArcLengthMap", "inverse"),
)

OP_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names = [OP_SPAN] + [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._patches = []
        self.missing = []
        self.eval_calls = Counter()  # (curve kind, derivative order) -> calls
        self.inverse_queries = 0
        self.inverse_repeats = 0
        self._seen = weakref.WeakKeyDictionary()  # length map -> queried arc lengths
        self._clear()

    def _clear(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1

    # -- recording ---------------------------------------------------------

    def _wrap(self, span, fn, before=None):
        name_id = self._ids[span]
        record = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(record.name)
            record.name.append(name_id)
            record.parent.append(record._stack[-1])
            record.op.append(record._op_id)
            record.start.append(0.0)
            record.end.append(0.0)
            record._stack.append(i)
            record.start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record.end[i] = perf_counter()
                record._stack.pop()

        return traced

    def _count_eval(self, args, kwargs):
        order = kwargs.get("order", args[2] if len(args) > 2 else 0)
        self.eval_calls[(args[0].kind, order)] += 1

    def _count_inverse(self, args, kwargs):
        # The map clamps s into [0, total_length] before its cache lookup;
        # a repeat is a clamped query already seen on the same map.
        length_map, s = args[0], args[1] if len(args) > 1 else kwargs["s"]
        s = min(max(float(s), 0.0), length_map.total_length)
        seen = self._seen.setdefault(length_map, set())
        self.inverse_queries += 1
        if s in seen:
            self.inverse_repeats += 1
        else:
            seen.add(s)

    def run_op(self, op_id, fn):
        """Call ``fn()`` inside a root span that all of its spans descend from."""
        self._op_id = op_id
        return self._wrap(OP_SPAN, fn)()

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "helixlift" or name.startswith("helixlift."))]
        self.missing = []
        for span, module, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        hooks = {"curves.eval": self._count_eval, "frenet.inverse": self._count_inverse}
        for span, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(span)
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original, hooks.get(span)))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as arrays, times relative to the first start."""
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = start.min() if start.size else 0.0
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "start": start - t0,
            "end": np.frombuffer(self.end, dtype=np.float64) - t0,
        }

    def fold(self, totals: dict, scale: float = 1.0) -> None:
        """Add this buffer's calls, self time times ``scale`` and Newton steps to
        ``totals``, then clear it."""
        s = self.spans()
        dur = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.bincount(s["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        count = len(self.names)
        calls = np.bincount(s["name"], minlength=count)
        self_s = np.bincount(s["name"], weights=self_time, minlength=count)
        for i, name in enumerate(self.names):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(self_s[i]) * scale
        # A forward call made inside inverse is one Newton step.
        forward, inverse = self._ids["frenet.forward"], self._ids["frenet.inverse"]
        steps = (s["name"] == forward) & nested
        steps[steps] = s["name"][s["parent"][steps]] == inverse
        totals["newton_steps"] = totals.get("newton_steps", 0) + int(steps.sum())
        self._clear()
