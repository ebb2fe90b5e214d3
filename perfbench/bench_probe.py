"""Counting and timing probes for the benchmark's traced run.

The traced run hands the library wrapped objects instead of the plain ones:

* ``ModelProbe`` stands in for a ``FunctionModel``. It forwards every
  capability flag, ``value``, ``subderivative``, ``gradient`` and
  ``separable_parts``, and records a span around each call.
* ``MemberProbe`` stands in for a member of a combinator (the branches of
  ``pointwise_min``) and only counts its ``value`` calls.
* ``SetProbe`` stands in for a ``SetModel`` and records a span around
  ``project``.
* ``Tracer.instrument_solver`` swaps ``subderiv.solver.search_direction``
  and ``subderiv.solver.schedule_step`` for wrappers that record spans and
  the direction and line-search counters, and restores them on exit.

Spans live in memory as four parallel lists (parent index, name index,
start, end in ns) and are written out once, after the run. A span's self
time is its duration minus the time its direct children cover; the loop is
single-threaded, so children never overlap.

A ``Tracer`` offers the same hooks as ``bench_workloads.PLAIN``, the probe
of an untraced pass, which returns every object unchanged.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

import subderiv as sd
import subderiv.solver as solver_mod

FLAGS = ("semi_differentiable", "extended_valued", "subderivative_concave",
         "has_gradient", "is_separable", "descent_constant", "lower_bound")
STRATEGIES = tuple(s for s in solver_mod.STRATEGIES if s != "auto")


def point_key(x) -> int:
    """In-process identity of an evaluation point, for repeat counting."""
    return hash(np.asarray(x, dtype=float).tobytes())


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parents: list[int] = []
        self.name_ix: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.probes: list[ModelProbe] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.parents.append(self._stack[-1])
        self.name_ix.append(nid)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ------------------------------------------------------------
    def model(self, m) -> "ModelProbe":
        p = ModelProbe(m, self)
        self.probes.append(p)
        return p

    def member(self, m) -> "MemberProbe":
        return MemberProbe(m, self)

    def set(self, X) -> "SetProbe":
        return SetProbe(X, self)

    @contextlib.contextmanager
    def instrument_solver(self):
        """Record spans around the solver's direction search and step."""
        search, step = solver_mod.search_direction, solver_mod.schedule_step
        tracer = self

        def traced_search(f, x, cfg):
            strategy = solver_mod.resolve_strategy(f, cfg.strategy)
            with tracer.span(f"direction.{strategy}"):
                res = search(f, x, cfg)
            tracer.note_direction(res)
            return res

        def traced_step(schedule, k, f, x, w, d):
            with tracer.span("linesearch"):
                try:
                    alpha, m = step(schedule, k, f, x, w, d)
                except sd.BacktrackExhausted:
                    params = schedule.armijo_params or sd.ArmijoParams()
                    tracer.counts["linesearch.exhausted"] += 1
                    tracer.counts["linesearch.trials"] += params.max_backtracks + 1
                    raise
            tracer.counts["linesearch.backtracks"] += m
            tracer.counts["linesearch.trials"] += m + 1
            tracer.counts["linesearch.accepted"] += 1
            return alpha, m

        solver_mod.search_direction = traced_search
        solver_mod.schedule_step = traced_step
        try:
            yield self
        finally:
            solver_mod.search_direction = search
            solver_mod.schedule_step = step

    def note(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def note_direction(self, res) -> None:
        self.counts["direction.evals"] += res.evaluations
        self.counts["direction.exact"] += int(res.exact)
        self.counts["direction.searches"] += 1

    # -- results -------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += dur[i]
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        for i in range(n):
            name = self.names[self.name_ix[i]]
            calls[name] += 1
            incl[name] += dur[i]
            own[name] += dur[i] - covered[i]
        return {k: (calls[k], incl[k] * 1e-9, own[k] * 1e-9) for k in calls}

    def child_count(self, parent: str, child: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        pid, cid = self._name_ids.get(parent), self._name_ids.get(child)
        if pid is None or cid is None:
            return 0
        return sum(1 for i, p in enumerate(self.parents)
                   if self.name_ix[i] == cid and p >= 0 and self.name_ix[p] == pid)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, keyed by their benchmark names."""
        tot = self.totals()
        c = self.counts

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def secs(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def share(num, den):
            return num / den if den else 0.0

        sub_calls = sum(p.sub_calls for p in self.probes)
        sub_points = sum(len(p.sub_points) for p in self.probes)
        val_calls = sum(p.value_calls for p in self.probes)
        val_repeats = sum(p.value_repeats for p in self.probes)
        out = {
            "oracles.subderivative.calls": calls("oracles.subderivative"),
            "oracles.subderivative.s": secs("oracles.subderivative"),
            "oracles.subderivative.per_point": share(sub_calls, sub_points),
            "oracles.value.calls": calls("oracles.value"),
            "oracles.value.s": secs("oracles.value"),
            "oracles.value.repeat_share": share(val_repeats, val_calls),
            "oracles.separable_parts.calls": calls("oracles.separable_parts"),
            "oracles.separable_parts.s": secs("oracles.separable_parts"),
            "oracles.gradient.calls": calls("oracles.gradient"),
            "oracles.gradient.s": secs("oracles.gradient"),
            "calculus.member_value.calls": c["calculus.member_value"],
        }
        for s in STRATEGIES:
            out[f"direction.{s}.calls"] = calls(f"direction.{s}")
            out[f"direction.{s}.s"] = secs(f"direction.{s}")
        out.update({
            "direction.evals": c["direction.evals"],
            "direction.exact_share": share(c["direction.exact"], c["direction.searches"]),
            "linesearch.calls": calls("linesearch"),
            "linesearch.s": secs("linesearch"),
            "linesearch.backtracks": c["linesearch.backtracks"],
            "linesearch.accept_ratio": share(c["linesearch.accepted"], c["linesearch.trials"]),
            "linesearch.exhausted": c["linesearch.exhausted"],
            "solver.run_s": secs("solver.run"),
            "solver.self_s": tot.get("solver.run", (0, 0.0, 0.0))[2],
            "verify.fd.calls": calls("verify.fd"),
            "verify.fd.s": secs("verify.fd"),
            "verify.fd.value_calls": self.child_count("verify.fd", "oracles.value"),
            "verify.brute.calls": calls("verify.brute"),
            "verify.brute.s": secs("verify.brute"),
            "verify.brute.evals": c["verify.brute.evals"],
            "sets.project.calls": calls("sets.project"),
            "sets.project.s": secs("sets.project"),
        })
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: names plus [parent, name, start_ns, end_ns] rows."""
        rows = list(zip(self.parents, self.name_ix, self.starts, self.ends))
        with open(path, "w") as fh:
            json.dump({"names": self.names, "columns": ["parent", "name", "start_ns", "end_ns"],
                       "spans": rows}, fh, separators=(",", ":"))


class ModelProbe(sd.FunctionModel):
    """A FunctionModel that forwards to ``inner`` and records every call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._t = tracer
        for flag in FLAGS:
            setattr(self, flag, getattr(inner, flag))
        self.value_calls = 0
        self.value_repeats = 0
        self._value_points: set[int] = set()
        self.sub_calls = 0
        self.sub_points: set[int] = set()

    @property
    def dim(self) -> int:
        return self.inner.dim

    def value(self, x):
        key = point_key(x)
        self.value_calls += 1
        if key in self._value_points:
            self.value_repeats += 1
        else:
            self._value_points.add(key)
        idx = self._t.open("oracles.value")
        try:
            return self.inner.value(x)
        finally:
            self._t.close(idx)

    def subderivative(self, x, w):
        self.sub_calls += 1
        self.sub_points.add(point_key(x))
        idx = self._t.open("oracles.subderivative")
        try:
            return self.inner.subderivative(x, w)
        finally:
            self._t.close(idx)

    def gradient(self, x):
        idx = self._t.open("oracles.gradient")
        try:
            return self.inner.gradient(x)
        finally:
            self._t.close(idx)

    def separable_parts(self, x):
        idx = self._t.open("oracles.separable_parts")
        try:
            return self.inner.separable_parts(x)
        finally:
            self._t.close(idx)


class MemberProbe(sd.FunctionModel):
    """A combinator member that counts its ``value`` calls and records no span."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._counts = tracer.counts
        for flag in FLAGS:
            setattr(self, flag, getattr(inner, flag))

    @property
    def dim(self) -> int:
        return self.inner.dim

    def value(self, x):
        self._counts["calculus.member_value"] += 1
        return self.inner.value(x)

    def subderivative(self, x, w):
        return self.inner.subderivative(x, w)

    def gradient(self, x):
        return self.inner.gradient(x)

    def separable_parts(self, x):
        return self.inner.separable_parts(x)


class SetProbe(sd.SetModel):
    """A SetModel that forwards to ``inner`` and records spans around ``project``."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._t = tracer
        self.geometrically_derivable = inner.geometrically_derivable

    @property
    def dim(self) -> int:
        return self.inner.dim

    def contains(self, x):
        return self.inner.contains(x)

    def project(self, x):
        idx = self._t.open("sets.project")
        try:
            return self.inner.project(x)
        finally:
            self._t.close(idx)

    def tangent_distance(self, x, w):
        return self.inner.tangent_distance(x, w)
