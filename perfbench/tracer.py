"""Tracing for the benchmark's traced mode.

The tracer wraps public twoscalepop functions from outside the package: each
name is patched where its caller resolves it (``cli.convergence_table`` for
the call inside ``cli.run_scenario``, ``aggregation.convergence_table`` for a
direct call), and the callables of every ``TwoScaleSystem`` built by
``threestage.make_system`` are wrapped as they are created.  Nothing under
``src/`` changes, and the wrapped calls return exactly what the originals
return.

Coarse calls (scenario runs, orbit searches, Newton, the harnesses) keep a
full span: id, name, start, end and parent span id.  Per-step functions keep
only count, total time and self time under their parent frame's name, so
memory stays bounded however long a trajectory runs.
"""
from __future__ import annotations

import dataclasses
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from twoscalepop import aggregation, analysis, cli, solvers, spectral, threestage

from metrics import LAYER_METRICS, PROCESS_METRICS

FIND_TWO_CYCLE = "analysis.find_two_cycle"
DETECT_ORBIT = "cli.detect_orbit"
RUN_SCENARIO = "cli.run_scenario"


class _Frame:
    __slots__ = ("name", "span", "child", "arg")

    def __init__(self, name, span):
        self.name = name
        self.span = span      # id of this span, or of the enclosing one
        self.child = 0.0      # time covered by direct children
        self.arg = None       # what a hook keeps for the frame's children


class Tracer:
    """Spans, per-step counters and self times for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total, self]
        self.counters: dict[str, int] = {}
        self._stack = [_Frame("pass", -1)]
        self._next_span = 0
        self._in_harness = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _finish(self, frame: _Frame, parent: _Frame, dt: float) -> None:
        parent.child += dt
        key = (frame.name, parent.name)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame.child

    def _enter_step(self, parent: _Frame) -> None:
        # a map step is a trajectory step when run_scenario calls it
        # directly, and a burn-in step when find_two_cycle does (its burn-in
        # loops plus one evaluation per located point)
        if parent.name == RUN_SCENARIO:
            self.count("cli.trajectory.steps_computed")
        elif parent.name == FIND_TWO_CYCLE:
            self.count("analysis.burn_in_steps")
        if self._in_harness:
            self.count("aggregation.map_calls")

    # -- wrappers ----------------------------------------------------------

    def counted(self, name: str, fn, step: bool = False):
        """Per-step wrapper: count, total and self time under the parent."""
        stack = self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            if step:
                self._enter_step(parent)
            frame = _Frame(name, parent.span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self._finish(frame, parent, dt)

        return wrapped

    def span(self, name: str, fn, on_enter=None, on_return=None,
             harness: bool = False):
        """Coarse wrapper: a full span plus the per-name totals."""
        stack = self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            span_id = self._next_span
            self._next_span += 1
            frame = _Frame(name, span_id)
            if on_enter is not None:
                on_enter(parent, frame, args, kwargs)
            if harness:
                self._in_harness += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if harness:
                    self._in_harness -= 1
                self.spans.append((span_id, name, t0, t1, parent.span))
                self._finish(frame, parent, t1 - t0)

        return wrapped

    # -- hooks -------------------------------------------------------------

    def _on_run_scenario(self, parent, frame, args, kwargs):
        config = args[0] if args else kwargs["config"]
        include_local = args[1] if len(args) > 1 else kwargs.get("include_local", False)
        # run_scenario records horizon+1 states for the reduced series, each
        # k and, with local runs, both isolated patches
        series = 1 + len(config.k_list) + (2 if include_local else 0)
        self.count("cli.trajectory.steps_delivered", series * config.horizon)

    def _on_find_two_cycle(self, parent, frame, args, kwargs):
        frame.arg = args[0] if args else kwargs["map_fn"]
        if parent.name == DETECT_ORBIT:
            parent.arg = (parent.arg or 0) + 1
            if parent.arg > 1:
                self.count("analysis.detect_orbit.seed_retries")

    def _on_newton(self, parent, frame, args, kwargs):
        # after a round collapses, find_two_cycle polishes with the single
        # map it was given instead of the doubled map
        map_fn = args[0] if args else kwargs["map_fn"]
        if parent.name == FIND_TWO_CYCLE and map_fn is parent.arg:
            self.count("analysis.find_two_cycle.collapses")

    def _samples(self, count_of):
        def on_enter(parent, frame, args, kwargs):
            self.count("aggregation.samples", count_of(args, kwargs))
        return on_enter

    def _on_written(self, paths):
        self.count("cli.write_outputs.bytes", sum(Path(p).stat().st_size for p in paths))

    def _wrap_system(self, make_system):
        def wrapped(*args, **kwargs):
            system = make_system(*args, **kwargs)
            return dataclasses.replace(
                system,
                complete_map=self.counted("metapop.complete_map", system.complete_map, step=True),
                limit_map=self.counted("metapop.limit_map", system.limit_map, step=True),
                lift=self.counted("metapop.lift", system.lift, step=True),
            )
        return wrapped

    def _wrap_factory(self, name, factory):
        def wrapped(*args, **kwargs):
            return self.counted(name, factory(*args, **kwargs), step=True)
        return wrapped

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        trap = lambda a, kw: (a[1] if len(a) > 1 else kw["trap"]).sample_count
        harnesses = {
            "trapping_check": trap,
            "instability_check": trap,
            "attraction_check": lambda a, kw: 1,
            "convergence_table": lambda a, kw: len(a[1] if len(a) > 1 else kw["samples"]),
        }
        for name, count_of in harnesses.items():
            wrapper = self.span(f"aggregation.{name}", getattr(aggregation, name),
                                on_enter=self._samples(count_of), harness=True)
            self._patch(aggregation, name, wrapper)
            if name == "convergence_table":
                self._patch(cli, name, wrapper)

        self._patch(cli, "run_scenario", self.span(
            RUN_SCENARIO, cli.run_scenario, on_enter=self._on_run_scenario))
        self._patch(cli, "write_outputs", self.span(
            "cli.write_outputs", cli.write_outputs, on_return=self._on_written))
        self._patch(cli, "detect_orbit", self.span(DETECT_ORBIT, cli.detect_orbit))
        self._patch(cli, "run_check", self.span("cli.run_check", cli.run_check))
        self._patch(analysis, "find_two_cycle", self.span(
            FIND_TWO_CYCLE, analysis.find_two_cycle, on_enter=self._on_find_two_cycle))
        self._patch(analysis, "find_equilibrium", self.span(
            "analysis.find_equilibrium", analysis.find_equilibrium))

        newton = self.span("solvers.newton_fixed_point", solvers.newton_fixed_point,
                           on_enter=self._on_newton)
        for module in (solvers, analysis):
            self._patch(module, "newton_fixed_point", newton)
        jacobian = self.counted("solvers.fd_jacobian", solvers.fd_jacobian)
        for module in (solvers, analysis, aggregation, cli):
            self._patch(module, "fd_jacobian", jacobian)

        self._patch(threestage, "make_system", self._wrap_system(threestage.make_system))
        self._patch(threestage, "reduced_map", self._wrap_factory(
            "threestage.reduced_step", threestage.reduced_map))
        self._patch(threestage, "local_map", self._wrap_factory(
            "threestage.local_step", threestage.local_map))
        self._patch(threestage, "demography_matrix", self.counted(
            "threestage.demography_matrix", threestage.demography_matrix))
        for name in ("perron_vector", "is_primitive_stochastic", "rescaled_power_limit"):
            self._patch(spectral, name, self.counted(f"spectral.{name}",
                                                     getattr(spectral, name)))
        try:
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of a name over all parents."""
        calls, total, own = 0, 0.0, 0.0
        for (fn_name, _), (c, t, s) in self.stats.items():
            if fn_name == name:
                calls, total, own = calls + c, total + t, own + s
        return calls, total, own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric a traced pass measures, by name."""
        out: dict[str, float] = {}
        for name, _ in LAYER_METRICS:
            if name in PROCESS_METRICS:
                continue
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.totals(base)[0]
            elif kind == "s":
                out[name] = self.totals(base)[1]
            elif kind == "self_s":
                out[name] = self.totals(base)[2]
            else:
                out[name] = self.counters.get(name, 0)
        delivered = self.counters.get("cli.trajectory.steps_delivered", 0)
        computed = out["cli.trajectory.steps_computed"]
        out["cli.trajectory.compute_ratio"] = computed / delivered if delivered else 0.0
        limit_calls = out["metapop.limit_map.calls"]
        out["spectral.perron_calls_per_limit_call"] = (
            out["spectral.perron_vector.calls"] / limit_calls if limit_calls else 0.0)
        return out

    def record(self) -> dict:
        """Spans and per-step statistics, ready for JSON."""
        return {
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, n, s, e, p in sorted(self.spans)],
            "stats": [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                      for (n, p), (c, t, s) in sorted(self.stats.items())],
            "counters": dict(sorted(self.counters.items())),
        }


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Times as medians over the traced passes; counts and their ratios,
    which repeat exactly, from the first one."""
    units = dict(LAYER_METRICS)
    return {name: statistics.median(p[name] for p in per_pass)
            if units[name] == "s" else per_pass[0][name]
            for name in per_pass[0]}


def counts_of(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics of a traced pass that must repeat exactly."""
    units = dict(LAYER_METRICS)
    return {name: value for name, value in metrics.items() if units[name] != "s"}
