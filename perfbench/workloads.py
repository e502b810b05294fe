"""The benchmark's workloads: generated inputs, one pass, canonical outputs.

A pass drives only public twoscalepop functions.  A job is one scenario
config or one harness call; it fails when it raises or when any of its
outputs (CSV and summary.txt bytes, verdict list, orbit reports, harness
verdicts) differs from the reference recorded for its input set.

``--seed`` picks one of ``INPUT_SETS`` input sets.  Set 0 keeps the shipped
default run seed; the others derive theirs from the set index.  The program
receives only what a set generates: the scenario ``seed`` override and the
ball-check start points and convergence sample arrays.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path
from typing import Callable

import numpy as np

from twoscalepop import aggregation, analysis, cli, scenarios, solvers, threestage
from twoscalepop.aggregation import TrapSpec
from twoscalepop.metapop import VARIANT_RESCALED, VARIANT_SLOW

from metrics import WORKLOADS

SIZES = ("full", "small")
INPUT_SETS = 16

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Scenario horizons.  repeating_orbits: every series of fig2 and
# sec42_compare repeats a state bit for bit within the first 42 % of these
# horizons, so most delivered steps follow a repeat.  drifting_orbits: no
# fig3 or fig10 series repeats within them.  fig10 runs its full horizon.
SCENARIOS = {
    "repeating_orbits": ("fig2", "sec42_compare"),
    "drifting_orbits": ("fig3", "fig10"),
}
HORIZONS = {
    "full": {"fig2": 30_000, "sec42_compare": 15_000, "fig3": 20_000, "fig10": 10_000},
    "small": {"fig2": 300, "sec42_compare": 300, "fig3": 200, "fig10": 100},
}


@dataclasses.dataclass(frozen=True)
class BallSize:
    centre_burn_in: int       # limit-map steps before the Newton polish
    trap_samples: int         # fig2 trapping ball
    cycle_samples: int        # fig3 and fig10 balls
    convergence_samples: int  # rows of each convergence-table sample array
    attraction_horizon: int   # fig2; fig10 runs half as many steps


BALL_SIZES = {
    "full": BallSize(1000, 64, 32, 16, 2000),
    "small": BallSize(50, 8, 8, 4, 100),
}

FIG2_TRAP_KS = (1, 2, 3, 5, 10, 50, 100, 200)
FIG2_KS = (1, 5, 10, 50, 100)
FIG3_KS = (1, 2, 5, 10, 50, 100, 200)
FIG10_KS = (1, 5, 10, 50)
FIG10_TABLE_KS = (1, 5, 10)


def run_seed(seed: int) -> int:
    """The run seed of the input set that ``seed`` selects."""
    index = seed % INPUT_SETS
    return scenarios.DEFAULT_SEED if index == 0 else 1000 + index


# ---------------------------------------------------------------------------
# canonical outputs

def canonical(value):
    """JSON-ready form that keeps every bit: floats become their repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _error(err: Exception) -> dict:
    return {"error": f"{type(err).__name__}: {err}"}


# ---------------------------------------------------------------------------
# scenario workloads

@dataclasses.dataclass
class ScenarioRun:
    """What one scenario produced in a pass, before any check."""

    scenario: scenarios.Scenario
    configs: tuple
    out_dir: Path
    summaries: list = dataclasses.field(default_factory=list)
    written: dict = dataclasses.field(default_factory=dict)  # config index -> paths
    verdicts: list = dataclasses.field(default_factory=list)
    error: Exception | None = None


class ScenarioWorkload:
    """Built-in scenarios run the way ``twoscalepop run`` runs them."""

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.prepared = []
        for scenario_name in SCENARIOS[name]:
            scenario = scenarios.builtin(scenario_name)
            horizon = HORIZONS[size][scenario_name]
            configs = tuple(dataclasses.replace(cfg, horizon=horizon)
                            .with_overrides(seed=run_seed(seed))
                            for cfg in scenario.configs)
            self.prepared.append((scenario, configs))

    @property
    def jobs(self) -> list[str]:
        return [_job_name(s, c) for s, configs in self.prepared for c in configs]

    def run_pass(self, out_root: Path) -> list[ScenarioRun]:
        runs = []
        for scenario, configs in self.prepared:
            run = ScenarioRun(scenario, configs, out_root / scenario.name)
            try:
                run.out_dir.mkdir(parents=True)
                for i, cfg in enumerate(configs):
                    summary = cli.run_scenario(cfg, include_local=scenario.include_local)
                    prefix = f"{cfg.variant}_" if len(configs) > 1 else ""
                    run.written[i] = cli.write_outputs(summary, run.out_dir, prefix)
                    run.summaries.append(summary)
                run.verdicts.extend(cli.build_verdicts(scenario.name, run.summaries))
                text = cli.render_summary(scenario, run.summaries, run.verdicts, fast=False)
                (run.out_dir / "summary.txt").write_text(text)
            except Exception as err:  # a job that raises is a failed job
                run.error = err
            runs.append(run)
        return runs

    @staticmethod
    def outputs(runs: list[ScenarioRun]) -> dict[str, dict]:
        out = {}
        for run in runs:
            if run.error is not None:
                for cfg in run.configs:
                    out[_job_name(run.scenario, cfg)] = _error(run.error)
                continue
            shared = {
                "summary.txt": _sha256(run.out_dir / "summary.txt"),
                "verdicts": canonical([(v.label, v.passed, v.detail) for v in run.verdicts]),
                "exit_code": cli.EXIT_OK if all(v.passed for v in run.verdicts)
                else cli.EXIT_VERDICT_FAILED,
            }
            for i, (cfg, summary) in enumerate(zip(run.configs, run.summaries)):
                out[_job_name(run.scenario, cfg)] = {
                    **{Path(p).name: _sha256(Path(p)) for p in run.written[i]},
                    "orbits": canonical(summary.orbit_reports),
                    "orbit_notes": canonical(summary.orbit_notes),
                    **shared,
                }
        return out


def _job_name(scenario, cfg) -> str:
    return f"{scenario.name}:{cfg.variant}"


# ---------------------------------------------------------------------------
# ball checks

class BallWorkload:
    """Criterion-7 harnesses around located centres, then ``run_check``."""

    name = "ball_checks"

    def __init__(self, seed: int, size: str):
        self.size = BALL_SIZES[size]
        rng = np.random.default_rng(run_seed(seed))
        n = self.size.convergence_samples
        self.fig2 = scenarios.fig2_params()
        self.fig3 = scenarios.fig3_params()
        self.fig10 = scenarios.fig10_params()
        self.start = np.array(scenarios.DEFAULT_INITIAL_STATE)
        self.fig3_guess = np.array([1.4e-4, 9.3e-5, 4.6e-5])
        self.fig2_entry = rng.uniform(1.1, 1.4, 6)    # attraction start / centre
        self.fig10_entry = rng.uniform(0.98, 1.02, 6)
        self.fig2_samples = rng.uniform(0.0, 0.1, (n, 6))
        self.fig3_samples = rng.uniform(0.0, 0.01, (n, 6))
        self.fig10_samples = rng.uniform(0.0, 0.1, (n, 6))

    @property
    def jobs(self) -> list[str]:
        return ["fig2.centre", "fig2.trapping_check", "fig2.attraction_check",
                "fig2.convergence_table", "fig3.centre", "fig3.instability_check",
                "fig3.convergence_table", "fig10.centre", "fig10.trapping_check",
                "fig10.instability_check", "fig10.attraction_check",
                "fig10.convergence_table", "cli.run_check"]

    def _centre(self, system):
        x = self.start
        for _ in range(self.size.centre_burn_in):
            x = system.limit_map(x)
        return solvers.newton_fixed_point(system.limit_map, x)

    def run_pass(self, out_root: Path) -> dict:
        """Job name -> result or the exception it raised; writes no files,
        so ``out_root`` goes unused."""
        size = self.size
        results: dict = {}

        def job(name: str, fn: Callable):
            try:
                results[name] = fn()
            except Exception as err:  # a job that raises is a failed job
                results[name] = err
            return results[name]

        sys2 = threestage.make_system(self.fig2, VARIANT_SLOW)
        centre = job("fig2.centre", lambda: self._centre(sys2))
        if not isinstance(centre, Exception):
            c2 = centre[0]
            radius = aggregation.default_radius(c2)
            job("fig2.trapping_check", lambda: aggregation.trapping_check(sys2, TrapSpec(
                c2, radius, period=50, sample_count=size.trap_samples,
                k_values=FIG2_TRAP_KS)))
            job("fig2.attraction_check", lambda: aggregation.attraction_check(
                sys2, TrapSpec(c2, radius, period=50, k_values=FIG2_KS),
                c2 * self.fig2_entry, horizon=size.attraction_horizon))
        job("fig2.convergence_table", lambda: aggregation.convergence_table(
            sys2, self.fig2_samples, m=1, k_values=FIG2_KS))

        sys3 = threestage.make_system(self.fig3, VARIANT_SLOW)
        reduced3 = threestage.reduced_map(self.fig3, VARIANT_SLOW)

        def centre3():
            eq = analysis.find_equilibrium(reduced3, self.fig3_guess)
            return solvers.newton_fixed_point(sys3.limit_map, sys3.lift(eq.points[0]))

        centre = job("fig3.centre", centre3)
        if not isinstance(centre, Exception):
            c3 = centre[0]
            job("fig3.instability_check", lambda: aggregation.instability_check(sys3, TrapSpec(
                c3, 1e-3 * float(np.linalg.norm(c3)), period=2,
                sample_count=size.cycle_samples, k_values=FIG3_KS)))
        job("fig3.convergence_table", lambda: aggregation.convergence_table(
            sys3, self.fig3_samples, m=1, k_values=FIG2_KS))

        # fig10's verdicts are recorded, not asserted: its reduced
        # equilibrium has eigenvalue -0.9999, so the ball barely contracts
        sys10 = threestage.make_system(self.fig10, VARIANT_RESCALED)
        centre = job("fig10.centre", lambda: self._centre(sys10))
        if not isinstance(centre, Exception):
            c10 = centre[0]
            trap10 = TrapSpec(c10, aggregation.default_radius(c10), period=2,
                              sample_count=size.cycle_samples, k_values=FIG10_KS)
            job("fig10.trapping_check",
                lambda: aggregation.trapping_check(sys10, trap10))
            job("fig10.instability_check",
                lambda: aggregation.instability_check(sys10, trap10))
            job("fig10.attraction_check", lambda: aggregation.attraction_check(
                sys10, trap10, c10 * self.fig10_entry,
                horizon=size.attraction_horizon // 2))
        job("fig10.convergence_table", lambda: aggregation.convergence_table(
            sys10, self.fig10_samples, m=1, k_values=FIG10_TABLE_KS))

        def check():
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = cli.run_check()
            return {"exit_code": code, "lines": text.getvalue().splitlines()}

        job("cli.run_check", check)
        for name in self.jobs:
            results.setdefault(name, RuntimeError("centre unavailable"))
        return results

    @staticmethod
    def outputs(results: dict) -> dict[str, dict]:
        return {name: _error(value) if isinstance(value, Exception)
                else {"result": canonical(value)}
                for name, value in results.items()}


def build(workload: str, seed: int, size: str = "full"):
    """Params, configs and generated inputs of one workload."""
    if workload == BallWorkload.name:
        return BallWorkload(seed, size)
    if workload in SCENARIOS:
        return ScenarioWorkload(workload, seed, size)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# reference

def fingerprint(outputs: dict[str, dict]) -> dict[str, dict[str, str]]:
    """Per job and output, a short digest of its canonical JSON."""
    return {job: {field: hashlib.sha256(json.dumps(value, sort_keys=True).encode())
                  .hexdigest()[:16] for field, value in fields.items()}
            for job, fields in outputs.items()}


def load_reference(workload: str, seed: int, size: str) -> dict[str, dict]:
    """Recorded fingerprints per job for the input set ``seed`` selects."""
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)
    return table["fingerprints"][size][workload][str(seed % INPUT_SETS)]


def failed_jobs(prints: dict[str, dict], reference: dict[str, dict]) -> list[str]:
    """Jobs whose fingerprints differ from the reference, with the outputs
    that do."""
    failed = []
    for job in sorted(set(prints) | set(reference)):
        got, want = prints.get(job, {}), reference.get(job, {})
        if got != want:
            parts = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            failed.append(f"{job}: {', '.join(parts)}")
    return failed
