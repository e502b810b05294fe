"""Command line front end: config files, scenario runs, result emission.

Run artifacts per scenario: one trajectory CSV for the reduced system
(columns t, y1, y2, y3), one for the complete system with all requested
time-scale ratios stacked (columns t, k, x1_1 .. x3_2, y1, y2, y3), and a
plain-text summary with scalar diagnostics, identified orbits, and
pass/fail verdicts.  Values are written with 12 significant digits.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import aggregation, analysis, metapop, scenarios, spectral, threestage
from .aggregation import (ConvergenceTable, _stepped, convergence_table, iterate_tail,
                          stepping_path)
from .analysis import OrbitReport
from .errors import (
    CollapsedToEquilibriumError,
    ConfigError,
    DomainExitError,
    IOFailureError,
    LeftDomainError,
    NonConvergenceError,
    TwoScalePopError,
)
from .metapop import VARIANT_RESCALED, VARIANT_SLOW, VARIANTS
from .scenarios import Scenario, ScenarioConfig
from .solvers import fd_jacobian
from .threestage import ReducedCoefficients, ThreeStageParams

EXIT_OK = 0
EXIT_VERDICT_FAILED = 1
EXIT_CONFIG = 2

COMPLETE_HEADER = ("t", "k", "x1_1", "x1_2", "x2_1", "x2_2", "x3_1", "x3_2",
                   "y1", "y2", "y3")
REDUCED_HEADER = ("t", "y1", "y2", "y3")

_PARAM_KEYS = ("s1_1", "s1_2", "s2_1", "s2_2", "s3_1", "s3_2",
               "phi_1", "phi_2", "c_1", "c_2", "d_1", "d_2")
# section -> its known keys; sections are checked for unknown keys in this order
_CONFIG_KEYS = {
    "model": ("variant",),
    "params": _PARAM_KEYS,
    "dispersal": ("v1_1", "v2_1", "v3_1", "mixing"),
    "run": ("k_list", "horizon", "tail", "seed"),
    "init": ("x",),
}


# ---------------------------------------------------------------------------
# config ingestion (TOML)

def parse_config_text(text: str, source: str = "config") -> dict:
    """Parse TOML config text into {section: {key: value}}."""
    # imported here: the package import is part of every run's startup, and
    # a module-level tomllib import would add ~4 ms to it
    import tomllib

    try:
        table = tomllib.loads(text)
    except tomllib.TOMLDecodeError as err:
        raise ConfigError(source, str(err)) from None
    for key, value in table.items():
        if not isinstance(value, dict):
            raise ConfigError(f"{source} ({key})", "key outside any [section]")
    return table


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, "expected a number")
    return float(value)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, "expected an integer")
    return value


def load_config(path) -> ScenarioConfig:
    """Read and validate one run config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise IOFailureError(path, f"cannot read config: {err}") from err
    table = parse_config_text(text, source=path.name)

    unknown = set(table) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError("config", f"unknown sections: {sorted(unknown)}")
    for section, known in _CONFIG_KEYS.items():
        extra = set(table.get(section, {})) - set(known)
        if extra:
            raise ConfigError(section, f"unknown keys: {sorted(extra)}")
    model, params_sec, dispersal, run, init = (table.get(section, {})
                                               for section in _CONFIG_KEYS)

    if "variant" not in model:
        raise ConfigError("model.variant", "required")
    variant = model["variant"]
    if not isinstance(variant, str):
        raise ConfigError("model.variant", "expected a string")

    missing = [k for k in _PARAM_KEYS if k not in params_sec]
    if missing:
        raise ConfigError("params", f"missing keys: {missing}")
    p = {k: _as_number(params_sec[k], f"params.{k}") for k in _PARAM_KEYS}
    for key in ("v1_1", "v2_1", "v3_1"):
        if key not in dispersal:
            raise ConfigError(f"dispersal.{key}", "required")
    fractions = tuple(_as_number(dispersal[k], f"dispersal.{k}")
                      for k in ("v1_1", "v2_1", "v3_1"))
    mixing = _as_number(dispersal.get("mixing", threestage.DEFAULT_MIXING),
                        "dispersal.mixing")
    try:
        params = ThreeStageParams.from_fractions(
            survivals=[[p["s1_1"], p["s1_2"]],
                       [p["s2_1"], p["s2_2"]],
                       [p["s3_1"], p["s3_2"]]],
            fertilities=(p["phi_1"], p["phi_2"]),
            crowding_c=(p["c_1"], p["c_2"]),
            crowding_d=(p["d_1"], p["d_2"]),
            fractions=fractions,
            mixing=mixing,
        )
    except ValueError as err:
        raise ConfigError("params", str(err)) from err

    k_list = run.get("k_list", list(scenarios.DEFAULT_K_LIST))
    if not isinstance(k_list, list):
        raise ConfigError("run.k_list", "expected an array of integers")
    k_list = tuple(_as_int(k, "run.k_list") for k in k_list)
    x = init.get("x", list(scenarios.DEFAULT_INITIAL_STATE))
    if not isinstance(x, list):
        raise ConfigError("init.x", "expected an array of numbers")
    x = [_as_number(v, "init.x") for v in x]

    return ScenarioConfig(
        name=path.stem,
        variant=variant,
        params=params,
        k_list=k_list,
        horizon=_as_int(run.get("horizon", scenarios.DEFAULT_HORIZON), "run.horizon"),
        tail=_as_int(run.get("tail", scenarios.DEFAULT_TAIL), "run.tail"),
        initial_state=x,
        seed=_as_int(run.get("seed", scenarios.DEFAULT_SEED), "run.seed"),
    )


# ---------------------------------------------------------------------------
# scenario execution

@dataclass(frozen=True)
class RunSummary:
    """Everything one config run produced, before any file is written."""

    config: ScenarioConfig
    tail_start: int
    reduced_tail: np.ndarray              # (tail, 3)
    complete_tails: dict[int, np.ndarray]  # k -> (tail, 6)
    local_tails: dict[int, np.ndarray]     # patch -> (tail, 3)
    orbit_reports: dict[str, Optional[OrbitReport]]
    orbit_notes: dict[str, str]
    scalars: dict[str, float]
    convergence: ConvergenceTable
    # series ("reduced", "k=<k>", "local_<patch>") -> the step at which an
    # exact repeat was caught and its period, None when the run computed
    # every step
    repeats: dict[str, Optional[tuple[int, int]]]
    # series -> "native" when the compiled loop stepped it, else
    # "python: <reason>" (see aggregation.stepping_path); not written out
    stepping: dict[str, str]


def _run_trajectory(step: Callable, x0, horizon: int,
                    keep: int) -> tuple[np.ndarray, Optional[tuple[int, int]], str]:
    """Last ``keep`` states of a ``horizon``-step run, its exact repeat and
    the path that stepped it.

    Returns ``(tail, repeat)`` as ``aggregation.iterate_tail`` does: the
    tail is bit-identical to the end of the full trajectory, and a run whose
    state repeats bit for bit stops computing where the repeat is caught,
    so its cost is set by the repeat step, not by the horizon.  Then
    ``aggregation.stepping_path`` of the run.
    """
    path = stepping_path(step)
    tail, repeat = iterate_tail(step, x0, horizon, keep)
    if not np.all(np.isfinite(tail[-1])):
        raise DomainExitError("trajectory left the admissible box",
                              step=horizon, state=tail[-1])
    return tail, repeat, path


def _cycle_seed(co: ReducedCoefficients):
    """First-order synchronous-cycle point, when the branch exists."""
    if co.a_minus <= 0.0 or co.r0 <= 1.0:
        return None
    eps = (1.0 - co.r0) * (1.0 - co.s2 * co.s3) / co.c_w  # c_w < 0, so eps > 0 here
    return np.array([0.0, eps * co.s1, 0.0])


def _same_isolated_patches(params: ThreeStageParams, x0) -> bool:
    """True when both isolated patches have the same rates and start, byte
    for byte, so that their runs and orbit searches coincide."""
    rates = [np.array(threestage.local_rates(params, patch)) for patch in (0, 1)]
    return (rates[0].tobytes() == rates[1].tobytes()
            and x0[0::2].tobytes() == x0[1::2].tobytes())


def detect_orbit(step: Callable, endpoint, cycle_seed=None):
    """Identify the orbit a run settled on; returns (report, note).

    A 2-cycle search that collapses onto an equilibrium is retried once
    from the analytic branch point; the retry is kept only when it lands
    on a stable cycle, i.e. an attractor the trajectory may still be
    drifting toward on a near-critical slow time scale.
    """
    try:
        return analysis.find_two_cycle(step, endpoint), ""
    except CollapsedToEquilibriumError as err:
        if cycle_seed is not None:
            try:
                retry = analysis.find_two_cycle(step, cycle_seed)
            except TwoScalePopError:
                retry = None
            if retry is not None and retry.classification == analysis.STABLE:
                return retry, "cycle located from the analytic branch point"
        return err.report, "two-cycle search collapsed onto an equilibrium"
    except (NonConvergenceError, LeftDomainError) as err:
        return None, f"orbit search failed: {err}"


def _scalar_table(params: ThreeStageParams, variant: str,
                  coefficients: dict[str, ReducedCoefficients],
                  local: list[ReducedCoefficients]) -> dict[str, float]:
    """The bifurcation scalars of the run ``variant``, read from the
    coefficients of both variants (``coefficients``) and of each isolated
    patch (``local``)."""
    co = coefficients[variant]
    comparison = analysis.compare_variants(params, coefficients)
    out = {
        "r0": co.r0,
        "c_within": co.c_w,
        "c_between": co.c_b,
        "a_plus": co.a_plus,
        "a_minus": co.a_minus,
        "r0_slow": comparison.r0_slow,
        "r0_rescaled": comparison.r0_rescaled,
    }
    for patch, patch_co in enumerate(local):
        out[f"r0_local_{patch + 1}"] = patch_co.r0
        out[f"a_minus_local_{patch + 1}"] = patch_co.a_minus
    if params.is_patch_homogeneous():
        out["synchrony_rescue_feasible"] = float(
            analysis.synchrony_feasibility_predicate(params))
    return out


def run_scenario(config: ScenarioConfig, include_local: bool = False) -> RunSummary:
    """Simulate the reduced and complete systems and identify their orbits.

    Each constant of the reduction is derived once per call and passed to
    every helper that reads it: one coefficient record per variant and
    one per isolated patch, each carrying its bifurcation scalars.
    Nothing is kept between calls.
    """
    params, variant = config.params, config.variant
    system = threestage.make_system(params, variant)
    coefficients = {other: threestage.reduced_coefficients(params, other) for other in VARIANTS}
    co = coefficients[variant]
    local = [threestage.local_coefficients(params, patch) for patch in (0, 1)]
    reduced_step = threestage.reduced_map(params, variant, co)
    x0 = config.initial_state
    y0 = metapop.aggregate(x0, threestage.PATCHES)
    tail = config.tail

    repeats: dict[str, Optional[tuple[int, int]]] = {}
    stepping: dict[str, str] = {}
    reduced_tail, repeats["reduced"], stepping["reduced"] = _run_trajectory(
        reduced_step, y0, config.horizon, tail)
    complete_tails = {}
    for k in config.k_list:
        complete_tails[k], repeats[f"k={k}"], stepping[f"k={k}"] = _run_trajectory(
            system.complete(k), x0, config.horizon, tail)

    orbit_reports: dict[str, Optional[OrbitReport]] = {}
    orbit_notes: dict[str, str] = {}
    report, note = detect_orbit(reduced_step, reduced_tail[-1], _cycle_seed(co))
    orbit_reports["reduced"] = report
    orbit_notes["reduced"] = note

    local_tails = {}
    if include_local:
        same = _same_isolated_patches(params, x0)
        for patch in (0,) if same else (0, 1):
            local_step = threestage.local_map(params, patch)
            (local_tails[patch], repeats[f"local_{patch + 1}"],
             stepping[f"local_{patch + 1}"]) = _run_trajectory(
                local_step, x0[patch::2], config.horizon, tail)
            report, note = detect_orbit(local_step, local_tails[patch][-1],
                                        _cycle_seed(local[patch]))
            orbit_reports[f"local_{patch + 1}"] = report
            orbit_notes[f"local_{patch + 1}"] = note
        if same:
            # patch 2 would repeat patch 1's run and orbit search bit for bit
            local_tails[1] = local_tails[0]
            for results in (repeats, stepping, orbit_reports, orbit_notes):
                results["local_2"] = results["local_1"]

    rng = np.random.default_rng(config.seed)
    high = max(0.1, 2.0 * float(np.max(x0)))
    samples = rng.uniform(0.0, high, size=(16, x0.size))
    convergence = convergence_table(system, samples, m=1, k_values=config.k_list)

    return RunSummary(
        config=config,
        tail_start=config.horizon - tail + 1,
        reduced_tail=reduced_tail,
        complete_tails=complete_tails,
        local_tails=local_tails,
        orbit_reports=orbit_reports,
        orbit_notes=orbit_notes,
        scalars=_scalar_table(params, variant, coefficients, local),
        convergence=convergence,
        repeats=repeats,
        stepping=stepping,
    )


# ---------------------------------------------------------------------------
# result files

def _fmt(value) -> str:
    return format(float(value), ".12g")


def _write_csv(path: Path, header, rows) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as err:
        raise IOFailureError(path, f"cannot write: {err}") from err


def _rows(t0: int, tail: np.ndarray, *labels: str) -> list[tuple]:
    """One CSV row per state of ``tail``: its step, ``labels``, its values."""
    return [(str(t0 + i), *labels, *map(_fmt, row)) for i, row in enumerate(tail.tolist())]


def write_outputs(summary: RunSummary, out_dir: Path, prefix: str = "") -> list[Path]:
    """Write the trajectory CSVs for one run; returns the written paths.

    Rows are formatted from plain floats (``tolist``), and each complete
    tail's stage totals are formed in one ``metapop.aggregate`` call.
    """
    t0 = summary.tail_start
    complete = []
    for k in summary.config.k_list:
        tail = summary.complete_tails[k]
        totals = metapop.aggregate(tail, threestage.PATCHES)
        complete += _rows(t0, np.hstack([tail, totals]), str(k))
    files = [("reduced", REDUCED_HEADER, _rows(t0, summary.reduced_tail)),
             ("complete", COMPLETE_HEADER, complete)]
    files += [(f"local{patch + 1}", REDUCED_HEADER, _rows(t0, tail))
              for patch, tail in sorted(summary.local_tails.items())]
    paths = [out_dir / f"{prefix}{name}.csv" for name, _, _ in files]
    for path, (_, header, rows) in zip(paths, files):
        _write_csv(path, header, rows)
    return paths


def _orbit_lines(summary: RunSummary) -> list[str]:
    lines = []
    for name in sorted(summary.orbit_reports):
        report = summary.orbit_reports[name]
        note = summary.orbit_notes.get(name, "")
        if report is None:
            lines.append(f"{name}: {note or 'no orbit identified'}")
            continue
        bits = [report.kind, report.classification,
                f"residual {report.residual:.3e}",
                f"rho {report.spectral_radius:.9f}"]
        if report.synchronous is True:
            bits.append("synchronous support")
        lines.append(f"{name}: " + ", ".join(bits))
        for point in report.points:
            lines.append(f"  point: ({', '.join(_fmt(v) for v in point)})")
    return lines


@dataclass(frozen=True)
class Verdict:
    label: str
    passed: bool
    detail: str


def render_summary(scenario: Scenario, summaries: list[RunSummary],
                   verdicts: list[Verdict], fast: bool) -> str:
    lines = [f"scenario: {scenario.name}",
             f"description: {scenario.description}",
             f"horizons: {'fast (scaled down 100x)' if fast else 'full'}"]
    for summary in summaries:
        cfg = summary.config
        lines.append("")
        lines.append(f"[run variant={cfg.variant}]")
        lines.append(f"horizon = {cfg.horizon}, tail = {cfg.tail} "
                     f"(t = {summary.tail_start} .. {cfg.horizon}), "
                     f"seed = {cfg.seed}, k_list = {list(cfg.k_list)}")
        lines.append("scalars:")
        for key, value in summary.scalars.items():
            lines.append(f"  {key} = {_fmt(value)}")
        lines.append("orbits:")
        lines.extend("  " + line for line in _orbit_lines(summary))
        lines.append("fast-limit sup-norm gaps (one slow step, "
                     f"{'skipped ' + str(len(summary.convergence.skipped)) + ' samples' if summary.convergence.skipped else 'no skips'}):")
        for k in cfg.k_list:
            lines.append(f"  k = {k}: {_fmt(summary.convergence.gaps[k])}")
    lines.append("")
    lines.append("verdicts:")
    if not verdicts:
        lines.append("  (none declared for user configs)")
    for verdict in verdicts:
        mark = "PASS" if verdict.passed else "FAIL"
        lines.append(f"  {verdict.label}: {mark} ({verdict.detail})")
    overall = all(v.passed for v in verdicts)
    lines.append(f"result: {'PASS' if overall else 'FAIL'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario verdicts

def _orbit_detail(report: Optional[OrbitReport], note: str) -> str:
    if report is None:
        return note or "no orbit identified"
    tags = [report.kind, report.classification,
            f"residual {report.residual:.3e}"]
    if report.synchronous is True:
        tags.append("synchronous")
    return ", ".join(tags)


def _is_synchronous_cycle(report: Optional[OrbitReport]) -> bool:
    return (report is not None
            and report.kind == analysis.KIND_TWO_CYCLE
            and report.residual < analysis.RESIDUAL_BOUND
            and report.synchronous is True)


def _is_positive_equilibrium(report: Optional[OrbitReport]) -> bool:
    return (report is not None
            and report.kind == analysis.KIND_EQUILIBRIUM
            and report.residual < analysis.RESIDUAL_BOUND
            and bool(np.all(np.asarray(report.points[0]) > 0.0)))


# what an orbit is expected to be: its phrase in a verdict and its test
_SYNCHRONOUS_CYCLE = ("a synchronous 2-cycle", _is_synchronous_cycle)
_POSITIVE_EQUILIBRIUM = ("a positive equilibrium", _is_positive_equilibrium)


def _coupling_verdicts(summaries: list[RunSummary], local: tuple[str, Callable],
                       coupled: tuple[str, Callable]) -> list[Verdict]:
    """Each isolated patch settles on ``local``, the coupled population on
    ``coupled``: the local-to-coupled switch of fig2 and fig3."""
    summary = summaries[0]
    out = []
    for series, who, (shape, check) in (("local_1", "isolated patch 1", local),
                                        ("local_2", "isolated patch 2", local),
                                        ("reduced", "coupled population", coupled)):
        report = summary.orbit_reports.get(series)
        out.append(Verdict(f"{who} settles on {shape}", check(report),
                           _orbit_detail(report, summary.orbit_notes.get(series, ""))))
    return out


def _tail_totals(tail: np.ndarray) -> np.ndarray:
    return tail.sum(axis=1)


def _verdicts_fig10(summaries: list[RunSummary]) -> list[Verdict]:
    summary = summaries[0]
    tail = summary.reduced_tail
    alternation = float(np.max(np.abs(tail[2:] - tail[:-2]))) if len(tail) > 2 else np.inf
    phase_gap = float(np.max(np.abs(tail[-1] - tail[-2]))) if len(tail) > 1 else np.inf
    is_cycle = alternation < analysis.RESIDUAL_BOUND and phase_gap > 1e-6
    detail = f"alternation residual {alternation:.3e}, phase gap {phase_gap:.3e}"
    if len(tail) < 3:
        detail += f"; a {len(tail)}-state tail is too short to show a 2-cycle"
    out = [Verdict("reduced tail alternates as a 2-cycle", is_cycle, detail)]

    reduced_totals = _tail_totals(summary.reduced_tail)
    scale = float(np.mean(reduced_totals))
    ks = sorted(summary.complete_tails)
    distances = {
        k: float(np.mean(np.abs(_tail_totals(summary.complete_tails[k])
                                - reduced_totals)))
        for k in ks
    }
    ordered = [distances[k] for k in ks]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    table = ", ".join(f"k={k}: {distances[k] / scale:.3%}" for k in ks)
    out.append(Verdict(
        "complete totals approach the reduced totals as k grows",
        decreasing, table))
    k_top = ks[-1]
    rel = distances[k_top] / scale
    out.append(Verdict(
        f"complete totals within 5% of the reduced run at k = {k_top}",
        rel < 0.05, f"relative mean tail distance {rel:.3%}"))
    return out


def _verdicts_sec42(summaries: list[RunSummary]) -> list[Verdict]:
    by_variant = {s.config.variant: s for s in summaries}
    slow = by_variant[VARIANT_SLOW]
    resc = by_variant[VARIANT_RESCALED]
    r0_slow = slow.scalars["r0"]
    r0_resc = resc.scalars["r0"]
    tilde_final = float(resc.reduced_tail[-1].sum())
    bar_final = float(slow.reduced_tail[-1].sum())
    return [
        Verdict("reproduction numbers straddle 1 (rescaled < 1 < slow)",
                r0_resc < 1.0 < r0_slow,
                f"rescaled {_fmt(r0_resc)}, slow {_fmt(r0_slow)}"),
        Verdict("rescaled run goes extinct (final total < 1e-6)",
                tilde_final < 1e-6, f"final total {tilde_final:.3e}"),
        Verdict("slow-survival run persists (final total > 1e-3)",
                bar_final > 1e-3, f"final total {bar_final:.3e}"),
    ]


_VERDICT_BUILDERS = {
    "fig2": lambda s: _coupling_verdicts(s, _SYNCHRONOUS_CYCLE, _POSITIVE_EQUILIBRIUM),
    "fig3": lambda s: _coupling_verdicts(s, _POSITIVE_EQUILIBRIUM, _SYNCHRONOUS_CYCLE),
    "fig10": _verdicts_fig10,
    "sec42_compare": _verdicts_sec42,
}


def build_verdicts(name: str, summaries: list[RunSummary]) -> list[Verdict]:
    builder = _VERDICT_BUILDERS.get(name)
    if builder is None:
        return []
    return builder(summaries)


# ---------------------------------------------------------------------------
# commands

def run_command(args) -> int:
    target = args.scenario
    path = Path(target)
    user_config = target.endswith(".toml") or path.is_file()
    if user_config:
        config = load_config(path)
        scenario = Scenario(name=config.name, description="user config file",
                            configs=(config,))
    else:
        scenario = scenarios.builtin(target)

    configs = [cfg.with_overrides(fast=args.fast, tail=args.tail, seed=args.seed)
               for cfg in scenario.configs]
    out_root = Path(args.out) if args.out else Path("out")
    out_dir = out_root / scenario.name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise IOFailureError(out_dir, f"cannot create: {err}") from err

    summaries = []
    written: list[Path] = []
    for cfg in configs:
        summary = run_scenario(cfg, include_local=scenario.include_local)
        prefix = f"{cfg.variant}_" if len(configs) > 1 else ""
        written.extend(write_outputs(summary, out_dir, prefix))
        summaries.append(summary)

    # a user config named like a built-in scenario is still a user config
    verdicts = [] if user_config else build_verdicts(scenario.name, summaries)
    text = render_summary(scenario, summaries, verdicts, fast=args.fast)
    summary_path = out_dir / "summary.txt"
    try:
        summary_path.write_text(text)
    except OSError as err:
        raise IOFailureError(summary_path, f"cannot write: {err}") from err
    written.append(summary_path)

    sys.stdout.write(text)
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VERDICT_FAILED


def list_command() -> int:
    for name, description in scenarios.describe():
        print(f"{name:<14} {description}")
    return EXIT_OK


def _check(results: list[Verdict], label: str, passed: bool, detail: str) -> None:
    results.append(Verdict(label, passed, detail))
    print(f"check {label}: {'PASS' if passed else 'FAIL'} ({detail})")


def run_check() -> int:
    """Fast property battery over the shipped scenario systems."""
    rng = np.random.default_rng(0)
    results: list[Verdict] = []

    instances = (
        ("slow", scenarios.fig2_params(), VARIANT_SLOW),
        ("rescaled", scenarios.fig10_params(), VARIANT_RESCALED),
    )
    built = {label: (threestage.make_system(params, variant),
                     threestage.reduced_map(params, variant))
             for label, params, variant in instances}
    for label, params, variant in instances:
        system, reduced_step = built[label]
        model = threestage.make_model(params)
        reduced_ref = aggregation.reduced_map(metapop.make_system(model, variant))
        states = rng.uniform(0.0, 0.1, size=(200, 6))

        left = system.projection(_stepped(system.limit_map, states, 1))
        right = _stepped(reduced_step, system.projection(states), 1)
        gap = float(np.max(np.abs(left - right)))
        _check(results, f"{label}: aggregation commutes with the limit map",
               gap <= 1e-10, f"max gap {gap:.3e}")

        # H^n(x) against T(Hbar^(n-1)(G x)) for n = 1, 2, 3, one step at a time
        gap = 0.0
        direct, y = states[:50], system.projection(states[:50])
        for n in (1, 2, 3):
            if n > 1:
                y = _stepped(reduced_step, y, 1)
            direct = _stepped(system.limit_map, direct, 1)
            lifted = np.array([system.lift(row) for row in y])
            gap = max(gap, float(np.max(np.abs(lifted - direct))))
        _check(results, f"{label}: lifted reduced iterates match limit iterates",
               gap <= 1e-8, f"max gap over n <= 3: {gap:.3e}")

        ys = rng.uniform(0.0, 0.2, size=(200, 3))
        left = _stepped(reduced_step, ys, 1)
        right = reduced_ref(ys)
        gap = float(np.max(np.abs(left - right)))
        _check(results, f"{label}: closed-form reduced step matches the "
                        "matrix pipeline", gap <= 1e-12, f"max gap {gap:.3e}")

        gap = float(np.max(metapop.factorization_gap(model, states[:50])))
        _check(results, f"{label}: demography factors through survival exactly",
               gap <= 1e-12, f"max gap {gap:.3e}")

    # spectral link at the coupled fixed point of the slow-survival instance
    system, reduced_step = built["slow"]
    y = iterate_tail(reduced_step, np.array([0.04, 0.1, 0.04]), 20_000)[0][-1]
    eq = analysis.find_equilibrium(reduced_step, y)
    y_star = eq.points[0]
    x_star = system.lift(y_star)
    rho_reduced = spectral.spectral_radius(fd_jacobian(reduced_step, y_star))
    rho_limit = spectral.spectral_radius(fd_jacobian(system.limit_map, x_star))
    link_gap = abs(rho_reduced - rho_limit)
    _check(results, "slow: reduced and limit spectral radii agree",
           link_gap <= 1e-4, f"|rho gap| {link_gap:.3e}")

    gaps = convergence_table(system, rng.uniform(0.0, 0.1, size=(12, 6)),
                             m=1, k_values=(1, 5, 10, 50, 100)).gaps
    ordered = [gaps[k] for k in (1, 5, 10, 50, 100)]
    # 1e-14 slack: the true gaps decay geometrically below machine epsilon,
    # so the measured tail is roundoff noise near 1e-16
    nonincreasing = all(a + 1e-14 >= b for a, b in zip(ordered, ordered[1:]))
    _check(results, "slow: fast-limit gaps shrink as k grows", nonincreasing,
           ", ".join(f"k={k}: {gaps[k]:.3e}" for k in (1, 5, 10, 50, 100)))

    matrices = []
    for _ in range(50):
        dim = int(rng.integers(2, 4))
        matrix = rng.random((dim, dim)) + 0.05
        matrix /= matrix.sum(axis=0, keepdims=True)
        matrices.append(matrix)
    worst = 0.0
    for dim in sorted({len(m) for m in matrices}):  # one stack per dimension
        stack = np.array([m for m in matrices if len(m) == dim])
        left = spectral.perron_vector(stack)
        values, vectors = np.linalg.eig(stack)
        lead = vectors[np.arange(len(stack)), :, np.argmax(values.real, axis=-1)].real
        lead /= lead.sum(axis=-1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(left - lead))))
    _check(results, "perron vectors match the dense eigensolver",
           worst <= 1e-8, f"max gap {worst:.3e}")

    # deterministic code can differ between two runs in one process only
    # through hidden state, so the other config runs in between to give
    # such state a chance to act
    probe, other = (c.with_overrides(fast=True)
                    for c in scenarios.builtin("sec42_compare").configs[::-1])
    first = run_scenario(probe)
    run_scenario(other)
    second = run_scenario(probe)
    # the verdict is byte equality: the probe's tails go extinct (~1e-72),
    # so any absolute tolerance would pass almost any difference
    pairs = [(first.reduced_tail, second.reduced_tail)]
    pairs += [(first.complete_tails[k], second.complete_tails[k]) for k in probe.k_list]
    pairs += [(np.float64(first.convergence.gaps[k]), np.float64(second.convergence.gaps[k]))
              for k in probe.k_list]
    repeat_gap = max(float(np.max(np.abs(a - b))) for a, b in pairs)
    _check(results, "same seed reproduces a run",
           all(a.tobytes() == b.tobytes() for a, b in pairs),
           f"max repeat gap {repeat_gap:.3e}")

    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERDICT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoscalepop",
        description="Two-time-scale stage-structured metapopulation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a built-in scenario or config file")
    run_p.add_argument("scenario",
                       help="built-in scenario name or path to a config file")
    run_p.add_argument("--fast", action="store_true",
                       help="divide the horizon by 100 (verdicts still checked)")
    run_p.add_argument("--tail", type=int, default=None,
                       help="override the number of trailing states emitted")
    run_p.add_argument("--out", default=None,
                       help="output root directory (default ./out)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the run seed")
    sub.add_parser("list", help="list built-in scenarios")
    sub.add_parser("check", help="run the quick property battery")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return list_command()
        if args.command == "check":
            return run_check()
        return run_command(args)
    except (ConfigError, IOFailureError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TwoScalePopError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return EXIT_VERDICT_FAILED


if __name__ == "__main__":
    sys.exit(main())
