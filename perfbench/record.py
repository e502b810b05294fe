"""Record the benchmark's reference outputs and workload properties.

    python3 perfbench/record.py

Runs one pass of every workload for every input set at both sizes and
writes a fingerprint of each job's outputs to ``reference.json``, with the
full-size outputs of input set 0 in readable form; a second pass of input
set 0 must reproduce the first.  Then iterates the public maps of every
trajectory series outside any timed pass and writes to ``properties.json``
its first bitwise repeat step, its period and the share of its horizon steps
that follow the repeat, plus the sample counts of ball_checks.  Run it from
the root of a checkout at the commit whose outputs become the reference.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import pinned_env  # noqa: E402

os.environ.update(pinned_env())  # the workload processes' pins, before numpy loads

import numpy as np  # noqa: E402

from twoscalepop import metapop, threestage  # noqa: E402

import workloads  # noqa: E402
from metrics import WORKLOADS  # noqa: E402
from worker import OUT_DIR, environment  # noqa: E402


def record_outputs(tmp_dir: Path) -> tuple[dict, dict]:
    """Fingerprints of every size, workload and input set, and the outputs
    of full-size set 0 in readable form."""
    prints: dict = {}
    readable: dict = {}
    for size in workloads.SIZES:
        for name in WORKLOADS:
            sets = prints.setdefault(size, {}).setdefault(name, {})
            for index in range(workloads.INPUT_SETS):
                workload = workloads.build(name, index, size)
                out = tmp_dir / f"{size}-{name}-{index}"
                outputs = workload.outputs(workload.run_pass(out))
                errors = [job for job, fields in outputs.items() if "error" in fields]
                if errors:
                    raise SystemExit(f"{size} {name} set {index}: jobs raised: {errors}")
                if index == 0:
                    again = workload.outputs(workload.run_pass(out.with_name(out.name + "b")))
                    if again != outputs:
                        raise SystemExit(f"{size} {name}: a second pass differs")
                    if size == "full":
                        readable[name] = outputs
                sets[str(index)] = workloads.fingerprint(outputs)
                print(f"recorded {size} {name} set {index}", flush=True)
    return prints, readable


def first_repeat(step, x0, horizon: int):
    """(t, period) of the first state equal bit for bit to an earlier one."""
    x = np.asarray(x0, dtype=float)
    seen = {x.tobytes(): 0}
    for t in range(1, horizon + 1):
        x = np.asarray(step(x), dtype=float)
        key = x.tobytes()
        if key in seen:
            return t, t - seen[key]
        seen[key] = t
    return None, None


def series_properties(name: str) -> list[dict]:
    rows = []
    for scenario, configs in workloads.build(name, 0).prepared:
        for cfg in configs:
            system = threestage.make_system(cfg.params, cfg.variant)
            x0 = cfg.initial_state
            series = {"reduced": (threestage.reduced_map(cfg.params, cfg.variant),
                                  metapop.aggregate(x0, cfg.patches))}
            series.update({f"k={k}": (system.complete(k), x0) for k in cfg.k_list})
            if scenario.include_local:
                series.update({f"local{p + 1}": (threestage.local_map(cfg.params, p), x0[p::2])
                               for p in (0, 1)})
            for label, (step, start) in series.items():
                t, period = first_repeat(step, start, cfg.horizon)
                rows.append({
                    "scenario": scenario.name, "variant": cfg.variant, "series": label,
                    "horizon": cfg.horizon, "first_repeat_step": t, "period": period,
                    "share_after_repeat": 0.0 if t is None else (cfg.horizon - t) / cfg.horizon,
                })
                print(f"{name} {rows[-1]}", flush=True)
    return rows


def ball_properties() -> dict:
    size = workloads.BALL_SIZES["full"]
    return {
        "sizes": dataclasses.asdict(size),
        "fig2.trapping_check": {"samples": size.trap_samples, "period": 50,
                                "k_values": workloads.FIG2_TRAP_KS},
        "fig2.attraction_check": {"starts": 1, "horizon": size.attraction_horizon,
                                  "k_values": workloads.FIG2_KS},
        "fig3.instability_check": {"directions": size.cycle_samples, "period": 2,
                                   "k_values": workloads.FIG3_KS},
        "fig10.trapping_check": {"samples": size.cycle_samples, "period": 2,
                                 "k_values": workloads.FIG10_KS},
        "fig10.instability_check": {"directions": size.cycle_samples, "period": 2,
                                    "k_values": workloads.FIG10_KS},
        "fig10.attraction_check": {"starts": 1, "horizon": size.attraction_horizon // 2,
                                   "k_values": workloads.FIG10_KS},
        "convergence_table": {"samples_per_system": size.convergence_samples,
                              "systems": ["fig2", "fig3", "fig10"]},
    }


def main() -> int:
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT_DIR))
    try:
        prints, readable = record_outputs(tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(
        {"recorded_with": env, "input_sets": workloads.INPUT_SETS,
         "fingerprints": prints, "full_size_set_0": readable},
        indent=1, sort_keys=True) + "\n")
    properties = {
        "recorded_with": env,
        "repeating_orbits": series_properties("repeating_orbits"),
        "drifting_orbits": series_properties("drifting_orbits"),
        "ball_checks": ball_properties(),
    }
    (HERE / "properties.json").write_text(json.dumps(properties, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
