"""Names of the benchmark's workloads, and names and units of its metrics.

Kept free of imports so that run.py can report without loading numpy.
"""

WORKLOADS = ("repeating_orbits", "drifting_orbits", "ball_checks")

# (name, unit) of the end-to-end metrics, measured with tracing off
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.run_scenario.s", "s"),
    ("cli.write_outputs.s", "s"),
    ("cli.write_outputs.bytes", "bytes"),
    ("cli.trajectory.steps_computed", "count"),
    ("cli.trajectory.compute_ratio", "ratio"),
    ("analysis.find_two_cycle.calls", "count"),
    ("analysis.find_two_cycle.s", "s"),
    ("analysis.find_two_cycle.collapses", "count"),
    ("analysis.burn_in_steps", "count"),
    ("analysis.detect_orbit.seed_retries", "count"),
    ("analysis.find_equilibrium.s", "s"),
    ("solvers.newton_fixed_point.calls", "count"),
    ("solvers.newton_fixed_point.s", "s"),
    ("solvers.fd_jacobian.calls", "count"),
    ("aggregation.trapping_check.s", "s"),
    ("aggregation.instability_check.s", "s"),
    ("aggregation.attraction_check.s", "s"),
    ("aggregation.convergence_table.s", "s"),
    ("aggregation.samples", "count"),
    ("aggregation.map_calls", "count"),
    ("metapop.complete_map.calls", "count"),
    ("metapop.complete_map.self_s", "s"),
    ("metapop.limit_map.calls", "count"),
    ("metapop.limit_map.self_s", "s"),
    ("metapop.lift.calls", "count"),
    ("metapop.lift.self_s", "s"),
    ("threestage.demography_matrix.calls", "count"),
    ("threestage.demography_matrix.self_s", "s"),
    ("threestage.reduced_step.calls", "count"),
    ("threestage.reduced_step.self_s", "s"),
    ("threestage.local_step.calls", "count"),
    ("threestage.local_step.self_s", "s"),
    ("spectral.perron_vector.calls", "count"),
    ("spectral.is_primitive_stochastic.calls", "count"),
    ("spectral.rescaled_power_limit.calls", "count"),
    ("spectral.perron_calls_per_limit_call", "ratio"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# metrics measured outside a traced pass (by the setup probes and by
# comparing traced with untraced passes)
PROCESS_METRICS = ("setup.import_s", "setup.build_s", "trace.overhead_ratio")
