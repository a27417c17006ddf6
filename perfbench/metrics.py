"""The benchmark's metrics: names, units and which way is better.

``END_TO_END`` entries also carry the bound by which a metric may worsen, as
a share of the parent commit's median. ``BENCHMARK.json`` lists the same
metrics; the smoke check keeps the two in step.
"""

END_TO_END = (
    ("steps_per_s", "agent-steps/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

LAYERS = ("worldmodels", "inframeasure", "updates", "agents", "environments", "harness")

# Spans whose call counts and self times are reported.
TIMED = (
    "worldmodels.expectation", "worldmodels.restrict", "worldmodels.action_values",
    "worldmodels.return_fn", "worldmodels.predictive",
    "inframeasure.lower_expectation", "inframeasure.prune",
    "updates.update_infra", "updates.renormalize",
    "agents.select_policy", "agents.policy_value", "agents.ib_observe", "agents.bayes_select",
    "environments.step",
)

# Every per-layer metric, in report order, with its unit and direction.
PER_LAYER = (
    *((f"{name}.{kind}", unit, "lower") for name in TIMED for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("inframeasure.points_per_eval", "ratio", "lower"),
    ("inframeasure.prune.kept_ratio", "ratio", "lower"),
    ("updates.renormalize.failed", "count", "lower"),
    ("updates.span_min", "ratio", "higher"),
    ("updates.offset_max_log10", "log10", "lower"),
    ("updates.nonfinite_points", "count", "lower"),
    ("agents.rng_draws", "count", "lower"),
    ("harness.rollout.self_s", "s", "lower"),
    ("harness.emit_csv.self_s", "s", "lower"),
    ("harness.csv_bytes", "B", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    *((f"share.{layer}", "ratio", "lower") for layer in LAYERS),
    ("numeric_faults", "count", "lower"),
)
