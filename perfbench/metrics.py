"""Names, units and directions of every metric the benchmark emits.

``BENCHMARK.json`` at the repository root mirrors these tables (the smoke
check compares them).  End-to-end metrics carry the share of the parent's
median by which they may worsen before a change counts as a regression.
"""

from __future__ import annotations

from workloads import PERIGEE_VARIANTS, PROTOCOLS

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("task_ms.p50", "ms", "lower", 0.25),
    ("task_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better)
PER_LAYER = (
    ("datasets.population_s", "s", "lower"),
    ("latency.build_s", "s", "lower"),
    *(
        (f"protocols.build_topology_s.{protocol}", "s", "lower")
        for protocol in PROTOCOLS
    ),
    ("core.mine_s", "s", "lower"),
    ("core.propagate_s", "s", "lower"),
    ("core.propagate_ms.p50", "ms", "lower"),
    ("core.observe_s", "s", "lower"),
    ("core.edges_observed", "count", "lower"),
    ("engine.graph_patches", "count", "higher"),
    ("engine.graph_misses", "count", "lower"),
    ("engine.sssp_repaired", "count", "higher"),
    ("engine.sssp_rebuilt", "count", "lower"),
    ("engine.repair_ratio", "ratio", "higher"),
    *((f"perigee.update_s.{variant}", "s", "lower") for variant in PERIGEE_VARIANTS),
    ("perigee.update_ms.p50", "ms", "lower"),
    ("perigee.update_ms.p90", "ms", "lower"),
    ("perigee.update_share", "ratio", "lower"),
    ("perigee.ucb_growth", "ratio", "lower"),
    ("perigee.rewired_per_node", "edges/node", "lower"),
    *(
        (f"evaluator.evaluate_s.{protocol}", "s", "lower")
        for protocol in PROTOCOLS
    ),
    ("evaluator.sources", "count", "lower"),
    ("runtime.run_task_s", "s", "lower"),
    ("runtime.overhead_ms_per_task", "ms", "lower"),
    ("runtime.checkpoint.write_ms.p50", "ms", "lower"),
    ("runtime.checkpoint.writes", "count", "lower"),
    ("runtime.store.load_s", "s", "lower"),
    ("runtime.resume_s", "s", "lower"),
    ("runtime.store.bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    ("fidelity.subset_gain_pct", "%", "higher"),
    ("fidelity.ucb_gain_pct", "%", "higher"),
)

#: Per-layer metrics that are exact work counts: two traced sweeps of the
#: same seed must report identical values.
EXACT_COUNTS = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "edges/node")
) + ("engine.repair_ratio",)


def with_units(values: dict[str, float], table) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric of ``table``, in order."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, *_ in table
    }
