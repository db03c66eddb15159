"""Per-layer tracing from outside the program.

The traced run does not instrument ``src/``.  Instead :func:`replay_task`
replays ``run_task``'s per-task sequence through the layers' public calls and
records a span around each call: the scenario's population and latency
builders, ``make_protocol``, ``DelayEvaluator.from_params``, the
``Simulator`` constructor (which builds the protocol's initial topology),
then per round ``mine_blocks``, ``propagate_blocks``,
``collect_observations``, the protocol's ``update`` and, at the task's
interval, ``write_checkpoint``, and finally ``DelayEvaluator.evaluate`` and
``PropagationEngine.cache_stats``.  The replay is handed to
``execute_sweep(run=...)``, so the executor, queue and store around it are
the program's own; its records must equal ``run_task``'s bit for bit.

Spans (name, start, end, parent, task key, tag) are kept in memory and
written out when the run ends.  A span's self time is its duration minus the
time its children cover; every span but the per-task glue
(``runtime.task``) is named after the layer it times, and the glue's self
time is reported as unattributed.
"""

from __future__ import annotations

import contextlib
import json
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core.simulator import Simulator
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.registry import make_protocol
from repro.runtime.checkpoint import (
    clear_task_checkpoints,
    task_checkpoint_dir,
    write_checkpoint,
)
from repro.runtime.scenarios import get_scenario
from repro.runtime.store import ResultStore
from repro.runtime.tasks import Task, TaskRecord

#: The per-task span whose self time is replay glue, not a layer's work.
GLUE_SPAN = "runtime.task"

#: Root span of a traced sweep; its self time is the runtime outside tasks
#: (executor loop, queue lease/retire, shard appends, store loads).
SWEEP_SPAN = "runtime.executor"

#: Spans that make up a simulated round.
ROUND_SPANS = (
    "core.mine",
    "core.propagate",
    "core.observe",
    "perigee.update",
    "runtime.checkpoint.write",
)

#: ``PropagationEngine.cache_stats()`` counters summed over tasks.
ENGINE_COUNTERS = ("graph_patches", "graph_misses", "sssp_repaired", "sssp_rebuilt")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag: str | None = None, key: str | None = None):
        parent = self._open[-1] if self._open else None
        if key is None and parent is not None:
            key = self.spans[parent]["key"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "key": key,
            "tag": tag,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        times = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                times[span["parent"]] -= span["end"] - span["start"]
        return times

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and (tag is None or span["tag"] == tag)
        ]


def trace_store_loads(store: ResultStore, tracer: Tracer) -> None:
    """Time every ``load`` the runtime makes on this store instance."""
    load = store.load

    def traced_load():
        with tracer.span("runtime.store.load"):
            return load()

    store.load = traced_load


def replay_task(
    task: Task,
    tracer: Tracer,
    counts: Counter,
    checkpoint_store: Path | None = None,
) -> TaskRecord:
    """``run_task``'s sequence through public calls, one span per layer call.

    ``checkpoint_store`` plays the part ``execute_sweep`` gives ``run_task``
    when a store is attached: snapshots are written under it at the task's
    interval and removed once the task succeeds.  ``counts`` accumulates
    exact work counts (edges observed, edges rewired, engine cache counters,
    evaluated sources, checkpoint writes).
    """
    start = time.perf_counter()
    key = task.content_hash()
    try:
        with tracer.span(GLUE_SPAN, tag=task.protocol, key=key):
            config = task.config
            params = task.scenario_params
            scenario = get_scenario(task.scenario)
            env_rng = np.random.default_rng(task.environment_seed())
            with tracer.span("datasets.population"):
                population = scenario.build_population(config, params, env_rng)
            with tracer.span("latency.build"):
                latency = scenario.build_latency(
                    config, population, params, env_rng
                )
            with tracer.span("protocols.make"):
                protocol = make_protocol(task.protocol)
            with tracer.span("evaluator.from_params"):
                evaluator = DelayEvaluator.from_params(task.evaluation_params)
            rng = np.random.default_rng(task.protocol_seed())
            with tracer.span("protocols.build_topology", tag=task.protocol):
                simulator = Simulator(
                    config=config,
                    protocol=protocol,
                    population=population,
                    latency=latency,
                    rng=rng,
                    delay_evaluator=evaluator,
                )
            network = simulator.network
            checkpoint_dir = None
            if (
                protocol.is_adaptive
                and checkpoint_store is not None
                and task.checkpoint_every > 0
            ):
                checkpoint_dir = task_checkpoint_dir(checkpoint_store, key)
            rounds = task.rounds if protocol.is_adaptive else 0
            observations = result = None
            for round_index in range(rounds):
                with tracer.span("core.mine"):
                    blocks = simulator.mine_blocks()
                with tracer.span("core.propagate"):
                    result = simulator.propagate_blocks(blocks)
                with tracer.span("core.observe"):
                    observations = simulator.collect_observations(blocks, result)
                counts["edges_observed"] += int(
                    observations.round_observations.senders.size
                )
                nodes = range(network.num_nodes)
                before = [network.outgoing_neighbors(v) for v in nodes]
                with tracer.span("perigee.update", tag=task.protocol):
                    protocol.update(simulator.context, network, observations, rng)
                counts["rewired_edges"] += sum(
                    len(before[v] - network.outgoing_neighbors(v))
                    for v in nodes
                )
                counts["node_rounds"] += network.num_nodes
                completed = round_index + 1
                if (
                    checkpoint_dir is not None
                    and completed % task.checkpoint_every == 0
                    and completed < task.rounds
                ):
                    # The replay bypasses run_round, which keeps this count.
                    state = simulator.state_dict()
                    state["rounds_completed"] = completed
                    with tracer.span("runtime.checkpoint.write"):
                        write_checkpoint(checkpoint_dir, state)
                    counts["checkpoint_writes"] += 1
            with tracer.span("evaluator.evaluate", tag=task.protocol):
                evaluation = evaluator.evaluate(
                    simulator.engine,
                    network,
                    population.hash_power,
                    target_fractions=(config.hash_power_target, 0.5),
                )
            with tracer.span("engine.cache_stats"):
                stats = simulator.engine.cache_stats()
            for name in ENGINE_COUNTERS:
                counts[name] += int(stats[name])
            counts["evaluated_sources"] += int(evaluation.num_sources)
            record = TaskRecord(
                key=key,
                task=task,
                status="ok",
                reach90=[float(x) for x in evaluation.reach(config.hash_power_target)],
                reach50=[float(x) for x in evaluation.reach(0.5)],
                evaluation=evaluation.to_metadata() if evaluation.sampled else None,
            )
            # Free the environment inside the task's span: its teardown is
            # task work, not runtime overhead.
            simulator = population = latency = observations = result = None
            protocol = evaluation = None
    except Exception as error:  # noqa: BLE001 - a failed record, as run_task
        return TaskRecord(
            key=key,
            task=task,
            status="failed",
            error=f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
            duration_s=time.perf_counter() - start,
        )
    if checkpoint_store is not None:
        with tracer.span("runtime.checkpoint.clear", key=key):
            clear_task_checkpoints(checkpoint_store, key)
    record.duration_s = time.perf_counter() - start
    return record


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    counts: Counter,
    protocols: tuple[str, ...],
    variants: tuple[str, ...],
) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (plus its cached passes).

    ``protocols`` and ``variants`` name every per-protocol metric to emit;
    those the sweep did not run read zero.
    """
    total = tracer.durations
    metrics: dict[str, float] = {
        "datasets.population_s": sum(total("datasets.population")),
        "latency.build_s": sum(total("latency.build")),
        "core.mine_s": sum(total("core.mine")),
        "core.propagate_s": sum(total("core.propagate")),
        "core.propagate_ms.p50": 1000.0 * _median(total("core.propagate")),
        "core.observe_s": sum(total("core.observe")),
        "core.edges_observed": counts["edges_observed"],
    }
    for protocol in protocols:
        metrics[f"protocols.build_topology_s.{protocol}"] = sum(
            total("protocols.build_topology", protocol)
        )
    for name in ENGINE_COUNTERS:
        metrics[f"engine.{name}"] = counts[name]
    sssp = counts["sssp_repaired"] + counts["sssp_rebuilt"]
    metrics["engine.repair_ratio"] = counts["sssp_repaired"] / sssp if sssp else 0.0

    for variant in variants:
        metrics[f"perigee.update_s.{variant}"] = sum(
            total("perigee.update", variant)
        )
    updates = total("perigee.update")
    metrics["perigee.update_ms.p50"] = 1000.0 * _median(updates)
    metrics["perigee.update_ms.p90"] = (
        1000.0 * float(np.percentile(updates, 90)) if updates else 0.0
    )
    round_time = sum(sum(total(name)) for name in ROUND_SPANS)
    metrics["perigee.update_share"] = sum(updates) / round_time if round_time else 0.0
    metrics["perigee.ucb_growth"] = _ucb_growth(tracer)
    node_rounds = counts["node_rounds"]
    metrics["perigee.rewired_per_node"] = (
        counts["rewired_edges"] / node_rounds if node_rounds else 0.0
    )

    for protocol in protocols:
        metrics[f"evaluator.evaluate_s.{protocol}"] = sum(
            total("evaluator.evaluate", protocol)
        )
    metrics["evaluator.sources"] = counts["evaluated_sources"]

    task_times = total(GLUE_SPAN)
    sweep_wall = sum(total(SWEEP_SPAN))
    metrics["runtime.run_task_s"] = sum(task_times)
    metrics["runtime.overhead_ms_per_task"] = (
        1000.0 * (sweep_wall - sum(task_times)) / len(task_times)
    )
    writes = total("runtime.checkpoint.write")
    metrics["runtime.checkpoint.write_ms.p50"] = 1000.0 * _median(writes)
    metrics["runtime.checkpoint.writes"] = counts["checkpoint_writes"]
    metrics["runtime.store.load_s"] = _median(_loads_under(tracer, "runtime.resume"))
    metrics["trace.unattributed_pct"] = 100.0 * _unattributed_s(tracer) / sweep_wall
    return metrics


def _loads_under(tracer: Tracer, root: str) -> list[float]:
    roots = {i for i, span in enumerate(tracer.spans) if span["name"] == root}
    return [
        span["end"] - span["start"]
        for span in tracer.spans
        if span["name"] == "runtime.store.load" and span["parent"] in roots
    ]


def _unattributed_s(tracer: Tracer) -> float:
    """Traced-sweep time no layer span accounts for (the replay glue)."""
    self_times = tracer.self_times()
    return sum(
        self_times[index]
        for index, span in enumerate(tracer.spans)
        if span["name"] == GLUE_SPAN
    )


def _ucb_growth(tracer: Tracer) -> float:
    """Median over UCB tasks of last-round over first-round update time."""
    per_task: dict[str, list[float]] = {}
    for span in tracer.spans:
        if span["name"] == "perigee.update" and span["tag"] == "perigee-ucb":
            per_task.setdefault(span["key"], []).append(span["end"] - span["start"])
    ratios = [times[-1] / times[0] for times in per_task.values() if len(times) > 1]
    return _median(ratios)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every traced sweep's spans, times relative to its first span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    sweeps = []
    for tracer in tracers:
        origin = tracer.spans[0]["start"] if tracer.spans else 0.0
        sweeps.append(
            [
                {**span, "start": span["start"] - origin, "end": span["end"] - origin}
                for span in tracer.spans
            ]
        )
    path.write_text(json.dumps({"sweeps": sweeps}), encoding="utf-8")
