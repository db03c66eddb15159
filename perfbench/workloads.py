"""The three benchmark workloads and the checks on their outputs.

Every workload is a ``SweepSpec`` generated from the benchmark seed and
driven through the program's public entry point,
``repro.runtime.executor.execute_sweep``, by one closed-loop client that
starts the next sweep only after the previous one has returned.

* ``fig3a-adaptive`` -- the paper's Figure 3a grid at paper scale (N=1000,
  100 blocks per round, uniform hash power; 3 rounds, so that several sweeps
  fit in one run) with random peering and the
  three Perigee variants, on the serial executor with no store.  Stresses
  the Perigee update and the dense-latency propagation engine; bypasses the
  store, the queue and the sampled evaluator.
* ``large-sparse`` -- the ``large-network`` scenario at N=20000 on the
  on-demand (sparse) latency backend with 256 sampled evaluation sources,
  random and Perigee-Subset, serial, no store.  The only workload that
  exercises sparse latency gathers, the sampled evaluator and propagation at
  scale; it is also the memory workload.  Bypasses the store and the queue.
* ``sweep-drain`` -- sweeps of 100 tiny N=50 tasks, each drained through a
  fresh store-backed ``ClusterExecutor`` (one inline worker plus its heartbeat
  thread) with ``checkpoint_every=1``, then the same spec re-run against the
  same store so that every task is served from cache.  Stresses queue
  lease/retire, shard appends, checkpoint writes and ``ResultStore.load``;
  bypasses the Perigee hot loop, which is tiny at N=50.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.runtime.cluster.executor import ClusterExecutor
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.executor import SerialExecutor, execute_sweep
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, TaskRecord, canonical_json

WORKLOADS = ("fig3a-adaptive", "large-sparse", "sweep-drain")

#: Every protocol any workload runs; per-protocol layer metrics are emitted
#: for all of them (zero where a workload does not run the protocol).
PROTOCOLS = (
    "random",
    "geographic",
    "kademlia",
    "ideal",
    "perigee-vanilla",
    "perigee-subset",
    "perigee-ucb",
)
PERIGEE_VARIANTS = ("perigee-vanilla", "perigee-subset", "perigee-ucb")

FIG3A_PROTOCOLS = ("random", "perigee-vanilla", "perigee-subset", "perigee-ucb")
LARGE_PROTOCOLS = ("random", "perigee-subset")
DRAIN_PROTOCOLS = ("random", "geographic", "kademlia", "ideal", "perigee-subset")

#: Workload sizes.  ``tiny`` keeps every code path of ``full`` (the same
#: executors, store, checkpointing and sampled evaluation) at a size that
#: finishes in about a second; the smoke check uses it.
SCALES = {
    "full": {
        "fig3a-adaptive": {"num_nodes": 1000, "blocks": 100, "rounds": 3},
        "large-sparse": {
            "num_nodes": 20000, "blocks": 50, "rounds": 1, "samples": 256,
        },
        "sweep-drain": {
            "num_nodes": 50, "blocks": 10, "rounds": 2, "repeats": 20,
        },
    },
    "tiny": {
        "fig3a-adaptive": {"num_nodes": 60, "blocks": 10, "rounds": 2},
        "large-sparse": {
            "num_nodes": 300, "blocks": 10, "rounds": 1, "samples": 32,
        },
        "sweep-drain": {
            "num_nodes": 30, "blocks": 5, "rounds": 2, "repeats": 2,
        },
    },
}

#: Cached re-runs timed per traced sweep (``runtime.resume_s``).
RESUME_PASSES = 10


def make_spec(workload: str, seed: int, scale: str = "full") -> SweepSpec:
    """The workload's sweep for one benchmark seed."""
    size = SCALES[scale][workload]
    config = SimulationConfig(
        num_nodes=size["num_nodes"],
        blocks_per_round=size["blocks"],
        rounds=size["rounds"],
        hash_power_distribution="uniform",
        seed=seed,
    )
    if workload == "fig3a-adaptive":
        return SweepSpec(name=workload, config=config, protocols=FIG3A_PROTOCOLS)
    if workload == "large-sparse":
        return SweepSpec(
            name=workload,
            config=config,
            protocols=LARGE_PROTOCOLS,
            scenario="large-network",
            scenario_params={"latency_memory": "sparse"},
            evaluation={"mode": "sampled", "sample_size": size["samples"]},
        )
    if workload == "sweep-drain":
        return SweepSpec(
            name=workload,
            config=config,
            protocols=DRAIN_PROTOCOLS,
            repeats=size["repeats"],
            checkpoint_every=1,
        )
    raise ValueError(f"unknown workload {workload!r}")


def expected_reach_length(spec: SweepSpec) -> int:
    """Reach-array length of a correct record: N exact, the sample sampled."""
    if spec.evaluation.get("mode") == "sampled":
        return int(spec.evaluation["sample_size"])
    return spec.config.num_nodes


def new_store_dir(work_dir: Path) -> Path:
    return Path(tempfile.mkdtemp(prefix="store-", dir=work_dir))


def prepare(workload: str, spec: SweepSpec, work_dir: Path) -> None:
    """Everything a run does before its first task starts.

    Expands the spec and, for the drain, creates the store, the cluster
    executor and the queue.  Used by the set-up probe, which is timed from
    process start.
    """
    spec.expand()
    store = open_store(workload, work_dir)
    if store is not None:
        _executor(store)
        WorkQueue(store)


def _executor(store: ResultStore | None):
    return ClusterExecutor(store) if store is not None else SerialExecutor()


def open_store(workload: str, work_dir: Path) -> ResultStore | None:
    """A fresh store for the drain; the serial workloads measure without."""
    if workload != "sweep-drain":
        return None
    return ResultStore(new_store_dir(work_dir))


def run_sweep(
    spec: SweepSpec, store: ResultStore | None, run=None
) -> tuple[list[TaskRecord], float, list[float]]:
    """Execute one sweep; returns its records, wall time and task gaps (ms).

    A task gap is the time between two successive completions seen through
    the ``progress`` callback, the first counted from the sweep's start.
    Garbage left by earlier sweeps is collected before the clock starts.
    """
    stamps: list[float] = []

    def progress(done: int, total: int, record: TaskRecord) -> None:
        stamps.append(time.perf_counter())

    kwargs = {} if run is None else {"run": run}
    gc.collect()
    start = time.perf_counter()
    records = execute_sweep(
        spec, executor=_executor(store), store=store, progress=progress, **kwargs
    )
    wall = time.perf_counter() - start
    gaps = np.diff([start, *stamps]) * 1000.0
    return records, wall, [float(gap) for gap in gaps]


def fill_store(records: list[TaskRecord], work_dir: Path) -> ResultStore:
    """A fresh store holding ``records``, for the workloads measured without."""
    store = ResultStore(new_store_dir(work_dir))
    for record in records:
        store.append(record)
    return store


def cached_passes(
    spec: SweepSpec, records: list[TaskRecord], store: ResultStore, passes: int
) -> list[float]:
    """Time re-runs of ``spec`` served wholly from a store holding ``records``.

    Every pass must return the same records, marked cached.
    """
    expected = [record.to_dict() for record in records]
    times = []
    for _ in range(passes):
        # A pass takes milliseconds: without a collection first, whether a
        # full collection of earlier garbage lands inside it dominates.
        gc.collect()
        start = time.perf_counter()
        again = execute_sweep(spec, executor=_executor(store), store=store)
        times.append(time.perf_counter() - start)
        if not all(record.cached for record in again):
            raise CheckFailed("cached pass executed tasks instead of loading them")
        if [record.to_dict() for record in again] != expected:
            raise CheckFailed("cached pass returned records that differ")
    return times


class CheckFailed(Exception):
    """An output check failed: the program's results are not correct."""


def _record_payload(record: TaskRecord) -> dict:
    """Record content that must be reproducible: everything but timing."""
    payload = record.to_dict()
    del payload["duration_s"]
    return payload


def records_digest(records: list[TaskRecord]) -> str:
    """sha256 of the canonical records, ``duration_s`` excluded."""
    payload = canonical_json([_record_payload(record) for record in records])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _median_reach(record: TaskRecord) -> float:
    return float(np.median(record.reach90))


def check_records(
    workload: str, spec: SweepSpec, records: list[TaskRecord], scale: str
) -> None:
    """Raise :class:`CheckFailed` unless the sweep's outputs are correct.

    The Figure 3a ordering (Subset ahead of random) is a paper-scale claim,
    so it is checked at the full scale only; the drain's "no protocol beats
    the full mesh" holds at any size.
    """
    tasks = spec.expand()
    if [record.key for record in records] != [t.content_hash() for t in tasks]:
        raise CheckFailed("records do not match the spec's tasks")
    length = expected_reach_length(spec)
    for record in records:
        label = f"{record.task.protocol} repeat {record.task.repeat}"
        if not record.ok:
            raise CheckFailed(f"{label} failed: {record.error}")
        for name in ("reach90", "reach50"):
            values = getattr(record, name)
            if len(values) != length:
                raise CheckFailed(
                    f"{label} {name} has {len(values)} entries, expected {length}"
                )
            if not all(math.isfinite(value) for value in values):
                raise CheckFailed(f"{label} {name} has non-finite entries")
    if workload == "fig3a-adaptive" and scale == "full":
        medians = {r.task.protocol: _median_reach(r) for r in records}
        if not medians["perigee-subset"] < medians["random"]:
            raise CheckFailed(
                "perigee-subset does not beat random: "
                f"{medians['perigee-subset']:.3f} >= {medians['random']:.3f} ms"
            )
    if workload == "sweep-drain":
        for repeat in range(spec.repeats):
            medians = {
                r.task.protocol: _median_reach(r)
                for r in records
                if r.task.repeat == repeat
            }
            slower = [p for p, m in medians.items() if m < medians["ideal"]]
            if slower:
                raise CheckFailed(
                    f"repeat {repeat}: {slower} beat the ideal topology"
                )


def gain_pct(records: list[TaskRecord], protocol: str) -> float:
    """Improvement of ``protocol`` over random at the 90% hash-power target.

    Median reach time pooled over repeats; 0.0 when the sweep does not run
    ``protocol``.
    """
    pooled: dict[str, list[float]] = {}
    for record in records:
        pooled.setdefault(record.task.protocol, []).extend(record.reach90)
    if protocol not in pooled or "random" not in pooled:
        return 0.0
    base = float(np.median(pooled["random"]))
    return 100.0 * (base - float(np.median(pooled[protocol]))) / base


def store_bytes(store: ResultStore) -> int:
    """Bytes of result shards the store holds."""
    return sum(
        os.path.getsize(path)
        for path in store.directory.glob("results*.jsonl")
    )
