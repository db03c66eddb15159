"""Repository benchmark: run one workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3a-adaptive --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes, each timed from start until its first task could
start), then closed-loop sweeps through ``execute_sweep`` until ``--seconds``
would be exceeded, each followed by a cached re-run against a store holding
its records, which must return them unchanged.  ``--trace 1`` runs the sweep once untraced as the reference,
then at least twice through the traced replay (see ``tracing.py``) and
reports per-layer metrics.  Every sweep's records are checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the line before it records the environment
and the sha256 digest of the canonical records.

The benchmark reads and writes only inside the checkout: temporary stores
live under ``perfbench/out/`` and are removed on exit; the traced run
leaves its spans in ``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5

#: Traced sweeps at least, so exact counts can be compared between two.
MIN_TRACED_SWEEPS = 2

#: Share of traced wall time the named layer spans must account for.
MIN_ATTRIBUTED_PCT = 90.0

#: Environment variables that change what the program does or caches.
RECORDED_ENV = ("PERIGEE_INCREMENTAL_ENGINE", "PERIGEE_SSSP_CACHE_MB")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("fig3a-adaptive", "large-sparse", "sweep-drain"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs every code path at toy size (used by smoke.py)",
    )
    parser.add_argument("--setup-probe", metavar="WORK_DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        **{name: os.environ.get(name) for name in RECORDED_ENV},
    }


def measure_setup(args: argparse.Namespace, work_dir: Path) -> list[float]:
    """Start-to-ready time of fresh processes doing the run's set-up."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--setup-probe", str(work_dir),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def run_end_to_end(args, spec, work_dir: Path, state: dict) -> dict:
    import numpy as np

    import workloads as wl

    setup = measure_setup(args, work_dir)
    walls: list[float] = []
    gaps: list[float] = []
    digests = set()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        store = wl.open_store(args.workload, work_dir)
        records, wall, task_gaps = wl.run_sweep(spec, store)
        state["attempted"] += len(records)
        state["failed"] += sum(not record.ok for record in records)
        wl.check_records(args.workload, spec, records, args.scale)
        digests.add(wl.records_digest(records))
        resume_store = store if store is not None else wl.fill_store(records, work_dir)
        wl.cached_passes(spec, records, resume_store, passes=1)
        shutil.rmtree(resume_store.directory)
        walls.append(wall)
        gaps += task_gaps
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    if len(digests) != 1:
        raise wl.CheckFailed("repeated sweeps of one spec gave different records")
    state["digest"] = digests.pop()
    state["sweep_walls_s"] = walls
    wall = float(np.median(walls))
    return {
        "setup_s": float(np.median(setup)),
        "wall_s": wall,
        "tasks_per_s": spec.num_tasks / wall,
        "task_ms.p50": float(np.percentile(gaps, 50)),
        "task_ms.p90": float(np.percentile(gaps, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _check_replay(reference, traced) -> None:
    import workloads as wl

    for expected, got in zip(reference, traced, strict=True):
        label = f"{expected.task.protocol} repeat {expected.task.repeat}"
        if not got.ok:
            raise wl.CheckFailed(f"traced replay of {label} failed: {got.error}")
        if got.reach90 != expected.reach90 or got.reach50 != expected.reach50:
            raise wl.CheckFailed(f"traced replay of {label} differs from run_task")
    if wl.records_digest(reference) != wl.records_digest(traced):
        raise wl.CheckFailed("traced replay records differ from run_task's")


def _expected_checkpoint_writes(spec) -> int:
    from repro.protocols.registry import make_protocol

    every = spec.checkpoint_every
    if every <= 0:
        return 0
    per_task = sum(1 for k in range(1, spec.effective_rounds) if k % every == 0)
    return sum(
        per_task
        for task in spec.expand()
        if make_protocol(task.protocol).is_adaptive
    )


def run_traced(args, spec, work_dir: Path, state: dict) -> dict:
    import numpy as np

    import metrics
    import tracing
    import workloads as wl

    store = wl.open_store(args.workload, work_dir)
    reference, reference_wall, _ = wl.run_sweep(spec, store)
    state["attempted"] += len(reference)
    state["failed"] += sum(not record.ok for record in reference)
    wl.check_records(args.workload, spec, reference, args.scale)
    state["digest"] = wl.records_digest(reference)
    if store is not None:
        shutil.rmtree(store.directory)

    expected_writes = _expected_checkpoint_writes(spec)
    tracers: list[tracing.Tracer] = []
    summaries: list[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        tracer = tracing.Tracer()
        counts: Counter = Counter()
        store = wl.open_store(args.workload, work_dir)
        if store is not None:
            tracing.trace_store_loads(store, tracer)
        # The replay writes checkpoints itself: execute_sweep binds the store
        # as checkpoint root only for the stock run_task.
        run = functools.partial(
            tracing.replay_task,
            tracer=tracer,
            counts=counts,
            checkpoint_store=None if store is None else store.directory,
        )
        with tracer.span(tracing.SWEEP_SPAN):
            records, _, _ = wl.run_sweep(spec, store, run=run)
        traced_wall = sum(tracer.durations(tracing.SWEEP_SPAN))
        state["attempted"] += len(records)
        state["failed"] += sum(not record.ok for record in records)
        _check_replay(reference, records)
        if counts["checkpoint_writes"] != expected_writes:
            raise wl.CheckFailed(
                f"{counts['checkpoint_writes']} checkpoint writes, "
                f"expected {expected_writes}"
            )
        resume_store = store if store is not None else wl.fill_store(records, work_dir)
        if store is None:
            tracing.trace_store_loads(resume_store, tracer)
        with tracer.span("runtime.resume"):
            resumes = wl.cached_passes(
                spec, records, resume_store, passes=wl.RESUME_PASSES
            )
        summary = tracing.layer_metrics(
            tracer, counts, wl.PROTOCOLS, wl.PERIGEE_VARIANTS
        )
        summary["runtime.resume_s"] = float(np.median(resumes))
        summary["runtime.store.bytes"] = wl.store_bytes(resume_store)
        summary["trace.overhead_pct"] = (
            100.0 * (traced_wall - reference_wall) / reference_wall
        )
        shutil.rmtree(resume_store.directory)
        tracers.append(tracer)
        summaries.append(summary)
        now = time.perf_counter()
        if len(summaries) >= MIN_TRACED_SWEEPS and (
            now - start + (now - began) > args.seconds
        ):
            break

    tracing.write_spans(
        OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", tracers
    )
    state["sweep_walls_s"] = [sum(t.durations(tracing.SWEEP_SPAN)) for t in tracers]
    values = {}
    for name, _, _ in metrics.PER_LAYER:
        if name.startswith("fidelity."):
            continue
        samples = [summary[name] for summary in summaries]
        if name in metrics.EXACT_COUNTS and len(set(samples)) != 1:
            raise wl.CheckFailed(f"{name} differs between traced sweeps: {samples}")
        values[name] = float(np.median(samples))
    values["fidelity.subset_gain_pct"] = wl.gain_pct(reference, "perigee-subset")
    values["fidelity.ucb_gain_pct"] = wl.gain_pct(reference, "perigee-ucb")
    if 100.0 - values["trace.unattributed_pct"] < MIN_ATTRIBUTED_PCT:
        raise wl.CheckFailed(
            f"layer spans cover only {100 - values['trace.unattributed_pct']:.1f}% "
            "of traced wall time"
        )
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if os.environ.get("PERIGEE_FAULT_PLAN"):
        print(
            "perfbench: PERIGEE_FAULT_PLAN is set; refusing to measure a "
            "fault-injected program",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as wl

    spec = wl.make_spec(args.workload, args.seed, args.scale)
    if args.setup_probe:
        wl.prepare(args.workload, spec, Path(args.setup_probe))
        print("ready", flush=True)
        return 0

    import metrics

    OUT_DIR.mkdir(exist_ok=True)
    state = {"attempted": 0, "failed": 0, "digest": None, "sweep_walls_s": []}
    correct = True
    values: dict | None = None
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        try:
            if args.trace:
                values = run_traced(args, spec, Path(work), state)
            else:
                values = run_end_to_end(args, spec, Path(work), state)
        except wl.CheckFailed as failure:
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
            correct = False
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "scale": args.scale,
                "trace": args.trace,
                "sweep_walls_s": state["sweep_walls_s"],
                "digest": state["digest"],
                "environment": environment(),
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                # A run that fails before any task ran counts one failure.
                "attempted": max(1, state["attempted"]),
                "failed": state["failed"] if state["attempted"] else 1,
                "metrics": metrics.with_units(values, table) if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
