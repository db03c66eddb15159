"""Tiny-scale smoke of the benchmark: every workload, both modes.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs ``run.py --scale tiny`` for each workload untraced once and traced
twice on the same seed, and fails unless every run is correct, its last line
has exactly the result keys, it emits every metric ``BENCHMARK.json`` names
for its mode with the right unit (and no other), and the two traced runs
report identical exact counts.  It also checks that ``BENCHMARK.json`` and
``metrics.py`` list the same workloads and metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "tiny",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS or not result["correct"]:
        raise SystemExit(f"{workload} trace={trace}: bad result {result}")
    return result


def check_units(workload: str, trace: int, result: dict, table) -> None:
    expected = {entry["name"]: entry["unit"] for entry in table}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if emitted != expected:
        missing = sorted(set(expected) - set(emitted))
        extra = sorted(set(emitted) - set(expected))
        wrong = sorted(
            name for name in set(expected) & set(emitted)
            if expected[name] != emitted[name]
        )
        raise SystemExit(
            f"{workload} trace={trace}: missing {missing}, extra {extra}, "
            f"wrong units {wrong}"
        )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.py")
    if [tuple(e.values()) for e in spec["end_to_end"]] != list(metrics.END_TO_END):
        raise SystemExit("BENCHMARK.json end_to_end differs from metrics.py")
    if [tuple(e.values()) for e in spec["per_layer"]] != list(metrics.PER_LAYER):
        raise SystemExit("BENCHMARK.json per_layer differs from metrics.py")
    for workload in workloads.WORKLOADS:
        check_units(workload, 0, run(workload, 0), spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            check_units(workload, 1, result, spec["per_layer"])
        for name in metrics.EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                raise SystemExit(f"{workload}: {name} differs between runs: {a} != {b}")
        print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
