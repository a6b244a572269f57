"""Run every workload once and print its metrics by name, with units.

    python3 perfbench/report.py                  # end-to-end metrics
    python3 perfbench/report.py --trace          # plus per-layer metrics and tracing overhead
    python3 perfbench/report.py --seed 2 --workload qubit_apps

Each workload runs in its own ``perfbench/run.py`` process with the
settings in ``BENCHMARK.json``.  With ``--trace`` a second, traced process
follows; its per-layer metrics are printed with the tracing overhead, the
traced ``op_p50_s`` against the untraced one.  Exits 1 when any op failed a
check (known defects of the seed commit included) or a run reported
incorrect output, and 2 when a run did not complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run.py process: its result object and its check messages."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"{workload}: run.py exited with code {done.returncode}", file=sys.stderr)
        sys.exit(2)
    notes = [line for line in done.stderr.splitlines() if " op " in line]
    return json.loads(done.stdout.strip().splitlines()[-1]), notes


def show(rows: list[dict], metrics: dict) -> None:
    for row in rows:
        value = metrics[row["name"]]["value"]
        print(f"  {row['name']:44s} {value:14.6g} {row['unit']:10s} ({row['better']} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        result, notes = run(workload, args.seed, args.seconds, 0)
        print(
            f"== {workload} (seed {args.seed}): correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            f"failed_frac={result['failed'] / result['attempted']:.3f}"
        )
        for note in notes:
            print(f"  check: {note}")
        show(SPEC["end_to_end"], result["metrics"])
        if result["failed"] or not result["correct"]:
            status = 1
        if args.trace:
            traced, _ = run(workload, args.seed, args.seconds, 1)
            print("  -- per layer (traced run)")
            show(SPEC["per_layer"], traced["metrics"])
            untraced_p50 = result["metrics"]["op_p50_s"]["value"]
            traced_p50 = traced["metrics"]["trace.op_p50_s"]["value"]
            print(
                f"  tracing overhead: op_p50_s {traced_p50:.4g} s traced vs "
                f"{untraced_p50:.4g} s untraced ({traced_p50 / untraced_p50 - 1:+.1%})"
            )
            if traced["failed"] or not traced["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
