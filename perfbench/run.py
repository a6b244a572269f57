"""Run one benchmark workload against lopsim and print its metrics as JSON.

    python3 perfbench/run.py --workload cyclic_fringe --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It builds nothing: lopsim is imported
from ``src/``.  ``--seconds`` sets how many ops a run times, from each
workload's nominal op time, so that a seed always runs the same ops.
Times are scaled to a fixed host speed by an in-process probe (see
``hostspeed.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the machine and environment record and the raw wall
times.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate run with spans recorded around every
call into lopsim's public functions (spans are written to
``perfbench/out/``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

# The set-up clock starts before any heavy import.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import tracing  # noqa: E402

#: BLAS threads, pinned before numpy loads; set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402  (imports numpy, so after the pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Set-ups timed per run: this process and one fresh probe process.  One
#: cyclic_fringe set-up costs about 25 s (it builds the Fock tables), which
#: is what bounds the count.
SETUP_RUNS = 2
#: No further set-up probe starts once a run has used this many seconds,
#: so that a run ends well within 180 s.
PROBE_DEADLINE_S = 165.0
#: Fewest timed ops in a run, whatever ``--seconds`` asks for.
MIN_OPS = 3

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: set up once, print the set-up time and the reference values, exit",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    """Machine and environment record written into every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str | None:
    """Commit id when the checkout is itself a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over lopsim's source and data files: names the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lopsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def op_count(workload, seconds: float) -> int:
    """Timed ops in a run: ``seconds`` of ops at the workload's nominal op time.

    The count depends on the arguments only, never on the clock, so a
    seed runs the same ops, and fails the same ones, in every run.
    """
    return max(MIN_OPS, round(seconds / workload.op_seconds))


class Run:
    """Op bookkeeping of one benchmark process."""

    def __init__(self, speed: hostspeed.HostSpeed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, workload, inputs: dict, op_id: int) -> hostspeed.Interval:
        """Run and check one op; returns its timed interval."""
        self.attempted += 1
        span = nullcontext()
        if self.tracer is not None:
            self.tracer.op = op_id
            span = self.tracer.span("op")
        mark = self.speed.begin()
        try:
            with span:
                values = workload.run(inputs)
        except Exception:
            interval = self.speed.end(mark)
            traceback.print_exc()
            print(f"{workload.name} op {op_id}: raised", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return interval
        interval = self.speed.end(mark)
        self.check(workload, inputs, values, op_id)
        return interval

    def check(self, workload, inputs: dict, values: dict, op_id: int) -> None:
        failures = [c for c in workload.checks(inputs, values) if not c.passed]
        for check in failures:
            kind = "known defect" if check.known_defect else "FAILED"
            print(f"{workload.name} op {op_id}: {check.name} {kind}: {check.detail}", file=sys.stderr)
        self.failed += bool(failures)
        self.correct &= all(c.known_defect for c in failures)


def set_up(name: str, speed: hostspeed.HostSpeed, tracer=None):
    """Import lopsim, build the fixed inputs and run the warm-up (reference) op.

    Returns the workload, the reference inputs and values, and the set-up
    interval, timed from the script's first line.
    """
    mark = speed.begin(start=_T0)
    import workloads

    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[name]()
    workload.prepare()
    inputs = workload.inputs(workloads.REFERENCE_SEED, workloads.REFERENCE_INDEX)
    values = workload.run(inputs)
    return workload, inputs, values, speed.end(mark)


def probe_setup(name: str, budget_s: float) -> dict | None:
    """Time the set-up of a fresh process; None if it did not finish in time."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-probe"]
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:
        print(f"set-up probe exceeded {budget_s:.0f} s; dropped", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quality_values(run: Run, workload, reference: dict, tracer) -> dict:
    """Quality metrics, each from the reference op of the workload that owns it.

    Every run reports every quality metric, so the reference ops of the
    other workloads run here, after the timed window.  Their checks and
    failed ops belong to their own workload's runs.
    """
    import workloads

    if tracer is not None:
        tracer.op = tracing.QUALITY_OP
    by_owner = {workload.name: reference}
    for _, owner in workloads.QUALITY.values():
        if owner in by_owner:
            continue
        other = workloads.WORKLOADS[owner]()
        try:
            other.prepare()
            by_owner[owner] = other.run(
                other.inputs(workloads.REFERENCE_SEED, workloads.REFERENCE_INDEX)
            )
        except Exception:
            traceback.print_exc()
            run.correct = False
            by_owner[owner] = {}
    return {
        name: by_owner[owner].get(name, float("nan"))
        for name, (_, owner) in workloads.QUALITY.items()
    }


def probe_setups(
    run: Run, name: str, reference: dict, samples: list[float], walls: list[float]
) -> None:
    """Add the set-up times of fresh processes, checking their reference values.

    ``samples`` holds scaled set-up times and ``walls`` the wall times.
    """
    for _ in range(SETUP_RUNS - 1):
        used = time.perf_counter() - _T0
        budget = PROBE_DEADLINE_S - used
        if budget < 1.2 * max(walls):
            print(f"skipping further set-up probes after {used:.0f} s", file=sys.stderr)
            return
        try:
            probe = probe_setup(name, budget)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            run.correct = False
            return
        if probe is None:
            return
        samples.append(probe["setup_s"])
        walls.append(probe["setup_wall_s"])
        if probe["reference"] != reference:
            print("reference op differs between processes", file=sys.stderr)
            run.correct = False


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lopsim" / "__init__.py").is_file():
        print(f"error: no lopsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    speed = hostspeed.HostSpeed()
    speed.start()
    if args.setup_probe:
        _, _, reference, setup = set_up(args.workload, speed)
        speed.stop()
        print(json.dumps({
            "setup_s": setup.scaled, "setup_wall_s": setup.wall, "reference": reference,
        }))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    run = Run(speed, tracer)
    workload, ref_inputs, reference, setup = set_up(args.workload, speed, tracer)
    setup_samples = [setup.scaled]
    setup_walls = [setup.wall]
    # The warm-up op is not timed, but it counts as an op and is checked.
    run.attempted += 1
    run.check(workload, ref_inputs, reference, workloads.REFERENCE_INDEX)

    # Closed loop, one client: the next op starts when the previous one ends.
    timed_ids = list(range(1, op_count(workload, args.seconds) + 1))
    window_mark = speed.begin()
    ops = [run.op(workload, workload.inputs(args.seed, index), index) for index in timed_ids]
    window = speed.end(window_mark)
    speed.stop()
    times = [op.scaled for op in ops]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    quality = quality_values(run, workload, reference, tracer)
    if tracer is None:
        probe_setups(run, workload.name, reference, setup_samples, setup_walls)
        values = {
            "setup_s": median(setup_samples),
            "op_p50_s": median(times),
            "ops_per_s": len(times) / window.scaled,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
        for name, value in quality.items():
            metrics[name] = {"value": value, "unit": workloads.QUALITY[name][0]}
    else:
        tracer.uninstall()
        values = tracing.layer_metrics(tracer, timed_ids)
        values["failed_frac"] = run.failed / run.attempted
        values["trace.op_p50_s"] = median(times)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.layer_units()}

    env = environment()
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans = [vars(s) for s in tracer.spans]
        path.write_text(json.dumps({"env": env, "timed_ops": timed_ids, "spans": spans}))
    print(json.dumps({
        "env": env,
        "workload": workload.name,
        "seed": args.seed,
        "setup_samples_s": setup_samples,
        "setup_wall_s": setup_walls,
        "op_times_s": times,
        "op_wall_s": [op.wall for op in ops],
        "op_probe_samples": [op.samples for op in ops],
        "window_s": window.scaled,
        "window_wall_s": window.wall,
    }))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
