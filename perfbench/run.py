"""ummlearn benchmark: one workload per run, end-to-end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-umm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before it
that start with ``#`` are for people. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so that every machine runs the
# program's small matrix products the same way and BLAS threads do not
# compete with the interpreter for the CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 9
IMPORT_TIMER = "import time, numpy; t = time.perf_counter(); import ummlearn.cli; print(time.perf_counter() - t)"
# Percentiles the tail is chosen from: the highest one with at least
# TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
OUT_DIR = ".perfbench-out"
WORK_DIR = ".perfbench-work"

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root: Path):
    """Import ummlearn from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "ummlearn" / "__init__.py").is_file():
        fail(f"no ummlearn sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import ummlearn
    import ummlearn.cli  # noqa: F401  (loads every traced module)

    if Path(ummlearn.__file__).resolve().parent != (src / "ummlearn").resolve():
        fail(f"imported ummlearn from {ummlearn.__file__}, not from {src}")
    return ummlearn


def blas_info() -> dict:
    """BLAS library name and its live thread count, where the library reports it."""
    import ctypes

    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": name, "threads": threads, "env_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def git_sha(root: Path) -> str:
    """HEAD of the checkout; 'unknown' outside a git checkout or without git."""
    # the ceiling keeps git from taking HEAD of a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(root),
        "machine": platform.machine(),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with TAIL_BEYOND samples beyond it.

    With too few samples for any percentile, the maximum (reported as 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-n * pct // 100))  # nearest-rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter takes to import the program, as every user run does.

    Interpreter start-up and numpy's own import come first and are not timed:
    they are not the program's, and they vary more than the program's import.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=root, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def setup_seconds(workload, root: Path) -> float:
    """One set-up: the program's import in a fresh interpreter, then the workload's set-up."""
    import_s = import_seconds(root)
    t0 = perf_counter()
    workload.setup()
    return import_s + perf_counter() - t0


def measure(workload, seconds: float, root: Path) -> tuple[list, list[float]]:
    """Repeat the workload's unit for ``seconds`` of unit time, at least once.

    The SETUP_REPEATS set-ups are spread among the units in proportion to
    the unit time done, the first one before the first unit. The machine's
    speed drifts over seconds to minutes; spread out like this, the set-ups
    meet the same drift as the units, and their median is as steady.
    """
    ops, setup_times, busy = [], [], 0.0
    while True:
        done = min(busy / seconds, 1.0) if seconds > 0 else 1.0
        due = max(1, math.ceil(SETUP_REPEATS * done))
        while len(setup_times) < due:
            setup_times.append(setup_seconds(workload, root))
        if ops and busy >= seconds:
            return ops, setup_times
        t0 = perf_counter()
        ops += workload.unit()
        busy += perf_counter() - t0


def end_to_end(runner, workload, seconds: float, root: Path) -> tuple[dict, dict]:
    ops, setup_times = measure(workload, seconds, root)
    runner.gradcheck()
    latencies = [op.seconds for op in ops]
    tail_pct, tail_value = tail(latencies)
    bcas = [op.bca for op in ops if op.ok]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(latencies),
        "wall_tail_s": tail_value,
        "rows_per_s": sum(op.rows for op in ops) / sum(latencies),
        "test_bca": statistics.fmean(bcas) if bcas else 0.0,
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "operations": len(ops),
        "wall_tail_percentile": tail_pct,
        "setup_s_samples": setup_times,
        "latencies_s": latencies,
        "failed_frac": runner.failed / runner.attempted,
    }
    return metrics, details


def combine(runner, per_unit: list[dict]) -> dict:
    """One value per metric over traced units: the median of a time, the count of a count.

    Counts are exact, so each must repeat in every unit; one that does not is a failed check.
    """
    combined = {}
    for key in per_unit[0]:
        values = [m[key] for m in per_unit]
        if not isinstance(values[0], int):
            combined[key] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            runner.note(f"count {key} did not repeat across traced units: {values}")
            runner.record(False)
        combined[key] = values[0]
    return combined


def traced(runner, workload, seconds: float, package) -> tuple[dict, dict]:
    """Alternate untraced and traced units; per-layer medians and trace overhead.

    At least two traced units run, whatever ``seconds`` is, so that counts
    are always compared across units.
    """
    workload.setup()
    tracer = Tracer()
    plain, wrapped, per_unit, per_unit_bases, summaries = [], [], [], [], []
    start = perf_counter()
    while len(per_unit) < 2 or perf_counter() - start < seconds:
        plain.append(sum(op.seconds for op in workload.unit()))
        tracer.install(package)
        try:
            wrapped.append(sum(op.seconds for op in workload.unit()))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        metrics, bases = layer_metrics(summary, tracer.epochs())
        per_unit.append(metrics)
        per_unit_bases.append(bases)
        summaries.append(summary)
        tracer.reset()
    runner.gradcheck()
    metrics = combine(runner, per_unit)
    metrics["trace.overhead_s"] = statistics.median(wrapped) - statistics.median(plain)
    details = {
        "traced_units": len(per_unit),
        "bases": combine(runner, per_unit_bases),
        "untraced_unit_s": plain,
        "traced_unit_s": wrapped,
        "trace": summaries[-1],
    }
    return metrics, details


def run_one(args, root: Path, tiny: bool = False) -> int:
    """Run one workload and print its result; ``tiny`` shrinks every input (tests only)."""
    package = import_program(root)
    work_parent = root / WORK_DIR
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        runner = workloads.Runner(work, args.seed, tiny)
        workload = workloads.WORKLOADS[args.workload](runner)
        if args.trace:
            metrics, details = traced(runner, workload, args.seconds, package)
        else:
            metrics, details = end_to_end(runner, workload, args.seconds, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and listed in BENCHMARK.json")
    env = environment(root)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "details": details,
        "errors": runner.errors,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    done = f"traced units={details['traced_units']}" if args.trace else f"operations={details['operations']}"
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {done} attempted={runner.attempted} failed={runner.failed}")
    if not args.trace:
        print(f"# wall_tail_s is p{details['wall_tail_percentile']:g} of {details['operations']} operations;"
              f" failed_frac={details['failed_frac']:g}")
    for key, value in metrics.items():
        print(f"# {key:42s} {value:>16.6g} {units[key]}")
    for key, value in details.get("bases", {}).items():
        print(f"# base {key:37s} {value:>16.6g} count")
    print(json.dumps(result))
    return 0


def run_all(args, root: Path) -> int:
    """Every workload in its own process, so each one's peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
