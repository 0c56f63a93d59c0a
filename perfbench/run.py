"""Benchmark for holonewt: one workload per call, each in its own process.

    python3 perfbench/run.py --workload xor_gd --seed 1 --seconds 20 --trace 0

Workloads: xor_gd, xor_newton, wide_pseudo_newton, fd_verify (README.md
says why each exists).  With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a traced pass.  A result file with the raw
numbers and the build environment goes to perfbench/out/.

The workload process runs with BLAS and OpenMP pinned to one thread.
Set-up time is taken SETUP_SAMPLES times, in fresh processes, from
process start until the workload is warmed up, and reported as the
median; the timed passes follow in the last of those processes.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("xor_gd", "xor_newton", "wide_pseudo_newton", "fd_verify")
SETUP_SAMPLES = 5
# every run must end within 180 s; a worker that has not finished by
# then is killed and the run fails
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "us_per_iter": "us",
    "s_per_success": "s",
    "iters_per_success": "count",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def git_sha():
    git = shutil.which("git")
    if git is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(
        [git, "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def start_worker(args, workdir, setup_only):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise BenchError("worker set-up timed out")
        line = proc.stdout.readline()
        setup = time.perf_counter() - started
        if line.strip() != "READY":
            raise BenchError(f"worker did not get ready (said {line.strip()!r})")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, rest


def end_to_end(raw, setups):
    walls = [p["wall_s"] for p in raw["passes"]]
    wall = statistics.median(walls)
    first = raw["passes"][0]
    per = lambda x, n: x / n if n else 0.0  # noqa: E731
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": per(first["ops"], wall),
        "us_per_iter": per(wall * 1e6, first["iters"]),
        "s_per_success": per(wall, first["successes"]),
        "iters_per_success": per(first["success_iters"], first["successes"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "holonewt" / "__init__.py").is_file():
        print(f"perfbench: no holonewt sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, workdir, setup_only=True)[0])
        setup, rest = start_worker(args, workdir, setup_only=False)
        setups.append(setup)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = json.loads(rest.strip().splitlines()[-1])

    if args.trace:
        metrics = raw["trace"]["layers"]
    else:
        values = end_to_end(raw, setups)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    result = {
        "correct": raw["n_problems"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {v: "1" for v in THREAD_VARS},
        "setup_samples_s": setups,
        "result": result,
        "worker": raw,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(raw['passes'])} (result file perfbench/out/{name})")
    for label, counts in raw["outcomes"].items():
        print(f"  {label}: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"  operations: attempted={raw['attempted']} failed={raw['failed']}")
    for msg in raw["failures"] + raw["problems"]:
        print(f"  problem: {msg}")
    for absent in raw.get("trace", {}).get("absent", []):
        print(f"  absent: {absent}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
