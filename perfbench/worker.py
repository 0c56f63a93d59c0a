"""One workload in its own process; started by run.py, not by hand.

Sets the workload up, warms it up and prints READY, so that the parent
can time set-up from process start.  Then it runs whole passes until
--seconds have elapsed, checks every output, and prints one JSON line
with the raw pass times, counts, problems and (with --trace 1) the
per-layer spans.  With --trace 1 untraced and traced passes alternate,
so that the tracing overhead is measured in the same process.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 20
# the self times under one root span telescope to the root's duration;
# anything beyond rounding means a span was lost or double counted
ROOT_MISMATCH_TOL = 1e-9


def run_pass(workload, ops, tracer=None):
    run = workload.run if tracer is None else tracer.op(workload.run)
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            results.append(run(op))
        except Exception as exc:  # an operation that raises has failed
            results.append(exc)
    return time.perf_counter() - start, results


def units_of_work(workload, result):
    """(iterations, success) of one operation's result.

    An iteration is a training sweep; for verify it is one checked layer
    and a success is a report within tolerance.
    """
    if workload.kind == "training":
        return result.iterations, result.outcome == "success"
    return len(result.report.get("layers", [])), result.exit_code == 0


def layer_metrics(tracer, iters, ops):
    def per(x, n, scale=1.0):
        return scale * x / n if n else 0.0

    L = tracer.layer
    fwd, err, act = L("network.forward"), L("network.error"), L("activations")
    solve, rh = L("linalg.solve"), L("fdcheck.real_hessian")
    us = 1e6
    return {
        "training.self_us_per_iter": (per(L("training").self_s, iters, us), "us"),
        "network.forward.us_per_call": (per(fwd.self_s, fwd.calls, us), "us"),
        "network.forward.calls_per_iter": (per(fwd.calls, iters), "count"),
        "network.error.us_per_call": (per(err.self_s, err.calls, us), "us"),
        "activations.calls_per_iter": (per(act.calls, iters), "count"),
        "activations.us_per_call": (per(act.self_s, act.calls, us), "us"),
        "gradient.us_per_iter": (per(L("gradient").self_s, iters, us), "us"),
        "newton.tables.us_per_iter": (per(L("newton.tables").self_s, iters, us), "us"),
        "newton.assemble.us_per_iter": (per(L("newton.assemble").self_s, iters, us), "us"),
        "newton.assemble.mb_per_iter": (per(L("newton.assemble").measure, iters, 1e-6), "MB"),
        "newton.update.us_per_iter": (per(L("newton.update").self_s, iters, us), "us"),
        "linalg.solve.calls_per_iter": (per(solve.calls, iters), "count"),
        "linalg.solve.us_per_call": (per(solve.self_s, solve.calls, us), "us"),
        "linalg.solve.mean_dim": (per(solve.measure, solve.calls), "count"),
        "steplength.one_step_mu.us_per_iter": (per(L("steplength.one_step_mu").self_s, iters, us), "us"),
        "steplength.apply_update.us_per_iter": (per(L("steplength.apply_update").self_s, iters, us), "us"),
        "fdcheck.real_hessian.calls_per_op": (per(rh.calls, ops), "count"),
        "fdcheck.real_hessian.s_per_op": (per(rh.self_s, ops), "s"),
        "fdcheck.cogradient.s_per_op": (per(L("fdcheck.cogradient").self_s, ops), "s"),
        "newton.analytic.ms_per_op": (per(L("newton.analytic").self_s, ops, 1e3), "ms"),
        "cli.self_ms_per_op": (per(L("cli").self_s, ops, 1e3), "ms"),
    }


def environment():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.seed, args.workdir)
    try:
        problems = workload.setup_problems()
        ops = workload.operations(args.seed)
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if args.trace else None
        passes = []
        first_keys = None
        failures = []
        attempted = failed = 0
        started = time.perf_counter()
        # whole passes only, and none that would end after --seconds
        # (judged by the last pass), so a run never overruns its time
        while len(passes) < (2 if tracer else 1) or (
            time.perf_counter() - started + passes[-1]["wall_s"] <= args.seconds
        ):
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                wall, results = run_pass(workload, ops, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            good = []
            for op, r in zip(ops, results):
                attempted += 1
                bad = [f"raised {r!r}"] if isinstance(r, Exception) else workload.op_problems(r)
                if bad:
                    failed += 1
                    failures.extend(f"{op}: {b}" for b in bad)
                else:
                    good.append(r)
            problems.extend(workload.pass_problems(good))
            keys = sorted(r.key() for r in good)
            if first_keys is None:
                first_keys, first_good = keys, good
            elif keys != first_keys:
                problems.append(f"pass {len(passes)} gave other results than pass 0")
            work = [units_of_work(workload, r) for r in good]
            passes.append({
                "wall_s": wall,
                "traced": traced,
                "ops": len(ops),
                "iters": sum(i for i, _ in work),
                "successes": sum(1 for _, ok in work if ok),
                "success_iters": sum(i for i, ok in work if ok),
            })

        outcomes = {}
        for r in first_good:
            label = outcomes.setdefault(r.label, {})
            key = getattr(r, "outcome", "within_tolerance")
            label[key] = label.get(key, 0) + 1
        out = {
            "passes": passes,
            "attempted": attempted,
            "failed": failed,
            "outcomes": outcomes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if tracer:
            traced_passes = [p for p in passes if p["traced"]]
            iters = sum(p["iters"] for p in traced_passes)
            n_ops = sum(p["ops"] for p in traced_passes)
            if tracer.worst_root_mismatch > ROOT_MISMATCH_TOL:
                problems.append(
                    f"self times miss their root span by {tracer.worst_root_mismatch:.3g}"
                )
            traced_wall = sum(p["wall_s"] for p in traced_passes)
            out["trace"] = {
                "layers": layer_metrics(tracer, iters, n_ops),
                "absent": sorted(set(tracer.absent)),
                "spans": {k: vars(v) for k, v in sorted(tracer.stats.items()) if v.calls},
                "worst_root_mismatch": tracer.worst_root_mismatch,
                "op_share_of_traced_wall": tracer.root_s / traced_wall,
                "untraced_median_s": statistics.median(p["wall_s"] for p in passes if not p["traced"]),
                "traced_median_s": statistics.median(p["wall_s"] for p in traced_passes),
            }
        # failed operations are counted, not fatal; a problem with the
        # workload as a whole (a band, a teacher, a trace) makes it incorrect
        out["failures"] = failures[:MAX_PROBLEMS]
        out["problems"] = problems[:MAX_PROBLEMS]
        out["n_problems"] = len(problems)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
