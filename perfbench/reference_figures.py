"""Reference figures for README.md; they are not benchmark workloads.

    python3 perfbench/reference_figures.py

Prints (1) the cost of one pseudo-Newton iteration on an 8-32-32-8 net,
the large end of the width sweep, and (2) the wall time of the five-config
XOR battery of criterion 5 (100 seeds from 12345) at --jobs 1 and 2.
Runs for about a minute on two cores.  Pins BLAS to one thread per
process, like the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from holonewt import training  # noqa: E402
from holonewt.network import Dataset, NetworkTopology  # noqa: E402
from holonewt.training import TrainConfig  # noqa: E402

BATTERY = {
    "taylor3/pseudo_newton": ("taylor3", "pseudo_newton", workloads.NEWTON_STEP),
    "taylor3/gradient_descent": ("taylor3", "gradient_descent", workloads.GD_STEP),
    "sigmoid/gradient_descent": ("sigmoid", "gradient_descent", workloads.GD_STEP),
    "sigmoid/newton": ("sigmoid", "newton", workloads.NEWTON_STEP),
    "sigmoid/pseudo_newton": ("sigmoid", "pseudo_newton", workloads.NEWTON_STEP),
}


def sweep_point(widths=(8, 32, 32, 8), samples=32, iterations=2):
    """Seconds per pseudo-Newton iteration on a teacher-labelled dataset."""
    rng = np.random.Generator(np.random.PCG64(workloads.WIDE_TEACHER_SEED))
    teacher = [
        workloads.WIDE_TEACHER_RANGE / 2 * workloads.unit_box(rng, (widths[p], widths[p - 1]))
        for p in range(1, len(widths))
    ]
    inputs = workloads.unit_box(rng, (samples, widths[0]))
    targets = checks.ref_forward(("taylor3",) * len(teacher), teacher, inputs)
    topology = NetworkTopology(widths, ("taylor3",) * len(teacher))
    config = TrainConfig(
        method="pseudo_newton", step=workloads.NEWTON_STEP, error_target=1e-12,
        max_iters=iterations, init_range=0.2,
    )
    started = time.perf_counter()
    _, (rec,) = training.run_trials(topology, Dataset(inputs, targets), config, 1, 0)
    return (time.perf_counter() - started) / rec.iterations, rec


def battery(jobs):
    started = time.perf_counter()
    for act, method, step in BATTERY.values():
        config = TrainConfig(method=method, step=step)
        training.run_trials(
            workloads.xor_topology(act), workloads.XOR, config, 100, workloads.BATTERY_SEED, jobs=jobs
        )
    return time.perf_counter() - started


def main():
    per_iter, rec = sweep_point()
    print(f"8-32-32-8 pseudo-Newton, 32 samples: {per_iter:.2f} s per iteration "
          f"({rec.iterations} iterations, outcome {rec.outcome})")
    for jobs in (1, 2):
        print(f"XOR battery, 5 configs x 100 seeds, --jobs {jobs}: {battery(jobs):.1f} s")


if __name__ == "__main__":
    main()
