"""Training loop and trial runner.

`run_trials` runs a batch in this process unless it spans more than one
chunk of TRIAL_CHUNK trials and more than one job is asked for; only
then does it import the process pool, so a serial run never loads
`concurrent.futures.process` or `multiprocessing`.

One iteration sweeps the layers from the output backwards; each layer's
update uses the downstream weights as already updated in this sweep,
while the forward trace stays the one computed at the top of the
iteration.  Floating-point trouble is not masked: non-finite errors,
singular Newton systems and degenerate steplengths each terminate the
trial with a distinct outcome.

`train` sets the outcome where it stops, and the order of its checks is
the precedence.  After each forward pass it checks E:
  non_finite      E is NaN or infinite
  success         E fell below the error target
  blow_up         E exceeded the blow-up threshold
  local_minimum   the iteration budget ran out; `stalled` records whether
                  the last two errors differed by at most STALL_TOLERANCE
Otherwise it sweeps the layers, and the sweep can end the trial as:
  singular_matrix a Newton or pseudo-Newton solve hit a singular system
  non_finite      DegenerateStep: the update met a cogradient or curvature
                  quantity that was not finite, or a one-step steplength
                  denominator was not finite or (almost) zero
"""

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .gradient import cogradient_conj
from .linalg import SingularMatrix
from .network import error_from_trace, forward, init_weights
from .newton import (
    DegenerateStep,
    check_step_size,
    layer_step,
    newton_update,
    one_step_mu,
    pseudo_newton_update,
    table_buffers,
)
from .steplength import StepConfig, apply_update

__all__ = [
    "METHODS",
    "FAILURE_OUTCOMES",
    "TrainConfig",
    "TrialRecord",
    "TrialStats",
    "train",
    "run_trials",
    "summarize",
    "write_trials_csv",
    "write_stats_json",
    "format_summary",
]

METHODS = ("gradient_descent", "newton", "pseudo_newton")
FAILURE_OUTCOMES = ("local_minimum", "blow_up", "non_finite", "singular_matrix")

DEFAULT_MAX_ITERS = {"gradient_descent": 50000, "newton": 5000, "pseudo_newton": 5000}

# trials handed to a worker process at a time
TRIAL_CHUNK = 8

# a run that ends on its budget is `stalled` when its last two errors
# differ by at most this much
STALL_TOLERANCE = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    method: str = "gradient_descent"
    step: StepConfig = field(default_factory=StepConfig)
    error_target: float = 0.001
    max_iters: Optional[int] = None
    blowup_threshold: float = 1e10
    init_range: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method {self.method!r} not in {METHODS}")
        if self.method == "gradient_descent" and self.step.mode == "one_step_newton":
            raise ValueError("gradient descent needs a constant steplength")
        if not self.error_target > 0:
            raise ValueError("error target must be positive")
        if self.max_iters is not None and not (
            isinstance(self.max_iters, (int, np.integer))
            and not isinstance(self.max_iters, bool)
            and self.max_iters >= 1
        ):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        if not self.blowup_threshold > 0:
            raise ValueError("blow-up threshold must be positive")
        # the draws span (-r, r), whose width 2r must be finite too
        if not (self.init_range > 0 and np.isfinite(2 * self.init_range)):
            raise ValueError(f"init range must be positive with a finite 2r, got {self.init_range}")

    @property
    def iteration_budget(self):
        return self.max_iters if self.max_iters is not None else DEFAULT_MAX_ITERS[self.method]


@dataclass
class TrialRecord:
    seed: int
    outcome: str
    iterations: int
    final_error: float
    stalled: Optional[bool] = None
    error_history: Optional[list] = None
    final_weights: Optional[list] = None


@dataclass
class TrialStats:
    n_trials: int
    successes: int
    mean_iterations_over_successes: Optional[float]
    failure_counts: dict


def _sweep(topology, weights, trace, targets, config, buffers):
    # layer_step carries the deltas alone for gradient descent (no
    # buffers), and for the Newton-type methods the (delta, curvature,
    # cplus) triple, written into the trial's table buffers
    step = config.step
    update = newton_update if config.method == "newton" else pseudo_newton_update
    upper = None
    for p in range(topology.n_layers, 0, -1):
        upper = layer_step(topology, trace, targets, p, upper, weights, buffers)
        if buffers is None:
            apply_update(weights, p, -cogradient_conj(upper, trace, p), step.constant_mu)
            continue
        delta, curv, cplus = upper
        cograd = cogradient_conj(delta, trace, p)
        x = trace.values[p - 1]
        dw = update(curv, cplus, x, cograd)
        if step.mode == "one_step_newton":
            mu = one_step_mu(curv, cplus, x, cograd, dw)
        else:
            mu = step.constant_mu
        apply_update(weights, p, dw, mu, step.omega)


def train(topology, dataset, config, seed, keep_history=True):
    """Train from the seeded initialization until success, failure or budget.

    Raises ValueError, before any weight is drawn, when the dataset's
    widths are not the net's or a Newton-type step would build an array
    past newton.MAX_STEP_ENTRIES.
    """
    topology.check_dataset(dataset)
    # the Newton-type tables are overwritten in place on every iteration
    buffers = None
    if config.method != "gradient_descent":
        check_step_size(topology, dataset.inputs.shape[0])
        buffers = table_buffers(topology, dataset.inputs.shape[0])
    weights = init_weights(topology, seed, config.init_range)
    budget = config.iteration_budget
    history = []
    outcome = stalled = None
    iterations = 0
    with np.errstate(all="ignore"):
        while outcome is None:
            trace = forward(topology, weights, dataset.inputs)
            e = error_from_trace(trace, dataset.targets)
            history.append(e)
            if not math.isfinite(e):
                outcome = "non_finite"
            elif e < config.error_target:
                outcome = "success"
            elif e > config.blowup_threshold:
                outcome = "blow_up"
            elif iterations >= budget:
                outcome = "local_minimum"
                # the budget is at least 1, so there are two errors to compare
                stalled = abs(history[-1] - history[-2]) <= STALL_TOLERANCE
            else:
                try:
                    _sweep(topology, weights, trace, dataset.targets, config, buffers)
                except SingularMatrix:
                    outcome = "singular_matrix"
                except DegenerateStep:
                    outcome = "non_finite"
                else:
                    iterations += 1
    return TrialRecord(
        seed=seed,
        outcome=outcome,
        iterations=iterations,
        final_error=history[-1],
        stalled=stalled,
        error_history=history if keep_history else None,
        final_weights=weights,
    )


def run_trials(topology, dataset, config, n_trials, base_seed, jobs=1):
    """Run trials with seeds base_seed..base_seed+n-1, optionally in parallel.

    Trial k's result depends only on its seed and the configuration, and
    results are collected in seed order, so the output is identical for
    any job count.  Trials go to the workers in chunks of TRIAL_CHUNK, so
    at most one worker per chunk is started.  With jobs=1, or a batch of
    a single chunk, the trials run in this process and the process pool
    is not imported.  A job count that is not an integer of at least 1
    raises ValueError before any trial runs.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if not (isinstance(jobs, (int, np.integer)) and not isinstance(jobs, bool) and jobs >= 1):
        raise ValueError(f"jobs must be an integer of at least 1, got {jobs!r}")
    run = partial(train, topology, dataset, config, keep_history=False)
    seeds = range(base_seed, base_seed + n_trials)
    workers = min(jobs, -(-n_trials // TRIAL_CHUNK))
    if workers <= 1:
        records = [run(seed) for seed in seeds]
    else:
        # imported here so that a process running its trials serially
        # never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run, seeds, chunksize=TRIAL_CHUNK))
    return summarize(records), records


def summarize(records):
    successes = [r for r in records if r.outcome == "success"]
    counts = {name: 0 for name in FAILURE_OUTCOMES}
    for r in records:
        if r.outcome != "success":
            counts[r.outcome] += 1
    mean_iters = float(np.mean([r.iterations for r in successes])) if successes else None
    return TrialStats(
        n_trials=len(records),
        successes=len(successes),
        mean_iterations_over_successes=mean_iters,
        failure_counts=counts,
    )


def _activation_label(topology):
    names = list(dict.fromkeys(topology.activations))
    return names[0] if len(names) == 1 else "+".join(topology.activations)


def write_trials_csv(path, records, config, topology):
    """One row per trial; byte-stable for a fixed configuration and seeds."""
    label = _activation_label(topology)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["seed", "method", "activation", "outcome", "iterations", "final_error", "stalled"]
        )
        for r in records:
            stalled = ""
            if r.outcome == "local_minimum":
                stalled = "true" if r.stalled else "false"
            writer.writerow(
                [r.seed, config.method, label, r.outcome, r.iterations, repr(r.final_error), stalled]
            )


def write_stats_json(path, stats):
    with open(path, "w") as fh:
        json.dump(asdict(stats), fh, indent=1, sort_keys=True)
        fh.write("\n")


def format_summary(stats, config, topology):
    mean = stats.mean_iterations_over_successes
    mean_txt = "n/a" if mean is None else f"{mean:.1f}"
    fails = " ".join(f"{k}={stats.failure_counts[k]}" for k in FAILURE_OUTCOMES)
    return (
        f"method={config.method} activation={_activation_label(topology)} "
        f"trials={stats.n_trials}\n"
        f"successes={stats.successes} mean_iterations_over_successes={mean_txt}\n"
        f"failures: {fails}"
    )
