"""Training loop, trial runner and convergence-rate estimation.

One iteration sweeps the layers from the output backwards; each layer's
update uses the downstream weights as already updated in this sweep,
while the forward trace stays the one computed at the top of the
iteration.  Floating-point trouble is not masked: non-finite errors,
singular Newton systems and degenerate steplengths each terminate the
trial with a distinct outcome.

Outcomes, in classification precedence order:
  non_finite      E or an update became NaN/inf, or a one-step steplength
                  denominator was not finite or (almost) zero
  singular_matrix a Newton or pseudo-Newton solve hit a singular system
  success         E fell below the error target
  blow_up         E exceeded the blow-up threshold
  local_minimum   the iteration budget ran out; `stalled` records whether
                  the last two errors differed by at most the stall
                  tolerance
"""

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gradient import cogradient_conj
from .linalg import SingularMatrix
from .network import error_from_trace, forward, init_weights
from .newton import (
    layer_step,
    newton_update,
    node_blocks,
    one_step_denominator,
    pseudo_newton_update,
    sample_last,
)
from .steplength import DegenerateStep, StepConfig, apply_update, mu_from_denominator

__all__ = [
    "METHODS",
    "OUTCOMES",
    "FAILURE_OUTCOMES",
    "TrainConfig",
    "TrialRecord",
    "TrialStats",
    "train",
    "classify_outcome",
    "run_trials",
    "summarize",
    "r_factor_estimate",
    "write_trials_csv",
    "write_stats_json",
    "format_summary",
]

METHODS = ("gradient_descent", "newton", "pseudo_newton")
FAILURE_OUTCOMES = ("local_minimum", "blow_up", "non_finite", "singular_matrix")
OUTCOMES = ("success",) + FAILURE_OUTCOMES

DEFAULT_MAX_ITERS = {"gradient_descent": 50000, "newton": 5000, "pseudo_newton": 5000}

# trials handed to a worker process at a time
TRIAL_CHUNK = 8


class _NonFiniteSweep(Exception):
    """Internal: a cogradient or Hessian stopped being finite mid-sweep."""


@dataclass(frozen=True)
class TrainConfig:
    method: str = "gradient_descent"
    step: StepConfig = field(default_factory=StepConfig)
    error_target: float = 0.001
    max_iters: Optional[int] = None
    blowup_threshold: float = 1e10
    stall_tolerance: float = 1e-10
    init_range: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method {self.method!r} not in {METHODS}")
        if self.method == "gradient_descent" and self.step.mode == "one_step_newton":
            raise ValueError("gradient descent needs a constant steplength")
        if not self.error_target > 0:
            raise ValueError("error target must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("iteration budget must be at least 1")
        if not self.blowup_threshold > 0:
            raise ValueError("blow-up threshold must be positive")
        if self.stall_tolerance < 0:
            raise ValueError("stall tolerance must be non-negative")
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
    weight_history: Optional[list] = None
    final_weights: Optional[list] = None


@dataclass
class TrialStats:
    n_trials: int
    successes: int
    mean_iterations_over_successes: Optional[float]
    failure_counts: dict


def _flat_weights(weights):
    return np.concatenate([w.ravel() for w in weights])


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _sweep(topology, weights, trace, targets, config):
    # layer_step carries the deltas alone for gradient descent, and the
    # (delta, curvature, cplus) triple for the Newton-type methods
    step = config.step
    curvature = config.method != "gradient_descent"
    upper = None
    for p in range(topology.n_layers, 0, -1):
        w_next = weights[p] if upper is not None else None
        upper = layer_step(topology, trace, targets, p, upper, w_next, curvature)
        if not curvature:
            apply_update(weights, p, -cogradient_conj(upper, trace, p), step.constant_mu)
            continue
        delta, curv, cplus = upper
        cograd = cogradient_conj(delta, trace, p)
        # pseudo-Newton never reads the H_wbar_w stack, so it is not built
        xt, xct = sample_last(trace.values[p - 1])
        blocks = [node_blocks(curv, xct, xt)]
        if config.method == "newton":
            blocks.append(node_blocks(cplus, xct, xct))
        if not _finite(cograd, curv, cplus, *blocks):
            raise _NonFiniteSweep
        if config.method == "newton":
            dw = newton_update(*blocks, cograd)
        else:
            dw = pseudo_newton_update(*blocks, cograd)
        if step.mode == "one_step_newton":
            mu = mu_from_denominator(cograd, dw, one_step_denominator(curv, cplus, trace, p, dw))
        else:
            mu = step.constant_mu
        apply_update(weights, p, dw, mu, step.omega)


def train(topology, dataset, config, seed, keep_history=True, record_weights=False):
    """Train from the seeded initialization until success, failure or budget."""
    weights = init_weights(topology, seed, config.init_range)
    budget = config.iteration_budget
    history = []
    weight_history = [_flat_weights(weights)] if record_weights else None
    singular = False
    nonfinite = False
    iterations = 0
    with np.errstate(all="ignore"):
        while True:
            trace = forward(topology, weights, dataset.inputs)
            e = error_from_trace(trace, dataset.targets)
            history.append(e)
            if not np.isfinite(e):
                nonfinite = True
                break
            if e < config.error_target or e > config.blowup_threshold:
                break
            if iterations >= budget:
                break
            try:
                _sweep(topology, weights, trace, dataset.targets, config)
            except SingularMatrix:
                singular = True
                break
            except (DegenerateStep, _NonFiniteSweep):
                nonfinite = True
                break
            iterations += 1
            if record_weights:
                weight_history.append(_flat_weights(weights))
    outcome = classify_outcome(history, config, singular, nonfinite)
    stalled = None
    if outcome == "local_minimum":
        stalled = len(history) >= 2 and abs(history[-1] - history[-2]) <= config.stall_tolerance
    return TrialRecord(
        seed=seed,
        outcome=outcome,
        iterations=iterations,
        final_error=history[-1],
        stalled=stalled,
        error_history=history if keep_history else None,
        weight_history=weight_history,
        final_weights=weights,
    )


def classify_outcome(error_history, config, singular_flag=False, nonfinite_flag=False):
    """Map a finished trial onto the outcome taxonomy (see module docstring)."""
    last = error_history[-1]
    if nonfinite_flag or not np.isfinite(last):
        return "non_finite"
    if singular_flag:
        return "singular_matrix"
    if last < config.error_target:
        return "success"
    if last > config.blowup_threshold:
        return "blow_up"
    return "local_minimum"


def _trial_worker(args):
    topology, dataset, config, seed, record_weights = args
    return train(topology, dataset, config, seed, keep_history=False, record_weights=record_weights)


def run_trials(topology, dataset, config, n_trials, base_seed, jobs=1, record_weights=False):
    """Run trials with seeds base_seed..base_seed+n-1, optionally in parallel.

    Trial k's result depends only on its seed and the configuration, and
    results are collected in seed order, so the output is identical for
    any job count.  Trials go to the workers in chunks of TRIAL_CHUNK, so
    at most one worker per chunk is started, and a batch of a single
    chunk runs in this process.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    args = [(topology, dataset, config, base_seed + k, record_weights) for k in range(n_trials)]
    workers = min(jobs, -(-n_trials // TRIAL_CHUNK))
    if workers <= 1:
        records = [_trial_worker(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial_worker, args, chunksize=TRIAL_CHUNK))
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


def r_factor_estimate(weight_history):
    """Estimate the R-convergence factor of a weight iterate sequence.

    Takes the final iterate as the limit and returns the largest
    ||z(n) - z_hat||^(1/n) over the trailing half of the history (the
    final point itself excluded).  A value below 1 indicates at least
    R-linear convergence; an exhausted history of identical iterates
    gives 0.
    """
    if len(weight_history) < 4:
        raise ValueError("need at least 4 iterates to estimate a rate")
    z_hat = weight_history[-1]
    last = len(weight_history) - 1
    start = max(1, last // 2)
    worst = 0.0
    for n in range(start, last):
        dist = float(np.linalg.norm(weight_history[n] - z_hat))
        worst = max(worst, dist ** (1.0 / n))
    return worst


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


def stats_to_dict(stats):
    return {
        "n_trials": stats.n_trials,
        "successes": stats.successes,
        "mean_iterations_over_successes": stats.mean_iterations_over_successes,
        "failure_counts": dict(stats.failure_counts),
    }


def write_stats_json(path, stats):
    with open(path, "w") as fh:
        json.dump(stats_to_dict(stats), fh, indent=1, sort_keys=True)
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
