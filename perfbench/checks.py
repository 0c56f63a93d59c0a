"""Output checks that do not trust the code they check.

The reference forward pass and error are written here from the paper's
formulas, not imported from holonewt:

    sigmoid(z) = 1 / (1 + exp(-z))
    taylor3(z) = 1/2 + z/4 - z^3/48        (cubic Taylor truncation)
    E          = (1/N) sum_t sum_k |y_tk - d_tk|^2

Every check returns a list of problems (strings); an empty list passes.
"""

import math

import numpy as np

# A recomputed error may differ from the program's in the last bits
# (|r|^2 here, re^2 + im^2 there); anything above this is a wrong value.
ERROR_RTOL = 1e-9

# Criterion 5 of the acceptance gate, stated as shares so that a pass of
# fewer than 100 trials can hold it: GD success share and the band for
# the mean iterations over successes.
GD_BANDS = {"taylor3": (0.8, 300.0, 3000.0), "sigmoid": (0.8, 400.0, 4000.0)}
# Newton-type methods must need at least this many times fewer iterations
# than gradient descent.  Checked against the floor of the GD band of the
# same activation, which the xor_gd workload checks the GD mean against,
# so the two checks together imply the paper's ordering.
NEWTON_SPEEDUP = 5.0


def ref_activation(name, z):
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "taylor3":
        return 0.5 + z / 4.0 - z**3 / 48.0
    raise ValueError(f"no reference for activation {name!r}")


def ref_forward(activations, weights, inputs):
    """Network outputs for a batch; weights[p-1] has shape (K_p, K_{p-1})."""
    x = np.asarray(inputs, dtype=complex)
    with np.errstate(all="ignore"):
        for name, w in zip(activations, weights):
            x = ref_activation(name, x @ np.asarray(w).T)
    return x


def ref_error(activations, weights, inputs, targets):
    with np.errstate(all="ignore"):
        r = ref_forward(activations, weights, inputs) - np.asarray(targets, dtype=complex)
        return float(np.mean(np.sum(np.abs(r) ** 2, axis=1)))


def same_error(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ERROR_RTOL * max(abs(a), abs(b))


def trial_problems(trial, activations, inputs, targets, target, threshold, budget):
    """Problems with one finished trial.

    `trial` needs outcome, iterations, final_error and final_weights.  The
    error is recomputed from the final weights, and the outcome must agree
    with the error target, the blow-up threshold and the iteration budget.
    """
    problems = []
    e = trial.final_error
    ref = ref_error(activations, trial.final_weights, inputs, targets)
    if not same_error(ref, e):
        problems.append(f"final_error {e!r} but the final weights give {ref!r}")
    finite = math.isfinite(e)
    in_band = finite and target <= e <= threshold
    expected = {
        "success": finite and e < target and trial.iterations <= budget,
        "blow_up": finite and e > threshold and trial.iterations <= budget,
        "local_minimum": in_band and trial.iterations == budget,
        "singular_matrix": in_band and trial.iterations < budget,
        # a non-finite error, or a sweep that stopped on a non-finite
        # cogradient, Hessian or steplength before the budget ran out
        "non_finite": not finite or (in_band and trial.iterations < budget),
    }
    if trial.outcome not in expected:
        problems.append(f"unknown outcome {trial.outcome!r}")
    elif not expected[trial.outcome]:
        problems.append(
            f"outcome {trial.outcome} disagrees with final_error {e!r} after "
            f"{trial.iterations} of {budget} iterations (target {target}, "
            f"blow-up {threshold})"
        )
    return problems


def success_stats(trials):
    """(trials, successes, mean iterations over successes or None)."""
    its = [t.iterations for t in trials if t.outcome == "success"]
    return len(trials), len(its), (sum(its) / len(its) if its else None)


def gd_band_problems(by_label):
    """Criterion-5 bands for gradient descent; labels are 'act/method'."""
    problems = []
    for label, trials in by_label.items():
        act = label.split("/")[0]
        share, lo, hi = GD_BANDS[act]
        n, ok, mean = success_stats(trials)
        if ok < share * n or mean is None or not lo <= mean <= hi:
            problems.append(
                f"{label}: {ok}/{n} successes, mean iterations {mean} "
                f"outside the band (share >= {share}, {lo}..{hi})"
            )
    return problems


def newton_band_problems(by_label):
    """Criterion-5 bands and the 5x ordering for Newton-type methods."""
    problems = []
    for label, trials in by_label.items():
        act = label.split("/")[0]
        n, ok, mean = success_stats(trials)
        if mean is None:
            problems.append(f"{label}: no successful trial")
            continue
        floor = GD_BANDS[act][1]
        if mean * NEWTON_SPEEDUP > floor:
            problems.append(
                f"{label}: mean iterations {mean:.2f} is not {NEWTON_SPEEDUP:g}x "
                f"below the gradient-descent floor {floor:g}"
            )
        if label == "taylor3/pseudo_newton" and (ok < 0.9 * n or mean > 100):
            problems.append(f"{label}: {ok}/{n} successes, mean {mean:.2f} (need >= 90%, <= 100)")
        if label == "sigmoid/newton" and ok > 0.3 * n:
            problems.append(f"{label}: {ok}/{n} successes (the paper's band is <= 30%)")
    return problems


def any_success_problems(by_label):
    return [
        f"{label}: no successful trial"
        for label, trials in by_label.items()
        if success_stats(trials)[1] == 0
    ]


def verify_problems(exit_code, report):
    """Problems with one `holonewt verify` run: exit 0, within tolerance,
    and every error below the tolerance the report states."""
    if exit_code != 0:
        return [f"verify exited {exit_code}"]
    problems = []
    if report.get("within_tolerance") is not True:
        problems.append("report is not within_tolerance")
    tols = report.get("tolerances", {})
    limits = {
        "cogradient_rel": tols.get("cogradient_tol"),
        "h_ww_rel": tols.get("hessian_tol"),
        "h_wbar_w_rel": tols.get("hessian_tol"),
        "quadratic_form_rel": tols.get("quadratic_form_tol"),
    }
    layers = report.get("layers", [])
    if not layers:
        problems.append("report lists no layers")
    for key, tol in limits.items():
        if tol is None:
            problems.append(f"report has no tolerance for {key}")
            continue
        values = [layer.get(key) for layer in layers] + [report.get(f"max_{key}")]
        for v in values:
            if not isinstance(v, float) or not math.isfinite(v) or not 0.0 <= v <= tol:
                problems.append(f"{key} {v!r} not within {tol}")
    return problems
