"""Shared instance generators for the test suite.

Random instances draw every real and imaginary part i.i.d. uniform in
[-1, 1].  Sigmoid instances are redrawn (deterministically, by bumping
the seed) until every net sum in the forward trace keeps a safe distance
from the sigmoid poles, so finite-difference probes stay finite.
"""

import json

import numpy as np

from holonewt import Dataset, NetworkTopology, forward, training
from holonewt.fdcheck import _LONGC, fd_real_hessian
from holonewt.linalg import PIVOT_RTOL, SingularMatrix
from holonewt.steplength import StepConfig

# the five-config XOR battery of acceptance criterion 5 (2-4-1 net):
# name -> (activation, method, steplength); tests/golden/<name>.csv pins it
BATTERY = {
    "taylor3_pseudo": ("taylor3", "pseudo_newton", StepConfig(mode="one_step_newton", omega=0.5)),
    "taylor3_gd": ("taylor3", "gradient_descent", StepConfig(mode="constant", constant_mu=1.0)),
    "sigmoid_gd": ("sigmoid", "gradient_descent", StepConfig(mode="constant", constant_mu=1.0)),
    "sigmoid_newton": ("sigmoid", "newton", StepConfig(mode="one_step_newton", omega=0.5)),
    "sigmoid_pseudo": ("sigmoid", "pseudo_newton", StepConfig(mode="one_step_newton", omega=0.5)),
}


def distance_to_sigmoid_poles(z):
    """Distance from each point to the nearest sigmoid pole i*pi*(2k+1)."""
    z = np.asarray(z, dtype=complex)
    k = np.round((z.imag / np.pi - 1.0) / 2.0)
    best = np.full(z.shape, np.inf)
    for kk in (k - 1, k, k + 1):
        best = np.minimum(best, np.abs(z - 1j * np.pi * (2.0 * kk + 1.0)))
    return best


def save_dataset(path, dataset):
    """Write `dataset` in the JSON layout that load_dataset reads."""

    def pairs(rows):
        return [[float(c.real), float(c.imag)] for c in rows]

    doc = [
        {"input": pairs(x), "target": pairs(t)}
        for x, t in zip(dataset.inputs, dataset.targets)
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def complex_uniform(rng, shape):
    draws = rng.uniform(-1.0, 1.0, size=shape + (2,))
    return draws[..., 0] + 1j * draws[..., 1]


def random_instance(widths, activation, seed, n_samples=3, pole_margin=0.5):
    """(topology, weights, dataset) with unit-box entries, pole-filtered."""
    topology = NetworkTopology(tuple(widths), (activation,) * (len(widths) - 1))
    for attempt in range(64):
        rng = np.random.Generator(np.random.PCG64(seed + 1_000_000 * attempt))
        weights = [
            complex_uniform(rng, (widths[p], widths[p - 1]))
            for p in range(1, len(widths))
        ]
        dataset = Dataset(
            complex_uniform(rng, (n_samples, widths[0])),
            complex_uniform(rng, (n_samples, widths[-1])),
        )
        if activation != "sigmoid":
            return topology, weights, dataset
        trace = forward(topology, weights, dataset.inputs)
        if min(distance_to_sigmoid_poles(n).min() for n in trace.nets) >= pole_margin:
            return topology, weights, dataset
    raise RuntimeError(f"no pole-safe instance for seed {seed}")


def loop_layer_error_fn(topology, weights, dataset, p):
    """The FD oracle's error function, one probe point per call.

    E of layer p's flat weight vector with every other layer frozen, the
    whole network re-run in extended precision for each probe.
    """
    shape = (topology.widths[p], topology.widths[p - 1])
    frozen = [np.asarray(w, dtype=_LONGC) for w in weights]
    inputs = np.asarray(dataset.inputs, dtype=_LONGC)
    targets = np.asarray(dataset.targets, dtype=_LONGC)

    def e_of(flat):
        frozen[p - 1] = flat.reshape(shape)
        x = inputs
        for q in range(1, len(topology.widths)):
            x = topology.activation(q).f(x @ frozen[q - 1].T)
        r = x - targets
        return np.mean(np.sum(r.real**2 + r.imag**2, axis=1))

    return e_of, frozen[p - 1].ravel().copy()


def loop_fd_cogradient(topology, weights, dataset, p, h=1e-5):
    """Reference conjugate cogradient, in the layer's weight shape: four
    probes per weight, one at a time."""
    e_of, base = loop_layer_error_fn(topology, weights, dataset, p)
    cols = []
    for k in range(base.size):
        probe = base.copy()
        probe[k] = base[k] + h
        f_px = e_of(probe)
        probe[k] = base[k] - h
        f_mx = e_of(probe)
        probe[k] = base[k] + 1j * h
        f_py = e_of(probe)
        probe[k] = base[k] - 1j * h
        f_my = e_of(probe)
        dfdx = (f_px - f_mx) / (2.0 * h)
        dfdy = (f_py - f_my) / (2.0 * h)
        cols.append(0.5 * (dfdx - 1j * dfdy))
    return np.conj(np.array(cols)).astype(complex).reshape(weights[p - 1].shape)


def loop_fd_real_hessian(topology, weights, dataset, p, h=1e-4):
    """Reference real-coordinate Hessian: four probes per pair i <= j."""
    e_of, base = loop_layer_error_fn(topology, weights, dataset, p)
    n = base.size

    def e_real(r):
        return e_of(r[:n] + 1j * r[n:])

    r0 = np.concatenate([base.real, base.imag])
    m = 2 * n
    hess = np.empty((m, m), dtype=r0.dtype)
    for i in range(m):
        for j in range(i, m):
            rpp = r0.copy(); rpp[i] += h; rpp[j] += h
            rpm = r0.copy(); rpm[i] += h; rpm[j] -= h
            rmp = r0.copy(); rmp[i] -= h; rmp[j] += h
            rmm = r0.copy(); rmm[i] -= h; rmm[j] -= h
            val = (e_real(rpp) - e_real(rpm) - e_real(rmp) + e_real(rmm)) / (4.0 * h * h)
            hess[i, j] = val
            hess[j, i] = val
    return hess.astype(float)


def fd_hessians_conj(topology, weights, dataset, p):
    """FD estimates of the remaining blocks (H_w_wbar, H_wbar_wbar).

    These differentiate (dE/dwbar)* instead of (dE/dw)*, which flips the
    sign of the imaginary recombination relative to fd_hessians.
    """
    h_rr = fd_real_hessian(topology, weights, dataset, p)
    n = h_rr.shape[0] // 2
    a, b, d = h_rr[:n, :n], h_rr[:n, n:], h_rr[n:, n:]
    h_w_wbar = 0.25 * ((a - d) - 1j * (b.T + b))
    h_wbar_wbar = 0.25 * ((a + d) - 1j * (b.T - b))
    return h_w_wbar, h_wbar_wbar


def sample_first_node_blocks(table, x, conj_right=False):
    """Reference node-block stack: the sample-first three-operand contraction.

    mean_t table[t,j,j] conj(x_i) x_a, or conj(x_a) with `conj_right`,
    from the (N, K_p) diagonals of a diagonal table or of a full one.
    """
    diag = table if table.ndim == 2 else np.diagonal(table, axis1=1, axis2=2)
    xc = np.conj(x)
    return np.einsum("tj,ti,ta->jia", diag, xc, xc if conj_right else x) / x.shape[0]


def node_diagonal(h, n_nodes):
    """The (n_nodes, n, n) stack of a full layer matrix's per-node diagonal blocks."""
    n = h.shape[0] // n_nodes
    return np.stack([h[j * n : (j + 1) * n, j * n : (j + 1) * n] for j in range(n_nodes)])


def reference_solve(a, b):
    """Reference stacked solve: `linalg.solve` as it was before its
    per-column numpy calls were trimmed.

    Gaussian elimination with partial pivoting over a (B, n, n) stack,
    with both rows fancy-indexed on every column and the whole trailing
    block updated at every step.  `solve` must match it bit for bit,
    including its SingularMatrix messages.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[-1]
    ab = np.concatenate([a, b], axis=2, dtype=complex)
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    if not scale.all():
        raise SingularMatrix(f"block {np.flatnonzero(scale == 0.0)[0]}: matrix of zeros")
    threshold = PIVOT_RTOL * scale

    blocks = np.arange(len(ab))
    for k in range(n):
        col = np.abs(ab[:, k:, k])
        r = col.argmax(axis=1)
        pivot = col[blocks, r]
        ok = pivot >= threshold
        if not ok.all():
            j = np.flatnonzero(~ok)[0]
            raise SingularMatrix(f"block {j}: pivot {pivot[j]:.3e} below {threshold[j]:.3e}")
        if r.any():
            p = r + k
            ab[blocks, k], ab[blocks, p] = ab[blocks, p], ab[blocks, k]
        rest = ab[:, k + 1 :]
        rest[:, :, k:] -= (rest[:, :, k] / ab[:, k, k, None])[:, :, None] * ab[:, k, None, k:]

    x = ab[:, :, n:]
    for k in range(n - 1, -1, -1):
        x[:, k] -= (ab[:, k, None, k + 1 : n] @ x[:, k + 1 :])[:, 0]
        x[:, k] /= ab[:, k, k, None]
    return x


def reference_layer_step(topology, trace, targets, p, upper, w_next, curvature):
    """Reference backward layer step: `newton.layer_step` as it was when
    it allocated every hidden-layer table afresh on each call.

    Same arguments and results as layer_step without its buffers; a 2-d
    upper table holds diagonals.  layer_step must match it bit for bit.
    """
    act = topology.activation(p)
    net, g = trace.nets[p - 1], trace.values[p]
    d1 = act.d1(net, g)
    d1c = np.conj(d1)
    if upper is None:
        back = trace.outputs - targets
    else:
        wc = np.conj(w_next)
        back = (upper[0] if curvature else upper) @ wc
    delta = back * d1c
    if not curvature:
        return delta
    resid = back * np.conj(act.d2(net, g))
    if upper is None:
        return delta, d1c * d1, resid
    _, curv_next, cplus_next = upper

    def sandwich(left, table, right):
        if table.ndim == 2:
            return (left * table[:, None, :]) @ right
        return left @ table @ right

    curv = sandwich(wc.T, curv_next, w_next) * d1c[:, :, None] * d1[:, None, :]
    cplus = sandwich(wc.T, cplus_next, wc) * d1c[:, :, None] * d1c[:, None, :]
    n_samples, k = resid.shape
    cplus.reshape(n_samples, k * k)[:, :: k + 1] += resid
    return delta, curv, cplus


def record_weight_iterates(monkeypatch):
    """Record the weight iterates of every trial `train` runs in this process.

    Returns a list that gets one history per trial, in the order the
    trials start: the flat initial weights, then the flat weights after
    each sweep that completes, which is after every counted iteration,
    so a history holds iterations + 1 iterates.  It patches
    `training.init_weights`, which `train` calls once at the start of a
    trial, and `training._sweep`; so it depends on those two names and
    on `train` calling them, and sees nothing of trials run in worker
    processes (`run_trials` with jobs > 1).
    """
    histories = []
    init_weights, sweep = training.init_weights, training._sweep

    def flat(weights):
        return np.concatenate([w.ravel() for w in weights])

    def init_and_record(*args, **kwargs):
        weights = init_weights(*args, **kwargs)
        histories.append([flat(weights)])
        return weights

    def sweep_and_record(topology, weights, *args):
        sweep(topology, weights, *args)
        histories[-1].append(flat(weights))

    monkeypatch.setattr(training, "init_weights", init_and_record)
    monkeypatch.setattr(training, "_sweep", sweep_and_record)
    return histories


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
