"""Shared instance generators for the test suite.

Random instances draw every real and imaginary part i.i.d. uniform in
[-1, 1].  Sigmoid instances are redrawn (deterministically, by bumping
the seed) until every net sum in the forward trace keeps a safe distance
from the sigmoid poles, so finite-difference probes stay finite.
"""

import numpy as np

from holonewt import Dataset, NetworkTopology, forward
from holonewt.activations import distance_to_sigmoid_poles
from holonewt.fdcheck import FDConfig, fd_real_hessian


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
    longc = getattr(np, "complex256", np.complex128)
    shape = (topology.widths[p], topology.widths[p - 1])
    frozen = [np.asarray(w, dtype=longc) for w in weights]
    inputs = np.asarray(dataset.inputs, dtype=longc)
    targets = np.asarray(dataset.targets, dtype=longc)

    def e_of(flat):
        frozen[p - 1] = flat.reshape(shape)
        x = inputs
        for q in range(1, len(topology.widths)):
            x = topology.activation(q).f(x @ frozen[q - 1].T)
        r = x - targets
        return np.mean(np.sum(r.real**2 + r.imag**2, axis=1))

    return e_of, frozen[p - 1].ravel().copy()


def loop_fd_cogradient(topology, weights, dataset, p, h=1e-5):
    """Reference conjugate cogradient: four probes per weight, one at a time."""
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
    return np.conj(np.array(cols)).astype(complex)


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


def fd_hessians_conj(topology, weights, dataset, p, cfg=FDConfig()):
    """FD estimates of the remaining blocks (H_w_wbar, H_wbar_wbar).

    These differentiate (dE/dwbar)* instead of (dE/dw)*, which flips the
    sign of the imaginary recombination relative to fd_hessians.
    """
    h_rr = fd_real_hessian(topology, weights, dataset, p, cfg)
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
