"""Finite-difference oracle for Wirtinger derivatives of the network error.

Everything here differentiates the scalar error E numerically, treating
one layer's weights as the free variables with all other layers frozen.
A complex weight w = x + iy contributes two real coordinates, probed by
central differences; Wirtinger derivatives are then assembled as
d/dw = (d/dx - i d/dy)/2 and d/dwbar = (d/dx + i d/dy)/2.

Probes live in node space.  Each moves one or two weights, so one or two
nodes of the checked layer p; only those nodes' weight rows are built
and run through layer p, then the later layers and the error run on it.
Layers before p are evaluated once, and layer p once at the centre.  A
Hessian probe whose two real coordinates lie in different nodes moves
each node by one coordinate, +h or -h, so the activations of all 2(2n)
single-coordinate moves of the layer's n weights are evaluated once and
gathered; only the probes of the S = K (2 K_in)(2 K_in + 1) / 2 pairs
inside one node (K nodes of fan-in K_in) evaluate that node again.  The
layer-p activation thus sees (K + 4n + 4S) N entries per Hessian on N
samples.  Every value is the same bits as a full forward pass per probe.

The steps are fixed: 1e-5 for the cogradient's central differences and
1e-4, at both levels, for the Hessian's four-point stencils.

These estimates are deliberately independent of the analytic
backpropagation modules so they can serve as a cross-check oracle, both
in the test suite and behind the command line `verify` command, whose
verdict verify_report gives against the fixed TOLERANCES.
"""

import numpy as np

from .network import uniform_draws

# probes are evaluated in extended precision where the platform has it,
# so that the cancellation inside central differences happens before any
# rounding to double
_LONGC = getattr(np, "complex256", np.complex128)

# four-probe stencils per batched pass over the moved nodes and the later
# layers; small chunks keep the probe stack and its activations in cache
# and the peak memory flat
_STENCILS_PER_CHUNK = 16

_FIRST_STEP = 1e-5
_SECOND_STEP = 1e-4

# the largest error of each kind a report within tolerance may hold
TOLERANCES = {"cogradient_tol": 1e-5, "hessian_tol": 1e-5, "quadratic_form_tol": 1e-4}
# the most four-probe Hessian stencils a report may take, (2n)(2n+1)/2
# per layer of n weights: 8-32-32-8 takes 2,360,832
MAX_STENCILS = 4_000_000

__all__ = [
    "MAX_STENCILS",
    "TOLERANCES",
    "NonFiniteEvaluation",
    "fd_cogradient",
    "fd_hessians",
    "fd_real_hessian",
    "real_quadratic_form",
    "relative_error",
    "verify_report",
]


class NonFiniteEvaluation(Exception):
    """A probe of the error function, or an analytic derivative under
    check, returned NaN or infinity.

    The message names the layer and the first bad probe: a (0-based) flat
    weight index and step for the cogradient, a pair of real coordinates
    and step signs for the Hessian.  For an analytic derivative it names
    the layer and the quantity.
    """


def _layer_error_fn(topology, weights, dataset, p, centre):
    """E near layer p's (K_p, K_{p-1}) weights `centre`, other layers
    frozen, as a function of the layer-p nodes a probe moves.

    Returns (values_of, e_of).  values_of(rows) maps a (..., M, K_{p-1})
    stack of layer-p node weight rows to their (..., M, N) activations on
    the N samples.  e_of(moved, nodes, where) maps the (B, c, N)
    activations `moved` of the layer-p nodes nodes[b], a (B, c) index
    array, to the (B,) errors of the probes that equal `centre` in every
    other node; those nodes' activations come from one pass at `centre`.
    `where(row)` names the probe in row `row` when its error is not
    finite.  Layers before p are evaluated once here.
    """
    widths = topology.widths
    frozen = [np.asarray(w, dtype=_LONGC) for w in weights]
    x = np.asarray(dataset.inputs, dtype=_LONGC)
    for q in range(1, p):
        x = topology.activation(q).f(x @ frozen[q - 1].T)
    targets = np.asarray(dataset.targets, dtype=_LONGC)

    def values_of(rows):
        # each entry of a net sum is its own dot product, and activations
        # act entrywise, so a node's activations are the same bits however
        # the nodes are stacked, and the same as in a full forward pass
        return np.swapaxes(topology.activation(p).f(x @ np.swapaxes(rows, -1, -2)), -1, -2)

    y_centre = values_of(centre).T

    def e_of(moved, nodes, where):
        b = np.arange(len(moved))[:, None]
        y = np.repeat(y_centre[np.newaxis], len(moved), axis=0)
        y[b, :, nodes] = moved
        for q in range(p + 1, len(widths)):
            y = topology.activation(q).f(y @ frozen[q - 1].T)
        r = y - targets
        values = np.mean(np.sum(r.real**2 + r.imag**2, axis=2), axis=1)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            row = bad[0]
            raise NonFiniteEvaluation(f"layer {p}: error is {values[row]} at {where(row)}")
        return values

    return values_of, e_of


def _stencil_errors(e_of, count, points, where):
    """Errors at `count` four-probe stencils, _STENCILS_PER_CHUNK at a time.

    `points(ks)` gives the (len(ks), 4, c, N) activations of the layer-p
    nodes that the probes of stencils `ks` move and the (len(ks), c)
    nodes themselves, and `where(k, s)` names probe s of stencil k.
    Returns a (count, 4) array.
    """
    errors = []
    for start in range(0, count, _STENCILS_PER_CHUNK):
        ks = np.arange(start, min(start + _STENCILS_PER_CHUNK, count))
        moved, nodes = points(ks)
        values = e_of(
            moved.reshape(4 * ks.size, *moved.shape[2:]),
            np.repeat(nodes, 4, axis=0),
            lambda row: where(ks[row // 4], row % 4),
        )
        errors.append(values.reshape(ks.size, 4))
    return np.concatenate(errors)


_COGRADIENT_PROBES = ("+h", "-h", "+ih", "-ih")


def fd_cogradient(topology, weights, dataset, p):
    """FD estimate of the conjugate cogradient (dE/dw^(p-1))*, in the weights' shape.

    Flat weight k is probed at w_k + h, w_k - h, w_k + ih and w_k - ih, which
    give d/dx and d/dy and so d/dw = (d/dx - i d/dy)/2.
    """
    base = np.asarray(weights[p - 1], dtype=_LONGC)
    values_of, e_of = _layer_error_fn(topology, weights, dataset, p, base)
    h = _FIRST_STEP
    flat = base.ravel()
    stepped = np.stack([flat + h, flat - h, flat + 1j * h, flat - 1j * h], axis=1)

    def points(ks):
        nodes, cols = np.divmod(ks, base.shape[1])
        rows = np.repeat(base[nodes, np.newaxis], 4, axis=1)
        rows[np.arange(ks.size), :, cols] = stepped[ks]
        return values_of(rows)[:, :, np.newaxis], nodes[:, np.newaxis]

    f = _stencil_errors(
        e_of, flat.size, points, lambda k, s: f"the {_COGRADIENT_PROBES[s]} probe of weight {k}"
    )
    dfdx = (f[:, 0] - f[:, 1]) / (2.0 * h)
    dfdy = (f[:, 2] - f[:, 3]) / (2.0 * h)
    # E is real, so (dE/dw)* = dE/dwbar
    return np.conj(0.5 * (dfdx - 1j * dfdy)).astype(complex).reshape(base.shape)


def _wirtinger_hessians(h_rr):
    """(H_ww, H_wbar_w) recombined from a real-coordinate Hessian."""
    n = h_rr.shape[0] // 2
    a, b, d = h_rr[:n, :n], h_rr[:n, n:], h_rr[n:, n:]
    h_ww = 0.25 * ((a + d) + 1j * (b.T - b))
    h_wbar_w = 0.25 * ((a - d) + 1j * (b.T + b))
    return h_ww, h_wbar_w


def fd_hessians(topology, weights, dataset, p):
    """FD estimates of (H_ww, H_wbar_w) for layer p.

    Row (j,i) indexes the cogradient component, column (b,a) the weight
    being differentiated; both use the flat row-major layout.  The
    estimate differences the error twice with the second-order step at
    both levels (the four-point mixed stencil); sharing the step keeps
    the roundoff of the inner difference from swamping the outer one.
    The second real differences are then recombined into Wirtinger form:

      H_ww       = ((E_xx + E_yy) + i (E_xy^T - E_xy)) / 4
      H_wbar_w   = ((E_xx - E_yy) + i (E_xy^T + E_xy)) / 4
    """
    return _wirtinger_hessians(fd_real_hessian(topology, weights, dataset, p))


_HESSIAN_PROBES = ("(+h, +h)", "(+h, -h)", "(-h, +h)", "(-h, -h)")


def fd_real_hessian(topology, weights, dataset, p):
    """FD Hessian of E over the stacked real coordinates (x_1..x_n, y_1..y_n).

    Entry (i, j), i <= j, comes from the four probes r0 + s_i h e_i +
    s_j h e_j with signs (s_i, s_j) = (+, +), (+, -), (-, +), (-, -).
    A probe whose two coordinates lie in different nodes moves each of
    them by one coordinate, so it takes both nodes' activations from one
    evaluation of every coordinate moved alone by +h and by -h; only the
    probes of a pair inside one node evaluate that node again.
    """
    base = np.asarray(weights[p - 1], dtype=_LONGC)
    n, fan_in = base.size, base.shape[1]
    h = _SECOND_STEP
    # each node's real coordinates, (K_p, 2, K_{p-1}): real parts, then imaginary
    r0 = np.stack([base.real, base.imag], axis=1)

    def complex_rows(r):
        # rebuilt the same way at the centre and at every probe, so that
        # signed zeros agree
        return r[..., 0, :] + 1j * r[..., 1, :]

    values_of, e_of = _layer_error_fn(topology, weights, dataset, p, complex_rows(r0))
    m = 2 * n
    coords = np.arange(m)
    part, node, col = coords // n, coords % n // fan_in, coords % fan_in
    # single[0 or 1, i]: the (N,) activations of coordinate i's node with
    # i alone moved by +h or -h
    r = np.repeat(r0[node][np.newaxis], 2, axis=0)
    r[:, coords, part, col] += h * np.array([[1], [-1]])
    single = values_of(complex_rows(r))
    rows_i, cols_j = np.triu_indices(m)
    signs_i, signs_j = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])

    def points(ks):
        i, j = rows_i[ks], cols_j[ks]
        values = np.stack([single[signs_i, i[:, None]], single[signs_j, j[:, None]]], axis=2)
        inside = np.flatnonzero(node[i] == node[j])
        if inside.size:
            a, b = i[inside], j[inside]
            r = np.repeat(r0[node[a], np.newaxis], 4, axis=1)
            rows = np.arange(inside.size)
            # two separate steps, so a diagonal probe moves by (r + h) + h
            r[rows, :, part[a], col[a]] += h * np.array([1, 1, -1, -1])
            r[rows, :, part[b], col[b]] += h * np.array([1, -1, 1, -1])
            values[inside] = values_of(complex_rows(r))[:, :, np.newaxis]
        return values, np.stack([node[i], node[j]], axis=1)

    f = _stencil_errors(
        e_of,
        rows_i.size,
        points,
        lambda k, s: f"the {_HESSIAN_PROBES[s]} probe of real coordinates ({rows_i[k]}, {cols_j[k]})",
    )
    vals = (f[:, 0] - f[:, 1] - f[:, 2] + f[:, 3]) / (4.0 * h * h)
    hess = np.empty((m, m), dtype=vals.dtype)
    hess[rows_i, cols_j] = vals
    hess[cols_j, rows_i] = vals
    return hess.astype(float)


def real_quadratic_form(h_ww, h_wbar_w, v):
    """2 Re{v^H H_ww v + v^H H_wbar_w conj(v)}.

    Equals (vR, vI)^T H_rr (vR, vI) for the real-coordinate Hessian
    H_rr of the same function, which fd_real_hessian estimates.
    """
    return float(2.0 * np.real(np.vdot(v, h_ww @ v) + np.vdot(v, h_wbar_w @ np.conj(v))))


def relative_error(approx, ref, scale=None):
    """Normwise relative error, with an optional external scale.

    Passing `scale` supports blocks whose true value is (near) zero,
    measured against the magnitude of a companion block.
    """
    num = np.linalg.norm(np.asarray(approx) - np.asarray(ref))
    den = np.linalg.norm(ref) if scale is None else scale
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def verify_report(topology, weights, dataset):
    """Compare analytic backpropagation against the FD oracle, per layer.

    Returns a dict with per-layer relative errors for the cogradient and
    both Hessian blocks, plus the relative mismatch of the real-coordinate
    quadratic form along a deterministic direction, the largest of each
    kind, the TOLERANCES and `within_tolerance`, true when no largest
    error exceeds its tolerance.  Hessian errors are normalized by the
    larger of the two FD block norms so a structurally zero block does
    not divide by its own noise.  Each layer's real-coordinate FD Hessian
    is estimated once and serves both the Hessian blocks and the
    quadratic form.

    Raises ValueError, before any table or probe, when the net needs more
    than MAX_STENCILS Hessian stencils or the dataset's widths are not the
    net's, and NonFiniteEvaluation when a probe's error is not finite, or,
    once a layer's probes are all finite, when its analytic cogradient or
    either analytic block is not.
    """
    from . import newton
    from .gradient import cogradient_conj

    stencils = sum(n * (2 * n + 1) for n in map(topology.layer_size, range(1, topology.n_layers + 1)))
    if stencils > MAX_STENCILS:
        raise ValueError(
            f"topology {topology.widths} needs {stencils} Hessian stencils to verify,"
            f" above the cap of {MAX_STENCILS}"
        )
    report = {"layers": []}
    deltas = newton.backward_tables(topology, weights, dataset)
    for p in range(1, topology.n_layers + 1):
        cog = cogradient_conj(deltas.deltas[p - 1], deltas.trace, p)
        h_ww, h_wbar_w = newton.hessian_pair(deltas, p)
        fd_cog = fd_cogradient(topology, weights, dataset, p)
        h_rr = fd_real_hessian(topology, weights, dataset, p)
        for name, value in (("cogradient", cog), ("H_ww", h_ww), ("H_wbar_w", h_wbar_w)):
            bad = np.count_nonzero(~np.isfinite(value))
            if bad:
                raise NonFiniteEvaluation(
                    f"layer {p}: analytic {name} has {bad} of {value.size} entries not finite"
                )
        fd_ww, fd_wbar_w = _wirtinger_hessians(h_rr)
        h_scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
        n = topology.layer_size(p)
        v = uniform_draws(p, -1, 1, 2 * n).reshape(n, 2) @ np.array([1, 1j])
        analytic = real_quadratic_form(h_ww, h_wbar_w, v)
        vr = np.concatenate([v.real, v.imag])
        reference = float(vr @ h_rr @ vr)
        report["layers"].append({
            "layer": p,
            "cogradient_rel": relative_error(cog, fd_cog),
            "h_ww_rel": relative_error(h_ww, fd_ww, scale=h_scale),
            "h_wbar_w_rel": relative_error(h_wbar_w, fd_wbar_w, scale=h_scale),
            "quadratic_form_rel": relative_error(analytic, reference),
        })
    for key in ("cogradient_rel", "h_ww_rel", "h_wbar_w_rel", "quadratic_form_rel"):
        report[f"max_{key}"] = max(layer[key] for layer in report["layers"])
    # an infinite or NaN error compares false, so it fails the report
    report["tolerances"] = dict(TOLERANCES)
    report["within_tolerance"] = (
        report["max_cogradient_rel"] <= TOLERANCES["cogradient_tol"]
        and report["max_h_ww_rel"] <= TOLERANCES["hessian_tol"]
        and report["max_h_wbar_w_rel"] <= TOLERANCES["hessian_tol"]
        and report["max_quadratic_form_rel"] <= TOLERANCES["quadratic_form_tol"]
    )
    return report
