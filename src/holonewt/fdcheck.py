"""Finite-difference oracle for Wirtinger derivatives of the network error.

Everything here differentiates the scalar error E numerically, treating
one layer's weights as the free variables with all other layers frozen.
A complex weight w = x + iy contributes two real coordinates, probed by
central differences; Wirtinger derivatives are then assembled as
d/dw = (d/dx - i d/dy)/2 and d/dwbar = (d/dx + i d/dy)/2.

These estimates are deliberately independent of the analytic
backpropagation modules so they can serve as a cross-check oracle, both
in the test suite and behind the command line `verify` command.
"""

from dataclasses import dataclass

import numpy as np

# probes are evaluated in extended precision where the platform has it,
# so that the cancellation inside central differences happens before any
# rounding to double
_LONGC = getattr(np, "complex256", np.complex128)

__all__ = [
    "FDConfig",
    "NonFiniteEvaluation",
    "fd_cogradient",
    "fd_hessians",
    "fd_hessians_conj",
    "fd_real_hessian",
    "real_quadratic_form",
    "relative_error",
    "verify_report",
]


class NonFiniteEvaluation(Exception):
    """A probe of the error function returned NaN or infinity."""


@dataclass(frozen=True)
class FDConfig:
    """Central-difference steps for first and second derivatives."""

    first_step: float = 1e-5
    second_step: float = 1e-4


def _layer_error_fn(topology, weights, dataset, p):
    """E as a function of layer p's flat weight vector, other layers frozen."""
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
        value = np.mean(np.sum(r.real**2 + r.imag**2, axis=1))
        if not np.isfinite(value):
            raise NonFiniteEvaluation(f"error is {value} at a probe point")
        return value

    return e_of, frozen[p - 1].ravel().copy()


def _wirtinger_columns(fn, base, h):
    """Return (d fn/dw_k, d fn/dwbar_k) for every coordinate k.

    `fn` maps a flat complex vector to a scalar or vector; the two
    Wirtinger derivatives per coordinate come from four probes.
    """
    n = base.size
    cols_w, cols_wbar = [], []
    for k in range(n):
        probe = base.copy()
        probe[k] = base[k] + h
        f_px = fn(probe)
        probe[k] = base[k] - h
        f_mx = fn(probe)
        probe[k] = base[k] + 1j * h
        f_py = fn(probe)
        probe[k] = base[k] - 1j * h
        f_my = fn(probe)
        dfdx = (f_px - f_mx) / (2.0 * h)
        dfdy = (f_py - f_my) / (2.0 * h)
        cols_w.append(0.5 * (dfdx - 1j * dfdy))
        cols_wbar.append(0.5 * (dfdx + 1j * dfdy))
    return cols_w, cols_wbar


def fd_cogradient(topology, weights, dataset, p, cfg=FDConfig()):
    """FD estimate of the conjugate cogradient (dE/dw^(p-1))*, flat."""
    e_of, base = _layer_error_fn(topology, weights, dataset, p)
    d_w, _ = _wirtinger_columns(e_of, base, cfg.first_step)
    # E is real, so (dE/dw)* = dE/dwbar
    return np.conj(np.array(d_w)).astype(complex)


def _real_hessian_blocks(h_rr):
    """(E_xx, E_xy, E_yy) blocks of a real-coordinate Hessian."""
    n = h_rr.shape[0] // 2
    return h_rr[:n, :n], h_rr[:n, n:], h_rr[n:, n:]


def _wirtinger_hessians(h_rr):
    """(H_ww, H_wbar_w) recombined from a real-coordinate Hessian."""
    a, b, d = _real_hessian_blocks(h_rr)
    h_ww = 0.25 * ((a + d) + 1j * (b.T - b))
    h_wbar_w = 0.25 * ((a - d) + 1j * (b.T + b))
    return h_ww, h_wbar_w


def fd_hessians(topology, weights, dataset, p, cfg=FDConfig()):
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
    return _wirtinger_hessians(fd_real_hessian(topology, weights, dataset, p, cfg))


def fd_hessians_conj(topology, weights, dataset, p, cfg=FDConfig()):
    """FD estimates of the remaining blocks (H_w_wbar, H_wbar_wbar).

    These differentiate (dE/dwbar)* instead of (dE/dw)*, which flips the
    sign of the imaginary recombination relative to fd_hessians.
    """
    a, b, d = _real_hessian_blocks(fd_real_hessian(topology, weights, dataset, p, cfg))
    h_w_wbar = 0.25 * ((a - d) - 1j * (b.T + b))
    h_wbar_wbar = 0.25 * ((a + d) - 1j * (b.T - b))
    return h_w_wbar, h_wbar_wbar


def fd_real_hessian(topology, weights, dataset, p, cfg=FDConfig()):
    """FD Hessian of E over the stacked real coordinates (x_1..x_n, y_1..y_n)."""
    e_of, base = _layer_error_fn(topology, weights, dataset, p)
    n = base.size
    h = cfg.second_step

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


def verify_report(topology, weights, dataset, cfg=FDConfig(), with_quadratic_form=True):
    """Compare analytic backpropagation against the FD oracle, per layer.

    Returns a dict with per-layer relative errors for the cogradient and
    both Hessian blocks, plus the relative mismatch of the real-coordinate
    quadratic form along a deterministic direction.  Hessian errors are
    normalized by the larger of the two FD block norms so a structurally
    zero block does not divide by its own noise.  Each layer's
    real-coordinate FD Hessian is estimated once and serves both the
    Hessian blocks and the quadratic form.
    """
    from . import newton
    from .gradient import cogradient_conj

    report = {"layers": []}
    deltas = newton.backward_tables(topology, weights, dataset)
    for p in range(1, topology.n_layers + 1):
        cog = cogradient_conj(deltas.deltas[p - 1], deltas.trace, p)
        h_ww, h_wbar_w = newton.hessian_pair(deltas, p)
        fd_cog = fd_cogradient(topology, weights, dataset, p, cfg)
        h_rr = fd_real_hessian(topology, weights, dataset, p, cfg)
        fd_ww, fd_wbar_w = _wirtinger_hessians(h_rr)
        h_scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
        entry = {
            "layer": p,
            "cogradient_rel": relative_error(cog, fd_cog),
            "h_ww_rel": relative_error(h_ww, fd_ww, scale=h_scale),
            "h_wbar_w_rel": relative_error(h_wbar_w, fd_wbar_w, scale=h_scale),
        }
        if with_quadratic_form:
            rng = np.random.Generator(np.random.PCG64(p))
            n = topology.layer_size(p)
            v = rng.uniform(-1, 1, size=(n, 2)) @ np.array([1, 1j])
            analytic = real_quadratic_form(h_ww, h_wbar_w, v)
            vr = np.concatenate([v.real, v.imag])
            reference = float(vr @ h_rr @ vr)
            entry["quadratic_form_rel"] = relative_error(analytic, reference)
        report["layers"].append(entry)
    for key in ("cogradient_rel", "h_ww_rel", "h_wbar_w_rel", "quadratic_form_rel"):
        vals = [layer[key] for layer in report["layers"] if key in layer]
        if vals:
            report[f"max_{key}"] = max(vals)
    return report
