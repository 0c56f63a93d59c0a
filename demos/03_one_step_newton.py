"""One Newton iteration on an exactly quadratic error surface.

A single identity-activation layer makes E quadratic in the weights, so
the Newton direction points straight at the minimum and the one-step
Newton steplength comes out as mu = 1. With omega = 1 the first
iteration should land at machine precision.
"""

import numpy as np

from holonewt import Dataset, NetworkTopology, error, forward
from holonewt.gradient import cogradient_conj
from holonewt.newton import backward_tables, hessian_pair, newton_update
from holonewt.network import init_weights
from holonewt.steplength import apply_update, one_step_mu

rng = np.random.default_rng(0)


def unit_box(shape):
    draws = rng.uniform(-1, 1, size=shape + (2,))
    return draws[..., 0] + 1j * draws[..., 1]


m, c, n = 3, 2, 5
topology = NetworkTopology((m, c), ("identity",))
x = unit_box((n, m))
w_true = unit_box((c, m))
dataset = Dataset(x, x @ w_true.T)  # realizable targets: E has minimum 0

weights = init_weights(topology, seed=1)
print(f"E before: {error(topology, weights, dataset):.6f}")

tables = backward_tables(topology, weights, dataset)
cograd = cogradient_conj(tables.deltas[0], tables.trace, 1)
h_ww, h_wbar_w = hessian_pair(tables, 1)
print(f"H_wbar_w vanishes for identity activations: max |entry| = "
      f"{np.abs(h_wbar_w).max():.1e}")

dw = newton_update(h_ww, h_wbar_w, cograd, n_nodes=c)
mu = one_step_mu(cograd, dw, h_ww, h_wbar_w)
print(f"one-step steplength mu = {mu:.15f}")

apply_update(weights, 1, dw, mu, omega=1.0)
e_after = error(topology, weights, dataset)
print(f"E after one iteration: {e_after:.3e}")
print(f"weight distance to the generating matrix: "
      f"{np.linalg.norm(weights[0] - w_true):.3e}")

ok = e_after <= 1e-18
print("one-step convergence:", "PASS" if ok else "FAIL")
raise SystemExit(0 if ok else 1)
