"""One Newton iteration on an exactly quadratic error surface.

A single identity-activation layer makes E quadratic in the weights, so
the Newton direction points straight at the minimum and the one-step
Newton steplength comes out as mu = 1. With omega = 1 the first
iteration should land at machine precision.

The step is taken the way a training sweep takes it: the layer's tables,
the coupled Newton update from those tables and the layer's input, and
the one-step steplength from the same tables, without assembling H_ww or
H_wbar_w.
"""

import numpy as np

from holonewt import Dataset, NetworkTopology, error, forward
from holonewt.gradient import cogradient_conj
from holonewt.network import init_weights
from holonewt.newton import layer_step, newton_update, one_step_denominator, table_buffers
from holonewt.steplength import apply_update, mu_from_denominator

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

trace = forward(topology, weights, dataset.inputs)
# handed the table buffers, the step carries the curvature tables too
buffers = table_buffers(topology, n)
delta, curv, cplus = layer_step(topology, trace, dataset.targets, 1, None, weights, buffers)
cograd = cogradient_conj(delta, trace, 1)
# the conjugate-plus-residual table, from which H_wbar_w is built
print(f"H_wbar_w vanishes for identity activations: max |cplus| = "
      f"{np.abs(cplus).max():.1e}")

x0 = trace.values[0]  # the layer's input
dw = newton_update(curv, cplus, x0, cograd)
mu = mu_from_denominator(cograd, dw, one_step_denominator(curv, cplus, x0, dw))
print(f"one-step steplength mu = {mu:.15f}")

apply_update(weights, 1, dw, mu, omega=1.0)
e_after = error(topology, weights, dataset)
print(f"E after one iteration: {e_after:.3e}")
print(f"weight distance to the generating matrix: "
      f"{np.linalg.norm(weights[0] - w_true):.3e}")

ok = e_after <= 1e-18
print("one-step convergence:", "PASS" if ok else "FAIL")
raise SystemExit(0 if ok else 1)
