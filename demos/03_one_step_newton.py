"""One Newton iteration on an exactly quadratic error surface.

A single identity-activation layer makes E quadratic in the weights, so
the Newton direction points straight at the minimum and the one-step
Newton steplength comes out as mu = 1. With omega = 1 the first
iteration should land at machine precision.

The step is taken the way a training sweep takes it: the layer's tables,
its per-node block stacks, the coupled Newton solve, and the one-step
steplength from the same tables, without assembling H_ww or H_wbar_w.
"""

import numpy as np

from holonewt import Dataset, NetworkTopology, error, forward
from holonewt.gradient import cogradient_conj
from holonewt.network import init_weights
from holonewt.newton import (
    layer_step,
    newton_update,
    node_blocks,
    one_step_denominator,
    sample_last,
)
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
delta, curv, cplus = layer_step(topology, trace, dataset.targets, 1, None, None, True)
cograd = cogradient_conj(delta, trace, 1)
xt, xct = sample_last(trace.values[0])
a = node_blocks(curv, xct, xt)  # (c, m, m): one H_ww block per output node
g = node_blocks(cplus, xct, xct)  # the matching H_wbar_w blocks
print(f"H_wbar_w vanishes for identity activations: max |entry| = "
      f"{np.abs(g).max():.1e}")

dw = newton_update(a, g, cograd)
mu = mu_from_denominator(cograd, dw, one_step_denominator(curv, cplus, trace, 1, dw))
print(f"one-step steplength mu = {mu:.15f}")

apply_update(weights, 1, dw, mu, omega=1.0)
e_after = error(topology, weights, dataset)
print(f"E after one iteration: {e_after:.3e}")
print(f"weight distance to the generating matrix: "
      f"{np.linalg.norm(weights[0] - w_true):.3e}")

ok = e_after <= 1e-18
print("one-step convergence:", "PASS" if ok else "FAIL")
raise SystemExit(0 if ok else 1)
