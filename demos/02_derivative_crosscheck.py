"""Cross-check the analytic derivatives against finite differences.

The backward recursions produce the conjugate cogradient and the two
independent Hessian blocks per layer; none of that machinery is trusted
here. Everything is re-estimated by central differences on the scalar
error, with the oracle's fixed steps (1e-5 first order, 1e-4 second
order), and compared.
"""

import numpy as np

from holonewt import NetworkTopology, Dataset, backward_tables, hessian_pair
from holonewt.fdcheck import fd_cogradient, fd_hessians, relative_error
from holonewt.gradient import cogradient_conj
from holonewt.network import init_weights

rng = np.random.default_rng(42)


def unit_box(shape):
    draws = rng.uniform(-1, 1, size=shape + (2,))
    return draws[..., 0] + 1j * draws[..., 1]


topology = NetworkTopology((2, 3, 1), ("sigmoid", "sigmoid"))
weights = init_weights(topology, seed=3)
dataset = Dataset(unit_box((4, 2)), unit_box((4, 1)))

tables = backward_tables(topology, weights, dataset)

print(f"{'layer':>5} {'cogradient':>12} {'H_ww':>12} {'H_wbar_w':>12}")
worst = 0.0
for p in (1, 2):
    cog = cogradient_conj(tables.deltas[p - 1], tables.trace, p)
    h_ww, h_wbar_w = hessian_pair(tables, p)

    fd_cog = fd_cogradient(topology, weights, dataset, p)
    fd_ww, fd_wbar_w = fd_hessians(topology, weights, dataset, p)
    scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))

    rels = (
        relative_error(cog, fd_cog),
        relative_error(h_ww, fd_ww, scale=scale),
        relative_error(h_wbar_w, fd_wbar_w, scale=scale),
    )
    worst = max(worst, *rels)
    print(f"{p:>5} {rels[0]:>12.2e} {rels[1]:>12.2e} {rels[2]:>12.2e}")

print(f"\nworst relative error {worst:.2e} (tolerance 1e-5)")
ok = worst <= 1e-5
print("derivative cross-check:", "PASS" if ok else "FAIL")
raise SystemExit(0 if ok else 1)
