"""Newton backpropagation: one backward layer step, node blocks and updates.

For one layer's weights the error has four Wirtinger Hessian blocks, of
which only two are independent when E is real: H_ww (rows index the
conjugate cogradient, columns the unconjugated weights) and H_wbar_w
(columns the conjugated weights).  Both follow, with the cogradient, from
one layerwise backward recursion in per-sample node tables, carried from
layer p+1 to layer p by layer_step:

  * delta[t, j], which scales conj(x_i) in the conjugate cogradient,
  * curvature[t, j, b], which scales conj(x_i) x_a in H_ww,
  * cplus[t, j, b], the conjugate-plus-residual table, which scales
    conj(x_i) conj(x_a) in H_wbar_w: the backpropagated conjugate table
    with the residual (g'') table added on its diagonal.

At the output layer the conjugate table vanishes and the curvature and
residual tables are diagonal, so layer_step keeps both tables there as
(N, C) diagonals, and both output-layer blocks are block diagonal with
one block per output node.  layer_step evaluates g' and g'' once per
layer, at the unconjugated net sums and from the forward values there,
so the sigmoid's exp runs once per layer per iteration, in the forward
pass; the factors at the conjugated net sums are their conjugates, since
every activation has real Taylor coefficients (see activations).

Training runs layer_step inside its sweep, on the downstream weights as
already updated there, and never assembles H_ww or H_wbar_w: an update
takes a layer's tables and input, builds the per-node diagonal blocks
straight from the table diagonals, raises DegenerateStep on anything
not finite and solves all of the layer's nodes in one stacked
elimination, in the layer's (K_p, K_{p-1}) weight shape; one_step_mu
takes the steplength from the same tables.  Pseudo-Newton builds only
the H_ww stack, since its solve never reads H_wbar_w.  backward_tables
runs the same step on fixed weights and keeps every layer's tables;
hessian_pair assembles the full blocks from them, the reference that
`verify` and the tests compare against.

The Newton update solves the coupled system over (w, wbar); the
pseudo-Newton update drops the H_wbar_w coupling and solves only with
H_ww.  Both solve on the per-node diagonal blocks: exact at the output
layer, and the only well-posed choice at hidden layers, where the full
matrix is singular by rank counting whenever sample count times output
width is below the layer's weight count.

A hidden layer's tables are (N, K_p, K_p) arrays, 128 KiB each on a
16-wide layer over 32 samples.  Allocated afresh on every step, such
arrays and the temporaries of their products would go back to the OS
when freed and be page-faulted in again on the next iteration (about 200
minor faults per iteration on a 4-16-16-4 net).  So layer_step writes a
hidden layer's tables only into buffers it is handed, which
table_buffers allocates once per trial (train) or once per report
(backward_tables, whose layers stay distinct arrays), in the same order
of arithmetic as fresh products and so with the same bits.

The node-block contraction sums over the samples, so the updates hand
it x^T and conj(x)^T as contiguous copies with the sample axis last:
einsum's inner loop then runs over unit-stride memory, which at wide
layers outweighs the cost of the copies.  The sum still visits the
samples in order, so the blocks keep the sample-first contraction's bits
(a NaN entry stays NaN, though its payload may differ).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import solve
from .network import forward

__all__ = [
    "MAX_STEP_ENTRIES",
    "DegenerateStep",
    "check_step_size",
    "table_buffers",
    "layer_step",
    "one_step_mu",
    "BackwardTables",
    "backward_tables",
    "hessian_pair",
    "newton_update",
    "pseudo_newton_update",
]


class DegenerateStep(Exception):
    """A Newton-type step that cannot be taken: an update's input or node
    block not finite, or a one-step denominator not finite or (almost) 0."""


# the most complex entries one array of a Newton-type step may hold
# (256 MiB); 8-32-32-8 on 32 samples needs 32,768
MAX_STEP_ENTRIES = 2**24


def check_step_size(topology, n_samples):
    """Raise ValueError, naming the layer, the count and the cap, when a
    Newton-type step on n_samples would build an array of more than
    MAX_STEP_ENTRIES entries.

    The largest arrays a step builds are layer p's node-block stack,
    K_p K_{p-1}^2 entries, and a hidden layer's table buffers from
    table_buffers, N K_p max(K_p, K_{p+1}) entries at most.
    """
    widths = topology.widths
    for p in range(1, topology.n_layers + 1):
        sizes = {"node-block stack": widths[p] * widths[p - 1] ** 2}
        if p < topology.n_layers:
            sizes["table buffer"] = n_samples * widths[p] * max(widths[p], widths[p + 1])
        for what, entries in sizes.items():
            if entries > MAX_STEP_ENTRIES:
                raise ValueError(
                    f"layer {p} of topology {widths} needs a {what} of {entries} entries for a"
                    f" Newton-type step on {n_samples} samples, above the cap of {MAX_STEP_ENTRIES}"
                )


def _diagonal(table):
    """Per-sample diagonals (N, K) of a node-pair table, full or diagonal."""
    return table if table.ndim == 2 else np.diagonal(table, axis1=1, axis2=2)


def _apply(table, u):
    """table[t] @ u[t] for every sample t; a 2-d table holds diagonals."""
    if table.ndim == 2:
        return table * u
    return (table @ u[:, :, None])[:, :, 0]


def table_buffers(topology, n_samples):
    """Buffers for every layer's hidden-layer tables (index p-1), for
    layer_step to write into.

    A hidden layer p gets (curvature, cplus, inner, product): its two
    (N, K_p, K_p) tables, the (N, K_p, K_{p+1}) inner factor of their
    sandwich products and an (N, K_p, K_p) array for the partial
    products.  inner and product are views of one allocation, since no
    step reads one after writing the other.  The output layer gets None:
    its (N, C) diagonal tables are small.  A trial allocates these once
    and every iteration overwrites them; see the module docstring.
    """
    widths = topology.widths
    buffers = []
    for p in range(1, topology.n_layers):
        k, k_next = widths[p], widths[p + 1]
        scratch = np.empty(n_samples * k * max(k, k_next), dtype=complex)
        inner = scratch[: n_samples * k * k_next].reshape(n_samples, k, k_next)
        product = scratch[: n_samples * k * k].reshape(n_samples, k, k)
        tables = (np.empty((n_samples, k, k), dtype=complex) for _ in range(2))
        buffers.append((*tables, inner, product))
    return buffers + [None]


def _sandwich(left, table, right, inner, out):
    """left @ table[t] @ right into `out` for every sample t, through
    `inner`; a 2-d table holds diagonals."""
    if table.ndim == 2:
        np.multiply(left, table[:, None, :], out=inner)
    else:
        np.matmul(left, table, out=inner)
    np.matmul(inner, right, out=out)


def layer_step(topology, trace, targets, p, upper, weights, buffers=None):
    """Layer p's (delta, curvature, cplus), or its delta alone.

    At the output layer (`upper` None) the step starts from the residual
    y - d, and both tables are (N, C) diagonals.  Below it, `upper` is
    what this function returned for layer p+1, carried back through
    weights[p], which a training sweep has already updated while the
    trace is still the one from the top of the iteration.

    The step carries the tables exactly when it is handed `buffers`, the
    list from table_buffers; without it, `upper` and the result are delta
    arrays.  A hidden layer's tables are written only into buffers[p-1]
    and returned as those arrays; every entry is overwritten, so the
    buffers may hold anything before the call.  A training sweep hands
    each layer the same buffers on every iteration, so the (N, K_p, K_p)
    tables are not allocated and freed per step.

    The row side of the curvature table takes g' at the conjugated net
    sums and its column side g' at the unconjugated ones; both sides of
    the conjugate table take it at the conjugated ones, so the diagonal
    residual table of layer p+1 feeds the off-diagonal entries of layer p
    through the conjugated weights.
    """
    act = topology.activation(p)
    net, g = trace.nets[p - 1], trace.values[p]
    d1 = act.d1(net, g)
    d1c = np.conj(d1)
    if upper is None:
        back = trace.outputs - targets
    else:
        w_next = weights[p]
        wc = np.conj(w_next)
        back = (upper if buffers is None else upper[0]) @ wc
    delta = back * d1c
    if buffers is None:
        return delta
    resid = back * np.conj(act.d2(net, g))
    if upper is None:
        return delta, d1c * d1, resid
    _, curv_next, cplus_next = upper
    curv, cplus, inner, product = buffers[p - 1]
    # ((left @ table) @ right) * d1c * d1, as a fresh product would round
    # it: no multiply writes over its own input, since numpy's in-place
    # complex multiply can round differently (it does on a single entry)
    _sandwich(wc.T, curv_next, w_next, inner, curv)
    np.multiply(curv, d1c[:, :, None], out=product)
    np.multiply(product, d1[:, None, :], out=curv)
    _sandwich(wc.T, cplus_next, wc, inner, cplus)
    np.multiply(cplus, d1c[:, :, None], out=product)
    np.multiply(product, d1c[:, None, :], out=cplus)
    # the diagonal of each (K, K) slice, as a strided view of the
    # C-contiguous buffer
    n_samples, k = resid.shape
    cplus.reshape(n_samples, k * k)[:, :: k + 1] += resid
    return delta, curv, cplus


def _node_blocks(table, left, right):
    """One per-node diagonal block stack of H_ww or H_wbar_w, assembling neither.

    With xt = x.T and xct = conj(x).T, contiguous copies of layer p's
    input x, returns the (K_p, K_{p-1}, K_{p-1}) stacks
      _node_blocks(curv, xct, xt)   A[j, i, a] = H_ww[(j,i),(j,a)]
                                               = mean_t curvature[t,j,j] conj(x_i) x_a
      _node_blocks(cplus, xct, xct) G[j, i, a] = H_wbar_w[(j,i),(j,a)]
                                               = mean_t cplus[t,j,j] conj(x_i) conj(x_a)
    from the diagonal of the curvature or conjugate-plus-residual table,
    full or diagonal.  This costs O(N K_p K_{p-1}^2) where the assembled
    blocks cost O(N K_p^2 K_{p-1}^2).
    """
    diag = _diagonal(table).T.copy()
    blocks = np.einsum("jt,it,at->jia", diag, left, right)
    blocks /= left.shape[1]
    return blocks


def one_step_mu(curv, cplus, x, cograd_conj, dw):
    """Steplength minimizing the quadratic model of E along dw.

        mu = -Re{(dE/dw) dw} / Re{dw^H H_ww dw + dw^H H_wbar_w conj(dw)}

    `cograd_conj` = (dE/dw)* and `dw` have the layer's weight shape.
    With u_t = dW x_t, the step applied to sample t of the layer's input
    x, the two quadratic forms are mean_t u_t^H C_t u_t and
    mean_t u_t^H T_t conj(u_t) for the curvature table C and the
    conjugate-plus-residual table T.  Raises DegenerateStep when the
    denominator is NaN, infinite or below 1e-300 in magnitude; a
    negative or huge quotient is returned as-is.
    """
    u = x @ dw.T
    form = np.vdot(u, _apply(curv, u)) + np.vdot(u, _apply(cplus, np.conj(u)))
    denominator = float(np.real(form)) / x.shape[0]
    numerator = -np.vdot(cograd_conj, dw).real
    if not math.isfinite(denominator):
        raise DegenerateStep(f"one-step denominator is {denominator!r}, not finite")
    if abs(denominator) < 1e-300:
        raise DegenerateStep(f"denominator {denominator!r}")
    return float(numerator / denominator)


@dataclass
class BackwardTables:
    """Every layer's layer_step at fixed weights (index p-1): deltas,
    curvature and conjugate-plus-residual tables, the output layer's
    tables as (N, C) diagonals."""

    trace: object
    deltas: list
    curvature: list
    cplus: list


def backward_tables(topology, weights, dataset):
    """Run the forward pass and the backward recursion without updating
    any weights.  Raises ValueError when the dataset's widths are not the
    net's."""
    topology.check_dataset(dataset)
    trace = forward(topology, weights, dataset.inputs)
    # one buffer set per layer, so every layer's tables stay distinct arrays
    buffers = table_buffers(topology, dataset.inputs.shape[0])
    steps = []
    upper = None
    for p in range(topology.n_layers, 0, -1):
        upper = layer_step(topology, trace, dataset.targets, p, upper, weights, buffers)
        steps.append(upper)
    deltas, curv, cplus = (list(reversed(column)) for column in zip(*steps))
    return BackwardTables(trace, deltas, curv, cplus)


def _assemble(table, left, right):
    """mean_t table[t,j,b] left_i right_a as a (K*n, K*n) matrix, rows
    (j,i) and columns (b,a); a 2-d table holds diagonals."""
    k = table.shape[1]
    if table.ndim == 2:
        table = np.where(np.eye(k, dtype=bool), table[:, :, None], 0)
    h = np.einsum("tjb,ti,ta->jiba", table, left, right) / left.shape[0]
    return h.reshape(k * left.shape[1], k * right.shape[1])


def hessian_pair(tables, p):
    """Layer p's full (H_ww, H_wbar_w), assembled from its tables:

      H_ww[(j,i),(b,a)]     = mean_t curvature[t,j,b] conj(x_i) x_a
      H_wbar_w[(j,i),(b,a)] = mean_t cplus[t,j,b] conj(x_i) conj(x_a)
    """
    x = tables.trace.values[p - 1]
    xc = np.conj(x)
    return _assemble(tables.curvature[p - 1], xc, x), _assemble(tables.cplus[p - 1], xc, xc)


def _check_inputs(cograd_conj, blocks, *arrays):
    """Raise DegenerateStep unless every array is finite, then ValueError
    unless the cogradient has one row per block of the (K, n, n) stack."""
    # count_nonzero is cheaper than .all() or a logical_and reduce here
    if not all(np.count_nonzero(np.isfinite(a)) == a.size for a in (cograd_conj, blocks, *arrays)):
        raise DegenerateStep("cogradient, curvature table or node block not finite")
    k, n, _ = blocks.shape
    if cograd_conj.shape != (k, n):
        raise ValueError(f"cogradient of shape {cograd_conj.shape} for {k} node blocks of size {n}")


def newton_update(curv, cplus, x, cograd_conj):
    """Solve the coupled Newton system for layer p's weight step, on node blocks.

    Eliminating the conjugate half of the stacked (w, wbar) system gives
    a Schur complement in the w block:

      (H_ww - H_wbar_w H_wbar_wbar^{-1} H_w_wbar) dw
          = H_wbar_w H_wbar_wbar^{-1} (dE/dwbar)* - (dE/dw)*

    with H_wbar_wbar = conj(H_ww) and H_w_wbar = conj(H_wbar_w) since E
    is real.  The system is solved on the per-node diagonal blocks.  At
    the output layer the off-node blocks are identically zero, so this
    is the whole system.  At a hidden layer feeding C output nodes the
    curvature table has rank at most C per sample, so the full H_ww is
    rank-deficient whenever N*C is below the weight count (a 2-4-1 net
    on 4 samples caps it at rank 3 of 8) and the full solve would reject
    every step; the diagonal blocks stay well conditioned.

    `curv` and `cplus` are layer p's tables as layer_step returns them
    and `x` = trace.values[p-1] its input; the update builds both node
    block stacks from them and solves all nodes in one stacked
    elimination.  The cogradient and the returned step, a C-contiguous
    array, have the layer's (K_p, K_{p-1}) shape.  Raises DegenerateStep
    if the cogradient, a table or a block is not finite, ValueError if
    the cogradient has another shape, and SingularMatrix if any block
    solve breaks down.
    """
    xt = x.T.copy()
    xct = np.conj(xt)
    a, g = _node_blocks(curv, xct, xt), _node_blocks(cplus, xct, xct)
    _check_inputs(cograd_conj, a, curv, cplus, g)
    v = cograd_conj[:, :, None]
    sol = solve(np.conj(a), np.concatenate([np.conj(g), np.conj(v)], axis=2))
    t, u = sol[:, :, :-1], sol[:, :, -1:]
    schur = a - g @ t
    # a contiguous copy of the solve's strided column
    return solve(schur, g @ u - v)[:, :, 0].copy()


def pseudo_newton_update(curv, cplus, x, cograd_conj):
    """Newton step with the conjugate coupling dropped: H_ww dw = -(dE/dw)*.

    Takes the same inputs and raises the same errors as newton_update,
    and builds only the H_ww node blocks, since its solve never reads
    H_wbar_w; `cplus` is checked for finiteness all the same.
    """
    xt = x.T.copy()
    a = _node_blocks(curv, np.conj(xt), xt)
    _check_inputs(cograd_conj, a, curv, cplus)
    return solve(a, -cograd_conj[:, :, None])[:, :, 0].copy()
