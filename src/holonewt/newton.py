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
layer, at the unconjugated net sums; the factors at the conjugated net
sums are their conjugates, since every activation has real Taylor
coefficients (see activations).

Training runs layer_step inside its sweep, on the downstream weights as
already updated there, and never assembles H_ww or H_wbar_w: it builds
the per-node diagonal blocks straight from the table diagonals
(node_blocks), solves all of a layer's nodes in one stacked elimination,
and takes the steplength's quadratic forms from the tables
(one_step_denominator).  Pseudo-Newton builds only the H_ww stack, since
its solve never reads H_wbar_w.  backward_tables runs the same step on
fixed weights and keeps every layer's tables; hessian_pair assembles the
full blocks from them, the reference that `verify` and the tests compare
against.

The Newton update solves the coupled system over (w, wbar); the
pseudo-Newton update drops the H_wbar_w coupling and solves only with
H_ww.  Both solve on the per-node diagonal blocks: exact at the output
layer, and the only well-posed choice at hidden layers, where the full
matrix is singular by rank counting whenever sample count times output
width is below the layer's weight count.

The node-block contraction sums over the samples, so node_blocks takes
its operands sample-last and contiguous (sample_last): einsum's inner
loop then runs over unit-stride memory, which at wide layers outweighs
the cost of the copies.  The sum still visits the samples in
order, so the blocks keep the sample-first contraction's bits (a NaN
entry stays NaN, though its payload may differ).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import solve
from .network import forward

__all__ = [
    "layer_step",
    "sample_last",
    "node_blocks",
    "one_step_denominator",
    "BackwardTables",
    "backward_tables",
    "hessian_pair",
    "newton_update",
    "pseudo_newton_update",
]


def _diagonal(table):
    """Per-sample diagonals (N, K) of a node-pair table, full or diagonal."""
    return table if table.ndim == 2 else np.diagonal(table, axis1=1, axis2=2)


def _sandwich(left, table, right):
    """left @ table[t] @ right for every sample t; a 2-d table holds diagonals."""
    if table.ndim == 2:
        return (left * table[:, None, :]) @ right
    return left @ table @ right


def _apply(table, u):
    """table[t] @ u[t] for every sample t; a 2-d table holds diagonals."""
    if table.ndim == 2:
        return table * u
    return (table @ u[:, :, None])[:, :, 0]


def layer_step(topology, trace, targets, p, upper, w_next, curvature):
    """Layer p's (delta, curvature, cplus), or its delta alone.

    At the output layer (`upper` None) the step starts from the residual
    y - d, and both tables are (N, C) diagonals.  Below it, `upper` is
    what this function returned for layer p+1 and `w_next` is the weight
    matrix w^(p) between the two layers, passed explicitly because a
    training sweep has already updated it while the trace is still the
    one from the top of the iteration.  With `curvature` false the step
    carries only the deltas, and `upper` and the result are delta arrays.

    The row side of the curvature table takes g' at the conjugated net
    sums and its column side g' at the unconjugated ones; both sides of
    the conjugate table take it at the conjugated ones, so the diagonal
    residual table of layer p+1 feeds the off-diagonal entries of layer p
    through the conjugated weights.
    """
    act = topology.activation(p)
    net = trace.nets[p - 1]
    d1 = act.d1(net)
    d1c = np.conj(d1)
    if upper is None:
        back = trace.outputs - targets
    else:
        wc = np.conj(w_next)
        back = (upper[0] if curvature else upper) @ wc
    delta = back * d1c
    if not curvature:
        return delta
    resid = back * np.conj(act.d2(net))
    if upper is None:
        return delta, d1c * d1, resid
    _, curv_next, cplus_next = upper
    curv = _sandwich(wc.T, curv_next, w_next) * d1c[:, :, None] * d1[:, None, :]
    cplus = _sandwich(wc.T, cplus_next, wc) * d1c[:, :, None] * d1c[:, None, :]
    idx = np.arange(cplus.shape[1])
    cplus[:, idx, idx] += resid
    return delta, curv, cplus


def sample_last(x):
    """(x^T, conj(x)^T) of an (N, K) layer input, each a contiguous (K, N)
    copy with the sample axis last, as node_blocks takes its operands."""
    xt = x.T.copy()
    return xt, np.conj(xt)


def node_blocks(table, left, right):
    """One per-node diagonal block stack of H_ww or H_wbar_w, assembling neither.

    With (xt, xct) = sample_last(x) for layer p's input x, returns the
    (K_p, K_{p-1}, K_{p-1}) stacks
      node_blocks(curv, xct, xt)   A[j, i, a] = H_ww[(j,i),(j,a)]
                                              = mean_t curvature[t,j,j] conj(x_i) x_a
      node_blocks(cplus, xct, xct) G[j, i, a] = H_wbar_w[(j,i),(j,a)]
                                              = mean_t cplus[t,j,j] conj(x_i) conj(x_a)
    from the diagonal of the curvature or conjugate-plus-residual table,
    full or diagonal.  This costs O(N K_p K_{p-1}^2) where the assembled
    blocks cost O(N K_p^2 K_{p-1}^2).
    """
    diag = _diagonal(table).T.copy()
    return np.einsum("jt,it,at->jia", diag, left, right) / left.shape[1]


def one_step_denominator(curv_p, cplus_p, trace, p, dw):
    """Re{dw^H H_ww dw + dw^H H_wbar_w conj(dw)} from the tables alone.

    With u_t = dW x_t, the layer's step applied to sample t, the two
    quadratic forms are mean_t u_t^H C_t u_t and mean_t u_t^H T_t conj(u_t)
    for the curvature table C and the conjugate-plus-residual table T.
    """
    x = trace.values[p - 1]
    u = x @ dw.reshape(-1, x.shape[1]).T
    form = np.vdot(u, _apply(curv_p, u)) + np.vdot(u, _apply(cplus_p, np.conj(u)))
    return float(np.real(form)) / x.shape[0]


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
    """Run the forward pass and the backward recursion without updating any weights."""
    trace = forward(topology, weights, dataset.inputs)
    steps = []
    upper = None
    for p in range(topology.n_layers, 0, -1):
        w_next = weights[p] if upper is not None else None
        upper = layer_step(topology, trace, dataset.targets, p, upper, w_next, True)
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


def _stack(h):
    """`h` as a (K, n, n) node-block stack, or a ValueError naming that shape."""
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected a (K, n, n) node-block stack, got shape {h.shape}")
    return h


def _node_rows(cograd_conj, blocks):
    """The flat cogradient as one (K, n, 1) column per node block."""
    v = np.asarray(cograd_conj)
    k, n, _ = blocks.shape
    if v.shape != (k * n,):
        raise ValueError(f"cogradient of shape {v.shape} for {k} node blocks of size {n}")
    return v.reshape(k, n, 1)


def newton_update(a, g, cograd_conj):
    """Solve the coupled Newton system for the weight step, on node blocks.

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

    `a` and `g` are the (K, n, n) node-block stacks of H_ww and H_wbar_w
    that node_blocks builds, one block per node; all nodes are solved in
    one stacked elimination.  Raises ValueError for any other shape and
    SingularMatrix if any block solve breaks down.
    """
    a, g = _stack(a), _stack(g)
    if g.shape != a.shape:
        raise ValueError(f"H_wbar_w stack of shape {g.shape} for an H_ww stack of shape {a.shape}")
    v = _node_rows(cograd_conj, a)
    sol = solve(np.conj(a), np.concatenate([np.conj(g), np.conj(v)], axis=2))
    t, u = sol[:, :, :-1], sol[:, :, -1:]
    schur = a - g @ t
    return solve(schur, g @ u - v).ravel()


def pseudo_newton_update(a, cograd_conj):
    """Newton step with the conjugate coupling dropped: H_ww dw = -(dE/dw)*.

    Solved on the same (K, n, n) node-block stack of H_ww as newton_update.
    """
    a = _stack(a)
    return solve(a, -_node_rows(cograd_conj, a)).ravel()
