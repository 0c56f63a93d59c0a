"""Second-order backpropagation and Newton-type weight updates.

For one layer's weights the error has four Wirtinger Hessian blocks, of
which only two are independent when E is real: H_ww (rows index the
conjugate cogradient, columns the unconjugated weights) and H_wbar_w
(columns the conjugated weights).  Both admit layerwise recursions in
per-sample node-pair tables:

  * curvature[t, j, b] scales conj(x_i) x_a to build H_ww,
  * residual_curvature[t, j] (a diagonal) and conj_curvature[t, j, b]
    together scale conj(x_i) conj(x_a) to build H_wbar_w; their sum is
    the conjugate-plus-residual table.

At the output layer the curvature and residual tables are diagonal and
the conjugate table vanishes, which makes both output-layer blocks block
diagonal with one block per output node.  The Newton update solves the
coupled system over (w, wbar); the pseudo-Newton update drops the
H_wbar_w coupling and solves only with H_ww.  Both updates solve on the
per-node diagonal blocks: exact at the output layer, and the only
well-posed choice at hidden layers, where the full matrix is singular
by rank counting whenever sample count times output width is below the
layer's weight count.

Training never assembles H_ww or H_wbar_w.  It builds the node blocks
straight from the table diagonals (node_blocks), solves all of a
layer's nodes in one stacked elimination, and takes the steplength's
quadratic forms from the tables (one_step_denominator).  The output
layer's tables stay diagonal (N, K) arrays there.  Pseudo-Newton builds
only the H_ww stack, since its solve never reads H_wbar_w.  Full
assembly (hessian_pair over backward_tables) is the reference that
`verify` and the tests compare against.

The node-block contraction sums over the samples, so node_blocks takes
its operands sample-last and contiguous (sample_last): einsum's inner
loop then runs over unit-stride memory, which at wide layers outweighs
the cost of the copies.  The sum still visits the samples in
order, so the blocks keep the sample-first contraction's bits (a NaN
entry stays NaN, though its payload may differ).
"""

from dataclasses import dataclass

import numpy as np

from .gradient import delta_hidden, delta_output
from .linalg import solve
from .network import forward

__all__ = [
    "curvature_output",
    "curvature_hidden",
    "residual_curvature_output",
    "residual_curvature_hidden",
    "conj_curvature_output",
    "conj_curvature_hidden",
    "conj_plus_residual",
    "curvature_output_diagonal",
    "sample_last",
    "node_blocks",
    "one_step_denominator",
    "assemble_h_ww",
    "assemble_h_wbar_w",
    "BackwardTables",
    "backward_tables",
    "hessian_pair",
    "newton_update",
    "pseudo_newton_update",
]


def _diag_embed(vals):
    n, k = vals.shape
    out = np.zeros((n, k, k), dtype=complex)
    idx = np.arange(k)
    out[:, idx, idx] = vals
    return out


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


def curvature_output_diagonal(topology, trace):
    """(N, C) diagonal g'(conj(net)) g'(net) of the output-layer H_ww table."""
    act = topology.activation(topology.n_layers)
    net = trace.nets[-1]
    return act.d1(np.conj(net)) * act.d1(net)


def curvature_output(topology, trace):
    """(N, C, C) diagonal table g'(conj(net)) g'(net) at the output layer."""
    return _diag_embed(curvature_output_diagonal(topology, trace))


def curvature_hidden(topology, trace, curv_next, w_next, p):
    """Propagate the H_ww table from layer p+1 back to layer p.

    `curv_next` is layer p+1's (N, K, K) table, or its (N, K) diagonal
    when layer p+1 is the output layer.  Note the asymmetric derivative
    pair: the row side evaluates g' at the conjugated net sum, the
    column side at the unconjugated one.
    """
    act = topology.activation(p)
    net = trace.nets[p - 1]
    core = _sandwich(np.conj(w_next).T, curv_next, w_next)
    return core * act.d1(np.conj(net))[:, :, None] * act.d1(net)[:, None, :]


def residual_curvature_output(topology, trace, targets):
    """(N, C) diagonal of the residual-weighted g'' table at the output."""
    act = topology.activation(topology.n_layers)
    return (trace.outputs - targets) * act.d2(np.conj(trace.nets[-1]))


def residual_curvature_hidden(topology, trace, delta_next, w_next, p):
    """(N, K_p) diagonal: backpropagated deltas times g'' at layer p."""
    act = topology.activation(p)
    return (delta_next @ np.conj(w_next)) * act.d2(np.conj(trace.nets[p - 1]))


def conj_curvature_output(topology, trace):
    """The off-diagonal H_wbar_w table is identically zero at the output."""
    n, c = trace.nets[-1].shape
    return np.zeros((n, c, c), dtype=complex)


def conj_plus_residual(conj_curv, resid_curv):
    """The table that scales conj(x_i) conj(x_a) in H_wbar_w: the
    conjugate table with the residual table added on its diagonal."""
    table = conj_curv.copy()
    idx = np.arange(table.shape[1])
    table[:, idx, idx] += resid_curv
    return table


def conj_curvature_hidden(topology, trace, cplus_next, w_next, p):
    """Propagate the H_wbar_w table from layer p+1 back to layer p.

    `cplus_next` is layer p+1's conjugate-plus-residual table (see
    conj_plus_residual), or its (N, K) diagonal, the residual table,
    when layer p+1 is the output layer, where the conjugate table
    vanishes.  Both derivative factors evaluate g' at the conjugated net
    sums, so the diagonal residual table of layer p+1 feeds the
    off-diagonal entries of layer p through the conjugated weights.
    """
    act = topology.activation(p)
    wc = np.conj(w_next)
    core = _sandwich(wc.T, cplus_next, wc)
    d1c = act.d1(np.conj(trace.nets[p - 1]))
    return core * d1c[:, :, None] * d1c[:, None, :]


def assemble_h_ww(curv_p, trace, p):
    """H_ww[(j,i),(b,a)] = mean_t curvature[t,j,b] conj(x_i) x_a."""
    x = trace.values[p - 1]
    n = x.shape[0]
    h = np.einsum("tjb,ti,ta->jiba", curv_p, np.conj(x), x) / n
    size = curv_p.shape[1] * x.shape[1]
    return h.reshape(size, size)


def assemble_h_wbar_w(conj_curv_p, resid_curv_p, trace, p):
    """H_wbar_w[(j,i),(b,a)] = mean_t table[t,j,b] conj(x_i) conj(x_a)."""
    x = np.conj(trace.values[p - 1])
    n = x.shape[0]
    table = conj_plus_residual(conj_curv_p, resid_curv_p)
    h = np.einsum("tjb,ti,ta->jiba", table, x, x) / n
    size = table.shape[1] * x.shape[1]
    return h.reshape(size, size)


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
    """Full backward sweep at fixed weights, one entry per layer (index p-1)."""

    topology: object
    trace: object
    deltas: list
    curvature: list
    residual_curvature: list
    conj_curvature: list


def backward_tables(topology, weights, dataset):
    """Run forward and backward passes without updating any weights."""
    trace = forward(topology, weights, dataset.inputs)
    ell = topology.n_layers
    deltas = [None] * ell
    curv = [None] * ell
    resid = [None] * ell
    cconj = [None] * ell
    deltas[ell - 1] = delta_output(topology, trace, dataset.targets)
    curv[ell - 1] = curvature_output(topology, trace)
    resid[ell - 1] = residual_curvature_output(topology, trace, dataset.targets)
    cconj[ell - 1] = conj_curvature_output(topology, trace)
    for p in range(ell - 1, 0, -1):
        w_next = weights[p]
        deltas[p - 1] = delta_hidden(topology, trace, deltas[p], w_next, p)
        curv[p - 1] = curvature_hidden(topology, trace, curv[p], w_next, p)
        resid[p - 1] = residual_curvature_hidden(topology, trace, deltas[p], w_next, p)
        cplus_next = conj_plus_residual(cconj[p], resid[p])
        cconj[p - 1] = conj_curvature_hidden(topology, trace, cplus_next, w_next, p)
    return BackwardTables(topology, trace, deltas, curv, resid, cconj)


def hessian_pair(tables, p):
    h_ww = assemble_h_ww(tables.curvature[p - 1], tables.trace, p)
    h_wbar_w = assemble_h_wbar_w(
        tables.conj_curvature[p - 1], tables.residual_curvature[p - 1], tables.trace, p
    )
    return h_ww, h_wbar_w


def _node_stack(h, n_nodes):
    """(n_nodes, n, n) node blocks: a stack as given, or the diagonal
    blocks of a full layer matrix."""
    h = np.asarray(h)
    if h.ndim == 3:
        if h.shape[0] != n_nodes:
            raise ValueError(f"stack of {h.shape[0]} node blocks for {n_nodes} nodes")
        return h
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix or a node-block stack, got shape {h.shape}")
    if n_nodes < 1 or h.shape[0] % n_nodes:
        raise ValueError(f"{h.shape[0]} weights do not split evenly over {n_nodes} nodes")
    n = h.shape[0] // n_nodes
    return np.einsum("jajb->jab", h.reshape(n_nodes, n, n_nodes, n))


def _node_rows(cograd_conj, blocks):
    """The flat cogradient as one (n_nodes, n) row per node."""
    v = np.asarray(cograd_conj)
    k, n, _ = blocks.shape
    if v.shape != (k * n,):
        raise ValueError(f"cogradient of shape {v.shape} for {k} node blocks of size {n}")
    return v.reshape(k, n)


def newton_update(h_ww, h_wbar_w, cograd_conj, n_nodes=1):
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

    `h_ww` and `h_wbar_w` are full layer matrices, whose `n_nodes`
    diagonal blocks are used, or (n_nodes, n, n) node-block stacks as
    node_blocks builds them.  All nodes are solved in one stacked
    elimination.  Raises ValueError when the sizes do not split over the
    nodes and SingularMatrix if any block solve breaks down.
    """
    a = _node_stack(h_ww, n_nodes)
    g = _node_stack(h_wbar_w, n_nodes)
    v = _node_rows(cograd_conj, a)
    sol = solve(np.conj(a), np.concatenate([np.conj(g), np.conj(v)[:, :, None]], axis=2))
    t, u = sol[:, :, :-1], sol[:, :, -1:]
    schur = a - g @ t
    rhs = (g @ u)[:, :, 0] - v
    return solve(schur, rhs).ravel()


def pseudo_newton_update(h_ww, cograd_conj, n_nodes=1):
    """Newton step with the conjugate coupling dropped: H_ww dw = -(dE/dw)*.

    Solved on the same per-node diagonal blocks as newton_update, which
    takes the same forms of `h_ww`, for the same reason.
    """
    a = _node_stack(h_ww, n_nodes)
    return solve(a, -_node_rows(cograd_conj, a)).ravel()
