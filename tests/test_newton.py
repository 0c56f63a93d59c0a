import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holonewt import Dataset, NetworkTopology, forward
from holonewt.fdcheck import fd_hessians, real_quadratic_form, relative_error
from holonewt.gradient import cogradient_conj
from holonewt.linalg import SingularMatrix
from holonewt.newton import (
    DegenerateStep,
    _node_blocks,
    backward_tables,
    hessian_pair,
    layer_step,
    newton_update,
    one_step_mu,
    pseudo_newton_update,
    table_buffers,
)

from helpers import (
    complex_uniform,
    node_diagonal,
    random_instance,
    reference_layer_step,
    sample_first_node_blocks,
)


def single_linear_neuron_tables():
    t = NetworkTopology((1, 1), ("identity",))
    w = [np.zeros((1, 1), dtype=complex)]
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    return t, w, ds, backward_tables(t, w, ds)


def update_inputs(tables, p):
    """Layer p's (curvature, cplus, input, conjugate cogradient), as a
    training sweep hands them to an update."""
    trace = tables.trace
    cog = cogradient_conj(tables.deltas[p - 1], trace, p)
    return tables.curvature[p - 1], tables.cplus[p - 1], trace.values[p - 1], cog


def output_step(topology, trace, targets=None):
    """The output layer's (delta, curvature, cplus); the curvature table
    does not depend on the targets."""
    if targets is None:
        targets = np.zeros_like(trace.outputs)
    buffers = table_buffers(topology, trace.outputs.shape[0])
    return layer_step(topology, trace, targets, topology.n_layers, None, None, buffers)


class TestCurvatureTables:
    def test_output_identity_is_one(self):
        t = NetworkTopology((2, 2), ("identity",))
        rng = np.random.default_rng(0)
        w = [complex_uniform(rng, (2, 2))]
        trace = forward(t, w, complex_uniform(rng, (3, 2)))
        _, curv, _ = output_step(t, trace)
        np.testing.assert_array_equal(curv, np.ones((3, 2)))

    def test_output_sigmoid_zero_net(self):
        """g'(0)^2 = 0.0625 on the diagonal."""
        t = NetworkTopology((1, 1), ("sigmoid",))
        w = [np.zeros((1, 1), dtype=complex)]
        trace = forward(t, w, np.array([[1.0]]))
        np.testing.assert_allclose(output_step(t, trace)[1], [[0.0625]], rtol=1e-15)

    def test_output_off_diagonal_exactly_zero(self):
        """Both output-layer tables are stored as (N, C) diagonals, so
        their off-diagonal entries are zero by construction, and the
        first hidden step reads them as diagonals."""
        t = NetworkTopology((2, 3, 2), ("sigmoid", "sigmoid"))
        rng = np.random.default_rng(1)
        w = [complex_uniform(rng, (3, 2)), complex_uniform(rng, (2, 3))]
        trace = forward(t, w, complex_uniform(rng, (4, 2)))
        delta, curv, cplus = output_step(t, trace, complex_uniform(rng, (4, 2)))
        assert delta.shape == curv.shape == cplus.shape == (4, 2)
        _, curv1, cplus1 = layer_step(t, trace, None, 1, (delta, curv, cplus), w, table_buffers(t, 4))
        _, full1, fullplus1 = layer_step(
            t,
            trace,
            None,
            1,
            (delta, curv[:, :, None] * np.eye(2), cplus[:, :, None] * np.eye(2)),
            w,
            table_buffers(t, 4),
        )
        np.testing.assert_allclose(curv1, full1, rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(cplus1, fullplus1, rtol=1e-14, atol=1e-16)

    def test_output_diagonal_real_nonnegative(self):
        """|g'(net)|^2 whenever g has real Taylor coefficients."""
        t, w, ds = random_instance((2, 3, 1), "taylor3", 5)
        trace = forward(t, w, ds.inputs)
        diag = output_step(t, trace, ds.targets)[1][:, 0]
        assert np.max(np.abs(diag.imag)) <= 1e-16
        assert np.all(diag.real >= 0)

    def test_hidden_zero_weights_annihilate(self):
        t = NetworkTopology((2, 2, 1), ("taylor3", "taylor3"))
        rng = np.random.default_rng(2)
        w = [complex_uniform(rng, (2, 2)), np.zeros((1, 2), dtype=complex)]
        trace = forward(t, w, complex_uniform(rng, (3, 2)))
        upper = output_step(t, trace, complex_uniform(rng, (3, 1)))
        _, curv1, cplus1 = layer_step(t, trace, None, 1, upper, w, table_buffers(t, 3))
        np.testing.assert_array_equal(curv1, np.zeros((3, 2, 2)))
        np.testing.assert_array_equal(cplus1, np.zeros((3, 2, 2)))

    def test_hidden_chain_1_1_1(self):
        """Identity 1-1-1 net: hidden curvature is |w2|^2."""
        t = NetworkTopology((1, 1, 1), ("identity", "identity"))
        w2 = 2.0 - 1.0j
        w = [np.array([[0.7 + 0.2j]]), np.array([[w2]])]
        trace = forward(t, w, np.array([[1.5]]))
        upper = output_step(t, trace)
        _, curv1, _ = layer_step(t, trace, None, 1, upper, w, table_buffers(t, 1))
        np.testing.assert_allclose(curv1, [[[5.0]]], rtol=1e-15)

    def test_delta_only_step_matches_the_triple(self):
        """Without table buffers, the step carries the same deltas."""
        t, w, ds = random_instance((2, 3, 3, 1), "sigmoid", 9)
        tables = backward_tables(t, w, ds)
        delta = None
        for p in range(t.n_layers, 0, -1):
            delta = layer_step(t, tables.trace, ds.targets, p, delta, w)
            np.testing.assert_array_equal(delta, tables.deltas[p - 1])

    def test_backward_tables_layers_share_no_memory(self):
        """backward_tables keeps every layer's tables, so no two of them
        may live in the same buffer."""
        t, w, ds = random_instance((2, 3, 4, 3, 1), "taylor3", 3, n_samples=5)
        tables = backward_tables(t, w, ds)
        arrays = tables.curvature + tables.cplus
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_table_buffers_shapes(self):
        """Each hidden layer gets its two (N, K_p, K_p) tables and the
        (N, K_p, K_{p+1}) and (N, K_p, K_p) intermediates; the output
        layer gets none."""
        t = NetworkTopology((2, 3, 5, 1), ("taylor3",) * 3)
        buffers = table_buffers(t, 7)
        assert buffers[-1] is None
        for p, (curv, cplus, inner, product) in enumerate(buffers[:-1], start=1):
            k = t.widths[p]
            assert curv.shape == cplus.shape == product.shape == (7, k, k)
            assert inner.shape == (7, k, t.widths[p + 1])
            assert not np.shares_memory(curv, cplus)
            assert not np.shares_memory(curv, product) and not np.shares_memory(cplus, inner)


class TestResidualAndConjTables:
    def test_identity_activation_residual_zero(self):
        t, w, ds, tables = single_linear_neuron_tables()
        for cplus in tables.cplus:
            np.testing.assert_array_equal(cplus, np.zeros_like(cplus))

    def test_output_zero_residual(self):
        t = NetworkTopology((1, 1), ("sigmoid",))
        w = [np.zeros((1, 1), dtype=complex)]
        ds = Dataset(np.array([[1.0]]), np.array([[0.5]]))
        trace = forward(t, w, ds.inputs)
        np.testing.assert_array_equal(output_step(t, trace, ds.targets)[2], [[0.0]])

    def test_output_sigmoid_zero_net_vanishes(self):
        """g''(0) = 0 kills the table even with residual 0.5."""
        t = NetworkTopology((1, 1), ("sigmoid",))
        w = [np.zeros((1, 1), dtype=complex)]
        ds = Dataset(np.array([[1.0]]), np.array([[0.0]]))
        trace = forward(t, w, ds.inputs)
        np.testing.assert_allclose(output_step(t, trace, ds.targets)[2], [[0.0]], atol=1e-16)

    def test_identity_network_tables_all_zero(self):
        t, w, ds = random_instance((2, 3, 1), "identity", 7)
        tables = backward_tables(t, w, ds)
        for cplus in tables.cplus:
            np.testing.assert_array_equal(cplus, np.zeros_like(cplus))


class TestHessianAssembly:
    def test_single_linear_neuron_h_ww(self):
        _, _, _, tables = single_linear_neuron_tables()
        h_ww, h_wbar_w = hessian_pair(tables, 1)
        np.testing.assert_array_equal(h_ww, [[1.0]])
        np.testing.assert_array_equal(h_wbar_w, [[0.0]])

    def test_output_layer_block_diagonal(self):
        """With C outputs the output-layer blocks are per-node: the entry
        coupling weights of different output nodes is exactly zero."""
        t, w, ds = random_instance((2, 3, 2), "sigmoid", 11)
        tables = backward_tables(t, w, ds)
        h_ww, h_wbar_w = hessian_pair(tables, 2)
        k = 3
        for h in (h_ww, h_wbar_w):
            assert h.shape == (6, 6)
            assert np.all(h[:k, k:] == 0)
            assert np.all(h[k:, :k] == 0)

    def test_identity_network_h_wbar_w_zero(self):
        t, w, ds = random_instance((2, 4, 1), "identity", 13)
        tables = backward_tables(t, w, ds)
        for p in (1, 2):
            _, h_wbar_w = hessian_pair(tables, p)
            np.testing.assert_array_equal(h_wbar_w, np.zeros_like(h_wbar_w))

    def test_h_ww_hermitian(self):
        for seed in range(5):
            t, w, ds = random_instance((2, 3, 1), "sigmoid", 20 + seed)
            tables = backward_tables(t, w, ds)
            for p in (1, 2):
                h_ww, _ = hessian_pair(tables, p)
                scale = max(np.max(np.abs(h_ww)), 1e-30)
                assert np.max(np.abs(h_ww - h_ww.conj().T)) / scale <= 1e-12

    @pytest.mark.parametrize("act", ["sigmoid", "taylor3"])
    def test_matches_fd_oracle(self, act):
        """Spot check; the 100-seed battery lives in the acceptance suite."""
        for seed in range(5):
            t, w, ds = random_instance((2, 3, 1), act, 40 + seed)
            tables = backward_tables(t, w, ds)
            for p in (1, 2):
                h_ww, h_wbar_w = hessian_pair(tables, p)
                fd_ww, fd_wbar_w = fd_hessians(t, w, ds, p)
                scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
                assert np.linalg.norm(h_ww - fd_ww) / scale <= 1e-5
                assert np.linalg.norm(h_wbar_w - fd_wbar_w) / scale <= 1e-5


UPDATES = (newton_update, pseudo_newton_update)


class TestUpdates:
    def test_single_linear_neuron_newton(self):
        _, _, _, tables = single_linear_neuron_tables()
        for update in UPDATES:
            np.testing.assert_array_equal(update(*update_inputs(tables, 1)), [[1.0]])

    def test_zero_cogradient_zero_update(self):
        t, w, ds = random_instance((3, 2), "taylor3", 29)
        curv, cplus, x, cog = update_inputs(backward_tables(t, w, ds), 1)
        for update in UPDATES:
            np.testing.assert_array_equal(update(curv, cplus, x, np.zeros_like(cog)), np.zeros((2, 3)))

    def test_newton_reduces_to_pseudo_when_uncoupled(self):
        """H_wbar_w = 0 degenerates the coupled formula exactly."""
        rng = np.random.default_rng(30)
        x = complex_uniform(rng, (6, 4))
        curv = rng.uniform(0.5, 1.5, (6, 2)).astype(complex)
        cplus = np.zeros_like(curv)
        v = complex_uniform(rng, (2, 4))
        np.testing.assert_array_equal(
            newton_update(curv, cplus, x, v), pseudo_newton_update(curv, cplus, x, v)
        )

    def test_newton_equals_pseudo_on_identity_network(self):
        t, w, ds = random_instance((3, 2), "identity", 31, n_samples=4)
        inputs = update_inputs(backward_tables(t, w, ds), 1)
        np.testing.assert_array_equal(newton_update(*inputs), pseudo_newton_update(*inputs))

    def test_per_node_solve_equals_full_solve_when_block_diagonal(self):
        """On an exactly block-diagonal system the per-node solve and a
        dense solve of the whole matrix agree; the output layer is the
        case that matters."""
        t, w, ds = random_instance((2, 3, 2), "taylor3", 32, n_samples=5)
        tables = backward_tables(t, w, ds)
        h_ww, _ = hessian_pair(tables, 2)
        inputs = update_inputs(tables, 2)
        dense = np.linalg.solve(h_ww, -inputs[-1].ravel())
        np.testing.assert_allclose(
            pseudo_newton_update(*inputs).ravel(), dense, rtol=1e-12, atol=1e-15
        )

    def test_newton_solves_the_coupled_system(self):
        """The returned dw satisfies the stacked optimality conditions
        H_ww dw + H_wbar_w conj(dw) = -(dE/dw)*."""
        t, w, ds = random_instance((2, 3, 2), "sigmoid", 33, n_samples=5)
        tables = backward_tables(t, w, ds)
        h_ww, h_wbar_w = hessian_pair(tables, 2)
        inputs = update_inputs(tables, 2)
        cog = inputs[-1].ravel()
        dw = newton_update(*inputs).ravel()
        residual = h_ww @ dw + h_wbar_w @ np.conj(dw) + cog
        assert np.linalg.norm(residual) <= 1e-10 * max(np.linalg.norm(cog), 1.0)

    def test_singular_block_raises(self):
        curv, cplus = np.ones((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)
        # one sample whose second input is zero: the node's H_ww block is
        # [[1, 0], [0, 0]]
        x = np.array([[1.0, 0.0]], dtype=complex)
        for update in UPDATES:
            with pytest.raises(SingularMatrix):
                update(curv, cplus, x, np.ones((1, 2), dtype=complex))

    def test_stack_and_cogradient_shapes_are_checked(self):
        """The cogradient needs the layer's (K_p, K_{p-1}) shape, one row
        per node block; a flat one is refused too."""
        t, w, ds = random_instance((2, 3), "taylor3", 34)
        curv, cplus, x, cog = update_inputs(backward_tables(t, w, ds), 1)
        for bad, shape in ((cog[:, :1], r"\(3, 1\)"), (cog.ravel(), r"\(6,\)")):
            for update in UPDATES:
                with pytest.raises(ValueError, match=rf"cogradient of shape {shape} for 3 node blocks of size 2"):
                    update(curv, cplus, x, bad)

    def test_steps_keep_the_layer_shape_contiguous(self):
        """Both updates return the layer's (K_p, K_{p-1}) weight shape as
        a C-contiguous array, which one_step_mu multiplies by."""
        t, w, ds = random_instance((3, 4, 2), "sigmoid", 36, n_samples=5)
        tables = backward_tables(t, w, ds)
        for p in (1, 2):
            for update in UPDATES:
                dw = update(*update_inputs(tables, p))
                assert dw.shape == w[p - 1].shape
                assert dw.flags.c_contiguous

    def test_singular_block_is_named(self):
        # with x = I, node j's block is diag(curvature[:, j]) / 2, so the
        # third node's block is rank 1
        curv = np.array([[1, 1, 1], [1, 1, 0]], dtype=complex)
        x = np.eye(2, dtype=complex)
        v = np.ones((3, 2), dtype=complex)
        for update in UPDATES:
            with pytest.raises(SingularMatrix, match="^block 2: pivot"):
                update(curv, np.zeros_like(curv), x, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["curvature", "cplus", "cogradient"])
    def test_non_finite_input_is_a_degenerate_step(self, where, bad):
        """A NaN or infinite entry in either table or in the cogradient
        makes both updates raise DegenerateStep before any solve; on the
        curvature table's diagonal it would otherwise reach the solve as
        a singular block."""
        t, w, ds = random_instance((2, 3, 2), "sigmoid", 35)
        inputs = list(update_inputs(backward_tables(t, w, ds), 1))
        k = ("curvature", "cplus", None, "cogradient").index(where)
        inputs[k] = inputs[k].copy()
        inputs[k].flat[0] = bad
        for update in UPDATES:
            with np.errstate(all="ignore"), pytest.raises(DegenerateStep, match="not finite"):
                update(*inputs)


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    act=st.sampled_from(["taylor3", "sigmoid", "identity"]),
    n_samples=st.integers(1, 5),
    seed=st.integers(0, 2**20),
)
def test_matrix_free_curvature_matches_assembly(widths, act, n_samples, seed):
    """On random topologies up to depth 4, the node blocks and one-step
    steplength that training computes from the layer tables agree with
    the H_ww and H_wbar_w that hessian_pair assembles from them."""
    t, w, ds = random_instance(widths, act, seed, n_samples=n_samples, pole_margin=0.05)
    tables = backward_tables(t, w, ds)
    rng = np.random.default_rng(seed)
    for p in range(1, t.n_layers + 1):
        curv, cplus = tables.curvature[p - 1], tables.cplus[p - 1]
        h_ww, h_wbar_w = hessian_pair(tables, p)
        k = t.widths[p]
        x = tables.trace.values[p - 1]
        xt = x.T.copy()
        xct = np.conj(xt)
        a = _node_blocks(curv, xct, xt)
        g = _node_blocks(cplus, xct, xct)
        scale = max(np.abs(h_ww).max(), np.abs(h_wbar_w).max(), 1e-300)
        assert np.abs(a - node_diagonal(h_ww, k)).max() <= 1e-13 * scale
        assert np.abs(g - node_diagonal(h_wbar_w, k)).max() <= 1e-13 * scale

        dw = complex_uniform(rng, (k, t.widths[p - 1]))
        # with the cogradient dw itself the numerator is -|dw|^2, so the
        # steplength gives away its denominator
        numerator = -np.vdot(dw, dw).real
        denominator = numerator / one_step_mu(curv, cplus, x, dw, dw)
        flat = dw.ravel()
        reference = real_quadratic_form(h_ww, h_wbar_w, flat) / 2
        size = abs(np.vdot(flat, h_ww @ flat)) + abs(np.vdot(flat, h_wbar_w @ np.conj(flat)))
        assert abs(denominator - reference) <= 1e-12 * max(size, 1e-300)

        # training's step, which builds its own stacks, solves each node's
        # coupled system as hessian_pair assembles it, wherever that is
        # well posed
        cog = cogradient_conj(tables.deltas[p - 1], tables.trace, p)
        ref_a, ref_g = node_diagonal(h_ww, k), node_diagonal(h_wbar_w, k)
        coupled = np.block([[ref_a, ref_g], [np.conj(ref_g), np.conj(ref_a)]])
        if max(np.linalg.cond(ref_a).max(), np.linalg.cond(coupled).max()) > 1e4:
            continue
        dw = newton_update(curv, cplus, x, cog)[:, :, None]
        v = cog[:, :, None]
        residual = ref_a @ dw + ref_g @ np.conj(dw) + v
        bound = 1e-10 * (np.abs(coupled).max() * np.abs(dw).max() + np.abs(v).max())
        assert np.abs(residual).max() <= bound


def assert_same_bits(got, ref):
    """NaN in the same places, and every other real and imaginary part
    byte-equal (so signed zeros and infinities count too)."""
    g, r = got.view(np.float64), ref.view(np.float64)
    nan = np.isnan(r)
    np.testing.assert_array_equal(np.isnan(g), nan)
    np.testing.assert_array_equal(g.view(np.uint64)[~nan], r.view(np.uint64)[~nan])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 69),
    k=st.integers(1, 8),
    k_in=st.integers(1, 8),
    full=st.booleans(),
    special=st.sampled_from([None, np.nan, np.inf, -np.inf, complex(np.inf, np.nan), -0.0]),
    seed=st.integers(0, 2**20),
)
@example(n=32, k=16, k_in=16, full=True, special=None, seed=0)
@example(n=1, k=1, k_in=1, full=False, special=np.nan, seed=0)
def test_sample_last_node_blocks_keep_sample_first_bits(n, k, k_in, full, special, seed):
    """The sample-last contraction gives the same bits as the
    sample-first one it replaced, for both stacks, on full and diagonal
    tables, with NaN and infinite entries."""
    rng = np.random.default_rng(seed)
    table = complex_uniform(rng, (n, k, k) if full else (n, k))
    x = complex_uniform(rng, (n, k_in))
    if special is not None:
        table[rng.random(table.shape) < 0.2] = special
        x[rng.random(x.shape) < 0.1] = special
    # the operands as the updates hand them over: contiguous, sample last
    xt = x.T.copy()
    xct = np.conj(xt)
    with np.errstate(all="ignore"):
        assert_same_bits(_node_blocks(table, xct, xt), sample_first_node_blocks(table, x))
        assert_same_bits(
            _node_blocks(table, xct, xct), sample_first_node_blocks(table, x, conj_right=True)
        )


@settings(max_examples=100, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=2, max_size=5),
    act=st.sampled_from(["taylor3", "sigmoid", "identity"]),
    seed=st.integers(0, 2**20),
)
def test_backward_recursion_matches_fd_oracle(widths, act, seed):
    """Training and backward_tables run the same layer_step, so only the
    finite-difference oracle checks that recursion independently: on
    random topologies up to depth 4, every layer's H_ww is Hermitian, and
    both blocks match the FD estimates within the scale-relative 1e-5 of
    criterion 1."""
    t, w, ds = random_instance(widths, act, seed)
    tables = backward_tables(t, w, ds)
    for p in range(1, t.n_layers + 1):
        h_ww, h_wbar_w = hessian_pair(tables, p)
        assert np.abs(h_ww - h_ww.conj().T).max() <= 1e-12 * max(np.abs(h_ww).max(), 1e-300)
        fd_ww, fd_wbar_w = fd_hessians(t, w, ds, p)
        scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
        assert relative_error(h_ww, fd_ww, scale=scale) <= 1e-5
        assert relative_error(h_wbar_w, fd_wbar_w, scale=scale) <= 1e-5


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 16), min_size=3, max_size=5),
    act=st.sampled_from(["taylor3", "sigmoid", "identity"]),
    n_samples=st.integers(1, 40),
    seed=st.integers(0, 2**20),
)
@example(widths=[4, 16, 16, 4], act="taylor3", n_samples=32, seed=0)
@example(widths=[2, 4, 4, 1], act="sigmoid", n_samples=4, seed=1)
def test_layer_step_keeps_reference_bits(widths, act, n_samples, seed):
    """Every layer's (delta, curvature, cplus) from layer_step has the
    bits of the reference step, which allocates its tables afresh, on
    depth 2 to 4 nets whose hidden layers carry full tables, with NaN and
    infinite entries near sigmoid poles.  The buffers start out as NaN,
    then hold the previous call's tables for a second instance."""
    buffers = table_buffers(random_instance(widths, act, seed)[0], n_samples)
    for bufs in buffers[:-1]:
        for b in bufs:
            b.fill(np.nan)
    for s in (seed, seed + 1):
        t, w, ds = random_instance(widths, act, s, n_samples=n_samples, pole_margin=0.0)
        trace = forward(t, w, ds.inputs)
        upper = None
        with np.errstate(all="ignore"):
            for p in range(t.n_layers, 0, -1):
                w_next = w[p] if upper is not None else None
                ref = reference_layer_step(t, trace, ds.targets, p, upper, w_next, True)
                got = layer_step(t, trace, ds.targets, p, upper, w, buffers)
                for g, r in zip(got, ref):
                    assert g.shape == r.shape
                    assert_same_bits(g, r)
                if p < t.n_layers:
                    assert got[1] is buffers[p - 1][0] and got[2] is buffers[p - 1][1]
                upper = ref
