import numpy as np
import pytest

from holonewt import Dataset, NetworkTopology, error, forward
from holonewt.fdcheck import fd_cogradient
from holonewt.gradient import cogradient_conj
from holonewt.newton import backward_tables, layer_step

from helpers import complex_uniform, random_instance


def single_linear_neuron():
    """(1,1) identity net with z=1, d=1, w=0; E = |w - 1|^2 at w."""
    t = NetworkTopology((1, 1), ("identity",))
    w = [np.zeros((1, 1), dtype=complex)]
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    return t, w, ds


def delta_output(topology, trace, targets):
    """The output layer's deltas: layer_step without table buffers."""
    return layer_step(topology, trace, targets, topology.n_layers, None, None)


def delta_hidden(topology, trace, delta_next, weights, p):
    """Hidden layer p's deltas from layer p+1's, through weights[p]."""
    return layer_step(topology, trace, None, p, delta_next, weights)


def test_delta_output_zero_residual():
    t = NetworkTopology((1, 1), ("identity",))
    w = [np.array([[2.0 + 0j]])]
    ds = Dataset(np.array([[1.0]]), np.array([[2.0]]))
    trace = forward(t, w, ds.inputs)
    np.testing.assert_array_equal(delta_output(t, trace, ds.targets), [[0.0]])


def test_delta_output_single_linear_neuron():
    t, w, ds = single_linear_neuron()
    trace = forward(t, w, ds.inputs)
    np.testing.assert_array_equal(delta_output(t, trace, ds.targets), [[-1.0]])


def test_delta_output_sigmoid_zero_net():
    """y=0.5, d=0, g'(0)=0.25 -> 0.5 * 0.25 = 0.125."""
    t = NetworkTopology((1, 1), ("sigmoid",))
    w = [np.zeros((1, 1), dtype=complex)]
    ds = Dataset(np.array([[1.0]]), np.array([[0.0]]))
    trace = forward(t, w, ds.inputs)
    np.testing.assert_allclose(delta_output(t, trace, ds.targets), [[0.125]], rtol=1e-15)


def test_delta_hidden_zero_delta():
    t = NetworkTopology((2, 2, 1), ("taylor3", "taylor3"))
    rng = np.random.default_rng(0)
    w = [complex_uniform(rng, (2, 2)), complex_uniform(rng, (1, 2))]
    trace = forward(t, w, complex_uniform(rng, (3, 2)))
    zero = np.zeros((3, 1), dtype=complex)
    np.testing.assert_array_equal(delta_hidden(t, trace, zero, w, 1), np.zeros((3, 2)))


def test_delta_hidden_zero_weights():
    t = NetworkTopology((2, 2, 1), ("taylor3", "taylor3"))
    rng = np.random.default_rng(1)
    w = [complex_uniform(rng, (2, 2)), np.zeros((1, 2), dtype=complex)]
    trace = forward(t, w, complex_uniform(rng, (3, 2)))
    delta = complex_uniform(rng, (3, 1))
    np.testing.assert_array_equal(delta_hidden(t, trace, delta, w, 1), np.zeros((3, 2)))


def test_cogradient_hand_expansion_221():
    """2-2-1 identity net, one sample, hand chain rule.

    y = W2 W1 x with x=(1, i), d=2, W1=I, W2=(1, i): y = 1 + i^2 = 0, so
    (dE/dW1_ji)* = (y-d) conj(W2_j) conj(x_i) gives (-2, 2i, 2i, 2).
    """
    t = NetworkTopology((2, 2, 1), ("identity", "identity"))
    w = [np.eye(2, dtype=complex), np.array([[1.0, 1j]])]
    ds = Dataset(np.array([[1.0, 1j]]), np.array([[2.0]]))
    trace = forward(t, w, ds.inputs)
    delta2 = delta_output(t, trace, ds.targets)
    delta1 = delta_hidden(t, trace, delta2, w, 1)
    cog = cogradient_conj(delta1, trace, 1)
    np.testing.assert_allclose(cog, [[-2.0, 2j], [2j, 2.0]], atol=1e-15)


def test_cogradient_zero_at_perfect_fit():
    t = NetworkTopology((2, 2), ("identity",))
    rng = np.random.default_rng(2)
    w = [complex_uniform(rng, (2, 2))]
    x = complex_uniform(rng, (3, 2))
    ds = Dataset(x, forward(t, w, x).outputs)
    trace = forward(t, w, ds.inputs)
    delta = delta_output(t, trace, ds.targets)
    np.testing.assert_array_equal(cogradient_conj(delta, trace, 1), np.zeros((2, 2)))


def test_cogradient_single_linear_neuron():
    t, w, ds = single_linear_neuron()
    trace = forward(t, w, ds.inputs)
    delta = delta_output(t, trace, ds.targets)
    np.testing.assert_array_equal(cogradient_conj(delta, trace, 1), [[-1.0]])


def test_gd_single_step_minimizes_linear_neuron():
    """One gradient step with mu=1 lands exactly on the minimum."""
    t, w, ds = single_linear_neuron()
    trace = forward(t, w, ds.inputs)
    delta = delta_output(t, trace, ds.targets)
    dw = -cogradient_conj(delta, trace, 1)
    w[0] += dw
    assert w[0][0, 0] == 1.0
    assert error(t, w, ds) == 0.0


@pytest.mark.parametrize("widths", [(1, 1), (2, 3, 1), (2, 4, 1), (3, 2, 2)])
@pytest.mark.parametrize("act", ["sigmoid", "taylor3"])
def test_cogradient_matches_fd_oracle(widths, act):
    """Analytic cogradient vs the finite-difference oracle, layer by layer.

    A 10-seed slice per topology; the full 100-seed battery runs in the
    acceptance suite.
    """
    for seed in range(10):
        t, w, ds = random_instance(widths, act, seed)
        tables = backward_tables(t, w, ds)
        for p in range(1, t.n_layers + 1):
            analytic = cogradient_conj(tables.deltas[p - 1], tables.trace, p)
            fd = fd_cogradient(t, w, ds, p)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(analytic - fd) / denom <= 1e-6


def test_conjugating_instance_conjugates_cogradient():
    """Replacing weights, inputs and targets by conjugates conjugates the
    cogradient; follows from g(conj z) = conj(g z)."""
    t = NetworkTopology((2, 3, 1), ("taylor3", "taylor3"))
    rng = np.random.default_rng(3)
    w = [complex_uniform(rng, (3, 2)), complex_uniform(rng, (1, 3))]
    x = complex_uniform(rng, (4, 2))
    d = complex_uniform(rng, (4, 1))

    def cograds(weights, inputs, targets):
        tables = backward_tables(t, weights, Dataset(inputs, targets))
        return [cogradient_conj(tables.deltas[p - 1], tables.trace, p) for p in (1, 2)]

    plain = cograds(w, x, d)
    conjd = cograds([np.conj(a) for a in w], np.conj(x), np.conj(d))
    for a, b in zip(plain, conjd):
        assert np.max(np.abs(np.conj(a) - b)) <= 1e-14
