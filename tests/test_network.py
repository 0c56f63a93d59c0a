import numpy as np
import pytest

from holonewt import (
    Dataset,
    NetworkTopology,
    error,
    flat_index,
    forward,
    init_weights,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from holonewt.network import error_from_trace, save_dataset

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import complex_uniform


def topo(widths, act="identity"):
    return NetworkTopology(widths, (act,) * (len(widths) - 1))


class TestTopology:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkTopology((2,), ())
        with pytest.raises(ValueError):
            NetworkTopology((2, 0), ("identity",))
        with pytest.raises(ValueError):
            NetworkTopology((2, 1), ("identity", "identity"))
        with pytest.raises(KeyError):
            NetworkTopology((2, 1), ("relu",))

    def test_layer_size(self):
        t = topo((2, 4, 1))
        assert t.n_layers == 2
        assert t.layer_size(1) == 8
        assert t.layer_size(2) == 4


def test_flat_index_first_slot():
    assert flat_index(topo((2, 2)), 1, 1, 1) == 1


def test_flat_index_second_row():
    # (j-1)*K_prev + i with K_prev = 2
    assert flat_index(topo((2, 2)), 1, 2, 1) == 3


def test_flat_index_wide_input():
    assert flat_index(topo((4, 1)), 1, 1, 4) == 4


def test_flat_index_rejects_out_of_range():
    t = topo((2, 3))
    with pytest.raises(ValueError):
        flat_index(t, 1, 4, 1)
    with pytest.raises(ValueError):
        flat_index(t, 1, 0, 1)
    with pytest.raises(ValueError):
        flat_index(t, 1, 1, 3)


def test_flat_index_matches_row_major_ravel():
    """The flat layout contract is exactly row-major matrix flattening."""
    t = topo((3, 2))
    w = np.arange(6, dtype=complex).reshape(2, 3)
    flat = w.ravel()
    for j in range(1, 3):
        for i in range(1, 4):
            assert flat[flat_index(t, 1, j, i) - 1] == w[j - 1, i - 1]


def test_forward_zero_weights_sigmoid():
    t = topo((2, 3, 2), "sigmoid")
    weights = [np.zeros((3, 2), dtype=complex), np.zeros((2, 3), dtype=complex)]
    trace = forward(t, weights, np.array([[1 + 1j, -2], [0.5, 0.25j]]))
    for p in (1, 2):
        np.testing.assert_array_equal(trace.values[p], 0.5)


def test_forward_identity_chain():
    t = topo((1, 1, 1))
    weights = [np.ones((1, 1), dtype=complex)] * 2
    z = 0.3 - 1.7j
    trace = forward(t, weights, np.array([[z]]))
    assert trace.outputs[0, 0] == z


def test_forward_matches_hand_rolled():
    """Duplicate-implementation oracle on the (2,4,1) topology."""
    t = topo((2, 4, 1), "taylor3")
    rng = np.random.default_rng(10)
    weights = [complex_uniform(rng, (4, 2)), complex_uniform(rng, (1, 4))]
    x = complex_uniform(rng, (5, 2))

    def g(z):
        return 0.5 + z / 4 - z**3 / 48

    hidden = g(x @ weights[0].T)
    out = g(hidden @ weights[1].T)
    trace = forward(t, weights, x)
    np.testing.assert_allclose(trace.values[1], hidden, rtol=1e-15)
    np.testing.assert_allclose(trace.outputs, out, rtol=1e-15)


def test_forward_rejects_wrong_width():
    t = topo((2, 1))
    with pytest.raises(ValueError):
        forward(t, [np.ones((1, 2), dtype=complex)], np.ones((1, 3)))


def test_error_perfect_fit_is_zero(xor_dataset):
    t = topo((2, 1))
    w = [np.zeros((1, 2), dtype=complex)]
    ds = Dataset(xor_dataset.inputs, forward(t, w, xor_dataset.inputs).outputs)
    assert error(t, w, ds) == 0.0


def test_error_constant_half_on_xor(xor_dataset):
    """Zero weights + sigmoid output 0.5 against targets {0,1,1,0}."""
    t = topo((2, 4, 1), "sigmoid")
    w = [np.zeros((4, 2), dtype=complex), np.zeros((1, 4), dtype=complex)]
    assert error(t, w, xor_dataset) == pytest.approx(0.25)


def test_error_matches_bruteforce(xor_dataset):
    t = topo((2, 4, 1), "taylor3")
    rng = np.random.default_rng(4)
    w = [complex_uniform(rng, (4, 2)), complex_uniform(rng, (1, 4))]
    trace = forward(t, w, xor_dataset.inputs)
    brute = 0.0
    for ti in range(4):
        for l in range(1):
            brute += abs(trace.outputs[ti, l] - xor_dataset.targets[ti, l]) ** 2
    brute /= 4
    assert error(t, w, xor_dataset) == pytest.approx(brute, rel=1e-14)


def test_error_invariant_under_sample_reorder():
    t = topo((2, 3, 1), "taylor3")
    rng = np.random.default_rng(6)
    w = [complex_uniform(rng, (3, 2)), complex_uniform(rng, (1, 3))]
    x = complex_uniform(rng, (6, 2))
    d = complex_uniform(rng, (6, 1))
    perm = rng.permutation(6)
    assert error(t, w, Dataset(x, d)) == error(t, w, Dataset(x[perm], d[perm]))


def test_batch_equals_per_sample():
    """Batching is a pure vectorization; differently shaped matmuls may
    round differently, so equality holds to machine precision, not bits."""
    t = topo((2, 3, 1), "sigmoid")
    rng = np.random.default_rng(8)
    w = [complex_uniform(rng, (3, 2)), complex_uniform(rng, (1, 3))]
    x = complex_uniform(rng, (4, 2))
    batch = forward(t, w, x)
    for ti in range(4):
        single = forward(t, w, x[ti : ti + 1])
        for p in range(1, 3):
            np.testing.assert_allclose(
                batch.values[p][ti], single.values[p][0], rtol=1e-14, atol=1e-15
            )
            np.testing.assert_allclose(
                batch.nets[p - 1][ti], single.nets[p - 1][0], rtol=1e-14, atol=1e-15
            )


def test_error_from_trace_nonnegative():
    rng = np.random.default_rng(9)
    t = topo((3, 2), "taylor3")
    for seed in range(20):
        w = [complex_uniform(rng, (2, 3))]
        x = complex_uniform(rng, (3, 3))
        d = complex_uniform(rng, (3, 2))
        assert error_from_trace(forward(t, w, x), d) >= 0.0


def test_init_weights_deterministic_and_bounded():
    t = topo((2, 4, 1), "taylor3")
    w1 = init_weights(t, 42)
    w2 = init_weights(t, 42)
    for a, b in zip(w1, w2):
        np.testing.assert_array_equal(a, b)
    assert w1[0].shape == (4, 2) and w1[1].shape == (1, 4)
    for w in w1:
        assert np.max(np.abs(w.real)) <= 1.0 and np.max(np.abs(w.imag)) <= 1.0
    w3 = init_weights(t, 43)
    assert not np.array_equal(w1[0], w3[0])


def test_init_weights_range_scaling():
    t = topo((2, 2), "identity")
    w = init_weights(t, 0, init_range=0.01)[0]
    assert np.max(np.abs(w.real)) <= 0.01


def test_checkpoint_round_trip(tmp_path):
    t = topo((2, 3, 1), "taylor3")
    rng = np.random.default_rng(12)
    w = [complex_uniform(rng, (3, 2)), complex_uniform(rng, (1, 3))]
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, t, w)
    t2, w2 = load_checkpoint(path)
    assert t2 == t
    for a, b in zip(w, w2):
        np.testing.assert_array_equal(a, b)


def test_dataset_round_trip(tmp_path):
    ds = Dataset(XOR_INPUTS, XOR_TARGETS)
    path = tmp_path / "xor.json"
    save_dataset(path, ds)
    ds2 = load_dataset(path)
    np.testing.assert_array_equal(ds2.inputs, ds.inputs)
    np.testing.assert_array_equal(ds2.targets, ds.targets)


def test_load_dataset_rejects_ragged(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '[{"input": [[0,0]], "target": [[0,0]]},'
        ' {"input": [[0,0],[1,0]], "target": [[0,0]]}]'
    )
    with pytest.raises(ValueError):
        load_dataset(path)


def test_dataset_length_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((2, 1)))


@pytest.mark.parametrize("pair", ["[true, 0]", "[0, false]", "[1]", "[1, 0, 0]", "1"])
def test_load_dataset_rejects_entries_that_are_not_number_pairs(tmp_path, pair):
    path = tmp_path / "bad.json"
    path.write_text(
        '[{"input": [[0,0]], "target": [[0,0]]},'
        f' {{"input": [{pair}], "target": [[0,0]]}}]'
    )
    with pytest.raises(ValueError, match=r"^sample 1: input entry .* not an \[re, im\] pair"):
        load_dataset(path)
