import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holonewt import (
    Dataset,
    NetworkTopology,
    backward_tables,
    error,
    flat_index,
    forward,
    init_weights,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from holonewt.network import MAX_WEIGHTS, error_from_trace, uniform_draws

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import complex_uniform, save_dataset


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
        with pytest.raises(ValueError, match=r"^unknown activation 'relu', expected one of \["):
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


@pytest.mark.parametrize("target_width", [1, 3])
@pytest.mark.parametrize("fn", [error, backward_tables])
def test_rejects_a_target_width_that_is_not_the_output_width(fn, target_width):
    """A 2-4-2 net's outputs would broadcast against 1-wide targets; both
    widths are refused with the message load_config gives."""
    t = topo((2, 4, 2), "taylor3")
    w = init_weights(t, 0)
    ds = Dataset(XOR_INPUTS, np.zeros((4, target_width)))
    with pytest.raises(ValueError) as info:
        fn(t, w, ds)
    assert str(info.value) == f"dataset target width {target_width} does not match topology (2, 4, 2)"


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


def numpy_uniform(seed, low, high, count):
    """The reference stream uniform_draws reproduces."""
    return np.random.Generator(np.random.PCG64(seed)).uniform(low, high, count)


def reference_init_weights(topology, seed, init_range):
    """init_weights as numpy's generator draws it, one layer at a time."""
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = []
    for p in range(1, len(topology.widths)):
        draws = rng.uniform(-init_range, init_range, size=(topology.layer_size(p), 2))
        w = draws[:, 0] + 1j * draws[:, 1]
        weights.append(w.reshape(topology.widths[p], topology.widths[p - 1]))
    return weights


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    count=st.integers(0, 300),
    low=st.floats(-1e300, 1e300),
    span=st.floats(0, 1e300),
)
@example(seed=2**32 - 1, count=64, low=-1.0, span=2.0)
@example(seed=2**64, count=65, low=-1.0, span=2.0)
@example(seed=2**127, count=129, low=-0.3, span=0.6)
@example(seed=12345, count=24, low=-1e300, span=1e300)
@example(seed=2**200 - 1, count=7, low=-1.0, span=2.0)
def test_uniform_draws_match_numpy_bit_for_bit(seed, count, low, span):
    """The same float64 bits as numpy's PCG64 uniform stream, for counts
    from none to several hundred draws and seeds of one to seven 32-bit
    words (past four, the extra words are mixed into the pool)."""
    high = low + span
    expected = numpy_uniform(seed, low, high, count)
    got = uniform_draws(seed, low, high, count)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "widths, seed, init_range",
    [((2, 4, 1), 12345, 1.0), ((4, 16, 16, 4), np.int64(3), 0.3), ((4, 6, 3), 2**64, 1e300)],
)
def test_init_weights_match_numpy_layer_by_layer(widths, seed, init_range):
    t = topo(widths, "taylor3")
    got = init_weights(t, seed, init_range)
    for a, b in zip(got, reference_init_weights(t, seed, init_range), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "seed, low, high",
    [
        (-1, -1.0, 1.0),  # negative seed
        (1.5, -1.0, 1.0),  # float seed
        (0, 1.0, -1.0),  # negative high - low
        (0, 0.0, -0.0),  # high - low is -0.0
        (0, -1e308, 1e308),  # high - low overflows
        (0, 0.0, float("nan")),
    ],
)
def test_uniform_draws_raise_as_numpy_does(seed, low, high):
    with pytest.raises(Exception) as expected:
        numpy_uniform(seed, low, high, 4)
    with pytest.raises(Exception) as got:
        uniform_draws(seed, low, high, 4)
    assert type(got.value) is expected.type
    if low == -high:
        with pytest.raises(Exception) as got:
            init_weights(topo((2, 4, 1)), seed, high)
        assert type(got.value) is expected.type


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


def _checkpoint(tmp_path, widths="[2, 1]", layers="[[[0.5, 0], [1, -2.5]]]"):
    path = tmp_path / "ckpt.json"
    path.write_text(f'{{"widths": {widths}, "activations": ["identity"], "layers": {layers}}}')
    return path


def test_load_checkpoint_reads_integer_and_float_parts(tmp_path):
    topology, (w,) = load_checkpoint(_checkpoint(tmp_path))
    assert topology.widths == (2, 1)
    np.testing.assert_array_equal(w, [[0.5 + 0j, 1 - 2.5j]])


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_checkpoint_rejects_non_finite_weights(tmp_path, value):
    path = _checkpoint(tmp_path, layers=f"[[[0.5, 0], [1, {value}]]]")
    with pytest.raises(ValueError, match="is (not a finite number|out of range)"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ValueError, match="nested too deeply"):
        load_checkpoint(path)


@pytest.mark.parametrize("widths", ["[true, 1]", "[2, 1.0]", "[2, \"1\"]", "2"])
def test_load_checkpoint_rejects_widths_that_are_not_integers(tmp_path, widths):
    with pytest.raises(ValueError, match="topology widths should be integers"):
        load_checkpoint(_checkpoint(tmp_path, widths=widths))


@pytest.mark.parametrize("width", [3.7, True, "3"])
def test_topology_rejects_widths_that_are_not_integers(width):
    """3.7 is not truncated to 3, true is not 1 and "3" is not 3."""
    with pytest.raises(ValueError, match="topology widths should be integers"):
        NetworkTopology((2, width, 1), ("identity", "identity"))


def test_topology_caps_the_weight_count():
    """MAX_WEIGHTS weights are admitted and one more is refused, with the
    count and the cap named; the check is arithmetic on the widths, so a
    10**12-wide layer is refused at once."""
    assert NetworkTopology((1, MAX_WEIGHTS), ("identity",)).layer_size(1) == MAX_WEIGHTS
    with pytest.raises(ValueError, match=f"has {MAX_WEIGHTS + 1} weights, above the cap of {MAX_WEIGHTS}$"):
        NetworkTopology((1, MAX_WEIGHTS + 1), ("identity",))
    with pytest.raises(ValueError, match="has 3000000000000 weights"):
        NetworkTopology((2, 10**12, 1), ("identity", "identity"))


def test_topology_takes_numpy_integer_widths_as_ints(tmp_path):
    t = NetworkTopology(np.array([2, 4, 1]), ("taylor3", "taylor3"))
    assert t.widths == (2, 4, 1)
    assert all(type(w) is int for w in t.widths)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, t, init_weights(t, 0))
    assert json.loads(path.read_text())["widths"] == [2, 4, 1]
    assert load_checkpoint(path)[0] == t


@pytest.mark.parametrize(
    "activations, message",
    [('["tanh"]', "unknown activation 'tanh'"), ('"identity"', "should be names"), ("[1]", "should be names")],
)
def test_load_checkpoint_rejects_unknown_activations(tmp_path, activations, message):
    path = _checkpoint(tmp_path)
    path.write_text(path.read_text().replace('["identity"]', activations))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "entry", ["[false, 0]", "[0, true]", "[1]", "[1, 0, 0]", "[]", "1", '["1", 0]', "[1e400, 0]"]
)
def test_load_checkpoint_rejects_weights_that_are_not_number_pairs(tmp_path, entry):
    """Each weight must be an [re, im] pair of numbers; the error names
    the layer and the entry.  An integer too large for a float is
    rejected like an overflowing float."""
    entry = entry.replace("1e400", "1" + "0" * 400)
    path = _checkpoint(tmp_path, layers=f"[[[0.5, 0], {entry}]]")
    with pytest.raises(ValueError, match=r"^layer 1: weight 1 .* not an \[re, im\] pair"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "layers, message",
    [
        ("[[[0.5, 0]]]", "layer 1 should hold 2 weights"),
        ("[5]", "layer 1 should hold 2 weights"),
        ("[]", r"checkpoint needs 1 weight layers for widths \(2, 1\)"),
        ("{}", "checkpoint needs 1 weight layers"),
    ],
)
def test_load_checkpoint_rejects_the_wrong_weight_count(tmp_path, layers, message):
    with pytest.raises(ValueError, match=message):
        load_checkpoint(_checkpoint(tmp_path, layers=layers))


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
