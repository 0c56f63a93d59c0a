import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holonewt import Dataset, NetworkTopology, error, forward, fdcheck, newton
from holonewt.activations import ACTIVATIONS, Activation
from holonewt.fdcheck import (
    NonFiniteEvaluation,
    fd_cogradient,
    fd_hessians,
    fd_real_hessian,
    real_quadratic_form,
    relative_error,
    verify_report,
)
from holonewt.gradient import cogradient_conj
from holonewt.newton import backward_tables, hessian_pair

from helpers import (
    complex_uniform,
    fd_hessians_conj,
    loop_fd_cogradient,
    loop_fd_real_hessian,
    random_instance,
)


def test_fd_cogradient_zero_at_perfect_fit():
    t = NetworkTopology((2, 2), ("taylor3",))
    rng = np.random.default_rng(0)
    w = [complex_uniform(rng, (2, 2))]
    x = complex_uniform(rng, (3, 2))
    ds = Dataset(x, forward(t, w, x).outputs)
    fd = fd_cogradient(t, w, ds, 1)
    assert np.max(np.abs(fd)) <= 1e-8


def test_fd_cogradient_single_linear_neuron():
    t = NetworkTopology((1, 1), ("identity",))
    w = [np.zeros((1, 1), dtype=complex)]
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    np.testing.assert_allclose(fd_cogradient(t, w, ds, 1), [-1.0], atol=1e-10)


def test_fd_hessians_identity_net_uncoupled():
    """Quadratic error surface: the conjugate-coupling block vanishes."""
    t, w, ds = random_instance((2, 3, 1), "identity", 1)
    for p in (1, 2):
        _, fd_wbar_w = fd_hessians(t, w, ds, p)
        assert np.max(np.abs(fd_wbar_w)) <= 1e-6


def test_fd_hessians_single_linear_neuron():
    t = NetworkTopology((1, 1), ("identity",))
    w = [np.zeros((1, 1), dtype=complex)]
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    fd_ww, fd_wbar_w = fd_hessians(t, w, ds, 1)
    np.testing.assert_allclose(fd_ww, [[1.0]], atol=1e-9)
    np.testing.assert_allclose(fd_wbar_w, [[0.0]], atol=1e-9)


def test_fd_hessians_agree_with_analytic_sigmoid():
    t, w, ds = random_instance((2, 3, 1), "sigmoid", 2)
    tables = backward_tables(t, w, ds)
    for p in (1, 2):
        h_ww, h_wbar_w = hessian_pair(tables, p)
        fd_ww, fd_wbar_w = fd_hessians(t, w, ds, p)
        scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
        assert np.linalg.norm(h_ww - fd_ww) / scale <= 1e-5
        assert np.linalg.norm(h_wbar_w - fd_wbar_w) / scale <= 1e-5


def test_fd_conjugate_blocks_mirror():
    """H_w_wbar == conj(H_wbar_w) and H_wbar_wbar == conj(H_ww)."""
    t, w, ds = random_instance((2, 3, 1), "taylor3", 3)
    for p in (1, 2):
        fd_ww, fd_wbar_w = fd_hessians(t, w, ds, p)
        fd_w_wbar, fd_wbar_wbar = fd_hessians_conj(t, w, ds, p)
        scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w), 1e-30)
        assert np.linalg.norm(fd_w_wbar - np.conj(fd_wbar_w)) / scale <= 1e-9
        assert np.linalg.norm(fd_wbar_wbar - np.conj(fd_ww)) / scale <= 1e-9


def test_real_quadratic_form_examples():
    h_ww = np.eye(2, dtype=complex)
    h_zero = np.zeros((2, 2), dtype=complex)
    v = np.array([1.0, 1j])
    assert real_quadratic_form(h_ww, h_zero, v) == pytest.approx(4.0)
    assert real_quadratic_form(h_ww, h_zero, np.zeros(2, dtype=complex)) == 0.0


def test_real_quadratic_form_matches_real_fd_hessian():
    """The complex pair and the real-coordinate Hessian express the same
    quadratic form (relative 1e-4 with stacked FD error)."""
    t, w, ds = random_instance((2, 3, 1), "sigmoid", 4)
    tables = backward_tables(t, w, ds)
    rng = np.random.default_rng(99)
    for p in (1, 2):
        h_ww, h_wbar_w = hessian_pair(tables, p)
        v = complex_uniform(rng, (t.layer_size(p),))
        analytic = real_quadratic_form(h_ww, h_wbar_w, v)
        h_rr = fd_real_hessian(t, w, ds, p)
        vr = np.concatenate([v.real, v.imag])
        assert relative_error(analytic, float(vr @ h_rr @ vr)) <= 1e-4


def test_negative_cogradient_is_descent_direction():
    """E decreases along -(dE/dw)* for a small step; 20 instances."""
    for seed in range(20):
        t, w, ds = random_instance((2, 3, 1), "taylor3", 200 + seed)
        fd = fd_cogradient(t, w, ds, 1)
        if np.linalg.norm(fd) < 1e-12:
            continue
        stepped = [w[0] - 1e-6 * fd.reshape(w[0].shape), w[1]]
        assert error(t, stepped, ds) < error(t, w, ds)


def test_fd_matches_analytic_cogradient_deep_net():
    """Three hidden layers; exercises the recursion depth."""
    t, w, ds = random_instance((2, 3, 3, 2, 1), "taylor3", 6)
    tables = backward_tables(t, w, ds)
    for p in range(1, 5):
        analytic = cogradient_conj(tables.deltas[p - 1], tables.trace, p)
        fd = fd_cogradient(t, w, ds, p)
        assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-6


def test_nonfinite_probe_raises():
    """An overflowing probe must raise instead of returning garbage.

    The cascade of cubings overflows even the extended-precision
    accumulator the probes may run in."""
    t = NetworkTopology((1, 1, 1), ("taylor3", "taylor3"))
    w = [np.array([[1e300 + 0j]]), np.array([[1e300 + 0j]])]
    ds = Dataset(np.array([[1e300]]), np.array([[0.0]]))
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteEvaluation, match=r"^layer 1: error is \S+ at the \+h probe of weight 0$"):
            fd_cogradient(t, w, ds, 1)
        with pytest.raises(
            NonFiniteEvaluation,
            match=r"^layer 2: error is \S+ at the \(\+h, \+h\) probe of real coordinates \(0, 0\)$",
        ):
            fd_real_hessian(t, w, ds, 2)


def test_nonfinite_probe_is_named_inside_a_chunk(monkeypatch):
    """Every probe value is checked, not a chunk aggregate: a bad probe
    among finite ones in the same chunk is named by its own coordinates.
    Here E is NaN wherever the second weight's real part exceeds 0.5."""
    ident = ACTIVATIONS["identity"]
    monkeypatch.setitem(
        ACTIVATIONS,
        "identity",
        Activation("identity", lambda z: np.where(z.real > 0.5, np.nan, z), ident.d1, ident.d2),
    )
    t = NetworkTopology((1, 2), ("identity",))
    w = [np.array([[0.25], [0.5]], dtype=complex)]
    ds = Dataset(np.array([[1.0]]), np.array([[0.0, 0.0]]))
    with pytest.raises(NonFiniteEvaluation, match=r"^layer 1: error is nan at the \+h probe of weight 1$"):
        fd_cogradient(t, w, ds, 1)
    with pytest.raises(
        NonFiniteEvaluation,
        match=r"^layer 1: error is nan at the \(\+h, \+h\) probe of real coordinates \(0, 1\)$",
    ):
        fd_real_hessian(t, w, ds, 1)


@settings(max_examples=25, deadline=None)
@given(
    widths=st.lists(st.integers(1, 3), min_size=2, max_size=5),
    act=st.sampled_from(["taylor3", "sigmoid", "identity"]),
    n_samples=st.integers(1, 5),
    seed=st.integers(0, 2**20),
)
# a one-weight layer (3 Hessian stencils), and layers of 24 and 18 weights
# whose stencil counts (24, 1176; 18, 666) span several chunks of 16 and
# end in a partial one
@example(widths=[1, 1], act="sigmoid", n_samples=2, seed=0)
@example(widths=[4, 6, 3], act="taylor3", n_samples=8, seed=1)
# a five-node layer, whose Hessian pairs span two nodes and whose stencil
# counts (15, 465; 10, 210) end in partial chunks, and a one-node output
# layer of three weights
@example(widths=[3, 5, 2], act="sigmoid", n_samples=4, seed=2)
@example(widths=[2, 3, 1], act="taylor3", n_samples=3, seed=3)
# a fan-in-1 layer, a one-node layer whose Hessian pairs all lie inside
# that node, and a layer of four nodes where most pairs span two
@example(widths=[1, 4, 2], act="sigmoid", n_samples=3, seed=4)
@example(widths=[5, 1], act="taylor3", n_samples=4, seed=5)
@example(widths=[2, 5, 4], act="sigmoid", n_samples=5, seed=6)
def test_batched_fd_matches_loop_reference(widths, act, n_samples, seed):
    """The chunked, stacked probes reproduce the one-probe-per-call
    oracle bit for bit, on every layer of random nets up to depth 4."""
    t, w, ds = random_instance(widths, act, seed, n_samples=n_samples, pole_margin=0.05)
    for p in range(1, t.n_layers + 1):
        assert np.array_equal(fd_cogradient(t, w, ds, p), loop_fd_cogradient(t, w, ds, p))
        assert np.array_equal(fd_real_hessian(t, w, ds, p), loop_fd_real_hessian(t, w, ds, p))


def test_probes_recompute_only_the_nodes_they_move(monkeypatch):
    """A Hessian probe moves at most two weights, so at most two of layer
    p's nodes: the layer-p activation sees one pass over all nodes at the
    centre, then at most 2 N entries per probe."""
    sigmoid = ACTIVATIONS["sigmoid"]
    seen = []

    def f(z):
        seen.append(z.size)
        return sigmoid.f(z)

    _, w, ds = random_instance((3, 6, 2), "sigmoid", 10, n_samples=4)
    t = NetworkTopology((3, 6, 2), ("sigmoid", "taylor3"))
    monkeypatch.setitem(ACTIVATIONS, "sigmoid", Activation("sigmoid", f, sigmoid.d1, sigmoid.d2))
    fd_real_hessian(t, w, ds, 1)
    n, m = 4, 2 * 18
    probes = 4 * m * (m + 1) // 2
    assert sum(seen) <= 2 * n * probes + 6 * n


def test_probes_evaluate_each_single_coordinate_move_once(monkeypatch):
    """A probe across two nodes moves each by one coordinate, so the
    layer-p activation sees the K nodes at the centre, each of the 2n
    real coordinates moved alone by +h and by -h, and the four probes of
    each of the S = K (2 K_in)(2 K_in + 1) / 2 pairs inside one node."""
    sigmoid = ACTIVATIONS["sigmoid"]
    seen = []

    def f(z):
        seen.append(z.size)
        return sigmoid.f(z)

    _, w, ds = random_instance((3, 6, 2), "sigmoid", 10, n_samples=4)
    t = NetworkTopology((3, 6, 2), ("sigmoid", "taylor3"))
    monkeypatch.setitem(ACTIVATIONS, "sigmoid", Activation("sigmoid", f, sigmoid.d1, sigmoid.d2))
    fd_real_hessian(t, w, ds, 1)
    n_samples, k, fan_in = 4, 6, 3
    n = k * fan_in
    inside = k * (2 * fan_in) * (2 * fan_in + 1) // 2
    assert sum(seen) <= (k + 4 * n + 4 * inside) * n_samples


def test_relative_error_conventions():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_error(np.ones(3), np.zeros(3)) == np.inf
    assert relative_error(np.ones(3), np.zeros(3), scale=2.0) == pytest.approx(
        np.sqrt(3) / 2
    )


@pytest.mark.parametrize("target_width", [1, 3])
def test_verify_report_rejects_a_target_width_that_is_not_the_output_width(target_width):
    t, w, ds = random_instance((2, 3, 2), "taylor3", 0)
    ds = Dataset(ds.inputs, np.zeros((len(ds), target_width)))
    with pytest.raises(ValueError, match="dataset target width"):
        verify_report(t, w, ds)


def test_verify_report_structure_and_tolerances():
    t, w, ds = random_instance((2, 3, 1), "taylor3", 8)
    report = verify_report(t, w, ds)
    assert len(report["layers"]) == 2
    for entry in report["layers"]:
        assert {"layer", "cogradient_rel", "h_ww_rel", "h_wbar_w_rel"} <= set(entry)
    assert report["max_cogradient_rel"] <= 1e-6
    assert report["max_h_ww_rel"] <= 1e-5
    assert report["max_h_wbar_w_rel"] <= 1e-5
    assert report["max_quadratic_form_rel"] <= 1e-4
    assert report["tolerances"] == TOLERANCES
    assert report["within_tolerance"] is True


# verify's fixed tolerances, and each kind of error and the tolerance it
# is held to
TOLERANCES = {"cogradient_tol": 1e-5, "hessian_tol": 1e-5, "quadratic_form_tol": 1e-4}
TOLERANCE_OF = {
    "cogradient_rel": "cogradient_tol",
    "h_ww_rel": "hessian_tol",
    "h_wbar_w_rel": "hessian_tol",
    "quadratic_form_rel": "quadratic_form_tol",
}


@pytest.mark.parametrize("above", [None, *TOLERANCE_OF])
def test_verify_report_holds_each_error_to_its_tolerance(monkeypatch, above):
    """An error at its tolerance passes, and one error just above its own
    fails the report.  relative_error is called once per kind and layer,
    in the report's order; the second layer's `above` error is raised."""
    errors = iter([
        TOLERANCES[tol] * (1.01 if (key, p) == (above, 2) else 1.0)
        for p in (1, 2)
        for key, tol in TOLERANCE_OF.items()
    ])
    monkeypatch.setattr(fdcheck, "relative_error", lambda *args, **kwargs: next(errors))
    t, w, ds = random_instance((2, 2, 1), "taylor3", 3)
    report = verify_report(t, w, ds)
    for key, tol in TOLERANCE_OF.items():
        assert report[f"max_{key}"] == TOLERANCES[tol] * (1.01 if key == above else 1.0)
    assert report["within_tolerance"] is (above is None)


def test_verify_report_refuses_too_many_stencils_before_any_table(monkeypatch):
    """The stencil cap is checked before the analytic tables or any probe."""
    def refuse(*args):
        raise AssertionError("verify_report computed tables before checking the cap")

    monkeypatch.setattr(fdcheck, "MAX_STENCILS", 299)
    monkeypatch.setattr(newton, "backward_tables", refuse)
    # layers of 12 and 6 weights: 12 * 25 + 6 * 13 = 378 stencils
    t, w, ds = random_instance((2, 6, 1), "taylor3", 0)
    with pytest.raises(ValueError) as info:
        verify_report(t, w, ds)
    assert str(info.value) == (
        "topology (2, 6, 1) needs 378 Hessian stencils to verify, above the cap of 299"
    )


def test_verify_report_admits_8_32_32_8(monkeypatch):
    """The largest net in the tests, demos and bench, 2,360,832 stencils,
    is under the cap; the probes are stubbed, so only the analytic side
    runs."""
    calls = []

    def zero_cogradient(topology, weights, dataset, p):
        calls.append(p)
        return np.zeros(topology.layer_size(p), dtype=complex)

    def zero_hessian(topology, weights, dataset, p):
        return np.zeros((2 * topology.layer_size(p),) * 2)

    monkeypatch.setattr(fdcheck, "fd_cogradient", zero_cogradient)
    monkeypatch.setattr(fdcheck, "fd_real_hessian", zero_hessian)
    sizes = [8 * 32, 32 * 32, 32 * 8]
    assert sum(n * (2 * n + 1) for n in sizes) == 2_360_832 <= fdcheck.MAX_STENCILS
    t, w, ds = random_instance((8, 32, 32, 8), "taylor3", 0, n_samples=3)
    report = verify_report(t, w, ds)
    assert calls == [1, 2, 3]
    assert [layer["layer"] for layer in report["layers"]] == [1, 2, 3]
    assert report["within_tolerance"] is False


def test_verify_report_estimates_each_layer_hessian_once(monkeypatch):
    """One real-coordinate FD Hessian per layer serves the Hessian blocks
    and the quadratic form, and the report stays byte-identical to the
    one built from fd_hessians plus a second fd_real_hessian."""
    t, w, ds = random_instance((2, 3, 2), "sigmoid", 9)
    tables = backward_tables(t, w, ds)
    expected = {"layers": []}
    for p in (1, 2):
        h_ww, h_wbar_w = hessian_pair(tables, p)
        fd_ww, fd_wbar_w = fd_hessians(t, w, ds, p)
        h_scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
        rng = np.random.Generator(np.random.PCG64(p))
        v = rng.uniform(-1, 1, size=(t.layer_size(p), 2)) @ np.array([1, 1j])
        vr = np.concatenate([v.real, v.imag])
        reference = float(vr @ fd_real_hessian(t, w, ds, p) @ vr)
        expected["layers"].append({
            "layer": p,
            "cogradient_rel": relative_error(
                cogradient_conj(tables.deltas[p - 1], tables.trace, p), fd_cogradient(t, w, ds, p)
            ),
            "h_ww_rel": relative_error(h_ww, fd_ww, scale=h_scale),
            "h_wbar_w_rel": relative_error(h_wbar_w, fd_wbar_w, scale=h_scale),
            "quadratic_form_rel": relative_error(real_quadratic_form(h_ww, h_wbar_w, v), reference),
        })
    for key in TOLERANCE_OF:
        expected[f"max_{key}"] = max(layer[key] for layer in expected["layers"])
    expected["tolerances"] = TOLERANCES
    expected["within_tolerance"] = all(
        expected[f"max_{key}"] <= TOLERANCES[tol] for key, tol in TOLERANCE_OF.items()
    )

    layers = []
    real_hessian = fdcheck.fd_real_hessian
    monkeypatch.setattr(
        fdcheck, "fd_real_hessian", lambda *args: layers.append(args[3]) or real_hessian(*args)
    )
    report = verify_report(t, w, ds)
    assert layers == [1, 2]
    assert json.dumps(report, indent=1, sort_keys=True) == json.dumps(expected, indent=1, sort_keys=True)
