import numpy as np
import pytest

from holonewt import Dataset, NetworkTopology, error
from holonewt.fdcheck import real_quadratic_form
from holonewt.gradient import cogradient_conj
from holonewt.newton import backward_tables, newton_update, one_step_denominator
from holonewt.steplength import DegenerateStep, StepConfig, apply_update, mu_from_denominator
from holonewt.training import TrainConfig, train

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import complex_uniform


def mu_from_blocks(cograd_conj, dw, h_ww, h_wbar_w):
    """mu_from_denominator with the denominator from assembled blocks,
    Re{dw^H H_ww dw + dw^H H_wbar_w conj(dw)}."""
    return mu_from_denominator(cograd_conj, dw, real_quadratic_form(h_ww, h_wbar_w, dw) / 2)


class TestStepConfig:
    def test_defaults(self):
        cfg = StepConfig()
        assert cfg.mode == "one_step_newton"
        assert cfg.omega == 0.5
        assert cfg.constant_mu == 1.0

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            StepConfig(mode="armijo")

    def test_omega_range(self):
        StepConfig(omega=1.99)
        for bad in (0.0, 2.0, -0.5):
            with pytest.raises(ValueError):
                StepConfig(omega=bad)

    def test_constant_mu_positive(self):
        with pytest.raises(ValueError):
            StepConfig(constant_mu=0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -float("inf")])
    def test_constant_mu_finite(self, bad):
        """An infinite or NaN mu is named with its value, not accepted."""
        with pytest.raises(ValueError, match=f"constant_mu .* got {bad!r}"):
            StepConfig(mode="constant", constant_mu=bad)


def test_one_step_mu_single_linear_neuron():
    """cograd -1, dw 1, H_ww 1: numerator and denominator are both 1."""
    mu = mu_from_blocks(
        np.array([-1.0 + 0j]),
        np.array([1.0 + 0j]),
        np.array([[1.0 + 0j]]),
        np.array([[0.0 + 0j]]),
    )
    assert mu == 1.0


def test_one_step_mu_exact_on_quadratic():
    """E = |w|^2 with the Newton direction dw = -w gives mu = 1 anywhere."""
    for w in (0.3 + 0.7j, -2.0, 5j):
        cog = np.array([w])
        dw = np.array([-w])
        mu = mu_from_blocks(cog, dw, np.array([[1.0 + 0j]]), np.array([[0.0 + 0j]]))
        assert mu == pytest.approx(1.0, rel=1e-15)


def test_one_step_mu_degenerate_denominator():
    with pytest.raises(DegenerateStep):
        mu_from_blocks(
            np.array([1.0 + 0j]),
            np.array([1.0 + 0j]),
            np.array([[0.0 + 0j]]),
            np.array([[0.0 + 0j]]),
        )


@pytest.mark.parametrize("denominator", [np.inf, -np.inf, np.nan])
def test_non_finite_denominator_is_degenerate(denominator):
    with pytest.raises(DegenerateStep, match="denominator is .*not finite"):
        mu_from_denominator(np.array([1.0 + 0j]), np.array([1.0 + 0j]), denominator)


def test_one_step_mu_negative_passes_through():
    """A negative quotient is returned unclamped."""
    mu = mu_from_blocks(
        np.array([-1.0 + 0j]),
        np.array([1.0 + 0j]),
        np.array([[-1.0 + 0j]]),
        np.array([[0.0 + 0j]]),
    )
    assert mu == -1.0


def test_one_step_mu_uses_coupling_term():
    """The H_wbar_w quadratic form enters the denominator."""
    cog = np.array([-1.0 + 0j])
    dw = np.array([1.0 + 0j])
    h_ww = np.array([[1.0 + 0j]])
    assert mu_from_blocks(cog, dw, h_ww, np.array([[1.0 + 0j]])) == pytest.approx(0.5)


def test_one_step_mu_scale_covariance():
    """Scaling dw by c > 0 scales mu by 1/c; the applied step is invariant."""
    rng = np.random.default_rng(1)
    n = 5
    h_ww = complex_uniform(rng, (n, n))
    h_ww = h_ww @ h_ww.conj().T + n * np.eye(n)
    h_wbar_w = 0.1 * complex_uniform(rng, (n, n))
    cog = complex_uniform(rng, (n,))
    dw = complex_uniform(rng, (n,))
    mu = mu_from_blocks(cog, dw, h_ww, h_wbar_w)
    for c in (2.0, 0.25, 10.0):
        mu_c = mu_from_blocks(cog, c * dw, h_ww, h_wbar_w)
        assert mu_c == pytest.approx(mu / c, rel=1e-12)
        np.testing.assert_allclose(mu_c * (c * dw), mu * dw, rtol=1e-12)


class TestApplyUpdate:
    def test_moves_single_weight_to_minimum(self):
        weights = [np.zeros((1, 1), dtype=complex)]
        apply_update(weights, 1, np.array([1.0 + 0j]), 1.0, 1.0)
        assert weights[0][0, 0] == 1.0

    def test_zero_direction_is_fixed_point(self):
        weights = [np.full((2, 2), 0.5 + 0.5j)]
        before = weights[0].copy()
        apply_update(weights, 1, np.zeros(4, dtype=complex), 3.0, 1.0)
        np.testing.assert_array_equal(weights[0], before)

    def test_underrelaxation_scales(self):
        weights = [np.zeros((1, 1), dtype=complex)]
        apply_update(weights, 1, np.array([2.0 + 0j]), 1.0, 0.5)
        assert weights[0][0, 0] == 1.0

    def test_only_named_layer_changes(self):
        weights = [np.zeros((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)]
        apply_update(weights, 2, np.array([1.0 + 0j]), 1.0, 1.0)
        assert weights[0][0, 0] == 0.0
        assert weights[1][0, 0] == 1.0


def test_quadratic_one_step_exactness():
    """Single-layer identity nets: one Newton iteration with omega=1 and
    the one-step mu lands at E <= 1e-18.  A 10-seed slice of the 50-seed
    acceptance criterion."""
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(seed))
        m, c, n = 2, 2, 4
        t = NetworkTopology((m, c), ("identity",))
        w_true = complex_uniform(rng, (c, m))
        x = complex_uniform(rng, (n, m))
        ds = Dataset(x, x @ w_true.T)
        w = [complex_uniform(rng, (c, m))]
        tables = backward_tables(t, w, ds)
        curv, cplus, x = tables.curvature[0], tables.cplus[0], tables.trace.values[0]
        cog = cogradient_conj(tables.deltas[0], tables.trace, 1)
        dw = newton_update(curv, cplus, x, cog)
        mu = mu_from_denominator(cog, dw, one_step_denominator(curv, cplus, x, dw))
        apply_update(w, 1, dw, mu, omega=1.0)
        assert error(t, w, ds) <= 1e-18


def test_pseudo_newton_descends_most_iterations():
    """Across successful XOR trials, the underrelaxed pseudo-Newton step
    decreases E in at least 80% of iterations (pooled over 20 seeds)."""
    t = NetworkTopology((2, 4, 1), ("taylor3", "taylor3"))
    ds = Dataset(XOR_INPUTS, XOR_TARGETS)
    cfg = TrainConfig(
        method="pseudo_newton",
        step=StepConfig(mode="one_step_newton", omega=0.5),
        max_iters=500,
    )
    down = total = 0
    for seed in range(20):
        rec = train(t, ds, cfg, seed)
        if rec.outcome != "success":
            continue
        hist = np.array(rec.error_history)
        down += int(np.sum(np.diff(hist) < 0))
        total += hist.size - 1
    assert total > 0
    assert down / total >= 0.8
