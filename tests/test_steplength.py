import numpy as np
import pytest

from holonewt import Dataset, NetworkTopology, error
from holonewt.gradient import cogradient_conj
from holonewt.newton import DegenerateStep, backward_tables, newton_update, one_step_mu
from holonewt.steplength import StepConfig, apply_update
from holonewt.training import TrainConfig, train

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import complex_uniform


def single_weight_mu(cograd_conj, dw, h_ww, h_wbar_w):
    """one_step_mu for one weight on one sample x = 1, where the
    curvature and conjugate-plus-residual tables are H_ww and H_wbar_w."""
    tables = (np.full((1, 1), v, dtype=complex) for v in (h_ww, h_wbar_w, 1.0, cograd_conj, dw))
    return one_step_mu(*tables)


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
    assert single_weight_mu(-1.0, 1.0, 1.0, 0.0) == 1.0


def test_one_step_mu_exact_on_quadratic():
    """E = |w|^2 with the Newton direction dw = -w gives mu = 1 anywhere."""
    for w in (0.3 + 0.7j, -2.0, 5j):
        assert single_weight_mu(w, -w, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_one_step_mu_degenerate_denominator():
    with pytest.raises(DegenerateStep, match=r"^denominator 0\.0$"):
        single_weight_mu(1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("h_ww", [1e-301, -1e-301])
def test_near_zero_denominator_is_degenerate(h_ww):
    """A denominator below 1e-300 in magnitude is named with its value."""
    with pytest.raises(DegenerateStep, match=f"^denominator {h_ww!r}$"):
        single_weight_mu(1.0, 1.0, h_ww, 0.0)


@pytest.mark.parametrize("h_ww", [np.inf, -np.inf, np.nan])
def test_non_finite_denominator_is_degenerate(h_ww):
    with np.errstate(all="ignore"), pytest.raises(DegenerateStep, match="denominator is .*not finite"):
        single_weight_mu(1.0, 1.0, h_ww, 0.0)


def test_one_step_mu_negative_passes_through():
    """A negative quotient is returned unclamped."""
    assert single_weight_mu(-1.0, 1.0, -1.0, 0.0) == -1.0


def test_one_step_mu_uses_coupling_term():
    """The H_wbar_w quadratic form enters the denominator."""
    assert single_weight_mu(-1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)


def test_one_step_mu_scale_covariance():
    """Scaling dw by c > 0 scales mu by 1/c; the applied step is invariant."""
    rng = np.random.default_rng(1)
    n_samples, k, k_in = 6, 3, 2
    curv = complex_uniform(rng, (n_samples, k, k))
    # positive definite per sample, so the denominator stays away from 0
    curv = curv @ np.conj(np.swapaxes(curv, 1, 2)) + k * np.eye(k)
    cplus = 0.1 * complex_uniform(rng, (n_samples, k, k))
    x = complex_uniform(rng, (n_samples, k_in))
    cog = complex_uniform(rng, (k, k_in))
    dw = complex_uniform(rng, (k, k_in))
    mu = one_step_mu(curv, cplus, x, cog, dw)
    for c in (2.0, 0.25, 10.0):
        mu_c = one_step_mu(curv, cplus, x, cog, c * dw)
        assert mu_c == pytest.approx(mu / c, rel=1e-12)
        np.testing.assert_allclose(mu_c * (c * dw), mu * dw, rtol=1e-12)


class TestApplyUpdate:
    def test_moves_single_weight_to_minimum(self):
        weights = [np.zeros((1, 1), dtype=complex)]
        apply_update(weights, 1, np.array([[1.0 + 0j]]), 1.0, 1.0)
        assert weights[0][0, 0] == 1.0

    def test_zero_direction_is_fixed_point(self):
        weights = [np.full((2, 2), 0.5 + 0.5j)]
        before = weights[0].copy()
        apply_update(weights, 1, np.zeros((2, 2), dtype=complex), 3.0, 1.0)
        np.testing.assert_array_equal(weights[0], before)

    def test_underrelaxation_scales(self):
        weights = [np.zeros((1, 1), dtype=complex)]
        apply_update(weights, 1, np.array([[2.0 + 0j]]), 1.0, 0.5)
        assert weights[0][0, 0] == 1.0

    def test_updates_the_matrix_in_place(self):
        w = np.zeros((2, 3), dtype=complex)
        weights = [w]
        apply_update(weights, 1, np.arange(6, dtype=complex).reshape(2, 3), 1.0, 1.0)
        assert weights[0] is w
        np.testing.assert_array_equal(w, np.arange(6).reshape(2, 3))

    def test_only_named_layer_changes(self):
        weights = [np.zeros((1, 1), dtype=complex), np.zeros((1, 1), dtype=complex)]
        apply_update(weights, 2, np.array([[1.0 + 0j]]), 1.0, 1.0)
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
        mu = one_step_mu(curv, cplus, x, cog, dw)
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
