import numpy as np
import pytest

from holonewt import Dataset, NetworkTopology
from holonewt.network import init_weights
from holonewt.steplength import StepConfig
from holonewt.training import (
    FAILURE_OUTCOMES,
    TrainConfig,
    classify_outcome,
    r_factor_estimate,
    run_trials,
    summarize,
    train,
    write_trials_csv,
)

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import complex_uniform, random_instance


def xor():
    return Dataset(XOR_INPUTS, XOR_TARGETS)


def xor_topology(act="taylor3"):
    return NetworkTopology((2, 4, 1), (act, act))


PSEUDO = TrainConfig(
    method="pseudo_newton", step=StepConfig(mode="one_step_newton", omega=0.5)
)


class TestTrainConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            TrainConfig(method="adam")

    def test_rejects_gd_with_one_step_mu(self):
        with pytest.raises(ValueError):
            TrainConfig(method="gradient_descent", step=StepConfig(mode="one_step_newton"))

    def test_default_budgets(self):
        gd = TrainConfig(method="gradient_descent", step=StepConfig(mode="constant"))
        assert gd.iteration_budget == 50000
        assert PSEUDO.iteration_budget == 5000
        assert TrainConfig(method="newton", max_iters=7).iteration_budget == 7

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(method="newton", error_target=0.0)
        with pytest.raises(ValueError):
            TrainConfig(method="newton", max_iters=0)
        with pytest.raises(ValueError):
            TrainConfig(method="newton", init_range=0.0)


class TestClassifyOutcome:
    CFG = TrainConfig(method="newton", max_iters=10)

    def test_success_below_target(self):
        assert classify_outcome([0.5, 0.0009], self.CFG) == "success"

    def test_local_minimum_when_stuck(self):
        history = [0.3] * 11
        assert classify_outcome(history, self.CFG) == "local_minimum"

    def test_blow_up(self):
        assert classify_outcome([0.5, 3e10], self.CFG) == "blow_up"

    def test_non_finite_beats_everything(self):
        assert classify_outcome([np.nan], self.CFG) == "non_finite"
        assert classify_outcome([0.0001], self.CFG, nonfinite_flag=True) == "non_finite"

    def test_singular_beats_success_value(self):
        assert classify_outcome([0.5], self.CFG, singular_flag=True) == "singular_matrix"
        assert (
            classify_outcome([0.5], self.CFG, singular_flag=True, nonfinite_flag=True)
            == "non_finite"
        )


def test_train_single_neuron_newton_one_iteration():
    """Quadratic surface: Newton with omega=1 converges in one step."""
    t = NetworkTopology((1, 1), ("identity",))
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    cfg = TrainConfig(
        method="newton",
        step=StepConfig(mode="one_step_newton", omega=1.0),
        error_target=1e-18,
    )
    rec = train(t, ds, cfg, seed=0)
    assert rec.outcome == "success"
    assert rec.iterations == 1
    assert rec.final_error <= 1e-18


def test_train_stalled_local_minimum():
    """(1,1) identity with incompatible targets: GD lands exactly on the
    least-squares optimum and stalls above the error target."""
    t = NetworkTopology((1, 1), ("identity",))
    ds = Dataset(np.array([[1.0], [1.0]]), np.array([[0.0], [1.0]]))
    cfg = TrainConfig(
        method="gradient_descent", step=StepConfig(mode="constant"), max_iters=5
    )
    rec = train(t, ds, cfg, seed=3)
    assert rec.outcome == "local_minimum"
    assert rec.stalled is True
    assert rec.final_error == pytest.approx(0.25, abs=1e-9)


def test_train_budget_without_stall():
    t = xor_topology()
    cfg = TrainConfig(
        method="gradient_descent",
        step=StepConfig(mode="constant", constant_mu=1e-4),
        max_iters=3,
    )
    rec = train(t, xor(), cfg, seed=0)
    assert rec.outcome == "local_minimum"
    assert rec.stalled is False
    assert rec.iterations == 3


def test_train_blow_up():
    t = xor_topology()
    cfg = TrainConfig(
        method="gradient_descent",
        step=StepConfig(mode="constant", constant_mu=100.0),
        max_iters=50,
    )
    rec = train(t, xor(), cfg, seed=0)
    assert rec.outcome in ("blow_up", "non_finite")
    if rec.outcome == "blow_up":
        assert rec.final_error > 1e10


def test_train_singular_matrix_outcome():
    """One sample into a 2-input node: rank-1 H_ww block."""
    t = NetworkTopology((2, 1), ("identity",))
    ds = Dataset(np.array([[1.0, 1.0]]), np.array([[5.0]]))
    rec = train(t, ds, PSEUDO, seed=0)
    assert rec.outcome == "singular_matrix"


def test_train_history_and_weight_recording():
    rec = train(xor_topology(), xor(), PSEUDO, seed=1, record_weights=True)
    assert rec.error_history is not None
    assert len(rec.error_history) == rec.iterations + 1
    assert rec.weight_history is not None
    assert len(rec.weight_history) == rec.iterations + 1
    assert rec.weight_history[0].shape == (12,)


def test_initial_weights_shared_across_methods():
    """Same seed, same topology: every method starts from identical
    weights, so method comparisons see matched initializations."""
    t = xor_topology()
    gd = TrainConfig(
        method="gradient_descent", step=StepConfig(mode="constant"), max_iters=1
    )
    newton = TrainConfig(method="newton", max_iters=1)
    r1 = train(t, xor(), gd, seed=7, record_weights=True)
    r2 = train(t, xor(), newton, seed=7, record_weights=True)
    np.testing.assert_array_equal(r1.weight_history[0], r2.weight_history[0])
    np.testing.assert_array_equal(
        r1.weight_history[0],
        np.concatenate([w.ravel() for w in init_weights(t, 7)]),
    )


def test_newton_equals_pseudo_iterates_on_identity_net():
    """H_wbar_w = 0 exactly, so the two methods walk the same path."""
    t = NetworkTopology((2, 2), ("identity",))
    rng = np.random.default_rng(5)
    x = complex_uniform(rng, (4, 2))
    d = complex_uniform(rng, (4, 2))
    ds = Dataset(x, d)
    kwargs = dict(step=StepConfig(mode="one_step_newton", omega=0.5), max_iters=6)
    newton_rec = train(t, ds, TrainConfig(method="newton", **kwargs), 11, record_weights=True)
    pseudo_rec = train(t, ds, TrainConfig(method="pseudo_newton", **kwargs), 11, record_weights=True)
    assert len(newton_rec.weight_history) == len(pseudo_rec.weight_history)
    for a, b in zip(newton_rec.weight_history, pseudo_rec.weight_history):
        np.testing.assert_array_equal(a, b)


def test_training_never_assembles_hessian_blocks(monkeypatch):
    """Newton and pseudo-Newton trials run to completion with the full
    H_ww/H_wbar_w assembly disabled: training solves on node blocks."""
    from holonewt import newton, training

    def refuse(*args, **kwargs):
        raise AssertionError("training assembled a full Hessian block")

    monkeypatch.setattr(newton, "hessian_pair", refuse)
    monkeypatch.setattr(training, "hessian_pair", refuse, raising=False)
    for method in ("newton", "pseudo_newton"):
        for act in ("taylor3", "sigmoid"):
            config = TrainConfig(method=method, step=StepConfig(omega=0.5), max_iters=30)
            rec = train(xor_topology(act), xor(), config, seed=12345)
            assert rec.iterations >= 1
            assert rec.outcome in ("success",) + FAILURE_OUTCOMES


@pytest.mark.parametrize(
    "method, calls",
    [
        ("gradient_descent", {"d1": 2, "d2": 0}),
        ("pseudo_newton", {"d1": 2, "d2": 2}),
        ("newton", {"d1": 2, "d2": 2}),
    ],
)
def test_one_derivative_call_per_layer_and_sweep(monkeypatch, method, calls):
    """A sweep evaluates g' (and, for the Newton-type methods, g'') once
    per layer, at the unconjugated net sums: the conjugated-net factors
    are their conjugates.  One iteration on 2-4-1 XOR."""
    from holonewt.activations import ACTIVATIONS, Activation

    counts = {"d1": 0, "d2": 0}

    def counted(name, fn):
        def spy(z):
            counts[name] += 1
            return fn(z)

        return spy

    act = ACTIVATIONS["sigmoid"]
    monkeypatch.setitem(
        ACTIVATIONS,
        "sigmoid",
        Activation(act.name, act.f, counted("d1", act.d1), counted("d2", act.d2)),
    )
    mode = "constant" if method == "gradient_descent" else "one_step_newton"
    config = TrainConfig(method=method, step=StepConfig(mode=mode), max_iters=1)
    rec = train(xor_topology("sigmoid"), xor(), config, seed=12345)
    assert rec.iterations == 1
    assert counts == calls


def test_pseudo_newton_never_builds_the_conjugate_block_stack(monkeypatch):
    """Pseudo-Newton's solve never reads H_wbar_w, so its sweep never
    contracts the conjugated layer inputs with themselves, which is how
    the H_wbar_w node-block stack is built.  Newton, which solves with
    that stack, does build it."""
    einsum = np.einsum
    both_conj = []

    def spy(subscripts, *operands, **kwargs):
        if subscripts.endswith("->jia") and len(operands) == 3:
            both_conj.append(np.array_equal(operands[1], operands[2]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    # complex inputs, so that x and conj(x) differ at every layer
    t, _, ds = random_instance((3, 4, 2), "taylor3", 0, n_samples=6)
    for method, builds_g in (("pseudo_newton", False), ("newton", True)):
        both_conj.clear()
        config = TrainConfig(method=method, step=StepConfig(omega=0.5), max_iters=3)
        rec = train(t, ds, config, seed=5)
        assert rec.iterations >= 1
        assert both_conj and any(both_conj) == builds_g


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_denominator_ends_the_trial(monkeypatch, bad):
    """A NaN or infinite one-step denominator ends the trial as
    non_finite at once, instead of stalling or poisoning the weights."""
    from holonewt import training

    monkeypatch.setattr(training, "one_step_denominator", lambda *args: bad)
    # one layer, so no later layer of the same sweep sees the step first
    t = NetworkTopology((2, 1), ("taylor3",))
    rec = train(t, xor(), TrainConfig(method="pseudo_newton", max_iters=5), seed=12345)
    assert rec.outcome == "non_finite"
    assert rec.iterations == 0


class TestRunTrials:
    def test_single_trial_aggregation(self):
        stats, records = run_trials(xor_topology(), xor(), PSEUDO, 1, base_seed=42)
        assert stats.n_trials == 1
        assert len(records) == 1
        assert records[0].seed == 42
        if records[0].outcome == "success":
            assert stats.successes == 1
            assert stats.mean_iterations_over_successes == records[0].iterations
        else:
            assert stats.failure_counts[records[0].outcome] == 1

    def test_seeds_are_base_plus_k(self):
        _, records = run_trials(xor_topology(), xor(), PSEUDO, 5, base_seed=100)
        assert [r.seed for r in records] == [100, 101, 102, 103, 104]

    def test_outcomes_partition_trials(self):
        stats, records = run_trials(xor_topology("sigmoid"), xor(), PSEUDO, 20, 0)
        assert stats.successes + sum(stats.failure_counts.values()) == 20
        for r in records:
            assert r.outcome in ("success",) + FAILURE_OUTCOMES

    def test_parallel_matches_serial(self):
        """Identical records at any job count, byte-for-byte in the CSV."""
        cfg = TrainConfig(
            method="pseudo_newton",
            step=StepConfig(mode="one_step_newton", omega=0.5),
            max_iters=60,
        )
        t = xor_topology()
        _, serial = run_trials(t, xor(), cfg, 16, 300, jobs=1)
        _, parallel = run_trials(t, xor(), cfg, 16, 300, jobs=2)
        for a, b in zip(serial, parallel):
            assert (a.seed, a.outcome, a.iterations) == (b.seed, b.outcome, b.iterations)
            assert a.final_error == b.final_error

    @pytest.mark.parametrize(
        "n_trials, jobs, workers",
        [(2, 3, None), (8, 2, None), (9, 64, 2), (16, 3, 2), (17, 3, 3), (40, 2, 2)],
    )
    def test_one_worker_per_chunk_at_most(self, monkeypatch, n_trials, jobs, workers):
        """No more workers than chunks of TRIAL_CHUNK trials, and no pool
        at all for a single chunk.  The executor is a spy that maps in
        this process, so no worker process is started."""
        from holonewt import training

        started = []

        class SpyExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize):
                assert chunksize == training.TRIAL_CHUNK
                return map(fn, args)

        monkeypatch.setattr(training, "ProcessPoolExecutor", SpyExecutor)
        cfg = TrainConfig(method="pseudo_newton", max_iters=2)
        _, records = run_trials(xor_topology(), xor(), cfg, n_trials, 7, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert [r.seed for r in records] == list(range(7, 7 + n_trials))

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            run_trials(xor_topology(), xor(), PSEUDO, 0, 0)


def test_summarize_counts():
    _, records = run_trials(xor_topology(), xor(), PSEUDO, 6, 12345)
    stats = summarize(records)
    assert stats.n_trials == 6
    succ_iters = [r.iterations for r in records if r.outcome == "success"]
    if succ_iters:
        assert stats.mean_iterations_over_successes == pytest.approx(np.mean(succ_iters))


class TestRFactor:
    def test_geometric_sequence(self):
        history = [np.array([2.0**-n]) for n in range(40)]
        assert r_factor_estimate(history) == pytest.approx(0.5, abs=1e-3)

    def test_constant_history(self):
        history = [np.array([1.0 + 1j])] * 6
        assert r_factor_estimate(history) == 0.0

    def test_requires_four_iterates(self):
        with pytest.raises(ValueError):
            r_factor_estimate([np.zeros(2)] * 3)

    def test_nonconvergent_sequence_flags_above_one(self):
        history = [np.array([1.5**n]) for n in range(24)]
        assert r_factor_estimate(history) > 1.0


def test_write_trials_csv_round_trip(tmp_path):
    cfg = TrainConfig(
        method="pseudo_newton",
        step=StepConfig(mode="one_step_newton", omega=0.5),
        max_iters=60,
    )
    t = xor_topology()
    _, records = run_trials(t, xor(), cfg, 4, 500)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, records, cfg, t)
    lines = path.read_text().splitlines()
    assert lines[0] == "seed,method,activation,outcome,iterations,final_error,stalled"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "500"
    assert first[1] == "pseudo_newton"
    assert first[2] == "taylor3"
    # final_error column round-trips exactly through repr
    assert float(first[5]) == records[0].final_error
