from pathlib import Path

import numpy as np
import pytest

from holonewt import Dataset, NetworkTopology
from holonewt.network import init_weights
from holonewt.steplength import StepConfig
from holonewt.training import (
    FAILURE_OUTCOMES,
    TrainConfig,
    run_trials,
    summarize,
    train,
    write_trials_csv,
)

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import (
    BATTERY,
    complex_uniform,
    r_factor_estimate,
    random_instance,
    record_weight_iterates,
)


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

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("max_iters", 2.5),
            ("max_iters", True),
            ("max_iters", False),
            ("max_iters", "3"),
            ("max_iters", 0),
        ],
    )
    def test_rejected_values_are_named(self, field, bad):
        """A float or bool budget is not rounded or read as 1; the error
        names the field and the value."""
        with pytest.raises(ValueError, match=f"^{field} .* got {bad!r}$"):
            TrainConfig(method="gradient_descent", step=StepConfig(mode="constant"), **{field: bad})

    def test_numpy_integer_budget_is_accepted(self):
        assert TrainConfig(method="newton", max_iters=np.int64(3)).iteration_budget == 3


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
    """(1,1) identity with x = d = 1: a GD step at mu = 100 maps w - 1 to
    -99 (w - 1), so E grows by 99^2 per iteration; from seeds 0-4 it
    passes the 1e10 threshold at the third."""
    t = NetworkTopology((1, 1), ("identity",))
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]))
    cfg = TrainConfig(
        method="gradient_descent",
        step=StepConfig(mode="constant", constant_mu=100.0),
        max_iters=50,
    )
    for seed in range(5):
        rec = train(t, ds, cfg, seed)
        assert rec.outcome == "blow_up"
        assert rec.iterations == 3
        assert rec.final_error > cfg.blowup_threshold
        assert rec.error_history[1] / rec.error_history[0] == pytest.approx(99.0**2, rel=1e-12)


def test_train_singular_matrix_outcome():
    """One sample into a 2-input node: rank-1 H_ww block."""
    t = NetworkTopology((2, 1), ("identity",))
    ds = Dataset(np.array([[1.0, 1.0]]), np.array([[5.0]]))
    rec = train(t, ds, PSEUDO, seed=0)
    assert rec.outcome == "singular_matrix"


def test_train_history_and_weight_recording(monkeypatch):
    histories = record_weight_iterates(monkeypatch)
    rec = train(xor_topology(), xor(), PSEUDO, seed=1)
    assert rec.error_history is not None
    assert len(rec.error_history) == rec.iterations + 1
    (weight_history,) = histories
    assert len(weight_history) == rec.iterations + 1
    assert weight_history[0].shape == (12,)
    np.testing.assert_array_equal(
        weight_history[-1], np.concatenate([w.ravel() for w in rec.final_weights])
    )


def test_initial_weights_shared_across_methods(monkeypatch):
    """Same seed, same topology: every method starts from identical
    weights, so method comparisons see matched initializations."""
    t = xor_topology()
    gd = TrainConfig(
        method="gradient_descent", step=StepConfig(mode="constant"), max_iters=1
    )
    newton = TrainConfig(method="newton", max_iters=1)
    histories = record_weight_iterates(monkeypatch)
    train(t, xor(), gd, seed=7)
    train(t, xor(), newton, seed=7)
    np.testing.assert_array_equal(histories[0][0], histories[1][0])
    np.testing.assert_array_equal(
        histories[0][0],
        np.concatenate([w.ravel() for w in init_weights(t, 7)]),
    )


def test_newton_equals_pseudo_iterates_on_identity_net(monkeypatch):
    """H_wbar_w = 0 exactly, so the two methods walk the same path."""
    t = NetworkTopology((2, 2), ("identity",))
    rng = np.random.default_rng(5)
    x = complex_uniform(rng, (4, 2))
    d = complex_uniform(rng, (4, 2))
    ds = Dataset(x, d)
    kwargs = dict(step=StepConfig(mode="one_step_newton", omega=0.5), max_iters=6)
    histories = record_weight_iterates(monkeypatch)
    train(t, ds, TrainConfig(method="newton", **kwargs), 11)
    train(t, ds, TrainConfig(method="pseudo_newton", **kwargs), 11)
    newton_history, pseudo_history = histories
    assert len(newton_history) == len(pseudo_history)
    for a, b in zip(newton_history, pseudo_history):
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


@pytest.mark.parametrize("method, per_trial", [("gradient_descent", 0), ("newton", 1), ("pseudo_newton", 1)])
def test_table_buffers_allocated_once_per_trial(monkeypatch, method, per_trial):
    """A Newton-type trial allocates its layer tables once and overwrites
    them on every iteration; gradient descent never builds tables."""
    from holonewt import newton, training

    made = []

    def counting(*args):
        made.append(args)
        return newton.table_buffers(*args)

    monkeypatch.setattr(training, "table_buffers", counting)
    step = StepConfig(mode="constant") if method == "gradient_descent" else StepConfig(omega=0.5)
    config = TrainConfig(method=method, step=step, max_iters=5)
    topology = NetworkTopology((2, 4, 4, 1), ("taylor3",) * 3)
    records = [train(topology, xor(), config, seed) for seed in (12345, 12346, 12347)]
    assert sum(r.iterations for r in records) > len(records)
    assert made == [(topology, 4)] * (per_trial * len(records))


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
        def spy(z, g):
            counts[name] += 1
            return fn(z, g)

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


@pytest.mark.parametrize("method", ["gradient_descent", "pseudo_newton", "newton"])
def test_sigmoid_exp_runs_only_in_the_forward_pass(monkeypatch, method):
    """The sweep takes the sigmoid's g' and g'' from the forward values,
    so a one-iteration train makes exactly the forward passes' np.exp
    calls: one per layer and pass, 2 per pass on 2-4-1 XOR."""
    from holonewt import training

    exp, forward = np.exp, training.forward
    calls = {"exp": 0, "exp_in_forward": 0, "forward": 0}

    def exp_spy(*args, **kwargs):
        calls["exp"] += 1
        return exp(*args, **kwargs)

    def forward_spy(*args, **kwargs):
        before = calls["exp"]
        trace = forward(*args, **kwargs)
        calls["forward"] += 1
        calls["exp_in_forward"] += calls["exp"] - before
        return trace

    monkeypatch.setattr(np, "exp", exp_spy)
    monkeypatch.setattr(training, "forward", forward_spy)
    mode = "constant" if method == "gradient_descent" else "one_step_newton"
    config = TrainConfig(method=method, step=StepConfig(mode=mode), max_iters=1)
    rec = train(xor_topology("sigmoid"), xor(), config, seed=12345)
    assert rec.iterations == 1
    assert calls["forward"] == 2
    assert calls["exp"] == calls["exp_in_forward"] == 2 * calls["forward"]


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


def test_non_finite_node_block_ends_the_trial(monkeypatch):
    """A NaN node block with a finite E ends the trial as non_finite
    before any solve or update."""
    from holonewt import newton

    monkeypatch.setattr(
        newton, "_node_blocks", lambda table, left, right: np.full((1, 2, 2), np.nan + 0j)
    )
    t = NetworkTopology((2, 1), ("taylor3",))
    rec = train(t, xor(), TrainConfig(method="pseudo_newton", max_iters=5), seed=12345)
    assert np.isfinite(rec.error_history[0])
    assert rec.outcome == "non_finite"
    assert rec.iterations == 0


@pytest.mark.parametrize("method", ["newton", "pseudo_newton"])
def test_constant_steplength_newton_step_on_a_quadratic(method):
    """On an identity net with targets it fits exactly, E is quadratic
    with minimum 0, and a Newton-type method with a constant steplength
    takes mu * omega of the exact Newton step: mu = omega = 1 lands on
    the minimum, and mu = 0.5 halves the residual, so each iteration
    divides E by 4."""
    t = NetworkTopology((3, 2), ("identity",))
    rng = np.random.default_rng(0)
    x = complex_uniform(rng, (5, 3))
    ds = Dataset(x, x @ complex_uniform(rng, (2, 3)).T)
    full = TrainConfig(
        method=method,
        step=StepConfig(mode="constant", constant_mu=1.0, omega=1.0),
        error_target=1e-18,
    )
    rec = train(t, ds, full, seed=1)
    assert rec.outcome == "success"
    assert rec.iterations == 1
    assert rec.final_error <= 1e-18

    half = TrainConfig(
        method=method,
        step=StepConfig(mode="constant", constant_mu=0.5, omega=1.0),
        error_target=1e-18,
        max_iters=3,
    )
    rec = train(t, ds, half, seed=1)
    assert rec.iterations == 3
    for before, after in zip(rec.error_history, rec.error_history[1:]):
        assert after == pytest.approx(before / 4, rel=1e-12)


@pytest.mark.parametrize("targets", [XOR_TARGETS, np.zeros((4, 3))])
def test_train_rejects_a_target_width_that_is_not_the_output_width(targets):
    """A 2-4-2 net's outputs would broadcast against 1-wide targets and
    fail to against 3-wide ones; either way the dataset is refused."""
    t = NetworkTopology((2, 4, 2), ("taylor3", "taylor3"))
    with pytest.raises(ValueError, match="dataset target width"):
        train(t, Dataset(XOR_INPUTS, targets), PSEUDO, seed=0)


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
        import concurrent.futures

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyExecutor)
        cfg = TrainConfig(method="pseudo_newton", max_iters=2)
        _, records = run_trials(xor_topology(), xor(), cfg, n_trials, 7, jobs=jobs)
        assert started == ([] if workers is None else [workers])
        assert [r.seed for r in records] == list(range(7, 7 + n_trials))

    @pytest.mark.parametrize("n_trials", [2, 9])
    @pytest.mark.parametrize("jobs", [-5, 0, 2.5, True])
    def test_rejects_a_bad_job_count(self, monkeypatch, n_trials, jobs):
        """A job count that is not an integer of at least 1 is refused
        before any trial runs or any pool starts."""
        import concurrent.futures

        from holonewt import training

        def refuse(*args, **kwargs):
            raise AssertionError("started work for a bad job count")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(training, "train", refuse)
        with pytest.raises(ValueError, match=f"jobs must be an integer of at least 1, got {jobs!r}"):
            run_trials(xor_topology(), xor(), PSEUDO, n_trials, 0, jobs=jobs)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            run_trials(xor_topology(), xor(), PSEUDO, 0, 0)


# a few battery seeds per golden config, as (first seed, count) runs:
# successes, the sigmoid gradient-descent non_finite at 12398 (236
# iterations) and singular_matrix ends, Newton's at the first iteration
GOLDEN_SUBSET = {
    "taylor3_pseudo": [(12345, 3), (12394, 1)],
    "taylor3_gd": [(12345, 2)],
    "sigmoid_gd": [(12397, 2)],
    "sigmoid_newton": [(12345, 4)],
    "sigmoid_pseudo": [(12355, 4)],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SUBSET))
def test_battery_seeds_match_golden_rows(tmp_path, name):
    """A fast guard on the training arithmetic: a few seeds of each
    battery config write the same trials.csv rows as tests/golden,
    which the full 100-seed battery in test_acceptance pins."""
    act, method, step = BATTERY[name]
    topology = xor_topology(act)
    config = TrainConfig(method=method, step=step)
    records = []
    for base, n in GOLDEN_SUBSET[name]:
        records += run_trials(topology, xor(), config, n, base)[1]
    path = tmp_path / f"{name}.csv"
    write_trials_csv(path, records, config, topology)
    header, *rows = path.read_text().splitlines()
    golden_header, *golden = (Path(__file__).parent / "golden" / f"{name}.csv").read_text().splitlines()
    by_seed = {int(line.split(",", 1)[0]): line for line in golden}
    assert header == golden_header
    assert rows == [by_seed[r.seed] for r in records]


# 2-4-4-1 on XOR: the only golden training runs whose hidden layer 1
# receives a full (N, K, K) table from layer 2; the 2-4-1 battery's
# hidden layer only ever reads the output layer's diagonals
DEEP_GOLDEN = Path(__file__).parent / "golden" / "deep_2-4-4-1.csv"
DEEP_CONFIGS = [(act, method) for act in ("taylor3", "sigmoid") for method in ("newton", "pseudo_newton")]


def deep_trials_csv(path):
    """The depth-3 golden file's bytes: 20 seeds from 12345 per config,
    one header."""
    lines = []
    for act, method in DEEP_CONFIGS:
        topology = NetworkTopology((2, 4, 4, 1), (act,) * 3)
        config = TrainConfig(method=method, step=StepConfig(mode="one_step_newton", omega=0.5))
        _, records = run_trials(topology, xor(), config, 20, 12345)
        write_trials_csv(path, records, config, topology)
        header, *rows = path.read_text().splitlines()
        lines += ([header] if not lines else []) + rows
    return "\n".join(lines) + "\n"


def test_depth_3_trials_match_golden(tmp_path):
    """Newton and pseudo-Newton trials on a depth-3 net write the bytes of
    tests/golden/deep_2-4-4-1.csv.  Regenerate it only for a change that
    is meant to move the arithmetic, and explain the diff."""
    assert deep_trials_csv(tmp_path / "trials.csv") == DEEP_GOLDEN.read_text()


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
