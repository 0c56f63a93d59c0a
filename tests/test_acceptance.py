"""Acceptance gate for the package.

Each test checks one shipped guarantee end to end and prints a single
verdict line (run with -s to see them on success):

    [acceptance] criterion N PASS: <numbers>

Criteria, in order: (1) finite-difference derivative battery,
(2) structural properties of the Hessian tables, (3) the real-coordinate
quadratic form identity, (4) one-step convergence on exactly quadratic
problems, (5) XOR benchmark statistics, (6) byte-level determinism of
the benchmark artifacts, (7) empirical R-linear convergence of
pseudo-Newton runs.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from holonewt import (
    Dataset,
    NetworkTopology,
    backward_tables,
    fd_hessians,
    fdcheck,
    hessian_pair,
    run_trials,
    verify_report,
)
from holonewt.fdcheck import (
    fd_real_hessian,
    real_quadratic_form,
    relative_error,
)
from holonewt.steplength import StepConfig
from holonewt.training import (
    FAILURE_OUTCOMES,
    TrainConfig,
    train,
    write_trials_csv,
)

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import (
    BATTERY,
    complex_uniform,
    fd_hessians_conj,
    r_factor_estimate,
    random_instance,
    record_weight_iterates,
)

XOR = Dataset(XOR_INPUTS.copy(), XOR_TARGETS.copy())
BASE_SEED = 12345


def _verdict(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} {status}: {detail}")
    return ok


def xor_topology(act):
    return NetworkTopology((2, 4, 1), (act, act))


def _criterion_1_battery(criterion):
    """Criterion 1's 900 instances, checked under its bounds."""
    topologies = ((1, 1), (2, 3, 1), (2, 4, 1))
    acts = ("sigmoid", "taylor3", "identity")
    worst = {"cogradient": 0.0, "h_ww": 0.0, "h_wbar_w": 0.0}
    count = 0
    started = time.monotonic()
    for widths in topologies:
        for act in acts:
            for seed in range(100):
                topology, weights, dataset = random_instance(widths, act, seed)
                rep = verify_report(topology, weights, dataset)
                worst["cogradient"] = max(worst["cogradient"], rep["max_cogradient_rel"])
                worst["h_ww"] = max(worst["h_ww"], rep["max_h_ww_rel"])
                worst["h_wbar_w"] = max(worst["h_wbar_w"], rep["max_h_wbar_w_rel"])
                count += 1
    elapsed = time.monotonic() - started
    ok = (
        count == 900
        and worst["cogradient"] <= 1e-6
        and worst["h_ww"] <= 1e-5
        and worst["h_wbar_w"] <= 1e-5
        and elapsed < 120.0
    )
    return _verdict(
        criterion,
        ok,
        f"{count} instances: cogradient rel {worst['cogradient']:.2e} (tol 1e-6), "
        f"H_ww rel {worst['h_ww']:.2e}, H_wbar_w rel {worst['h_wbar_w']:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_1_derivative_battery():
    assert _criterion_1_battery(1)


def test_criterion_1_bounds_hold_in_double_precision(monkeypatch):
    """Where long double is plain double, the oracle probes in
    complex128; criterion 1's bounds still hold there."""
    monkeypatch.setattr(fdcheck, "_LONGC", np.complex128)
    assert _criterion_1_battery("1 (oracle in complex128)")


def test_criterion_2_structure_suite():
    exact = []
    # output-layer blocks: one block of size K_{L-1} per output node,
    # zero outside, for every activation
    for act, seed in (("taylor3", 0), ("sigmoid", 1), ("identity", 2)):
        topology, weights, dataset = random_instance((2, 3, 2), act, seed)
        tables = backward_tables(topology, weights, dataset)
        ell = topology.n_layers
        h_ww, h_wbar_w = hessian_pair(tables, ell)
        k, c = topology.widths[ell - 1], topology.widths[ell]
        block_mask = np.kron(np.eye(c, dtype=bool), np.ones((k, k), dtype=bool))
        exact.append(not np.any(h_ww[~block_mask]))
        exact.append(not np.any(h_wbar_w[~block_mask]))
        # the output layer's curvature and conjugate-plus-residual tables
        # are stored as (N, C) diagonals: the conjugate table vanishes
        # there, and the residual table is diagonal
        exact.append(tables.curvature[ell - 1].shape == (3, c))
        exact.append(tables.cplus[ell - 1].shape == (3, c))

    # the diagonal-only residual table reproduces the fd H_wbar_w at the
    # output layer, so the discarded off-diagonal really is zero
    topology, weights, dataset = random_instance((2, 3, 2), "sigmoid", 5)
    tables = backward_tables(topology, weights, dataset)
    _, h_wbar_w = hessian_pair(tables, 2)
    fd_ww, fd_wbar_w = fd_hessians(topology, weights, dataset, 2)
    scale = max(np.linalg.norm(fd_ww), np.linalg.norm(fd_wbar_w))
    theta_rel = relative_error(h_wbar_w, fd_wbar_w, scale=scale)

    # remaining Hessian blocks are conjugates of the computed pair
    conj_rels = []
    for act, seed in (("taylor3", 3), ("sigmoid", 4)):
        topology, weights, dataset = random_instance((2, 3, 1), act, seed)
        tables = backward_tables(topology, weights, dataset)
        for p in (1, 2):
            h_ww, h_wbar_w = hessian_pair(tables, p)
            fd_w_wbar, fd_wbar_wbar = fd_hessians_conj(topology, weights, dataset, p)
            scale = max(np.linalg.norm(fd_w_wbar), np.linalg.norm(fd_wbar_wbar))
            conj_rels.append(relative_error(np.conj(h_wbar_w), fd_w_wbar, scale=scale))
            conj_rels.append(relative_error(np.conj(h_ww), fd_wbar_wbar, scale=scale))

    ok = all(exact) and theta_rel <= 1e-5 and max(conj_rels) <= 1e-5
    assert _verdict(
        2,
        ok,
        f"output blocks exactly diagonal in {sum(exact)}/{len(exact)} checks, "
        f"diagonal residual table rel {theta_rel:.2e}, "
        f"conjugate blocks rel {max(conj_rels):.2e} (tol 1e-5)",
    )


def test_criterion_3_real_quadratic_form():
    combos = (
        ((1, 1), "taylor3"),
        ((2, 3, 1), "sigmoid"),
        ((2, 2, 2), "identity"),
        ((3, 2, 1), "taylor3"),
        ((2, 4, 1), "sigmoid"),
    )
    rng = np.random.default_rng(2024)
    rels = []
    for k in range(50):
        widths, act = combos[k % len(combos)]
        topology, weights, dataset = random_instance(widths, act, 1000 + k)
        p = 1 + k % topology.n_layers
        h_ww, h_wbar_w = hessian_pair(backward_tables(topology, weights, dataset), p)
        v = complex_uniform(rng, (topology.layer_size(p),))
        analytic = real_quadratic_form(h_ww, h_wbar_w, v)
        h_rr = fd_real_hessian(topology, weights, dataset, p)
        vr = np.concatenate([v.real, v.imag])
        rels.append(relative_error(analytic, float(vr @ h_rr @ vr)))
    ok = len(rels) == 50 and max(rels) <= 1e-4
    assert _verdict(
        3, ok, f"{len(rels)} instances, worst rel {max(rels):.2e} (tol 1e-4)"
    )


def test_criterion_4_one_step_quadratic_convergence():
    config = TrainConfig(
        method="newton",
        step=StepConfig(mode="one_step_newton", omega=1.0),
        error_target=1e-18,
        max_iters=5,
    )
    checked = 0
    skipped = 0
    failures = []
    seed = 0
    while checked < 50 and seed < 300:
        m = 1 + seed % 3
        c = 1 + (seed // 3) % 2
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(m, 6))
        x = complex_uniform(rng, (n, m))
        w_true = complex_uniform(rng, (c, m))
        # every node shares the same H_ww block; skip ill conditioned draws
        block = (np.conj(x.T) @ x) / n
        if np.linalg.cond(block) > 1e6:
            skipped += 1
            seed += 1
            continue
        topology = NetworkTopology((m, c), ("identity",))
        dataset = Dataset(x, x @ w_true.T)
        rec = train(topology, dataset, config, seed)
        good = (
            rec.outcome == "success"
            and rec.iterations == 1
            and rec.error_history[0] > 1e-18
            and rec.final_error <= 1e-18
        )
        if not good:
            failures.append((seed, rec.outcome, rec.iterations, rec.final_error))
        checked += 1
        seed += 1
    ok = checked == 50 and not failures
    assert _verdict(
        4,
        ok,
        f"{checked - len(failures)}/{checked} nets at E<=1e-18 in exactly 1 "
        f"iteration ({skipped} ill-conditioned draws skipped)"
        + (f"; failures {failures[:3]}" if failures else ""),
    )


def _run_battery(outdir, jobs):
    results = {}
    for name, (act, method, step) in BATTERY.items():
        topology = xor_topology(act)
        config = TrainConfig(method=method, step=step)
        stats, records = run_trials(topology, XOR, config, 100, BASE_SEED, jobs=jobs)
        path = outdir / f"{name}.csv"
        write_trials_csv(path, records, config, topology)
        results[name] = (stats, path)
    return results


@pytest.fixture(scope="module")
def xor_battery(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("xor_battery")
    started = time.monotonic()
    results = _run_battery(outdir, jobs=1)
    return results, time.monotonic() - started


def test_criterion_5_xor_benchmark(xor_battery):
    results, elapsed = xor_battery
    tp, tg = results["taylor3_pseudo"][0], results["taylor3_gd"][0]
    sg, sn = results["sigmoid_gd"][0], results["sigmoid_newton"][0]
    sp = results["sigmoid_pseudo"][0]

    bands = (
        tp.successes >= 90 and tp.mean_iterations_over_successes <= 100,
        tg.successes >= 80 and 300 <= tg.mean_iterations_over_successes <= 3000,
        sg.successes >= 80 and 400 <= sg.mean_iterations_over_successes <= 4000,
        sn.n_trials == 100
        and sn.successes + sum(sn.failure_counts.values()) == 100
        and set(sn.failure_counts) == set(FAILURE_OUTCOMES)
        and sn.successes <= 30,
    )
    ordering = (
        tp.mean_iterations_over_successes * 5 <= tg.mean_iterations_over_successes
        and sp.mean_iterations_over_successes is not None
        and sp.mean_iterations_over_successes * 5 <= sg.mean_iterations_over_successes
    )
    ok = all(bands) and ordering and elapsed < 900.0
    assert _verdict(
        5,
        ok,
        f"taylor3 pseudo {tp.successes}/{tp.mean_iterations_over_successes:.1f}, "
        f"taylor3 gd {tg.successes}/{tg.mean_iterations_over_successes:.1f}, "
        f"sigmoid gd {sg.successes}/{sg.mean_iterations_over_successes:.1f}, "
        f"sigmoid newton successes {sn.successes} (failures {sn.failure_counts}), "
        f"5x ordering {'holds' if ordering else 'violated'}, "
        f"{elapsed:.1f}s (limit 900s)",
    )


def test_criterion_6_determinism(xor_battery, tmp_path):
    baseline, _ = xor_battery
    mismatches = []
    for jobs in (1, 2):
        outdir = tmp_path / f"jobs{jobs}"
        outdir.mkdir()
        rerun = _run_battery(outdir, jobs=jobs)
        for name, (_, path) in rerun.items():
            if path.read_bytes() != baseline[name][1].read_bytes():
                mismatches.append((name, jobs))
    ok = not mismatches
    assert _verdict(
        6,
        ok,
        f"{2 * len(BATTERY)} CSV reruns byte-identical at jobs=1 and jobs=2"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


GOLDEN = Path(__file__).parent / "golden"


def test_battery_matches_golden_trials(xor_battery):
    """The battery's trials.csv bytes are pinned: a refactor that keeps
    the arithmetic keeps every outcome, iteration count and final error.
    Regenerate tests/golden/<config>.csv only for a change that is meant
    to move the arithmetic, and explain the diff."""
    results, _ = xor_battery
    changed = [
        name
        for name, (_, path) in results.items()
        if path.read_bytes() != (GOLDEN / f"{name}.csv").read_bytes()
    ]
    assert not changed, f"battery trials.csv differs from tests/golden for {changed}"


def test_criterion_7_r_factor_diagnostic(monkeypatch):
    """Successful pseudo-Newton runs should converge at least R-linearly.

    The error target is pushed to the float64 floor so the trailing half
    of each weight trajectory sits inside the terminal basin, where the
    R-factor estimate reflects the asymptotic rate instead of the
    transient search phase.  The trials run in this process, so the
    recorder sees every iterate."""
    config = TrainConfig(
        method="pseudo_newton",
        step=StepConfig(mode="one_step_newton", omega=0.5),
        error_target=1e-30,
        max_iters=2000,
    )
    histories = record_weight_iterates(monkeypatch)
    _, records = run_trials(xor_topology("taylor3"), XOR, config, 40, 500, jobs=1)
    assert len(histories) == len(records)
    estimates = [
        r_factor_estimate(h)
        for r, h in zip(records, histories)
        if r.outcome == "success" and len(h) >= 4
    ]
    usable = len(estimates)
    below = sum(1 for e in estimates if e < 1.0)
    frac = below / usable if usable else 0.0
    ok = usable >= 20 and frac >= 0.95
    assert _verdict(
        7,
        ok,
        f"R1 < 1 in {below}/{usable} successful runs ({frac:.3f}, need >=0.95 "
        f"of >=20); estimates in [{min(estimates):.3f}, {max(estimates):.3f}]"
        if usable
        else "no usable runs",
    )
