"""The four workloads: how their inputs are made, one operation, checks.

A workload is a fixed list of operations (one training trial, or one
`holonewt verify` run).  A pass runs all of them once, in an order
shuffled by the workload seed, so every pass does the same work and the
operation counts repeat exactly from pass to pass and run to run.  See
README.md for why each workload exists and which layers it stresses.
"""

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from holonewt import cli, training
from holonewt.network import Dataset, NetworkTopology, error
from holonewt.steplength import StepConfig
from holonewt.training import TrainConfig

# criterion 5 of the acceptance gate: the XOR battery starts at this seed
BATTERY_SEED = 12345
XOR = Dataset(
    np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=complex),
    np.array([[0], [1], [1], [0]], dtype=complex),
)
GD_STEP = StepConfig(mode="constant", constant_mu=1.0)
NEWTON_STEP = StepConfig(mode="one_step_newton", omega=0.5)

# wide_pseudo_newton: a realizable dataset labelled by a taylor3 teacher
WIDE_WIDTHS = (4, 16, 16, 4)
WIDE_SAMPLES = 32
WIDE_TEACHER_SEED = 2014
WIDE_DATA_SEED = 2015
WIDE_TEACHER_RANGE = 0.7
WIDE_STUDENT_SEEDS = range(6)
WIDE_CONFIG = dict(error_target=1e-3, max_iters=20, init_range=0.3)

# fd_verify: 4-6-3 nets on 8 samples, weights drawn by `verify --seed`
VERIFY_WIDTHS = (4, 6, 3)
VERIFY_SAMPLES = 8
VERIFY_INIT_RANGE = 0.5
VERIFY_SEEDS_PER_ACTIVATION = 2


def unit_box(rng, shape):
    """Complex entries with real and imaginary parts uniform in [-1, 1]."""
    draws = rng.uniform(-1.0, 1.0, size=shape + (2,))
    return draws[..., 0] + 1j * draws[..., 1]


@dataclass(frozen=True)
class Trial:
    label: str
    seed: int


@dataclass
class TrialResult:
    label: str
    seed: int
    outcome: str
    iterations: int
    final_error: float
    final_weights: list

    def key(self):
        return (self.label, self.seed, self.outcome, self.iterations, repr(self.final_error))


class TrainingWorkload:
    """Seeded training trials through `holonewt.training.run_trials`."""

    kind = "training"

    def __init__(self, configs, dataset, seeds, band_check):
        self.configs = configs  # label -> (topology, TrainConfig)
        self.dataset = dataset
        self.seeds = list(seeds)
        self.band_check = band_check

    def operations(self, seed):
        ops = [Trial(label, s) for label in self.configs for s in self.seeds]
        random.Random(seed).shuffle(ops)
        return ops

    def setup_problems(self):
        return []

    def warm_up(self):
        # one short trial per configuration, so first-call costs land here
        for label, (topology, config) in self.configs.items():
            short = TrainConfig(
                method=config.method,
                step=config.step,
                error_target=config.error_target,
                max_iters=1,
                init_range=config.init_range,
            )
            training.run_trials(topology, self.dataset, short, 1, self.seeds[0])

    def run(self, op):
        topology, config = self.configs[op.label]
        _, (rec,) = training.run_trials(topology, self.dataset, config, 1, op.seed, jobs=1)
        return TrialResult(op.label, op.seed, rec.outcome, rec.iterations, rec.final_error, rec.final_weights)

    def op_problems(self, result):
        topology, config = self.configs[result.label]
        return checks.trial_problems(
            result,
            topology.activations,
            self.dataset.inputs,
            self.dataset.targets,
            config.error_target,
            config.blowup_threshold,
            config.iteration_budget,
        )

    def pass_problems(self, results):
        by_label = {label: [] for label in self.configs}
        for r in results:
            by_label[r.label].append(r)
        return self.band_check(by_label)

    def close(self):
        pass


def xor_topology(act):
    return NetworkTopology((2, 4, 1), (act, act))


def xor_gd():
    configs = {
        f"{act}/gradient_descent": (
            xor_topology(act),
            TrainConfig(method="gradient_descent", step=GD_STEP),
        )
        for act in ("taylor3", "sigmoid")
    }
    # the first 20 battery seeds: a pass of about 4 s on one core
    seeds = range(BATTERY_SEED, BATTERY_SEED + 20)
    return TrainingWorkload(configs, XOR, seeds, checks.gd_band_problems)


def xor_newton():
    configs = {
        f"{act}/{method}": (xor_topology(act), TrainConfig(method=method, step=NEWTON_STEP))
        for act in ("taylor3", "sigmoid")
        for method in ("newton", "pseudo_newton")
    }
    seeds = range(BATTERY_SEED, BATTERY_SEED + 100)
    return TrainingWorkload(configs, XOR, seeds, checks.newton_band_problems)


class WideWorkload(TrainingWorkload):
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(WIDE_TEACHER_SEED))
        self.teacher = [
            WIDE_TEACHER_RANGE * unit_box(rng, (WIDE_WIDTHS[p], WIDE_WIDTHS[p - 1]))
            for p in range(1, len(WIDE_WIDTHS))
        ]
        self.teacher_acts = ("taylor3",) * len(self.teacher)
        rng = np.random.Generator(np.random.PCG64(WIDE_DATA_SEED))
        inputs = unit_box(rng, (WIDE_SAMPLES, WIDE_WIDTHS[0]))
        targets = checks.ref_forward(self.teacher_acts, self.teacher, inputs)
        configs = {
            f"{act}/pseudo_newton": (
                NetworkTopology(WIDE_WIDTHS, (act,) * len(self.teacher)),
                TrainConfig(method="pseudo_newton", step=NEWTON_STEP, **WIDE_CONFIG),
            )
            for act in ("taylor3", "sigmoid")
        }
        super().__init__(
            configs,
            Dataset(inputs, targets),
            WIDE_STUDENT_SEEDS,
            checks.any_success_problems,
        )

    def setup_problems(self):
        # the dataset is realizable: the teacher fits it exactly, by the
        # reference and by the program
        topology = NetworkTopology(WIDE_WIDTHS, self.teacher_acts)
        ref = checks.ref_error(self.teacher_acts, self.teacher, self.dataset.inputs, self.dataset.targets)
        got = error(topology, self.teacher, self.dataset)
        if ref != 0.0 or not got <= 1e-20:
            return [f"teacher error is {ref!r} by the reference and {got!r} by holonewt"]
        return []


@dataclass(frozen=True)
class VerifyRun:
    label: str
    config: str
    seed: int


@dataclass
class VerifyResult:
    label: str
    seed: int
    exit_code: int
    report: dict

    def key(self):
        return (self.label, self.seed, self.exit_code, json.dumps(self.report, sort_keys=True))


class VerifyWorkload:
    """`holonewt verify` runs through `holonewt.cli.main`."""

    kind = "verify"

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.Generator(np.random.PCG64([seed, 8]))
        samples = [
            {"input": _pairs(unit_box(rng, (VERIFY_WIDTHS[0],))),
             "target": _pairs(unit_box(rng, (VERIFY_WIDTHS[-1],)))}
            for _ in range(VERIFY_SAMPLES)
        ]
        (self.workdir / "dataset.json").write_text(json.dumps(samples))
        self.configs = {}
        for act in ("sigmoid", "taylor3"):
            path = self.workdir / f"{act}.json"
            path.write_text(json.dumps({
                "topology": list(VERIFY_WIDTHS),
                "activations": [act] * (len(VERIFY_WIDTHS) - 1),
                "dataset_path": "dataset.json",
                "method": "pseudo_newton",
                "trial": {"init_range": VERIFY_INIT_RANGE},
            }))
            self.configs[act] = str(path)
        self.seeds = [VERIFY_SEEDS_PER_ACTIVATION * seed + k for k in range(VERIFY_SEEDS_PER_ACTIVATION)]

    def operations(self, seed):
        ops = [VerifyRun(act, path, s) for act, path in self.configs.items() for s in self.seeds]
        random.Random(seed).shuffle(ops)
        return ops

    def setup_problems(self):
        return []

    def warm_up(self):
        # a one-layer net on the same dataset: every code path, little time
        path = self.workdir / "warm_up.json"
        path.write_text(json.dumps({
            "topology": [VERIFY_WIDTHS[0], VERIFY_WIDTHS[-1]],
            "activations": ["sigmoid"],
            "dataset_path": "dataset.json",
            "method": "pseudo_newton",
            "trial": {"init_range": VERIFY_INIT_RANGE},
        }))
        self.run(VerifyRun("warm_up", str(path), 0))

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--config", op.config, "--seed", str(op.seed)])
        return VerifyResult(op.label, op.seed, code, json.loads(out.getvalue()) if code == 0 else {})

    def op_problems(self, result):
        return checks.verify_problems(result.exit_code, result.report)

    def pass_problems(self, results):
        return []

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _pairs(z):
    return [[float(c.real), float(c.imag)] for c in z]


NAMES = ("xor_gd", "xor_newton", "wide_pseudo_newton", "fd_verify")


def make(name, seed, workdir):
    if name == "xor_gd":
        return xor_gd()
    if name == "xor_newton":
        return xor_newton()
    if name == "wide_pseudo_newton":
        return WideWorkload()
    if name == "fd_verify":
        return VerifyWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
