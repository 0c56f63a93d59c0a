"""Command line front end.

Three subcommands share one JSON config format:

  train    one training run; writes a weights checkpoint, an error
           history CSV and a trial record JSON
  trials   a batch of seeded runs; writes per-trial CSV and summary
           stats JSON, prints a short summary
  verify   finite-difference cross-check of the analytic derivatives;
           prints (or writes) a JSON report

Exit codes: 0 on success, 1 for usage or configuration problems or a
run that does not fit in memory, 2 for numerical failures (a failed
training run, verification out of tolerance).
"""

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .fdcheck import NonFiniteEvaluation, verify_report
from .network import (
    Dataset,
    NetworkTopology,
    init_weights,
    load_dataset,
    read_json,
    save_checkpoint,
)
from .newton import check_step_size
from .steplength import StepConfig
from .training import (
    TrainConfig,
    format_summary,
    run_trials,
    train,
    write_stats_json,
    write_trials_csv,
)

__all__ = ["main", "ConfigError", "load_config"]

class ConfigError(Exception):
    pass


def _builtin_dataset(name):
    ref = resources.files("holonewt").joinpath(f"data/{name}.json")
    if not ref.is_file():
        raise ConfigError(f"no builtin dataset named {name!r}")
    with resources.as_file(ref) as path:
        return load_dataset(path)


def _get(doc, key, kind, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"config key {key!r} is out of range") from None
    # bool is a subclass of int, but JSON true/false is never a number
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key {key!r} should be {kind.__name__}, got {type(value).__name__}")
    return value


def _check_keys(section, allowed, what):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def load_config(path):
    """Parse and validate a config file; returns (topology, dataset, train_config, doc)."""
    path = Path(path)
    try:
        doc = read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    known = {"topology", "activations", "dataset_path", "method", "steplength", "trial"}
    _check_keys(doc, known, "config")

    widths = _get(doc, "topology", list, required=True)
    activations = _get(doc, "activations", list, required=True)
    try:
        topology = NetworkTopology(widths, activations)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    dataset_path = _get(doc, "dataset_path", str, required=True)
    try:
        if dataset_path.startswith("builtin:"):
            dataset = _builtin_dataset(dataset_path.split(":", 1)[1])
        else:
            dataset = load_dataset((path.parent / dataset_path).resolve())
    except OSError as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad dataset: {exc}") from None
    try:
        topology.check_dataset(dataset)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sl = _get(doc, "steplength", dict, default={})
    _check_keys(sl, {"mode", "omega", "mu"}, "steplength")
    tr = _get(doc, "trial", dict, default={})
    _check_keys(tr, {"error_target", "max_iters", "blowup_threshold", "init_range"}, "trial")
    try:
        step = StepConfig(
            mode=_get(sl, "mode", str, default="one_step_newton"),
            omega=_get(sl, "omega", float, default=0.5),
            constant_mu=_get(sl, "mu", float, default=1.0),
        )
        config = TrainConfig(
            method=_get(doc, "method", str, required=True),
            step=step,
            error_target=_get(tr, "error_target", float, default=0.001),
            max_iters=_get(tr, "max_iters", int, default=None),
            blowup_threshold=_get(tr, "blowup_threshold", float, default=1e10),
            init_range=_get(tr, "init_range", float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # a key the run would ignore is refused rather than silently dropped
    if config.method == "gradient_descent" and "omega" in sl:
        raise ConfigError("steplength key 'omega' has no effect: gradient descent steps by mu alone")
    if step.mode == "one_step_newton" and "mu" in sl:
        raise ConfigError("steplength key 'mu' has no effect: one_step_newton computes mu every step")
    # refused here, so that train and trials make no output directory for it
    if config.method != "gradient_descent":
        try:
            check_step_size(topology, len(dataset))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    return topology, dataset, config, doc


def _blas_core():
    """The core numpy's bundled OpenBLAS selected on this host, or None
    when that library or its core query is not there.  The output bits
    depend on it (see tests/golden/README.md)."""
    import ctypes  # numpy has loaded it already

    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        name = corename()
        return name.decode() if name else None
    return None


def _write_manifest(outdir, command, doc, artifacts, started):
    manifest = {
        "command": command,
        "config": doc,
        "artifacts": [str(Path(a).name) for a in artifacts],
        "version": __version__,
        "numpy": np.__version__,
        "blas_core": _blas_core(),
        "duration_seconds": round(time.monotonic() - started, 3),
    }
    with open(Path(outdir) / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_seed(seed):
    # checked before any config is read or output made
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")


def _make_outdir(path):
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return outdir


@contextmanager
def _writing_output():
    # the run has finished by now; a failed write still gets a message
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def cmd_train(args):
    started = time.monotonic()
    _check_seed(args.seed)
    topology, dataset, config, doc = load_config(args.config)
    outdir = _make_outdir(args.out)
    record = train(topology, dataset, config, args.seed)

    with _writing_output():
        ckpt = outdir / "weights.json"
        save_checkpoint(ckpt, topology, record.final_weights)
        history = outdir / "error_history.csv"
        with open(history, "w", newline="") as fh:
            fh.write("iteration,error\n")
            for n, e in enumerate(record.error_history):
                fh.write(f"{n},{e!r}\n")
        record_path = outdir / "trial_record.json"
        # strict JSON, as in verify: a non-finite final error is written as null
        final_error = record.final_error if math.isfinite(record.final_error) else None
        with open(record_path, "w") as fh:
            json.dump(
                {
                    "seed": record.seed,
                    "outcome": record.outcome,
                    "iterations": record.iterations,
                    "final_error": final_error,
                    "stalled": record.stalled,
                },
                fh,
                indent=1,
                allow_nan=False,
            )
            fh.write("\n")
        _write_manifest(outdir, "train", doc, [ckpt, history, record_path], started)
    print(f"outcome={record.outcome} iterations={record.iterations} final_error={record.final_error:.6g}")
    return 0 if record.outcome == "success" else 2


def cmd_trials(args):
    started = time.monotonic()
    _check_seed(args.seed)
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    topology, dataset, config, doc = load_config(args.config)
    outdir = _make_outdir(args.out)
    stats, records = run_trials(topology, dataset, config, args.trials, args.seed, jobs=args.jobs)
    with _writing_output():
        csv_path = outdir / "trials.csv"
        write_trials_csv(csv_path, records, config, topology)
        stats_path = outdir / "stats.json"
        write_stats_json(stats_path, stats)
        _write_manifest(outdir, "trials", doc, [csv_path, stats_path], started)
    print(format_summary(stats, config, topology))
    return 0


def _open_report(path):
    """Open the --out path before any finite-difference probe runs, so
    that an unwritable path costs nothing.  Append mode leaves an
    existing report in place until the new one is written."""
    created = not os.path.exists(path)
    try:
        return open(path, "a"), created
    except OSError as exc:
        raise ConfigError(f"cannot write report: {exc}") from None


def cmd_verify(args):
    _check_seed(args.seed)
    topology, dataset, config, _ = load_config(args.config)
    weights = init_weights(topology, args.seed, config.init_range)
    out, created = _open_report(args.out) if args.out else (None, False)
    report = None
    try:
        # overflowing probes are reported by NonFiniteEvaluation, not warnings
        with np.errstate(all="ignore"):
            report = verify_report(topology, weights, dataset)
    except NonFiniteEvaluation as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        # a run that ends without a report, aborted or refused, removes
        # the report file it created
        if report is None and out:
            out.close()
            if created:
                os.unlink(args.out)
    # strict JSON: a relative error against an exactly-zero reference is
    # infinite, and is written as null
    for entry in [report] + report["layers"]:
        for key, value in entry.items():
            if isinstance(value, float) and not np.isfinite(value):
                entry[key] = None
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    if out:
        try:
            with out:
                out.truncate(0)
                out.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from None
    print(text)
    return 0 if report["within_tolerance"] else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2
    # for numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser():
    parser = _Parser(prog="holonewt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"holonewt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training trial")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(func=cmd_train)

    p_trials = sub.add_parser("trials", help="run a batch of seeded trials")
    p_trials.add_argument("--config", required=True)
    p_trials.add_argument("--out", required=True, help="output directory")
    p_trials.add_argument("--trials", type=int, default=100, metavar="N")
    p_trials.add_argument("--seed", type=int, default=0, help="base seed; trial k uses seed+k")
    p_trials.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_trials.set_defaults(func=cmd_trials)

    p_verify = sub.add_parser("verify", help="finite-difference derivative check")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="optional report path")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"holonewt: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"holonewt: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
