import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holonewt
from holonewt import Dataset, error, forward, load_checkpoint
from holonewt.activations import ACTIVATIONS, Activation
from holonewt.cli import ConfigError, load_config, main

from conftest import XOR_INPUTS, XOR_TARGETS
from helpers import save_dataset

GOLDEN = Path(__file__).parent / "golden"

# the long double the finite-difference oracle of the verify goldens ran
# in: the 80-bit x87 format (see tests/golden/README.md)
GOLDEN_LONG_DOUBLE = {"nmant": 63, "precision": 18, "itemsize": 16, "complex256": True}


def long_double_format():
    info = np.finfo(np.longdouble)
    return {
        "nmant": int(info.nmant),
        "precision": int(info.precision),
        "itemsize": np.dtype(np.longdouble).itemsize,
        "complex256": hasattr(np, "complex256"),
    }


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "topology": [2, 4, 1],
        "activations": ["taylor3", "taylor3"],
        "dataset_path": "builtin:xor",
        "method": "pseudo_newton",
        "steplength": {"mode": "one_step_newton", "omega": 0.5},
    }
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigValidation:
    def test_loads_builtin_xor(self, tmp_path):
        topology, dataset, config, _ = load_config(write_config(tmp_path))
        assert topology.widths == (2, 4, 1)
        assert dataset.inputs.shape == (4, 2)
        assert config.method == "pseudo_newton"
        assert config.step.omega == 0.5

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, methd="newton")
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    def test_missing_method(self, tmp_path):
        path = write_config(tmp_path, method=None)
        with pytest.raises(ConfigError, match="method"):
            load_config(path)

    def test_width_mismatch_with_dataset(self, tmp_path):
        path = write_config(tmp_path, topology=[3, 2, 1], activations=["taylor3"] * 2)
        with pytest.raises(ConfigError, match="input width"):
            load_config(path)

    def test_target_width_mismatch_with_dataset(self, tmp_path):
        path = write_config(tmp_path, topology=[2, 4, 2], activations=["taylor3"] * 2)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == "dataset target width 1 does not match topology (2, 4, 2)"

    def test_bad_activation_name(self, tmp_path):
        path = write_config(tmp_path, activations=["taylor3", "relu"])
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_wrong_value_type(self, tmp_path):
        path = write_config(tmp_path, method=3)
        with pytest.raises(ConfigError, match="should be str"):
            load_config(path)

    def test_unknown_section_keys(self, tmp_path):
        for section, payload in [
            ("steplength", {"mode": "constant", "momentum": 0.9}),
            ("trial", {"target": 1e-6}),
        ]:
            path = write_config(tmp_path, name=f"{section}.json", **{section: payload})
            with pytest.raises(ConfigError, match=f"unknown {section} keys"):
                load_config(path)

    @pytest.mark.parametrize(
        "method, steplength, key",
        [
            ("gradient_descent", {"mode": "constant", "mu": 1.0, "omega": 0.5}, "omega"),
            ("pseudo_newton", {"mode": "one_step_newton", "mu": 7.0}, "mu"),
            ("newton", {"mu": 1.0}, "mu"),
        ],
    )
    def test_steplength_key_without_effect_is_refused(self, tmp_path, method, steplength, key):
        """omega under gradient descent and mu under one_step_newton (the
        default mode) change nothing, so a config that sets them is refused,
        naming the key."""
        path = write_config(tmp_path, method=method, steplength=steplength)
        with pytest.raises(ConfigError, match=f"steplength key '{key}' has no effect: "):
            load_config(path)

    @pytest.mark.parametrize("method", ["newton", "pseudo_newton"])
    def test_constant_newton_type_mode_reads_omega_and_mu(self, tmp_path, method):
        """A constant Newton-type step is omega * mu times the direction."""
        path = write_config(
            tmp_path, method=method, steplength={"mode": "constant", "mu": 0.25, "omega": 1.5}
        )
        step = load_config(path)[2].step
        assert (step.mode, step.constant_mu, step.omega) == ("constant", 0.25, 1.5)

    def test_relative_dataset_path(self, tmp_path):
        save_dataset(tmp_path / "data.json", Dataset(XOR_INPUTS, XOR_TARGETS))
        path = write_config(tmp_path, dataset_path="data.json")
        _, dataset, _, _ = load_config(path)
        assert dataset.inputs.shape == (4, 2)


class TestExitCodes:
    def test_config_error_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, method="adam")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "holonewt:" in capsys.readouterr().err

    def test_boolean_for_integer_key_exits_1(self, tmp_path, capsys):
        """JSON true is not an iteration budget of 1."""
        path = write_config(tmp_path, trial={"max_iters": True})
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--out", str(out), "--seed", "12345"]) == 1
        assert "'max_iters' should be int, got bool" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("width", [3.7, True])
    def test_non_integer_topology_width_exits_1(self, tmp_path, capsys, width):
        """A width of 3.7 is not truncated to 3, and true is not 1."""
        path = write_config(tmp_path, topology=[2, width, 1])
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        assert "holonewt: topology widths should be integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "trials", "verify"])
    def test_too_many_weights_exits_1_at_once(self, tmp_path, command):
        """A net past the weight cap is refused before a weight is drawn,
        where drawing its 2 * 10**12 values would not end."""
        cfg = write_config(tmp_path, topology=[2, 10**12, 1])
        out_args = [] if command == "verify" else ["--out", str(tmp_path / "out")]
        out = run_cli(command, "--config", str(cfg), *out_args, timeout=60)
        assert out.returncode == 1
        assert out.stderr == (
            "holonewt: topology (2, 1000000000000, 1) has 3000000000000 weights,"
            " above the cap of 1000000\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "trials"])
    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch, command):
        """A run whose arrays do not fit ends with exit 1 and numpy's
        message, not a traceback."""
        from holonewt import training

        message = "Unable to allocate 549. MiB for an array with shape (4, 3000, 3000)"

        def no_room(topology, n_samples):
            raise MemoryError(message)

        monkeypatch.setattr(training, "table_buffers", no_room)
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr()
        assert out.err == f"holonewt: out of memory: {message}\n"
        assert out.out == ""

    def test_unknown_activation_exits_1_unquoted(self, tmp_path):
        """The message is the topology's ValueError as it reads, not a
        KeyError's repr in quotes."""
        cfg = write_config(tmp_path, topology=[2, 3, 1], activations=["tanh", "sigmoid"])
        out = run_cli("verify", "--config", str(cfg))
        assert out.returncode == 1
        assert out.stderr == (
            "holonewt: unknown activation 'tanh', expected one of ['identity', 'sigmoid', 'taylor3']\n"
        )
        assert out.stdout == ""

    @pytest.mark.parametrize("activations", [[["sigmoid"], "sigmoid"], [5, "sigmoid"]])
    def test_activation_that_is_not_a_name_exits_1(self, tmp_path, activations):
        """The message names the offending value, not a bare type error."""
        cfg = write_config(tmp_path, topology=[2, 3, 1], activations=activations)
        out = run_cli("verify", "--config", str(cfg))
        assert out.returncode == 1
        assert out.stderr.startswith("holonewt: ")
        assert repr(activations) in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("train", ["--seed", "-5"], "--seed must be a non-negative integer, got -5"),
            ("trials", ["--seed", "-2"], "--seed must be a non-negative integer, got -2"),
            ("trials", ["--trials", "0"], "--trials must be at least 1, got 0"),
            ("verify", ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
            ("trials", ["--jobs", "0"], "--jobs must be at least 1, got 0"),
        ],
    )
    def test_bad_flag_exits_1_before_creating_out(self, tmp_path, capsys, command, flags, message):
        """A bad --seed, --trials or --jobs is named with its value, and no
        --out directory or report is left behind."""
        path = write_config(tmp_path, topology=[2, 3, 1])
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"holonewt: {message}\n"
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)])
        assert rc == 1

    def test_missing_dataset_exits_1(self, tmp_path):
        path = write_config(tmp_path, dataset_path="nope.json")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_builtin_exits_1(self, tmp_path):
        path = write_config(tmp_path, dataset_path="builtin:parity5")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_gd_with_one_step_mode_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, method="gradient_descent")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "constant steplength" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train"])
        assert info.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main(["explode"])
        assert info.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("holonewt ")


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_project():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def installed_distribution():
    try:
        return importlib.metadata.distribution("holonewt")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_script_installed():
    """The declared ``holonewt`` script, run the way an installer's
    console-script wrapper runs it, without needing an install."""
    project = declared_project()
    target = project["scripts"]["holonewt"]
    entry = importlib.metadata.EntryPoint("holonewt", target, "console_scripts")
    assert callable(entry.load())

    head = entry.attr.split(".")[0]
    launcher = (
        f"import sys; from {entry.module} import {head}; "
        f"sys.argv[0] = 'holonewt'; sys.exit({entry.attr}())"
    )
    src = str(Path(holonewt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", launcher, "--version"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"holonewt {holonewt.__version__}\n"
    # installed metadata takes its version from pyproject.toml
    assert project["version"] == holonewt.__version__


@pytest.mark.skipif(
    installed_distribution() is None,
    reason="the holonewt distribution is not installed (pip install -e .)",
)
def test_installed_console_script():
    dist = installed_distribution()
    (entry,) = [
        ep for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "holonewt"
    ]
    assert entry.value == declared_project()["scripts"]["holonewt"]

    exe = shutil.which("holonewt")
    assert exe is not None
    out = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"holonewt {dist.version}\n"
    assert dist.version == holonewt.__version__


class TestTrainCommand:
    def test_end_to_end_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "12345"])
        assert rc == 0
        assert "outcome=success" in capsys.readouterr().out

        record = json.loads((out / "trial_record.json").read_text())
        assert record["outcome"] == "success"
        assert record["seed"] == 12345
        assert record["final_error"] < 0.001

        history = (out / "error_history.csv").read_text().splitlines()
        assert history[0] == "iteration,error"
        assert len(history) == record["iterations"] + 2

        # the checkpoint reproduces the reported error
        topology, weights = load_checkpoint(out / "weights.json")
        dataset = Dataset(XOR_INPUTS, XOR_TARGETS)
        e = error(topology, weights, dataset)
        assert e == pytest.approx(record["final_error"], rel=1e-12)

        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "train"
        assert sorted(manifest["artifacts"]) == [
            "error_history.csv",
            "trial_record.json",
            "weights.json",
        ]
        assert manifest["config"]["method"] == "pseudo_newton"
        assert manifest["numpy"] == np.__version__
        assert manifest["blas_core"] is None or isinstance(manifest["blas_core"], str)

    def test_failed_run_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trial={"max_iters": 1})
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "12345"])
        assert rc == 2
        record = json.loads((out / "trial_record.json").read_text())
        assert record["outcome"] == "local_minimum"

    def test_non_finite_weights_are_written_as_null(self, tmp_path, capsys):
        """A gradient step of mu = 1e300 overflows every layer-1 weight in
        the first iteration; weights.json stays strict JSON, with null for
        each non-finite component, and load_checkpoint refuses it."""
        cfg = write_config(
            tmp_path,
            method="gradient_descent",
            steplength={"mode": "constant", "mu": 1e300},
            trial={"blowup_threshold": 1e300},
        )
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "0"])
        assert rc == 2
        assert "outcome=non_finite iterations=1" in capsys.readouterr().out

        def strict(name):
            raise AssertionError(f"weights.json holds {name}")

        doc = json.loads((out / "weights.json").read_text(), parse_constant=strict)
        assert doc["layers"][0] == [[None, None]] * 8
        with pytest.raises(ValueError, match=r"^layer 1: weight 0 \[None, None\] is not an \[re, im\] pair"):
            load_checkpoint(out / "weights.json")

    def test_non_finite_final_error_is_written_as_null(self, tmp_path, capsys):
        """Sigmoid gradient descent at battery seed 12398 ends non_finite
        with E = NaN; trial_record.json stays strict JSON, with null."""
        cfg = write_config(
            tmp_path,
            activations=["sigmoid", "sigmoid"],
            method="gradient_descent",
            steplength={"mode": "constant", "mu": 1.0},
        )
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--out", str(out), "--seed", "12398"])
        assert rc == 2
        assert "outcome=non_finite iterations=236" in capsys.readouterr().out

        def strict(name):
            raise AssertionError(f"trial_record.json holds {name}")

        record = json.loads((out / "trial_record.json").read_text(), parse_constant=strict)
        assert record["outcome"] == "non_finite"
        assert record["final_error"] is None


class TestTrialsCommand:
    CFG = {"trial": {"max_iters": 60}}

    def run(self, tmp_path, outname, extra):
        cfg = write_config(tmp_path, **self.CFG)
        out = tmp_path / outname
        argv = ["trials", "--config", str(cfg), "--out", str(out),
                "--trials", "16", "--seed", "300"] + extra
        return main(argv), out

    def test_outputs_and_summary(self, tmp_path, capsys):
        rc, out = self.run(tmp_path, "serial", ["--jobs", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "successes=" in printed
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_trials"] == 16
        assert stats["successes"] + sum(stats["failure_counts"].values()) == 16
        rows = (out / "trials.csv").read_text().splitlines()
        assert len(rows) == 17
        assert rows[1].startswith("300,pseudo_newton,taylor3,")

    def test_manifest_records_the_build(self, tmp_path, monkeypatch):
        """The manifest names numpy's version and the BLAS core, and a
        core that cannot be read is null, not an error."""
        import ctypes

        rc, out = self.run(tmp_path, "found", ["--trials", "1"])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert rc == 0
        assert manifest["numpy"] == np.__version__
        assert manifest["blas_core"] is None or isinstance(manifest["blas_core"], str)

        def no_library(path):
            raise OSError(f"cannot load {path}")

        for cdll in (no_library, lambda path: object()):
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            rc, out = self.run(tmp_path, "missing", ["--trials", "1"])
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert rc == 0
            assert manifest["numpy"] == np.__version__
            assert manifest["blas_core"] is None

    def test_jobs_do_not_change_artifacts(self, tmp_path):
        rc1, d1 = self.run(tmp_path, "serial", ["--jobs", "1"])
        rc2, d2 = self.run(tmp_path, "parallel", ["--jobs", "2"])
        assert rc1 == rc2 == 0
        assert (d1 / "trials.csv").read_bytes() == (d2 / "trials.csv").read_bytes()
        assert (d1 / "stats.json").read_bytes() == (d2 / "stats.json").read_bytes()

    def test_zero_jobs_exits_1(self, tmp_path):
        rc, _ = self.run(tmp_path, "zero", ["--jobs", "0"])
        assert rc == 1

    def test_serial_batches_load_no_process_pool(self, tmp_path):
        """Importing the package and running trials serially, at --jobs 1
        or in a single chunk, leaves the process pool unloaded."""
        cfg = write_config(tmp_path, **self.CFG)
        argv = ["trials", "--config", str(cfg), "--out", str(tmp_path / "out"),
                "--trials", "16", "--seed", "300", "--jobs", "1"]
        script = f"""
import sys
from holonewt import cli
from holonewt.training import run_trials
topology, dataset, config, _ = cli.load_config({str(cfg)!r})
run_trials(topology, dataset, config, 3, 300, jobs=1)
run_trials(topology, dataset, config, 3, 300, jobs=4)
assert cli.main({argv!r}) == 0
print([m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules])
"""
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_commands_load_no_numpy_random(self, tmp_path):
        """train, trials and verify draw their weights and directions
        without importing numpy.random."""
        cfg = write_config(tmp_path, **self.CFG)
        runs = [
            ["train", "--config", str(cfg), "--out", str(tmp_path / "train"), "--seed", "300"],
            ["trials", "--config", str(cfg), "--out", str(tmp_path / "trials"), "--trials", "3"],
            ["verify", "--config", str(cfg), "--seed", "1"],
        ]
        script = f"""
import sys
from holonewt import cli
for argv in {runs!r}:
    cli.main(argv)
print("numpy.random" in sys.modules)
"""
        done = run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


def run_python(*args, timeout=None):
    """Run the interpreter on the imported package's source."""
    src = str(Path(holonewt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def run_cli(*args, timeout=None):
    """Run ``python -m holonewt.cli`` on the imported package's source."""
    return run_python("-m", "holonewt.cli", *args, timeout=timeout)


class TestVerifyCommand:
    def config(self, tmp_path):
        return write_config(
            tmp_path, topology=[2, 3, 1], activations=["taylor3", "taylor3"]
        )

    def test_clean_derivatives_pass(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--config", str(cfg), "--seed", "0",
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["within_tolerance"] is True
        assert report["max_cogradient_rel"] <= 1e-5
        assert report["max_h_ww_rel"] <= 1e-5
        assert report["max_h_wbar_w_rel"] <= 1e-5
        assert report["max_quadratic_form_rel"] <= 1e-4
        assert json.loads(report_path.read_text()) == report

    def test_detects_broken_second_derivative(self, tmp_path, capsys, monkeypatch):
        """A wrong g'' corrupts exactly the curvature tables that use it:
        the conjugate Hessian block fails while the cogradient and H_ww,
        which only involve g', still verify."""
        orig = ACTIVATIONS["taylor3"]
        monkeypatch.setitem(
            ACTIVATIONS,
            "taylor3",
            Activation(orig.name, orig.f, orig.d1, lambda z, g: orig.d2(z, g) + 0.05),
        )
        rc = main(["verify", "--config", str(self.config(tmp_path)), "--seed", "0"])
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert report["within_tolerance"] is False
        assert report["max_h_wbar_w_rel"] > 1e-3
        assert report["max_cogradient_rel"] <= 1e-5
        assert report["max_h_ww_rel"] <= 1e-5

    def test_verify_section_is_an_unknown_key(self, tmp_path, capsys):
        """The tolerances are fixed, so a config naming them is refused
        before any probe runs, and no report is written."""
        cfg = write_config(tmp_path, topology=[2, 3, 1], verify={"hessian_tol": 1e-3})
        report = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(report)]) == 1
        assert capsys.readouterr().err == "holonewt: unknown config keys: ['verify']\n"
        assert not report.exists()

    def test_too_many_stencils_exits_1_at_once(self, tmp_path):
        """A net whose Hessians need more stencils than the cap is refused
        before any probe, naming the count and the cap, and the report
        file the run opened is removed."""
        cfg = write_config(tmp_path, topology=[2, 1000, 1], activations=["sigmoid", "sigmoid"])
        report = tmp_path / "report.json"
        out = run_cli("verify", "--config", str(cfg), "--out", str(report), timeout=60)
        assert out.returncode == 1
        assert out.stderr == (
            "holonewt: topology (2, 1000, 1) needs 10003000 Hessian stencils to verify,"
            " above the cap of 4000000\n"
        )
        assert out.stdout == ""
        assert not report.exists()

    def test_overflow_is_reported_not_warned(self, tmp_path):
        """Huge sigmoid weights overflow the float64 analytic derivatives
        to NaN; the run fails with exit 2 naming the layer and the
        quantity, and stderr carries no numpy warnings."""
        cfg = write_config(
            tmp_path,
            topology=[2, 3, 1],
            activations=["sigmoid", "sigmoid"],
            trial={"init_range": 1e3},
        )
        out = run_cli("verify", "--config", str(cfg), "--seed", "0")
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == (
            "verification aborted: layer 1: analytic cogradient has 6 of 6 entries not finite\n"
        )

    def test_infinite_relative_error_is_written_as_null(self, tmp_path, capsys, monkeypatch):
        """A finite analytic value against an exactly-zero FD reference has
        an infinite relative error; the report stays strict JSON."""
        from holonewt import cli, fdcheck

        report = {
            "layers": [{"layer": 1, "cogradient_rel": 0.0, "h_ww_rel": np.inf,
                        "h_wbar_w_rel": 0.0, "quadratic_form_rel": 0.0}],
            "max_cogradient_rel": 0.0,
            "max_h_ww_rel": np.inf,
            "max_h_wbar_w_rel": 0.0,
            "max_quadratic_form_rel": 0.0,
            "tolerances": dict(fdcheck.TOLERANCES),
            "within_tolerance": False,
        }
        monkeypatch.setattr(cli, "verify_report", lambda *args: report)
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--config", str(self.config(tmp_path)), "--out", str(report_path)])
        assert rc == 2

        def reject(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert printed["max_h_ww_rel"] is None
        assert printed["layers"][0]["h_ww_rel"] is None
        assert printed["layers"][0]["cogradient_rel"] == 0.0
        assert printed["within_tolerance"] is False
        assert json.loads(report_path.read_text(), parse_constant=reject) == printed

    @pytest.mark.parametrize(
        "widths, act, seed",
        [((2, 3, 1), act, seed) for act in ("sigmoid", "taylor3") for seed in range(3)]
        + [((2, 5, 3, 1), "taylor3", 0)]
        # a wide hidden layer, where most Hessian stencils move two nodes
        + [((2, 8, 1), "sigmoid", 0)],
    )
    def test_report_matches_golden(self, tmp_path, capsys, widths, act, seed):
        """The verify report on builtin:xor is pinned byte for byte: a
        change to the oracle or the analytic derivatives that keeps their
        arithmetic keeps every digit.  Regenerate
        tests/golden/verify_*.json only for a change that is meant to
        move that arithmetic, and explain the diff."""
        found = long_double_format()
        differences = {k: (v, found[k]) for k, v in GOLDEN_LONG_DOUBLE.items() if found[k] != v}
        assert not differences, (
            "the verify goldens were made with another long double; "
            f"(golden, this platform) per field: {differences}"
        )
        cfg = write_config(
            tmp_path, topology=list(widths), activations=[act] * (len(widths) - 1)
        )
        rc = main(["verify", "--config", str(cfg), "--seed", str(seed)])
        assert rc == 0
        name = f"verify_{'-'.join(map(str, widths))}_{act}_seed{seed}.json"
        assert capsys.readouterr().out == (GOLDEN / name).read_text()

    def test_nonfinite_probe_exits_2_naming_the_probe(self, tmp_path):
        cfg = write_config(tmp_path, topology=[2, 3, 1], trial={"init_range": 1e300})
        out = run_cli("verify", "--config", str(cfg), "--seed", "0")
        assert out.returncode == 2
        assert out.stderr.startswith("verification aborted: layer 1: error is ")
        assert "RuntimeWarning" not in out.stderr


class TestOutputPaths:
    """An unusable --out ends with exit 1 and a message, not a traceback."""

    @pytest.mark.parametrize("command", ["train", "trials"])
    def test_out_naming_a_file_exits_1(self, tmp_path, command):
        cfg = write_config(tmp_path, trial={"max_iters": 2})
        taken = tmp_path / "taken"
        taken.write_text("")
        out = run_cli(command, "--config", str(cfg), "--out", str(taken), "--seed", "12345")
        assert out.returncode == 1
        assert out.stderr.startswith("holonewt: cannot create output directory: ")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("command, artifact", [("train", "weights.json"), ("trials", "trials.csv")])
    def test_unwritable_artifact_exits_1(self, tmp_path, command, artifact):
        cfg = write_config(tmp_path, trial={"max_iters": 2})
        outdir = tmp_path / "out"
        (outdir / artifact).mkdir(parents=True)
        out = run_cli(command, "--config", str(cfg), "--out", str(outdir), "--seed", "12345")
        assert out.returncode == 1
        assert out.stderr.startswith("holonewt: cannot write output: ")
        assert "Traceback" not in out.stderr

    def test_verify_out_in_missing_directory_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, topology=[2, 3, 1])
        missing = tmp_path / "no_such_dir" / "report.json"
        out = run_cli("verify", "--config", str(cfg), "--out", str(missing))
        assert out.returncode == 1
        assert out.stderr.startswith("holonewt: cannot write report: ")
        assert "Traceback" not in out.stderr

    def test_unwritable_verify_out_spends_nothing(self, tmp_path, capsys, monkeypatch):
        """The report path is opened before any finite-difference probe
        runs, so an unwritable --out fails at once."""
        from holonewt import cli

        def refuse(*args, **kwargs):
            raise AssertionError("verify_report ran before --out was checked")

        monkeypatch.setattr(cli, "verify_report", refuse)
        cfg = write_config(tmp_path, topology=[2, 3, 1])
        missing = tmp_path / "no_such_dir" / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("holonewt: cannot write report: ")

    def test_aborted_verify_leaves_no_report(self, tmp_path, capsys):
        """A verify run that aborts with exit 2 removes the report file it
        opened, and leaves a report that was already there untouched."""
        cfg = write_config(
            tmp_path,
            topology=[2, 3, 1],
            activations=["sigmoid", "sigmoid"],
            trial={"init_range": 1e3},
        )
        fresh = tmp_path / "fresh.json"
        assert main(["verify", "--config", str(cfg), "--out", str(fresh)]) == 2
        assert not fresh.exists()
        kept = tmp_path / "kept.json"
        kept.write_text("earlier report\n")
        assert main(["verify", "--config", str(cfg), "--out", str(kept)]) == 2
        assert kept.read_text() == "earlier report\n"
        assert capsys.readouterr().err.startswith("verification aborted: layer 1: ")


class TestOutOfRangeNumbers:
    """Numbers a config or dataset cannot mean end with exit 1 and a
    message, not a traceback or a run on nonsense values."""

    @pytest.mark.parametrize(
        "command, trial",
        [
            ("train", {"init_range": 1e308}),
            ("verify", {"init_range": 1e308}),
            ("train", {"init_range": float("inf")}),
            ("verify", {"init_range": float("inf")}),
            ("train", {"error_target": float("inf")}),
            ("train", {"blowup_threshold": float("nan")}),
            ("verify", {"init_range": float("-inf")}),
            ("train", {"init_range": 10**400}),
        ],
    )
    def test_config_number_exits_1(self, tmp_path, command, trial):
        cfg = write_config(tmp_path, topology=[2, 3, 1], trial=trial)
        out = run_cli(command, "--config", str(cfg), *self.out_args(tmp_path, command))
        self.assert_rejected(out)

    def test_overflowing_literal_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, trial={"init_range": 1.0})
        cfg.write_text(cfg.read_text().replace("1.0", "1e400"))
        out = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "out"))
        self.assert_rejected(out)
        assert "out of range" in out.stderr

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
    def test_dataset_number_exits_1(self, tmp_path, value):
        data = tmp_path / "data.json"
        data.write_text(
            '[{"input": [[0, 0], [1, 0]], "target": [[0, 0]]},'
            f' {{"input": [[1, 0], [0, {value}]], "target": [[1, 0]]}}]'
        )
        cfg = write_config(tmp_path, dataset_path="data.json")
        out = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "out"))
        self.assert_rejected(out)
        assert out.stderr.startswith("holonewt: bad dataset: ")

    @pytest.mark.parametrize(
        "sample",
        [
            '{"input": [[true, false], [0, 0]], "target": [[0, 0]]}',
            '{"input": [[1, 0], [0, 0]], "target": [[false, 0]]}',
            '{"input": [[1, 0], [0, 0, 0]], "target": [[1, 0]]}',
        ],
    )
    def test_dataset_entry_not_a_number_pair_exits_1(self, tmp_path, sample):
        """JSON true and false are not numbers, even where Python would
        take them for 1 and 0, and an entry is exactly one [re, im] pair."""
        data = tmp_path / "data.json"
        data.write_text(
            '[{"input": [[0, 0], [1, 0]], "target": [[0, 0]]},'
            f" {sample}]"
        )
        cfg = write_config(tmp_path, dataset_path="data.json")
        out = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "out"))
        self.assert_rejected(out)
        assert out.stderr.startswith("holonewt: bad dataset: sample 1: ")

    @pytest.mark.parametrize(
        "sample",
        ['{"input": [[1, 0], [0, 0]]}', "[[1, 0], [0, 0]]", '{"input": 1.5, "target": [[0, 0]]}'],
    )
    def test_dataset_sample_not_an_object_exits_1(self, tmp_path, sample):
        """A sample without input and target lists is named, not reported
        as a bare key or type error."""
        data = tmp_path / "data.json"
        data.write_text('[{"input": [[0, 0], [1, 0]], "target": [[0, 0]]},' f" {sample}]")
        cfg = write_config(tmp_path, dataset_path="data.json")
        out = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "out"))
        self.assert_rejected(out)
        assert out.stderr == "holonewt: bad dataset: sample 1 is not an object with input and target lists\n"

    @pytest.mark.parametrize("where", ["config", "dataset"])
    def test_deeply_nested_json_exits_1(self, tmp_path, where):
        """Nesting too deep for the JSON parser is a bad input, not a
        RecursionError traceback."""
        cfg = write_config(tmp_path, topology=[2, 3, 1], dataset_path="data.json")
        (cfg if where == "config" else tmp_path / "data.json").write_text("[" * 200_000)
        out = run_cli("verify", "--config", str(cfg))
        self.assert_rejected(out)
        assert "JSON is nested too deeply" in out.stderr

    @staticmethod
    def out_args(tmp_path, command):
        return ["--out", str(tmp_path / "out")] if command == "train" else []

    @staticmethod
    def assert_rejected(out):
        assert out.returncode == 1
        assert out.stderr.startswith("holonewt: ")
        assert "Traceback" not in out.stderr
        assert out.stdout == ""
