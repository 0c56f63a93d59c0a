"""The README's examples run from a source checkout: each fenced python
block in a subprocess, as tests/test_demos.py runs the demos, and each
fenced json config through cli.load_config."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from holonewt.cli import load_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


PYTHON, JSON = blocks("python"), blocks("json")


def test_readme_has_examples():
    assert PYTHON and JSON


@pytest.mark.parametrize("code", PYTHON, ids=[f"python{k}" for k in range(len(PYTHON))])
def test_python_block_runs(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("text", JSON, ids=[f"json{k}" for k in range(len(JSON))])
def test_json_config_block_loads(text, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(text)
    load_config(path)
