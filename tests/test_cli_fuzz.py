"""Fuzz of CLI configs: a small valid config, mutated with wrong types,
missing or extra keys and out-of-range numbers, makes every command exit
with 0, 1 or 2 and never raise."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from holonewt.activations import ACTIVATIONS
from holonewt.cli import main
from holonewt.steplength import MODES
from holonewt.training import METHODS

# values of the wrong type, non-finite (json writes NaN and Infinity) or
# out of range for some key; no large positive integer, which would be a
# valid width or iteration budget too big to run
BAD_VALUES = [
    None, True, False, "x", "", -1, 0, 2.5, -0.0, 1e308, -1e308, 5e-324,
    float("inf"), float("-inf"), float("nan"), [], {}, [2, 1], {"mode": 1},
]
DATASET_PATHS = ["builtin:xor", "builtin:none", "builtin:", "missing.json", "", ".", "data.json"]
XOR = [
    {"input": [[a, 0], [b, 0]], "target": [[a ^ b, 0]]} for a in (0, 1) for b in (0, 1)
]


@st.composite
def valid_configs(draw):
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    names = st.sampled_from(sorted(ACTIVATIONS))
    method = draw(st.sampled_from(METHODS))
    mode = "constant" if method == "gradient_descent" else draw(st.sampled_from(MODES))
    return {
        "topology": [2, *hidden, 1],
        "activations": [draw(names) for _ in range(len(hidden) + 1)],
        "dataset_path": draw(st.sampled_from(["builtin:xor", "data.json"])),
        "method": method,
        "steplength": {"mode": mode, "omega": 0.5, "mu": 1.0},
        "trial": {"max_iters": draw(st.integers(1, 5)), "init_range": 1.0},
        "verify": {"cogradient_tol": 1e-5},
    }


def sites(doc):
    """(container, key) of every value a mutation may replace."""
    for key, value in doc.items():
        yield doc, key
        if isinstance(value, dict):
            yield from ((value, k) for k in value)
        elif isinstance(value, list):
            yield from ((value, k) for k in range(len(value)))


@st.composite
def mutated_configs(draw):
    doc = draw(valid_configs())
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(sites(doc))))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            pool = DATASET_PATHS if key == "dataset_path" else BAD_VALUES
            value = draw(st.sampled_from(pool))
            # the iteration budget stays at most 5 (the default is
            # thousands): the trial section is never emptied or dropped
            if not (key == "trial" and value == {}):
                container[key] = value
        elif op == "delete" and key not in ("trial", "max_iters"):
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(["extra", "Method", "mu_", "max_iter"]))] = 1
        else:
            container.append(draw(st.sampled_from(BAD_VALUES + [3, "sigmoid"])))
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=mutated_configs())
def test_every_config_exits_0_1_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.json").write_text(json.dumps(XOR))
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(doc))
        out = str(tmp / "out")
        for argv in (
            ["train", "--config", str(cfg), "--out", out],
            ["trials", "--config", str(cfg), "--out", out, "--trials", "2"],
            ["verify", "--config", str(cfg)],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], code)
            assert "Traceback" not in err.getvalue()
