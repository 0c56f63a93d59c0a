"""Fuzz of CLI inputs: a small valid config or dataset, mutated with wrong
types, missing or extra keys, ragged rows and out-of-range numbers, makes
every command exit with 0, 1 or 2 and never raise."""

import contextlib
import copy
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


def pick(draw, pool):
    """A copy of one value of `pool`, so that a later mutation of the
    document cannot reach into the pool and change what is drawn next."""
    return copy.deepcopy(draw(st.sampled_from(pool)))


@st.composite
def valid_configs(draw):
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    names = st.sampled_from(sorted(ACTIVATIONS))
    method = draw(st.sampled_from(METHODS))
    mode = "constant" if method == "gradient_descent" else draw(st.sampled_from(MODES))
    # only the keys the run reads: omega scales Newton-type steps, and mu
    # is the steplength of every constant mode
    steplength = {"mode": mode}
    if method != "gradient_descent":
        steplength["omega"] = 0.5
    if mode == "constant":
        steplength["mu"] = 1.0
    return {
        "topology": [2, *hidden, 1],
        "activations": [draw(names) for _ in range(len(hidden) + 1)],
        "dataset_path": draw(st.sampled_from(["builtin:xor", "data.json"])),
        "method": method,
        "steplength": steplength,
        "trial": {"max_iters": draw(st.integers(1, 5)), "init_range": 1.0},
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
            value = pick(draw, pool)
            # the iteration budget stays at most 5 (the default is
            # thousands): the trial section is never emptied or dropped
            if not (key == "trial" and value == {}):
                container[key] = value
        elif op == "delete" and key not in ("trial", "max_iters"):
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(["extra", "Method", "mu_", "max_iter"]))] = 1
        else:
            container.append(pick(draw, BAD_VALUES + [3, "sigmoid"]))
    return doc


def run_commands(tmp, doc, data=XOR):
    """Exit code and stderr of train, trials and verify on config `doc`,
    with `data` as data.json next to it."""
    (tmp / "data.json").write_text(json.dumps(data))
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
        yield argv[0], code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(doc=mutated_configs())
def test_every_config_exits_0_1_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        for command, code, err in run_commands(Path(tmp), doc):
            assert code in (0, 1, 2), (command, code)
            assert "Traceback" not in err


@settings(max_examples=25, deadline=None)
@given(doc=valid_configs())
def test_unmutated_configs_reach_the_commands(doc):
    """The fuzz starts from configs that every command accepts, so that a
    mutation, not the starting point, is what a refusal answers."""
    with tempfile.TemporaryDirectory() as tmp:
        for command, code, err in run_commands(Path(tmp), doc):
            assert code in (0, 2), (command, code, err)


# dataset values of the wrong type or shape, or out of range: strings for
# numbers, bools, empty and wrong-length pairs, overflowing numbers
BAD_ENTRIES = [
    "x", "1", "", None, True, [], {}, [1], [1, 2, 3], [[0, 0]], ["0", 0],
    1e308, -1e308, 5e-324, 10**400, float("nan"), float("inf"),
]
BAD_DATASETS = [[], {}, "x", 1, [[]], [{}], {"input": [[0, 0]], "target": [[0, 0]]}]
DATASET_CONFIG = {
    "topology": [2, 3, 1],
    "activations": ["taylor3", "taylor3"],
    "dataset_path": "data.json",
    "method": "pseudo_newton",
    "trial": {"max_iters": 3},
}


def dataset_sites(node):
    """(container, key) of every value inside a dataset, at any depth."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from dataset_sites(value)


@st.composite
def mutated_datasets(draw):
    doc = copy.deepcopy(XOR)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(dataset_sites(doc))))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            container[key] = pick(draw, BAD_ENTRIES)
        # the dataset keeps a sample, so a later mutation has a site
        elif op == "delete" and (container is not doc or len(doc) > 1):
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(["extra", "Input", "targets"]))] = 1
        else:
            container.append(pick(draw, BAD_ENTRIES + [0, 2.5]))
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.one_of(st.sampled_from(BAD_DATASETS), mutated_datasets()))
def test_every_dataset_exits_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        for command, code, err in run_commands(Path(tmp), DATASET_CONFIG, data):
            assert code in (0, 1, 2), (command, code)
            assert "Traceback" not in err
