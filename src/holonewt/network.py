"""Fully complex multilayer perceptron: topology, weights, forward pass.

Layer p maps the width-K[p-1] vector x^(p-1) to net sums
net^(p) = W^(p-1) x^(p-1) (no bias) followed by an elementwise holomorphic
activation.  Weights into layer p are kept as a (K[p], K[p-1]) complex
matrix; flattening it row-major reproduces the serialized layout where
the weight from node i to node j sits at offset (j-1)*K[p-1] + (i-1).
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .activations import get_activation

__all__ = [
    "NetworkTopology",
    "ForwardTrace",
    "Dataset",
    "flat_index",
    "init_weights",
    "forward",
    "error",
    "error_from_trace",
    "save_checkpoint",
    "load_checkpoint",
    "load_dataset",
    "save_dataset",
    "FINITE_JSON",
]


@dataclass(frozen=True)
class NetworkTopology:
    """Layer widths (input, hidden..., output) and one activation per layer."""

    widths: tuple
    activations: tuple

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.widths) < 2:
            raise ValueError("a network needs at least an input and an output layer")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"layer widths must be positive: {self.widths}")
        if len(self.activations) != self.n_layers:
            raise ValueError(
                f"{self.n_layers} layers need {self.n_layers} activations, "
                f"got {len(self.activations)}"
            )
        for name in self.activations:
            get_activation(name)

    @property
    def n_layers(self):
        return len(self.widths) - 1

    def layer_size(self, p):
        """Number of weights feeding layer p (1-based)."""
        return self.widths[p] * self.widths[p - 1]

    def activation(self, p):
        return get_activation(self.activations[p - 1])


def flat_index(topology, p, j, i):
    """1-based offset of weight w^(p-1)_ji inside layer p's flat vector."""
    k_out, k_in = topology.widths[p], topology.widths[p - 1]
    if not (1 <= j <= k_out and 1 <= i <= k_in):
        raise ValueError(f"weight ({j},{i}) out of range for layer {p}")
    return (j - 1) * k_in + i


@dataclass
class ForwardTrace:
    """Per-layer net sums and activated values for a batch of samples.

    values[0] is the (N, K0) input batch; values[p] and nets[p-1] hold
    layer p's activations and net sums, each of shape (N, K[p]).
    """

    values: list = field(default_factory=list)
    nets: list = field(default_factory=list)

    @property
    def outputs(self):
        return self.values[-1]


@dataclass
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=complex))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=complex))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"{self.inputs.shape[0]} inputs vs {self.targets.shape[0]} targets"
            )

    def __len__(self):
        return self.inputs.shape[0]


def init_weights(topology, seed, init_range=1.0):
    """Draw each layer's weights with re/im i.i.d. uniform in [-r, r].

    Uses numpy's PCG64 stream seeded with `seed`; for a fixed seed the
    draw depends only on the topology widths, so different training
    methods started from the same seed share initial weights.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = []
    for p in range(1, len(topology.widths)):
        n = topology.layer_size(p)
        draws = rng.uniform(-init_range, init_range, size=(n, 2))
        w = (draws[:, 0] + 1j * draws[:, 1]).reshape(
            topology.widths[p], topology.widths[p - 1]
        )
        weights.append(w)
    return weights


def forward(topology, weights, inputs):
    """Run the batch through every layer, recording nets and values."""
    x = np.atleast_2d(np.asarray(inputs, dtype=complex))
    if x.shape[1] != topology.widths[0]:
        raise ValueError(f"inputs have width {x.shape[1]}, expected {topology.widths[0]}")
    trace = ForwardTrace(values=[x])
    for p in range(1, len(topology.widths)):
        net = x @ weights[p - 1].T
        x = topology.activation(p).f(net)
        trace.nets.append(net)
        trace.values.append(x)
    return trace


def error_from_trace(trace, targets):
    """Mean over samples of the squared error summed across outputs."""
    r = trace.outputs - targets
    return float(np.mean(np.sum(r.real**2 + r.imag**2, axis=1)))


def error(topology, weights, dataset):
    return error_from_trace(forward(topology, weights, dataset.inputs), dataset.targets)


def _pairs(z):
    flat = np.asarray(z, dtype=complex).ravel()
    return [[float(c.real), float(c.imag)] for c in flat]


def save_checkpoint(path, topology, weights):
    doc = {
        "widths": list(topology.widths),
        "activations": list(topology.activations),
        "layers": [_pairs(w) for w in weights],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path):
    with open(path) as fh:
        doc = json.load(fh)
    topology = NetworkTopology(tuple(doc["widths"]), tuple(doc["activations"]))
    layers = doc["layers"]
    if len(layers) != topology.n_layers:
        raise ValueError(f"checkpoint has {len(layers)} layers, topology needs {topology.n_layers}")
    weights = []
    for p, entries in enumerate(layers, start=1):
        if len(entries) != topology.layer_size(p):
            raise ValueError(
                f"layer {p} has {len(entries)} weights, expected {topology.layer_size(p)}"
            )
        flat = np.array([complex(re, im) for re, im in entries])
        weights.append(flat.reshape(topology.widths[p], topology.widths[p - 1]))
    return topology, weights


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _reject_constant(name):
    raise ValueError(f"{name} is not a finite number")


# json.load hooks for inputs: Python's json accepts NaN, Infinity and
# -Infinity and reads an overflowing float as inf; these reject them
FINITE_JSON = {"parse_float": _finite_float, "parse_constant": _reject_constant}


def _complex_row(sample, k, key):
    """Sample k's `key` entries as complex numbers; each must be an
    [re, im] pair of JSON numbers, which load_dataset parses to floats
    (so true and false, which JSON keeps apart, are rejected)."""
    row = []
    for pair in sample[key]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(type(v) is float for v in pair)):
            raise ValueError(f"sample {k}: {key} entry {pair!r} is not an [re, im] pair of numbers")
        row.append(complex(*pair))
    return row


def load_dataset(path):
    """Read a JSON dataset: a list of {"input": [[re,im],...], "target": [[re,im],...]}.

    Every entry must be an [re, im] pair of finite numbers; booleans, NaN,
    Infinity and overflowing numbers raise ValueError.
    """
    with open(path) as fh:
        doc = json.load(fh, parse_int=_finite_float, **FINITE_JSON)
    if not isinstance(doc, list) or not doc:
        raise ValueError("dataset must be a non-empty JSON array of samples")
    inputs = [_complex_row(s, k, "input") for k, s in enumerate(doc)]
    targets = [_complex_row(s, k, "target") for k, s in enumerate(doc)]
    widths_in = {len(row) for row in inputs}
    widths_out = {len(row) for row in targets}
    if len(widths_in) != 1 or len(widths_out) != 1:
        raise ValueError("samples disagree on input or target width")
    return Dataset(np.array(inputs), np.array(targets))


def save_dataset(path, dataset):
    doc = [
        {"input": _pairs(x), "target": _pairs(t)}
        for x, t in zip(dataset.inputs, dataset.targets)
    ]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
