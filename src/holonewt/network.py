"""Fully complex multilayer perceptron: topology, weights, forward pass.

Layer p maps the width-K[p-1] vector x^(p-1) to net sums
net^(p) = W^(p-1) x^(p-1) (no bias) followed by an elementwise holomorphic
activation.  Weights into layer p are kept as a (K[p], K[p-1]) complex
matrix; flattening it row-major reproduces the serialized layout where
the weight from node i to node j sits at offset (j-1)*K[p-1] + (i-1).
"""

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .activations import get_activation

__all__ = [
    "NetworkTopology",
    "ForwardTrace",
    "Dataset",
    "flat_index",
    "uniform_draws",
    "init_weights",
    "forward",
    "error",
    "error_from_trace",
    "save_checkpoint",
    "load_checkpoint",
    "load_dataset",
    "read_json",
]

# the most weights a net may have: init_weights draws them one Python
# step at a time, and the Newton-type tables grow with the widths squared
MAX_WEIGHTS = 10**6


@dataclass(frozen=True)
class NetworkTopology:
    """Layer widths (input, hidden..., output) and one activation per layer."""

    widths: tuple
    activations: tuple

    def __post_init__(self):
        # the one width rule: Python or numpy integers, never bools,
        # floats or strings; stored as Python ints
        widths = tuple(self.widths) if np.iterable(self.widths) else None
        if widths is None or not all(
            isinstance(w, (int, np.integer)) and not isinstance(w, bool) for w in widths
        ):
            raise ValueError(f"topology widths should be integers, got {self.widths!r}")
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))
        # the one activation rule: a sequence of names, each one known
        names = tuple(self.activations) if np.iterable(self.activations) else None
        if (
            names is None
            or isinstance(self.activations, str)
            or not all(isinstance(a, str) for a in names)
        ):
            raise ValueError(f"topology activations should be names, got {self.activations!r}")
        object.__setattr__(self, "activations", names)
        if len(self.widths) < 2:
            raise ValueError("a network needs at least an input and an output layer")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"layer widths must be positive: {self.widths}")
        n = sum(a * b for a, b in zip(self.widths, self.widths[1:]))
        if n > MAX_WEIGHTS:
            raise ValueError(f"topology {self.widths} has {n} weights, above the cap of {MAX_WEIGHTS}")
        if len(self.activations) != self.n_layers:
            raise ValueError(
                f"{self.n_layers} layers need {self.n_layers} activations, "
                f"got {len(self.activations)}"
            )
        for name in self.activations:
            try:
                get_activation(name)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None

    @property
    def n_layers(self):
        return len(self.widths) - 1

    def layer_size(self, p):
        """Number of weights feeding layer p (1-based)."""
        return self.widths[p] * self.widths[p - 1]

    def activation(self, p):
        return get_activation(self.activations[p - 1])

    def check_dataset(self, dataset):
        """Raise ValueError unless the dataset's input and target widths
        are this net's input and output widths."""
        for what, width, expected in (
            ("input", dataset.inputs.shape[1], self.widths[0]),
            ("target", dataset.targets.shape[1], self.widths[-1]),
        ):
            if width != expected:
                raise ValueError(f"dataset {what} width {width} does not match topology {self.widths}")


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


_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const, mult):
    """numpy.random.SeedSequence's hashmix from a starting constant: XOR a
    32-bit word with the constant, step the constant, multiply, xorshift."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _pcg64_seed(seed):
    """The (state, increment) of numpy's PCG64(seed) for an integer seed:
    SeedSequence's hash of the seed's 32-bit words, then PCG64's seeding."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # mix_entropy: a pool of four words, each hashed into every other,
    # then every entropy word past the fourth into each pool word
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight 32-bit words paired little-endian
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[k % 4]) for k in range(8)]
    initstate, initseq = (
        (words[k] | words[k + 1] << 32) << 64 | words[k + 2] | words[k + 3] << 32 for k in (0, 4)
    )
    inc = (initseq << 1 | 1) & _MASK128
    return ((initstate + inc) * _PCG_MULT + inc) & _MASK128, inc


def uniform_draws(seed, low, high, count):
    """The values of np.random.Generator(np.random.PCG64(seed)).uniform(low,
    high, count), bit for bit, without importing numpy.random.

    The seed is hashed as numpy's SeedSequence hashes an integer; PCG64 is
    the 128-bit LCG with XSL-RR output (O'Neill 2014), and a 64-bit output
    x gives low + (high - low) * ((x >> 11) * 2**-53).  A negative seed,
    count or high - low raises ValueError, a seed or count that is not an
    integer TypeError and a non-finite high - low OverflowError, as numpy
    does.
    """
    state, inc = _pcg64_seed(seed)
    low, high = float(low), float(high)
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0:
        raise ValueError("high - low < 0")
    states = bytearray()
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        states += state.to_bytes(16, "little")
    # each state as its low and high 64-bit words
    words = np.ndarray((count, 2), "<u8", buffer=states)
    hi = words[:, 1]
    rot = hi >> 58
    xored = hi ^ words[:, 0]
    # rotate right by rot; the & 63 keeps rot = 0 from shifting by 64
    out = (xored >> rot) | (xored << ((64 - rot) & 63))
    return low + span * ((out >> 11) * 2.0**-53)


def init_weights(topology, seed, init_range=1.0):
    """Draw each layer's weights with re/im i.i.d. uniform in [-r, r].

    The values are uniform_draws(seed, -r, r, ...), one stream for all
    layers in order, each weight's real part drawn before its imaginary
    part: the same values as numpy's Generator(PCG64(seed)).uniform.
    For a fixed seed the draw depends only on the topology widths, so
    different training methods started from the same seed share initial
    weights.
    """
    n = sum(topology.layer_size(p) for p in range(1, len(topology.widths)))
    draws = uniform_draws(seed, -init_range, init_range, 2 * n).view(complex)
    weights, start = [], 0
    for k_in, k_out in zip(topology.widths, topology.widths[1:]):
        weights.append(draws[start : start + k_out * k_in].reshape(k_out, k_in))
        start += k_out * k_in
    return weights


def forward(topology, weights, inputs):
    """Run the batch through every layer, recording nets and values."""
    x = np.asarray(inputs, dtype=complex)
    if x.ndim < 2:
        x = np.atleast_2d(x)
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
    return float(np.add.reduce(r.real**2 + r.imag**2, axis=1).sum() / r.shape[0])


def error(topology, weights, dataset):
    topology.check_dataset(dataset)
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


def _complex_entries(entries, where):
    """A list of [re, im] pairs of JSON numbers as complex numbers.

    true and false are not numbers; read_json has already rejected
    non-finite floats, and an integer too large for a float is
    rejected here.  An error names `where` and the entry's index.
    """
    values = []
    for k, pair in enumerate(entries):
        if isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair):
            try:
                values.append(complex(*pair))
                continue
            except OverflowError:
                pass
        raise ValueError(f"{where} {k} {pair!r} is not an [re, im] pair of finite numbers")
    return values


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint.

    Widths must be integers, activations known names and every weight an
    [re, im] pair of finite numbers; anything else, NaN and Infinity
    included, raises ValueError.
    """
    doc = read_json(path)
    if not (isinstance(doc, dict) and {"widths", "activations", "layers"} <= set(doc)):
        raise ValueError("checkpoint must be an object with widths, activations and layers")
    widths, activations, layers = doc["widths"], doc["activations"], doc["layers"]
    topology = NetworkTopology(widths, activations)
    if not isinstance(layers, list) or len(layers) != topology.n_layers:
        raise ValueError(f"checkpoint needs {topology.n_layers} weight layers for widths {topology.widths}")
    weights = []
    for p, entries in enumerate(layers, start=1):
        if not isinstance(entries, list) or len(entries) != topology.layer_size(p):
            raise ValueError(f"layer {p} should hold {topology.layer_size(p)} weights")
        flat = np.array(_complex_entries(entries, f"layer {p}: weight"))
        weights.append(flat.reshape(topology.widths[p], topology.widths[p - 1]))
    return topology, weights


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _reject_constant(name):
    raise ValueError(f"{name} is not a finite number")


def read_json(path):
    """Parse a JSON input file (config, dataset or checkpoint).

    Python's json accepts NaN, Infinity and -Infinity and reads an
    overflowing float as inf; here those raise ValueError, and so does
    nesting too deep for the parser.  A file that cannot be read raises
    OSError.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def load_dataset(path):
    """Read a JSON dataset: a list of {"input": [[re,im],...], "target": [[re,im],...]}.

    A sample that is not such an object, or an entry that is not an
    [re, im] pair of finite numbers (booleans, NaN, Infinity and
    overflowing numbers are not), raises ValueError naming the sample.
    """
    doc = read_json(path)
    if not isinstance(doc, list) or not doc:
        raise ValueError("dataset must be a non-empty JSON array of samples")
    inputs, targets = [], []
    for k, sample in enumerate(doc):
        if not (
            isinstance(sample, dict)
            and isinstance(sample.get("input"), list)
            and isinstance(sample.get("target"), list)
        ):
            raise ValueError(f"sample {k} is not an object with input and target lists")
        inputs.append(_complex_entries(sample["input"], f"sample {k}: input entry"))
        targets.append(_complex_entries(sample["target"], f"sample {k}: target entry"))
    widths_in = {len(row) for row in inputs}
    widths_out = {len(row) for row in targets}
    if len(widths_in) != 1 or len(widths_out) != 1:
        raise ValueError("samples disagree on input or target width")
    return Dataset(np.array(inputs), np.array(targets))
