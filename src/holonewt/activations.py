"""Holomorphic activation functions and their first two derivatives.

Each activation is entire or meromorphic on C and is applied elementwise
to complex net sums.  All of them have real Taylor coefficients, so
g(conj(z)) == conj(g(z)); the backpropagation recursions rely on that
symmetry.  Non-finite values (e.g. the sigmoid evaluated at a pole) are
returned as-is rather than masked.

d1 and d2 take the forward value g = f(z) as their second argument.  The
sigmoid's derivatives are polynomials in g, so they need no exp of their
own; the other activations ignore it.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Activation", "ACTIVATIONS", "get_activation"]


@dataclass(frozen=True)
class Activation:
    name: str
    f: Callable
    d1: Callable
    d2: Callable


def _as_complex(z):
    # keep wider complex dtypes (the FD oracle probes in extended precision)
    z = np.asarray(z)
    if z.dtype.kind != "c":
        z = z.astype(complex)
    return z


# After a complex matmul through OpenBLAS, the next complex np.exp can run
# about 10x slow (AVX-512 Xeon, OpenBLAS 0.3.31: 260 us against 28 us on
# a (32, 16) layer), most likely from vector-register state that the BLAS
# kernel leaves dirty.  A complex np.abs runs a numpy SIMD loop that
# clears it; a real abs or the complex negation below does not.  So
# _sigmoid takes the abs of this tiny array before its exp; no value
# changes.
_VECTOR_STATE_RESET = np.ones(2, dtype=complex)


def _sigmoid(z):
    z = _as_complex(z)
    np.abs(_VECTOR_STATE_RESET)
    return 1.0 / (1.0 + np.exp(-z))


def _sigmoid_d1(z, g):
    return g * (1.0 - g)


def _sigmoid_d2(z, g):
    return g * (1.0 - g) * (1.0 - 2.0 * g)


def _taylor3(z):
    z = _as_complex(z)
    return 0.5 + z / 4.0 - z**3 / 48.0


def _taylor3_d1(z, g):
    z = _as_complex(z)
    return 0.25 - z**2 / 16.0


def _taylor3_d2(z, g):
    return -_as_complex(z) / 8.0


def _identity(z):
    return _as_complex(z)


def _one(z, g):
    return np.ones_like(_as_complex(z))


def _zero(z, g):
    return np.zeros_like(_as_complex(z))


ACTIVATIONS = {
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_d1, _sigmoid_d2),
    # cubic Taylor truncation of the sigmoid about 0
    "taylor3": Activation("taylor3", _taylor3, _taylor3_d1, _taylor3_d2),
    "identity": Activation("identity", _identity, _one, _zero),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}, expected one of {sorted(ACTIVATIONS)}"
        ) from None

