"""The conjugate cogradient of one layer's weights, in Wirtinger form.

The delta for layer p is the factor multiplying conj(x^(p-1)) in the
conjugate cogradient (dE/dw)*.  newton.layer_step computes it: at the
output layer it is the residual times g'(conj(net)), and it propagates
backwards through the conjugated weights, in the same step that carries
the curvature tables.  Gradient descent steps along minus the conjugate
cogradient.
"""

import numpy as np

__all__ = ["cogradient_conj"]


def cogradient_conj(delta_p, trace, p):
    """Flat (dE/dw^(p-1))*: averages delta_tj * conj(x^(p-1)_ti) over samples."""
    x_prev = trace.values[p - 1]
    n = x_prev.shape[0]
    return (delta_p.T @ np.conj(x_prev)).ravel() / n
