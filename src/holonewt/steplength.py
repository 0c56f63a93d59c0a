"""Steplength control for the Newton-type and gradient updates.

The one-step rule minimizes the local second-order model of E along the
proposed direction dw; underrelaxation then scales the resulting step by
a constant factor omega in (0, 2).  For the pseudo-Newton direction the
denominator still uses the full H_wbar_w coupling term.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StepConfig", "DegenerateStep", "mu_from_denominator", "apply_update"]

MODES = ("one_step_newton", "constant")


class DegenerateStep(Exception):
    """A Newton-type step that cannot be taken: the cogradient, a curvature
    table or a node block not finite (newton.newton_update and
    pseudo_newton_update), or the one-step denominator not finite or too
    close to zero to divide by (mu_from_denominator)."""


@dataclass(frozen=True)
class StepConfig:
    mode: str = "one_step_newton"
    omega: float = 0.5
    constant_mu: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"steplength mode {self.mode!r} not in {MODES}")
        if not 0.0 < self.omega < 2.0:
            raise ValueError(f"omega must lie in (0, 2), got {self.omega}")
        if not (self.constant_mu > 0.0 and math.isfinite(self.constant_mu)):
            raise ValueError(f"constant_mu must be positive and finite, got {self.constant_mu!r}")


def mu_from_denominator(cograd_conj, dw, denominator):
    """Steplength minimizing the quadratic model of E along dw.

        mu = -Re{(dE/dw) dw} / Re{dw^H H_ww dw + dw^H H_wbar_w conj(dw)}

    The row vector dE/dw is the conjugate transpose of `cograd_conj`;
    training takes the denominator from newton.one_step_denominator.

    Raises DegenerateStep when the denominator is NaN, infinite or below
    1e-300 in magnitude; a negative or huge quotient is returned as-is
    for the caller to deal with.
    """
    numerator = -np.vdot(cograd_conj, dw).real
    if not math.isfinite(denominator):
        raise DegenerateStep(f"one-step denominator is {float(denominator)!r}, not finite")
    if abs(denominator) < 1e-300:
        raise DegenerateStep(f"denominator {denominator!r}")
    return float(numerator / denominator)


def apply_update(weights, p, dw, mu, omega=1.0):
    """Add omega * mu * dw (flat) onto layer p's weight matrix, in place."""
    w = weights[p - 1]
    w += (omega * mu) * dw.reshape(w.shape)
