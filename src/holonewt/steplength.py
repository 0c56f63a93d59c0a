"""Steplength control for the Newton-type and gradient updates.

The one-step rule (newton.one_step_mu) minimizes the local second-order
model of E along the proposed direction dw; underrelaxation then scales
the resulting step by a constant factor omega in (0, 2).  For the
pseudo-Newton direction the denominator still uses the full H_wbar_w
coupling term.  The constant mode takes mu from the configuration
instead.
"""

import math
from dataclasses import dataclass

__all__ = ["StepConfig", "apply_update"]

MODES = ("one_step_newton", "constant")


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


def apply_update(weights, p, dw, mu, omega=1.0):
    """Add omega * mu * dw onto layer p's weight matrix, in place; dw has
    the matrix's shape."""
    weights[p - 1] += (omega * mu) * dw
