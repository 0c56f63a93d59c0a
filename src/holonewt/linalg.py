"""Stacked complex linear solve for the Newton-type node blocks.

`solve` is Gaussian elimination with partial pivoting over a whole stack
of blocks; it is written out here (rather than delegated to numpy.linalg)
because the training code needs a well-defined singularity signal with
an explicit threshold.
"""

import numpy as np

__all__ = ["SingularMatrix", "solve"]

# Pivot magnitudes below PIVOT_RTOL times the largest entry of their
# block are treated as exact zeros.
PIVOT_RTOL = 1e-12


class SingularMatrix(Exception):
    """Raised when elimination hits a pivot too small to trust."""


def solve(a, b):
    """Solve a[j] @ x[j] = b[j] for every block j by Gaussian elimination
    with partial pivoting.

    `a` is a (B, n, n) stack of square matrices and `b` a (B, n, m) stack
    of right-hand sides; the result has the shape of `b`.  Every block is
    eliminated at once, with Python looping only over columns.

    Raises ValueError for any other shapes, and SingularMatrix when a
    block is all zeros, or when a pivot magnitude falls below PIVOT_RTOL
    times the largest entry magnitude of that block; the message names
    the block.  The input arrays are not modified.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack of square matrices, got shape {a.shape}")
    n = a.shape[-1]
    if b.ndim != 3 or b.shape[:2] != a.shape[:2]:
        raise ValueError(f"expected a (B, n, m) right-hand side stack for {a.shape}, got {b.shape}")

    # one augmented array [a | b] per block, so each row swap and each
    # elimination step updates the matrix and its right-hand sides at once
    ab = np.concatenate([a, b], axis=2, dtype=complex)
    scale = np.abs(a).max(axis=(1, 2), initial=0.0)
    if not scale.all():
        raise SingularMatrix(f"block {np.flatnonzero(scale == 0.0)[0]}: matrix of zeros")
    threshold = PIVOT_RTOL * scale

    blocks = np.arange(len(ab))
    for k in range(n):
        col = np.abs(ab[:, k:, k])
        r = col.argmax(axis=1)
        pivot = col[blocks, r]
        ok = pivot >= threshold
        if not ok.all():
            j = np.flatnonzero(~ok)[0]
            raise SingularMatrix(f"block {j}: pivot {pivot[j]:.3e} below {threshold[j]:.3e}")
        if r.any():
            p = r + k
            ab[blocks, k], ab[blocks, p] = ab[blocks, p], ab[blocks, k]
        rest = ab[:, k + 1 :]
        rest[:, :, k:] -= (rest[:, :, k] / ab[:, k, k, None])[:, :, None] * ab[:, k, None, k:]

    x = ab[:, :, n:]
    for k in range(n - 1, -1, -1):
        x[:, k] -= (ab[:, k, None, k + 1 : n] @ x[:, k + 1 :])[:, 0]
        x[:, k] /= ab[:, k, k, None]
    return x
