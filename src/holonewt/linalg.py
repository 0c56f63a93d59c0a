"""Stacked complex linear solve for the Newton-type node blocks.

`solve` is Gaussian elimination with partial pivoting over a whole stack
of blocks.  It is written out here rather than delegated to LAPACK
(numpy.linalg.solve) for two reasons: the training code needs a
well-defined singularity signal with an explicit threshold (PIVOT_RTOL),
which LAPACK's exact-zero test does not give, and the golden battery
files pin this elimination's bits, which LAPACK's blocked kernels would
move.

Python loops only over the n columns, so on small blocks (XOR's n = 2
and 4) the cost is the fixed overhead of each numpy call, not the flops;
only at n = 32 does the multiply-subtract take more than half.  Each
column therefore makes as few calls as the arithmetic allows: the pivot
search (abs, argmax, the pivot gather and its check, counted with
count_nonzero), a row swap only when some block's pivot row is not row
k (one gather and two sets), and one multiply-subtract on the trailing
block, which skips column k below the diagonal (never read again) and
is skipped after the last column.  Back substitution makes one matmul,
one subtract and one divide per row, and no matmul for the last row,
which has nothing to its right.
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
    n_blocks = len(ab)
    # the ufuncs and count_nonzero are called directly: the ndarray
    # .all()/.any()/.max() wrappers cost more than the work at these sizes
    scale = np.maximum.reduce(np.abs(a), axis=(1, 2), initial=0.0)
    if np.count_nonzero(scale) < n_blocks:
        raise SingularMatrix(f"block {np.flatnonzero(scale == 0.0)[0]}: matrix of zeros")
    threshold = PIVOT_RTOL * scale

    blocks = np.arange(n_blocks)
    for k in range(n):
        col = np.abs(ab[:, k:, k])
        r = col.argmax(axis=1)
        swap = np.count_nonzero(r)
        pivot = col[blocks, r] if swap else col[:, 0]
        ok = pivot >= threshold
        if np.count_nonzero(ok) < n_blocks:
            j = np.flatnonzero(~ok)[0]
            raise SingularMatrix(f"block {j}: pivot {pivot[j]:.3e} below {threshold[j]:.3e}")
        if swap:
            p = r + k
            row = ab[blocks, p]
            ab[blocks, p] = ab[:, k]
            ab[:, k] = row
        else:
            row = ab[:, k]
        if k + 1 < n:
            # column k below the diagonal is never read again, so only
            # the columns right of it are updated
            rest = ab[:, k + 1 :]
            tail = rest[:, :, k + 1 :]
            tail -= (rest[:, :, k] / row[:, k, None])[:, :, None] * row[:, None, k + 1 :]

    x = ab[:, :, n:]
    for k in range(n - 1, -1, -1):
        xk = x[:, k]
        if k + 1 < n:
            xk -= (ab[:, k, None, k + 1 : n] @ x[:, k + 1 :])[:, 0]
        xk /= ab[:, k, k, None]
    return x
