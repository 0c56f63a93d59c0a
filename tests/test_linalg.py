import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonewt.linalg import SingularMatrix, solve

from helpers import complex_uniform


def column(*entries):
    """A one-block stack holding one right-hand side column."""
    return np.array(entries, dtype=complex).reshape(1, -1, 1)


def test_solve_identity():
    b = column(3 + 1j, -2 + 0j)
    np.testing.assert_array_equal(solve(np.eye(2, dtype=complex)[None], b), b)


def test_solve_diagonal():
    a = np.array([[[2, 0], [0, 1j]]], dtype=complex)
    x = solve(a, column(2, 1j))
    np.testing.assert_allclose(x, column(1, 1), atol=1e-15)


def test_solve_rank_deficient_raises():
    a = np.ones((1, 2, 2), dtype=complex)
    with pytest.raises(SingularMatrix):
        solve(a, column(1.0, 2.0))


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrix):
        solve(np.zeros((1, 3, 3)), np.zeros((1, 3, 1)))


def test_solve_matrix_rhs():
    """Stacked right-hand sides solve column by column."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    x = solve(a[None], b[None])[0]
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


def test_solve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve(np.ones((1, 2, 3)), np.ones((1, 2, 1)))
    with pytest.raises(ValueError):
        solve(np.eye(2)[None], np.ones((1, 3, 1)))
    with pytest.raises(ValueError):
        solve(np.ones((2, 3, 3)), np.ones((1, 3, 1)))
    with pytest.raises(ValueError):
        solve(np.ones((2, 2, 2, 2)), np.ones((2, 2, 2)))


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((2, 2), (2, 1)), ((2, 2), (2,)), ((1, 2, 2), (1, 2)), ((1, 2, 2), (2, 1)), ((2,), (2, 1))],
)
def test_solve_takes_only_stacks(a_shape, b_shape):
    """A single matrix or a vector right-hand side is a shape error that
    names the expected stack."""
    with pytest.raises(ValueError, match=r"expected a \(B, n, (n|m)\)"):
        solve(np.ones(a_shape, dtype=complex), np.ones(b_shape, dtype=complex))


def test_solve_does_not_mutate_inputs():
    a = np.array([[[2.0, 1.0], [1.0, 3.0]]], dtype=complex)
    b = column(1.0, 1.0)
    a0, b0 = a.copy(), b.copy()
    solve(a, b)
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(b, b0)


def test_solve_residual_well_conditioned():
    """||A x - b|| <= 1e-8 (1 + ||b||) over 100 random systems.

    Matrices with condition estimates above 1e6 are skipped; the bound
    is a contract only for well-conditioned input.
    """
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1, 1, size=(n, n)) + 1j * rng.uniform(-1, 1, size=(n, n))
        if np.linalg.cond(a) >= 1e6:
            continue
        b = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
        x = solve(a[None], b[None, :, None])[0, :, 0]
        assert np.linalg.norm(a @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))
        checked += 1
    assert checked >= 90


def test_solve_pivoting_handles_zero_leading_entry():
    a = np.array([[[0, 1], [1, 0]]], dtype=complex)
    np.testing.assert_allclose(solve(a, column(2.0, 3.0)), column(3, 2), atol=1e-15)


def dominant_stack(rng, blocks, n):
    """Strictly diagonally dominant blocks: every one well conditioned."""
    return complex_uniform(rng, (blocks, n, n)) + 2 * n * np.eye(n)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.integers(1, 6),
    n=st.integers(1, 6),
    rhs_cols=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_solve_matches_per_block_numpy(blocks, n, rhs_cols, seed):
    rng = np.random.default_rng(seed)
    a = dominant_stack(rng, blocks, n)
    b = complex_uniform(rng, (blocks, n, rhs_cols))
    x = solve(a, b)
    assert x.shape == b.shape
    for j in range(blocks):
        np.testing.assert_allclose(x[j], np.linalg.solve(a[j], b[j]), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(solve(a[j : j + 1], b[j : j + 1])[0], x[j], rtol=1e-12, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.integers(1, 6),
    n=st.integers(1, 5),
    kind=st.sampled_from(["zeros", "rank_deficient"]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_solve_names_the_singular_block(blocks, n, kind, data, seed):
    """One bad block in an otherwise well-conditioned stack is enough,
    and the message names it together with its pivot and threshold."""
    rng = np.random.default_rng(seed)
    a = dominant_stack(rng, blocks, n)
    bad = data.draw(st.integers(0, blocks - 1), label="bad block")
    if kind == "zeros":
        a[bad] = 0
    else:
        # the last row is a combination of the others (all zeros when n = 1)
        a[bad, -1] = complex_uniform(rng, (n - 1,)) @ a[bad, :-1]
    a0 = a.copy()
    with pytest.raises(SingularMatrix, match=rf"^block {bad}: (matrix of zeros|pivot \S+ below \S+)$"):
        solve(a, complex_uniform(rng, (blocks, n, 1)))
    np.testing.assert_array_equal(a, a0)
