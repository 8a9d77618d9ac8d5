"""Exact elimination: the sparse reduced row echelon form behind
kernel_basis and solve_unique, compared with a dense Gauss-Jordan written
here on random rational matrices (zero rows and columns, tall and wide).
kernel_basis takes its rows sparse, as {column: value}."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from laps.linalg import kernel_basis, solve_unique

_ENTRY = st.one_of(st.just(Fraction(0)),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


def _dense_rref(rows, ncols):
    """Gauss-Jordan on dense lists, pivoting on columns 0..ncols-1 in turn;
    returns the reduced rows and the pivot columns."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        k = next((k for k in range(top, len(mat)) if mat[k][c] != 0), None)
        if k is None:
            continue
        mat[top], mat[k] = mat[k], mat[top]
        lead = mat[top][c]
        mat[top] = [x / lead for x in mat[top]]
        for j in range(len(mat)):
            factor = mat[j][c]
            if j != top and factor != 0:
                mat[j] = [a - factor * b for a, b in zip(mat[j], mat[top])]
        pivots.append(c)
    return mat, pivots


def _dense_kernel(rows, ncols):
    mat, pivots = _dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


def _dense_solve(rows, rhs):
    """The solution, or the name of the failure the reference finds."""
    ncols = len(rows[0])
    mat, pivots = _dense_rref([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if len(pivots) < ncols:
        return "underdetermined"
    if any(row[ncols] != 0 for row in mat[len(pivots):]):
        return "inconsistent"
    return tuple(mat[r][ncols] for r in range(ncols))


@st.composite
def _matrices(draw, min_rows=0):
    m = draw(st.integers(min_rows, 7))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    rows = [[Fraction(0) if c in zero_cols else x for c, x in enumerate(r)]
            for r in rows]
    if rows and draw(st.booleans()):
        # a dependent row: a rational combination of two drawn rows
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        s = draw(_ENTRY)
        rows.insert(draw(st.integers(0, len(rows))),
                    [x + s * y for x, y in zip(rows[a], rows[b])])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * n)
    return rows, n


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_kernel_basis_matches_dense_reference(matrix, data):
    rows, n = matrix
    # some zero entries stay explicit, as a caller may pass them
    sparse = [{c: x for c, x in enumerate(r) if x != 0 or data.draw(st.booleans())}
              for r in rows]
    basis = kernel_basis(sparse, n)
    assert basis == _dense_kernel(rows, n)
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


@pytest.mark.parametrize("col", [3, 7, -1])
def test_kernel_basis_rejects_columns_out_of_range(col):
    with pytest.raises(ValueError, match="column %d is outside 0..2" % col):
        kernel_basis([{0: Fraction(1)}, {1: Fraction(2), col: Fraction(1)}], 3)


@settings(max_examples=200, deadline=None)
@given(_matrices(min_rows=1), st.data())
def test_solve_unique_matches_dense_reference(matrix, data):
    rows, n = matrix
    if data.draw(st.booleans()):
        # add a triangular block with a nonzero diagonal: full column rank
        for i in range(n):
            tail = data.draw(st.lists(_ENTRY, min_size=n - i - 1, max_size=n - i - 1))
            diag = data.draw(st.integers(1, 5)) * data.draw(st.sampled_from([1, -1]))
            rows.append([Fraction(0)] * i + [Fraction(diag)] + tail)
        rows = data.draw(st.permutations(rows))
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_ENTRY, min_size=n, max_size=n))
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = data.draw(st.lists(_ENTRY, min_size=len(rows), max_size=len(rows)))
    expected = _dense_solve(rows, rhs)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            solve_unique(rows, rhs)
    else:
        assert solve_unique(rows, rhs) == expected


def test_solve_unique_failures_named():
    with pytest.raises(ValueError, match="underdetermined"):
        solve_unique([[1, 1]], [1])
    with pytest.raises(ValueError, match="inconsistent"):
        solve_unique([[1, 0], [0, 1], [1, 1]], [1, 1, 3])
    assert solve_unique([[2, 0], [0, 3], [1, 1]], [2, 3, 2]) == (1, 1)
