"""Exact rational Gaussian elimination: nullspace and linear solve.

Rows arrive and are eliminated as sparse mappings (column -> value); a
zero entry is never stored or touched, which matters because the oracle's
matrices are mostly zeros. Each incoming row is reduced by the pivot rows
found so far and, if anything is left, its first nonzero column becomes a
new pivot that is cleared from the earlier pivot rows. The result is the
reduced row echelon form, which is unique for the row space, so it does not
depend on the order rows arrive in or on which pivot is found first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

SparseRow = Dict[int, Fraction]


def _axpy(acc: SparseRow, scale: Fraction, row: SparseRow) -> None:
    """acc += scale * row, dropping entries that cancel."""
    for c, x in row.items():
        value = acc.get(c, 0) + scale * x
        if value:
            acc[c] = value
        else:
            acc.pop(c, None)


def _rref(rows: Sequence[Mapping[int, Fraction]]) -> Dict[int, SparseRow]:
    """Reduced row echelon form of rows given as {column: value}, as
    {pivot column: row}: each row has 1 at its pivot, which is its first
    nonzero column, and 0 at every other pivot column."""
    pivots: Dict[int, SparseRow] = {}
    for given in rows:
        row = {c: Fraction(x) for c, x in given.items() if x != 0}
        for c in [c for c in row if c in pivots]:
            _axpy(row, -row[c], pivots[c])
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {c: x * inv for c, x in row.items()}
        for other in pivots.values():
            factor = other.get(p)
            if factor is not None:
                _axpy(other, -factor, row)
        pivots[p] = row
    return pivots


def kernel_basis(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> List[Tuple[Fraction, ...]]:
    """Basis of the right kernel of the matrix whose rows arrive sparse, as
    {column: value} with columns in 0..ncols-1, one vector per free column.

    Each basis vector has a 1 in its free coordinate; ordering follows the
    column order, so the result is deterministic.
    """
    for c in (c for row in rows for c in row):
        if not 0 <= c < ncols:
            raise ValueError("column %d is outside 0..%d" % (c, ncols - 1))
    pivots = _rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, row in pivots.items():
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def solve_unique(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Solve A x = b when the solution exists and is unique, else ValueError."""
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("rhs length %d does not match row count %d" % (len(rhs), m))
    if m == 0:
        return ()
    ncols = len(rows[0])
    pivots = _rref([dict(enumerate([*row, b])) for row, b in zip(rows, rhs)])
    if sum(1 for pc in pivots if pc < ncols) < ncols:
        raise ValueError("system is underdetermined")
    if ncols in pivots:
        raise ValueError("system is inconsistent")
    return tuple(pivots[pc].get(ncols, Fraction(0)) for pc in range(ncols))
