"""Matrix realizations of the classical types with Chevalley generators.

Types A through D are realized as sl_{n+1}, so_{2n+1}, sp_{2n}, so_{2n}
with the bilinear form on the anti-diagonal (see CONVENTIONS.md). The
exceptional types have no realization here and raise RealizationError.
Structure constants are always read off from the matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from .errors import RealizationError
from .roots import Root, RootSystem

Matrix = Tuple[Tuple[Fraction, ...], ...]


def _zero(size: int) -> Matrix:
    return tuple(tuple(Fraction(0) for _ in range(size)) for _ in range(size))


def _unit(size: int, a: int, b: int) -> Matrix:
    """E_{ab} with 1-based indices."""
    return tuple(tuple(Fraction(1) if (i == a - 1 and j == b - 1) else Fraction(0)
                       for j in range(size))
                 for i in range(size))


def mat_add(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def mat_scale(c, x: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * a for a in row) for row in x)


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    yt = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in yt)
                 for row in x)


def is_zero_matrix(x: Matrix) -> bool:
    return all(a == 0 for row in x for a in row)


def bracket(x: Matrix, y: Matrix) -> Matrix:
    """Commutator x y - y x of two square matrices of equal size."""
    if len(x) != len(y) or any(len(r) != len(x) for r in x + y):
        raise ValueError("bracket needs square matrices of equal size")
    return mat_add(mat_mul(x, y), mat_scale(-1, mat_mul(y, x)))


@dataclass(frozen=True, eq=False)
class MatrixLieAlgebra:
    """Chevalley generators and root vectors for one realized root system.

    root_vectors maps every root (both signs) to a nonzero root vector;
    the positive ones are built from the e_i by iterated brackets, the
    negative ones from the f_i, and f_{alpha_i} is exactly the generator f_i.
    The mapping is owned by this object and must be treated as read-only.
    """

    root_system: RootSystem
    size: int
    e: Tuple[Matrix, ...]
    f: Tuple[Matrix, ...]
    h: Tuple[Matrix, ...]
    root_vectors: Dict[Root, Matrix] = field(repr=False)


def _generators(type_label: str, rank: int):
    if type_label == "A":
        size = rank + 1
        e = [_unit(size, i, i + 1) for i in range(1, rank + 1)]
        f = [_unit(size, i + 1, i) for i in range(1, rank + 1)]
        return size, e, f
    if type_label == "B":
        size = 2 * rank + 1
        bar = lambda k: size + 1 - k
        e, f = [], []
        for i in range(1, rank):
            e.append(mat_add(_unit(size, i, i + 1),
                             mat_scale(-1, _unit(size, bar(i + 1), bar(i)))))
            f.append(mat_add(_unit(size, i + 1, i),
                             mat_scale(-1, _unit(size, bar(i), bar(i + 1)))))
        n = rank
        e.append(mat_add(_unit(size, n, n + 1),
                         mat_scale(-1, _unit(size, n + 1, n + 2))))
        f.append(mat_scale(2, mat_add(_unit(size, n + 1, n),
                                      mat_scale(-1, _unit(size, n + 2, n + 1)))))
        return size, e, f
    if type_label == "C":
        size = 2 * rank
        bar = lambda k: size + 1 - k
        e, f = [], []
        for i in range(1, rank):
            e.append(mat_add(_unit(size, i, i + 1),
                             mat_scale(-1, _unit(size, bar(i + 1), bar(i)))))
            f.append(mat_add(_unit(size, i + 1, i),
                             mat_scale(-1, _unit(size, bar(i), bar(i + 1)))))
        n = rank
        e.append(_unit(size, n, n + 1))
        f.append(_unit(size, n + 1, n))
        return size, e, f
    if type_label == "D":
        size = 2 * rank
        bar = lambda k: size + 1 - k
        e, f = [], []
        for i in range(1, rank):
            e.append(mat_add(_unit(size, i, i + 1),
                             mat_scale(-1, _unit(size, bar(i + 1), bar(i)))))
            f.append(mat_add(_unit(size, i + 1, i),
                             mat_scale(-1, _unit(size, bar(i), bar(i + 1)))))
        n = rank
        e.append(mat_add(_unit(size, n - 1, n + 1),
                         mat_scale(-1, _unit(size, n, n + 2))))
        f.append(mat_add(_unit(size, n + 1, n - 1),
                         mat_scale(-1, _unit(size, n + 2, n))))
        return size, e, f
    raise RealizationError("no matrix realization for type %s (types A-D only)"
                           % type_label)


def realize(rs: RootSystem) -> MatrixLieAlgebra:
    """Matrix realization of the root system, or RealizationError for E/F/G."""
    size, e, f = _generators(rs.type_label, rs.rank)
    h = [bracket(e[i], f[i]) for i in range(rs.rank)]

    vectors: Dict[Root, Matrix] = {}
    for i in range(rs.rank):
        vectors[rs.simple_root(i + 1)] = e[i]
        vectors[-rs.simple_root(i + 1)] = f[i]
    for beta in rs.positive_roots:
        if beta.height == 1:
            continue
        for i in range(1, rs.rank + 1):
            lower = Root(tuple(c - s for c, s in
                               zip(beta.coords, rs.simple_root(i).coords)))
            if lower.sign > 0 and rs.is_root(lower) and lower in vectors:
                x = bracket(e[i - 1], vectors[lower])
                y = bracket(f[i - 1], vectors[-lower])
                if not is_zero_matrix(x) and not is_zero_matrix(y):
                    vectors[beta] = x
                    vectors[-beta] = y
                    break
        if beta not in vectors:
            raise RealizationError("could not build a root vector for %s" % beta)

    return MatrixLieAlgebra(rs, size, tuple(e), tuple(f), tuple(h), vectors)
