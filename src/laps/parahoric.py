"""Weyl group combinatorics: double cosets and Iwahori root partitions.

Elements act on simple-root coordinates by integer matrices; the reduced
word stored on each element is the canonical one (smallest right descent
last), so equality of elements is equality of matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from .errors import ResourceLimitError
from .roots import Root, RootSystem

IntMatrix = Tuple[Tuple[int, ...], ...]

WEYL_ORDER_CAP = 1000


@dataclass(frozen=True)
class WeylElement:
    matrix: IntMatrix
    word: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, root: Root) -> Root:
        """Image of a root under this element."""
        c = root.coords
        if len(c) != len(self.matrix):
            raise ValueError("root arity %d does not match rank %d"
                             % (len(c), len(self.matrix)))
        return Root(tuple(sum(row[j] * c[j] for j in range(len(c)))
                          for row in self.matrix))

    def __str__(self) -> str:
        return "e" if not self.word else "*".join("s%d" % i for i in self.word)


@dataclass(frozen=True)
class ParabolicType:
    """A subset of the simple-root indices, 1-based and sorted."""

    indices: Tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int]) -> "ParabolicType":
        return cls(tuple(sorted(set(int(i) for i in indices))))


@dataclass(frozen=True, eq=False)
class DoubleCosetDecomposition:
    """Orbit data of W_I x W_J acting by (u, v) . w = u w v^{-1}."""

    representatives: Tuple[WeylElement, ...]
    coset_map: Dict[WeylElement, WeylElement] = field(repr=False)

    def coset_sizes(self) -> Tuple[int, ...]:
        counts: Dict[WeylElement, int] = {}
        for rep in self.coset_map.values():
            counts[rep] = counts.get(rep, 0) + 1
        return tuple(counts[rep] for rep in self.representatives)


def mat_mul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    yt = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in yt)
                 for row in x)


def _identity(rank: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def simple_reflection_matrix(rs: RootSystem, i: int) -> IntMatrix:
    """Matrix of s_i on simple-root coordinates, 1-based index."""
    if not 1 <= i <= rs.rank:
        raise ValueError("simple reflection index %r out of range 1..%d" % (i, rs.rank))
    a = rs.cartan_matrix
    return tuple(tuple((1 if k == j else 0) - (a[i - 1][j] if k == i - 1 else 0)
                       for j in range(rs.rank))
                 for k in range(rs.rank))


def _descent_word(rs: RootSystem, matrix: IntMatrix) -> Tuple[int, ...]:
    """Canonical reduced word, peeling right descents smallest index first."""
    gens = [simple_reflection_matrix(rs, i) for i in range(1, rs.rank + 1)]
    ident = _identity(rs.rank)
    suffix = []
    m = matrix
    while m != ident:
        for i in range(rs.rank):
            if all(m[k][i] <= 0 for k in range(rs.rank)):
                break
        else:
            raise ValueError("matrix is not a Weyl group element")
        suffix.append(i + 1)
        m = mat_mul(m, gens[i])
        if len(suffix) > len(rs.positive_roots):
            raise ValueError("matrix is not a Weyl group element")
    return tuple(reversed(suffix))


def weyl_element(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Element from any word in the generators; the stored word is canonical."""
    m = _identity(rs.rank)
    for i in word:
        m = mat_mul(m, simple_reflection_matrix(rs, i))
    return WeylElement(m, _descent_word(rs, m))


def multiply(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    m = mat_mul(a.matrix, b.matrix)
    return WeylElement(m, _descent_word(rs, m))


def invert(rs: RootSystem, a: WeylElement) -> WeylElement:
    return weyl_element(rs, reversed(a.word))


def build_weyl_group(rs: RootSystem, cap: int = WEYL_ORDER_CAP) -> Tuple[WeylElement, ...]:
    """The whole Weyl group by breadth-first closure, sorted by (length, word).
    With the generators as the outer loop, each element is first reached
    through its smallest right descent, so its word is the canonical one."""
    gens = [simple_reflection_matrix(rs, i) for i in range(1, rs.rank + 1)]
    ident = _identity(rs.rank)
    seen: Dict[IntMatrix, Tuple[int, ...]] = {ident: ()}
    frontier = [ident]
    while frontier:
        new = []
        for i, g in enumerate(gens, start=1):
            for m in frontier:
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen[prod] = seen[m] + (i,)
                    new.append(prod)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            "Weyl group exceeds the cap of %d elements" % cap)
        frontier = new
    elements = [WeylElement(m, word) for m, word in seen.items()]
    return tuple(sorted(elements, key=lambda w: (w.length, w.word)))


def _normalize_indices(group_rank: int, indices) -> Tuple[int, ...]:
    if isinstance(indices, ParabolicType):
        idx = indices.indices
    else:
        idx = ParabolicType.of(indices).indices
    for i in idx:
        if not 1 <= i <= group_rank:
            raise ValueError("parabolic index %d out of range 1..%d" % (i, group_rank))
    return idx


def double_cosets(group: Tuple[WeylElement, ...], I, J) -> DoubleCosetDecomposition:
    """Decompose W into W_I w W_J orbits under (u, v) . w = u w v^{-1}.

    The representative of each orbit is its minimal element by (length, word).
    """
    by_matrix = {w.matrix: w for w in group}
    gen_matrices = {w.word[0]: w.matrix for w in group if w.length == 1}
    rank = len(gen_matrices)
    left = [gen_matrices[i] for i in _normalize_indices(rank, I)]
    right = [gen_matrices[j] for j in _normalize_indices(rank, J)]

    coset_map: Dict[WeylElement, WeylElement] = {}
    representatives = []
    for w in sorted(group, key=lambda x: (x.length, x.word)):
        if w in coset_map:
            continue
        orbit = {w.matrix}
        frontier = [w.matrix]
        while frontier:
            new = []
            for m in frontier:
                for g in left:
                    cand = mat_mul(g, m)
                    if cand not in orbit:
                        orbit.add(cand)
                        new.append(cand)
                for g in right:
                    cand = mat_mul(m, g)
                    if cand not in orbit:
                        orbit.add(cand)
                        new.append(cand)
            frontier = new
        members = [by_matrix[m] for m in orbit]
        rep = min(members, key=lambda x: (x.length, x.word))
        representatives.append(rep)
        for member in members:
            coset_map[member] = rep
    return DoubleCosetDecomposition(tuple(representatives), coset_map)


def iwahori_root_partition(rs: RootSystem, I, w: WeylElement):
    """Split the roots outside the I-span by the sign of w^{-1}(root).

    Returns (plus, minus): the roots alpha with w^{-1}(alpha) positive land in
    plus, the rest in minus. Roots supported entirely on I are excluded.
    Both tuples are sorted by coordinates.
    """
    idx = set(_normalize_indices(rs.rank, I))
    w_inv = invert(rs, w)
    all_roots = [r for beta in rs.positive_roots for r in (beta, -beta)]
    kept = [r for r in all_roots
            if not all(c == 0 or (k + 1) in idx for k, c in enumerate(r.coords))]
    plus, minus = [], []
    for r in kept:
        (plus if w_inv.apply(r).sign > 0 else minus).append(r)
    key = lambda r: r.coords
    return tuple(sorted(plus, key=key)), tuple(sorted(minus, key=key))
