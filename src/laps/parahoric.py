"""Weyl group combinatorics: double cosets and Iwahori root partitions.

Elements act on simple-root coordinates by integer matrices; the reduced
word stored on each element is the canonical one (smallest right descent
last), so equality of elements is equality of matrices. Products are taken
one simple reflection at a time, as local updates (CONVENTIONS.md).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Tuple

from .errors import ResourceLimitError
from .record import Record, Value
from .roots import Root, RootSystem

IntMatrix = Tuple[Tuple[int, ...], ...]

WEYL_ORDER_CAP = 1000


class WeylElement(Value):
    def __init__(self, matrix: IntMatrix, word: Tuple[int, ...]):
        self.__dict__.update(matrix=matrix, word=word)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, root: Root) -> Root:
        """Image of a root under this element."""
        c = root.coords
        if len(c) != len(self.matrix):
            raise ValueError("root arity %d does not match rank %d"
                             % (len(c), len(self.matrix)))
        return Root(tuple(sum(a * x for a, x in zip(row, c)) for row in self.matrix))

    def __str__(self) -> str:
        return "e" if not self.word else "*".join("s%d" % i for i in self.word)


class ParabolicType(Value):
    """A subset of the simple-root indices, 1-based and sorted."""

    def __init__(self, indices: Tuple[int, ...]):
        self.__dict__["indices"] = indices

    @classmethod
    def of(cls, indices: Iterable[int]) -> "ParabolicType":
        return cls(tuple(sorted(set(int(i) for i in indices))))


class DoubleCosetDecomposition(Record):
    """Orbit data of W_I x W_J acting by (u, v) . w = u w v^{-1}; repr leaves
    out coset_map, which maps each element to its representative."""

    _shown = 1

    def __init__(self, representatives: Tuple[WeylElement, ...],
                 coset_map: Dict[WeylElement, WeylElement]):
        self.__dict__.update(representatives=representatives,
                             coset_map=coset_map)

    def coset_sizes(self) -> Tuple[int, ...]:
        counts = Counter(self.coset_map.values())
        return tuple(counts[rep] for rep in self.representatives)


def _identity(rank: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def _times_s(m: IntMatrix, cartan, i: int) -> IntMatrix:
    """m * s_i, i 0-based: column j loses a_ij times column i."""
    a = cartan[i]
    return tuple(tuple(v - row[i] * c for v, c in zip(row, a)) if row[i] else row
                 for row in m)


def _s_times(cartan, i: int, m: IntMatrix) -> IntMatrix:
    """s_i * m, i 0-based: row i loses sum_j a_ij times row j."""
    new = m[i]
    for a, row in zip(cartan[i], m):
        if a:
            new = tuple(v - a * x for v, x in zip(new, row))
    return m[:i] + (new,) + m[i + 1:]


def _descent_word(rs: RootSystem, matrix: IntMatrix) -> Tuple[int, ...]:
    """Canonical reduced word, peeling right descents smallest index first."""
    ident = _identity(rs.rank)
    suffix, m = [], matrix
    while m != ident:
        i = next((i for i in range(rs.rank) if all(row[i] <= 0 for row in m)), None)
        if i is None or len(suffix) == len(rs.positive_roots):
            raise ValueError("matrix is not a Weyl group element")
        suffix.append(i + 1)
        m = _times_s(m, rs.cartan_matrix, i)
    return tuple(reversed(suffix))


def weyl_element(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Element from any word in the generators; the stored word is canonical."""
    m = _identity(rs.rank)
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError("simple reflection index %r out of range 1..%d"
                             % (i, rs.rank))
        m = _times_s(m, rs.cartan_matrix, i - 1)
    return WeylElement(m, _descent_word(rs, m))


def multiply(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    return weyl_element(rs, a.word + b.word)


def invert(rs: RootSystem, a: WeylElement) -> WeylElement:
    return weyl_element(rs, reversed(a.word))


def build_weyl_group(rs: RootSystem, cap: int = WEYL_ORDER_CAP) -> Tuple[WeylElement, ...]:
    """The whole Weyl group by breadth-first closure, sorted by (length, word).
    With the generators as the outer loop, each element is first reached
    through its smallest right descent, so its word is the canonical one.

    An element w is keyed by y, the coroot pairings of w^{-1}(rho): rho's
    orbit is free, so keys are distinct, and w * s_i has key y_j - a_ji y_i,
    longer than w exactly when y_i > 0. The matrix is formed once per
    element."""
    cartan = rs.cartan_matrix
    rho = (1,) * rs.rank
    seen: Dict[Tuple[int, ...], Tuple[IntMatrix, Tuple[int, ...]]] = {
        rho: (_identity(rs.rank), ())}
    frontier = [rho]
    while frontier:
        new = []
        for i in range(rs.rank):
            column = [row[i] for row in cartan]
            for y in frontier:
                if y[i] < 0:
                    continue  # w * s_i is shorter, so already seen
                key = tuple(v - a * y[i] for v, a in zip(y, column))
                if key not in seen:
                    m, word = seen[y]
                    seen[key] = (_times_s(m, cartan, i), word + (i + 1,))
                    new.append(key)
                    if len(seen) > cap:
                        raise ResourceLimitError(
                            "Weyl group exceeds the cap of %d elements" % cap)
        frontier = new
    elements = [WeylElement(m, word) for m, word in seen.values()]
    return tuple(sorted(elements, key=lambda w: (w.length, w.word)))


def _normalize_indices(group_rank: int, indices) -> Tuple[int, ...]:
    idx = (indices if isinstance(indices, ParabolicType)
           else ParabolicType.of(indices)).indices
    for i in idx:
        if not 1 <= i <= group_rank:
            raise ValueError("parabolic index %d out of range 1..%d" % (i, group_rank))
    return idx


def double_cosets(group: Tuple[WeylElement, ...], I, J) -> DoubleCosetDecomposition:
    """Decompose W into W_I w W_J orbits under (u, v) . w = u w v^{-1}.

    The representative of each orbit is its minimal element by (length, word),
    the one element of the orbit with no left descent in I and no right
    descent in J (Carter, Finite Groups of Lie Type, 2.7). Walking W in
    (length, word) order, an element with such a descent takes the
    representative of the shorter element, which is already mapped.
    """
    by_matrix = {w.matrix: w for w in group}
    gens = {w.word[0]: w.matrix for w in group if w.length == 1}
    rank = len(gens)
    cartan = tuple(tuple((1 if i == j else 0) - gens[i + 1][i][j]  # s_i[i][j]
                         for j in range(rank)) for i in range(rank))
    left = [i - 1 for i in _normalize_indices(rank, I)]
    right = [j - 1 for j in _normalize_indices(rank, J)]

    coset_map: Dict[WeylElement, WeylElement] = {}
    representatives = []
    for w in sorted(group, key=lambda x: (x.length, x.word)):
        m = w.matrix
        # w * s_j < w iff column j, the image of alpha_j, has no positive entry
        shorter = next((by_matrix[_times_s(m, cartan, j)] for j in right
                        if all(row[j] <= 0 for row in m)), None)
        if shorter is None:
            shorter = next((u for u in (by_matrix[_s_times(cartan, i, m)]
                                        for i in left) if u.length < w.length),
                           None)
        if shorter is None:
            representatives.append(w)
        coset_map[w] = w if shorter is None else coset_map[shorter]
    return DoubleCosetDecomposition(tuple(representatives), coset_map)


def iwahori_root_partition(rs: RootSystem, I, w: WeylElement):
    """Split the roots outside the I-span by the sign of w^{-1}(root).

    Returns (plus, minus): the roots alpha with w^{-1}(alpha) positive land in
    plus, the rest in minus. Roots supported entirely on I are excluded.
    Both tuples are sorted by coordinates.
    """
    idx = set(_normalize_indices(rs.rank, I))
    w_inv = invert(rs, w)
    kept = [r for beta in rs.positive_roots for r in (beta, -beta)
            if not all(c == 0 or (k + 1) in idx for k, c in enumerate(r.coords))]
    plus, minus = [], []
    for r in kept:
        (plus if w_inv.apply(r).sign > 0 else minus).append(r)
    return tuple(sorted(plus)), tuple(sorted(minus))  # Root orders by coords
