"""Weyl group combinatorics: double cosets and Iwahori root partitions.

Elements act on simple-root coordinates by integer matrices; the reduced
word stored on each element is the canonical one (smallest right descent
last), so equality of elements is equality of matrices. Products are taken
one simple reflection at a time, as local updates (CONVENTIONS.md).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Sequence, Tuple

from .errors import ResourceLimitError
from .record import Value
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


class DoubleCosetDecomposition(Value):
    """W_I \\ W / W_J: |W|, the minimal element of each double coset in
    (length, word) order, and the size of each coset."""

    def __init__(self, group_order: int, representatives: Tuple[WeylElement, ...],
                 sizes: Tuple[int, ...]):
        self.__dict__.update(group_order=group_order,
                             representatives=representatives, sizes=sizes)

    def coset_sizes(self) -> Tuple[int, ...]:
        return self.sizes


def _identity(rank: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def _times_s(m: IntMatrix, cartan, i: int) -> IntMatrix:
    """m * s_i, i 0-based: column j loses a_ij times column i."""
    a = cartan[i]
    return tuple(tuple(v - row[i] * c for v, c in zip(row, a)) if row[i] else row
                 for row in m)


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


def _orbit(rs: RootSystem, start: Tuple[int, ...], gens: Sequence[int], cap: int,
           per: int = 1) -> Dict[tuple, Tuple[IntMatrix, Tuple[int, ...]]]:
    """The orbit of a dominant weight mu under the simple reflections gens
    (0-based, ascending), by a lowering breadth-first search on coroot
    pairings: start is mu's, s_i is taken only where the i-th pairing y_i is
    positive, and s_i maps y_j -> y_j - a_ji y_i.

    Maps each point nu = u(mu), u minimal in u W_mu, to the matrix and word
    of d = u^{-1}, in order of length: a new point stores its parent's matrix
    times s_i and its parent's word plus i. The right descents of d are the
    i with nu_i < 0, and with the generators as the outer loop nu is first
    reached through the smallest of them, so the word is d's canonical one.
    More than cap // per points is refused, as a Weyl group of more than cap
    elements."""
    cartan = rs.cartan_matrix
    seen = {start: (_identity(rs.rank), ())}
    frontier = [start]
    while frontier:
        new = []
        for i in gens:
            column = [row[i] for row in cartan]
            for y in frontier:
                if y[i] <= 0:
                    continue  # s_i fixes nu or was the step that reached it
                key = tuple(v - a * y[i] for v, a in zip(y, column))
                if key not in seen:
                    m, word = seen[y]
                    seen[key] = (_times_s(m, cartan, i), word + (i + 1,))
                    new.append(key)
                    if len(seen) * per > cap:
                        raise ResourceLimitError(
                            "Weyl group exceeds the cap of %d elements" % cap)
        frontier = new
    return seen


def build_weyl_group(rs: RootSystem, cap: int = WEYL_ORDER_CAP) -> Tuple[WeylElement, ...]:
    """The whole Weyl group sorted by (length, word): the orbit of rho, which
    is free, so it has one point per element."""
    orbit = _orbit(rs, (1,) * rs.rank, range(rs.rank), cap)
    elements = [WeylElement(m, word) for m, word in orbit.values()]
    return tuple(sorted(elements, key=lambda w: (w.length, w.word)))


def _normalize_indices(group_rank: int, indices) -> Tuple[int, ...]:
    idx = (indices if isinstance(indices, ParabolicType)
           else ParabolicType.of(indices)).indices
    for i in idx:
        if not 1 <= i <= group_rank:
            raise ValueError("parabolic index %d out of range 1..%d" % (i, group_rank))
    return idx


def double_cosets(rs: RootSystem, I, J,
                  cap: int = WEYL_ORDER_CAP) -> DoubleCosetDecomposition:
    """W_I \\ W / W_J from the orbit of lambda_I, the weight with pairings 0
    on I and 1 elsewhere, whose stabilizer is W_I (Humphreys, Reflection
    Groups and Coxeter Groups, 1.12); W itself is not listed.

    A point nu = u(lambda_I) stands for the coset W_I d, d = u^{-1}, and
    W_I d v for v^{-1}(nu), so a double coset is a W_J-orbit of points. Its
    minimal element, the one with no left descent in I and no right descent
    in J (Carter, Finite Groups of Lie Type, 2.7), is the point with
    nu_j >= 0 for every j in J. Each point is raised by s_j (nu_j < 0) to
    that point, and a coset's size is |W_I| times the points that reach it.
    |W_I| is the size of rho's orbit under I, |W| = |W_I| |orbit|, and a |W|
    over cap is refused."""
    left = [i - 1 for i in _normalize_indices(rs.rank, I)]
    right = [j - 1 for j in _normalize_indices(rs.rank, J)]
    order_i = len(_orbit(rs, (1,) * rs.rank, left, cap))
    lam = tuple(0 if i in left else 1 for i in range(rs.rank))
    points = _orbit(rs, lam, range(rs.rank), cap, order_i)
    cartan = rs.cartan_matrix
    top: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for y in points:  # s_j nu is shorter, so already placed
        j = next((j for j in right if y[j] < 0), None)
        top[y] = y if j is None else top[
            tuple(v - row[j] * y[j] for v, row in zip(y, cartan))]
    counts = Counter(top.values())
    reps = sorted(counts, key=lambda y: (len(points[y][1]), points[y][1]))
    return DoubleCosetDecomposition(
        order_i * len(points), tuple(WeylElement(*points[y]) for y in reps),
        tuple(order_i * counts[y] for y in reps))


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
