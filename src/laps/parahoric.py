"""Weyl group combinatorics: double cosets and Iwahori root partitions.

An element is its canonical word over a Cartan matrix, the reduced word
that ends in its smallest right descent (CONVENTIONS.md), so equality of
elements is equality of words. Its integer matrix on simple-root
coordinates is formed on first use, one simple reflection at a time.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Dict, Iterable, Tuple

from .errors import ResourceLimitError
from .record import Value
from .roots import Root, RootSystem, _reflect as _reflect_root

IntMatrix = Tuple[Tuple[int, ...], ...]

WEYL_ORDER_CAP = 1000


class WeylElement(Value):
    """The element of canonical word `word` in the Weyl group of `cartan`."""

    def __init__(self, word: Tuple[int, ...], cartan: IntMatrix):
        self.__dict__.update(word=word, cartan=cartan)

    @property
    def length(self) -> int:
        return len(self.word)

    @functools.cached_property
    def matrix(self) -> IntMatrix:
        """The action on simple-root coordinates, formed on first use:
        column j is w(alpha_j), the word's reflections taken right to left."""
        rank = len(self.cartan)
        columns = [tuple(int(k == j) for k in range(rank)) for j in range(rank)]
        for i in reversed(self.word):
            columns = [_reflect_root(self.cartan, i - 1, c) for c in columns]
        return tuple(zip(*columns))

    def apply(self, root: Root) -> Root:
        """Image of a root under this element."""
        c = root.coords
        if len(c) != len(self.cartan):
            raise ValueError("root arity %d does not match rank %d"
                             % (len(c), len(self.cartan)))
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


def _reflect(y: Tuple[int, ...], cartan, i: int) -> Tuple[int, ...]:
    """s_i on coroot pairings, i 0-based: y_j -> y_j - a_ji y_i."""
    return tuple(v - row[i] * y[i] for v, row in zip(y, cartan))


def weyl_element(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Element d from any word in the generators, with its canonical word:
    the pairings y of d^{-1}(rho), tracked along the word, lose the smallest
    right descent (the smallest i with y_i < 0) until y is rho's again."""
    cartan, y = rs.cartan_matrix, (1,) * rs.rank
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError("simple reflection index %r out of range 1..%d"
                             % (i, rs.rank))
        y = _reflect(y, cartan, i - 1)
    canonical = ()
    while min(y) < 0:
        i = next(i for i, v in enumerate(y) if v < 0)
        canonical, y = (i + 1,) + canonical, _reflect(y, cartan, i)
    return WeylElement(canonical, cartan)


def multiply(rs: RootSystem, a: WeylElement, b: WeylElement) -> WeylElement:
    return weyl_element(rs, a.word + b.word)


def invert(rs: RootSystem, a: WeylElement) -> WeylElement:
    return weyl_element(rs, reversed(a.word))


def _group_order(rs: RootSystem) -> int:
    """|W| = prod (m_k + 1) over the exponents m_k, the partition dual to
    the numbers of positive roots of each height (Kostant 1959; Humphreys,
    Reflection Groups and Coxeter Groups, 3.9 and 3.20)."""
    counts = Counter(r.height for r in rs.positive_roots).values()
    return math.prod(1 + sum(n >= k for n in counts) for k in range(1, rs.rank + 1))


def _orbit(rs: RootSystem, start: Tuple[int, ...], cap: int) -> Dict[tuple, tuple]:
    """The orbit of a dominant weight mu, by a lowering breadth-first search
    on coroot pairings y from start, mu's, taking s_i only where y_i > 0;
    a Weyl group of more than cap elements is refused before it starts.
    Maps each point nu = u(mu), u minimal in u W_mu, to the word of
    d = u^{-1}, in order of length: its parent's word plus i. The right
    descents of d are the i with nu_i < 0, and with the generators as the
    outer loop nu is first reached through the smallest, so the word is
    d's canonical one."""
    if _group_order(rs) > cap:
        raise ResourceLimitError("Weyl group exceeds the cap of %d elements" % cap)
    seen, frontier = {start: ()}, [start]
    while frontier:
        new = []
        for i in range(rs.rank):
            for y in frontier:
                if y[i] <= 0:
                    continue  # s_i fixes nu or was the step that reached it
                key = _reflect(y, rs.cartan_matrix, i)
                if key not in seen:
                    seen[key] = seen[y] + (i + 1,)
                    new.append(key)
        frontier = new
    return seen


def build_weyl_group(rs: RootSystem, cap: int = WEYL_ORDER_CAP) -> Tuple[WeylElement, ...]:
    """The whole Weyl group sorted by (length, word): the orbit of rho, which
    is free, so it has one point per element."""
    words = _orbit(rs, (1,) * rs.rank, cap).values()
    return tuple(WeylElement(word, rs.cartan_matrix)
                 for word in sorted(words, key=lambda word: (len(word), word)))


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
    that point, and a coset's size is |W_I| times the points that reach it,
    |W_I| = |W| / |orbit|. A |W| over cap is refused."""
    left = [i - 1 for i in _normalize_indices(rs.rank, I)]
    right = [j - 1 for j in _normalize_indices(rs.rank, J)]
    lam = tuple(0 if i in left else 1 for i in range(rs.rank))
    points, order = _orbit(rs, lam, cap), _group_order(rs)
    order_i = order // len(points)
    top: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for y in points:  # s_j nu is shorter, so already placed
        j = next((j for j in right if y[j] < 0), None)
        top[y] = y if j is None else top[_reflect(y, rs.cartan_matrix, j)]
    counts = Counter(top.values())
    reps = sorted(counts, key=lambda y: (len(points[y]), points[y]))
    return DoubleCosetDecomposition(
        order, tuple(WeylElement(points[y], rs.cartan_matrix) for y in reps),
        tuple(order_i * counts[y] for y in reps))


def iwahori_root_partition(rs: RootSystem, I, w: WeylElement):
    """Split the roots outside the I-span by the sign of w^{-1}(root).

    Returns (plus, minus): the roots alpha with w^{-1}(alpha) positive, that
    is the roots in w(Phi+), land in plus, the rest in minus. Roots supported
    entirely on I are excluded. Both tuples are sorted by coordinates.
    """
    idx = set(_normalize_indices(rs.rank, I))
    image = {w.apply(beta) for beta in rs.positive_roots}
    kept = [r for beta in rs.positive_roots for r in (beta, -beta)
            if not all(c == 0 or (k + 1) in idx for k, c in enumerate(r.coords))]
    return (tuple(sorted(r for r in kept if r in image)),  # by coordinates
            tuple(sorted(r for r in kept if r not in image)))
