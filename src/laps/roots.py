"""Finite root systems in the simple-root basis.

Roots carry integer coordinates over the simple roots, weights carry their
pairings with the simple coroots. Node numbering and the Cartan matrix
convention a_ij = alpha_j(H_{alpha_i}) are fixed in CONVENTIONS.md.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple, Union

from .errors import ConfigError

Coords = Tuple[int, ...]

RANK_CAP = 4

_RANK_FLOOR = {"A": 1, "B": 2, "C": 2, "D": 3}
_RANK_EXACT = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


class Generic:
    """Symbolic exponent guaranteed non-integer, independent per occurrence.

    Sums and differences that touch a generic value stay generic, and
    multiplication by zero drops it exactly, so linear forms evaluate to a
    rational precisely when no generic coordinate contributes.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "generic"

    def _combine(self, other):
        if isinstance(other, (int, Fraction, Generic)):
            return GENERIC
        return NotImplemented

    __add__ = _combine
    __radd__ = _combine
    __sub__ = _combine
    __rsub__ = _combine

    def __neg__(self):
        return GENERIC

    def __mul__(self, other):
        if isinstance(other, Generic):
            return GENERIC
        if isinstance(other, (int, Fraction)):
            return Fraction(0) if other == 0 else GENERIC
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, Generic)

    def __hash__(self):
        return hash("generic")


GENERIC = Generic()

Entry = Union[Fraction, Generic]


@dataclass(frozen=True, order=True)
class Root:
    """A root written in the simple-root basis."""

    coords: Coords

    @property
    def sign(self) -> int:
        """+1 for a positive root, -1 for a negative one."""
        return 1 if all(c >= 0 for c in self.coords) else -1

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        if self.sign < 0:
            return "-(%s)" % (-self)
        parts = []
        for i, c in enumerate(self.coords, start=1):
            if c == 0:
                continue
            parts.append("a%d" % i if c == 1 else "%da%d" % (c, i))
        return "+".join(parts) if parts else "0"


@dataclass(frozen=True)
class Weight:
    """A weight given by its pairings with the simple coroots."""

    pairings: Tuple[Entry, ...]

    def _check_arity(self, other: "Weight") -> None:
        if len(self.pairings) != len(other.pairings):
            raise ValueError("weight arity mismatch: %d vs %d"
                             % (len(self.pairings), len(other.pairings)))

    def __add__(self, other: "Weight") -> "Weight":
        self._check_arity(other)
        return Weight(tuple(a + b for a, b in zip(self.pairings, other.pairings)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_arity(other)
        return Weight(tuple(a - b for a, b in zip(self.pairings, other.pairings)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.pairings))

    def is_rational(self) -> bool:
        return not any(isinstance(a, Generic) for a in self.pairings)


def weight(*values) -> Weight:
    """Build a Weight from rationals (ints, Fractions, 'a/b' strings) or generic tags."""
    return Weight(tuple(GENERIC if isinstance(v, Generic) or v == "generic"
                        else Fraction(v) for v in values))


@dataclass(frozen=True)
class RootSystem:
    """Cartan data of one irreducible type plus its positive roots."""

    type_label: str
    rank: int
    cartan_matrix: Tuple[Tuple[int, ...], ...]
    symmetrizer: Tuple[int, ...]
    positive_roots: Tuple[Root, ...]
    # Coordinates of every root, positive and negative, for is_root.
    root_coords: frozenset = field(compare=False, hash=False, repr=False)

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError("simple root index %r out of range 1..%d" % (i, self.rank))
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    @property
    def simple_roots(self) -> Tuple[Root, ...]:
        return tuple(self.simple_root(i) for i in range(1, self.rank + 1))

    def is_root(self, root: Root) -> bool:
        return root.coords in self.root_coords


def _validate_type(type_label: str, rank: int) -> None:
    if type_label in _RANK_FLOOR:
        if rank < _RANK_FLOOR[type_label]:
            raise ConfigError("%s%d is not a valid Dynkin type" % (type_label, rank))
    elif type_label in _RANK_EXACT:
        if rank not in _RANK_EXACT[type_label]:
            raise ConfigError("%s%d is not a valid Dynkin type" % (type_label, rank))
    else:
        raise ConfigError("unknown type label %r" % (type_label,))
    if rank > RANK_CAP:
        raise ConfigError("rank %d exceeds the supported cap %d" % (rank, RANK_CAP))


def _cartan_matrix(type_label: str, rank: int):
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if type_label in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if type_label == "B" and rank >= 2:
            # last node short: a_{n,n-1} = -2
            a[rank - 1][rank - 2] = -2
        if type_label == "C" and rank >= 2:
            # last node long: a_{n-1,n} = -2
            a[rank - 2][rank - 1] = -2
    elif type_label == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif type_label == "G":
        edge(0, 1, aij=-3, aji=-1)
    elif type_label == "F":
        edge(0, 1)
        edge(1, 2, aij=-1, aji=-2)
        edge(2, 3)
    else:  # pragma: no cover - E types are filtered out by the rank cap
        raise ConfigError("no Cartan matrix for type %s" % type_label)
    return tuple(tuple(row) for row in a)


def _symmetrizer(cartan: Tuple[Tuple[int, ...], ...]) -> Tuple[int, ...]:
    """Positive integers d_i with d_i a_ij symmetric, normalized to min 1."""
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[i][j], cartan[j][i])
                queue.append(j)
    if any(x is None for x in d):
        raise ConfigError("Dynkin diagram is not connected")
    scale = functools.reduce(lambda acc, x: acc * x.denominator, d, 1)
    ints = [int(x * scale) for x in d]
    g = functools.reduce(math.gcd, ints)
    ints = [x // g for x in ints]
    for i in range(rank):
        for j in range(rank):
            if ints[i] * cartan[i][j] != ints[j] * cartan[j][i]:
                raise ConfigError("Cartan matrix is not symmetrizable")
    return tuple(ints)


def reflect_simple(rs: RootSystem, i: int, root: Root) -> Root:
    """Apply the simple reflection s_i (1-based) to a root."""
    if not 1 <= i <= rs.rank:
        raise ValueError("simple reflection index %r out of range 1..%d" % (i, rs.rank))
    c = list(root.coords)
    pairing = sum(rs.cartan_matrix[i - 1][j] * c[j] for j in range(rs.rank))
    c[i - 1] -= pairing
    return Root(tuple(c))


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the root system for a Dynkin type within the rank cap.

    Positive roots are generated by closing the simple roots under the
    simple reflections and come back sorted by height, then lexicographically
    on coordinates.
    """
    _validate_type(type_label, rank)
    cartan = _cartan_matrix(type_label, rank)
    sym = _symmetrizer(cartan)
    rs = RootSystem(type_label, rank, cartan, sym, (), frozenset())

    roots = {r.coords for r in rs.simple_roots}
    frontier = set(roots)
    while frontier:
        new = set()
        for coords in frontier:
            for i in range(1, rank + 1):
                image = reflect_simple(rs, i, Root(coords)).coords
                if image not in roots:
                    new.add(image)
        roots |= new
        frontier = new
    positive = sorted((Root(c) for c in roots if Root(c).sign > 0),
                      key=lambda r: (r.height, r.coords))
    return RootSystem(type_label, rank, cartan, sym, tuple(positive),
                      frozenset(roots))


def weight_of_root(rs: RootSystem, root: Root) -> Weight:
    """The root viewed as a weight, i.e. its simple-coroot pairings."""
    c = root.coords
    if len(c) != rs.rank:
        raise ValueError("root arity %d does not match rank %d" % (len(c), rs.rank))
    return Weight(tuple(Fraction(sum(rs.cartan_matrix[i][j] * c[j]
                                     for j in range(rs.rank)))
                        for i in range(rs.rank)))


def half_sum_positive_roots(rs: RootSystem) -> Weight:
    """delta, computed honestly as half the sum over the positive roots."""
    total = [Fraction(0)] * rs.rank
    for r in rs.positive_roots:
        for i, p in enumerate(weight_of_root(rs, r).pairings):
            total[i] += p
    return Weight(tuple(p / 2 for p in total))


def root_norm_half(rs: RootSystem, root: Root) -> Fraction:
    """(beta, beta)/2 in the normalization where short simple roots have d = 1."""
    c = root.coords
    acc = Fraction(0)
    for i in range(rs.rank):
        for j in range(rs.rank):
            acc += c[i] * c[j] * rs.symmetrizer[i] * rs.cartan_matrix[i][j]
    return acc / 2


def pair_with_coroot(rs: RootSystem, lam: Weight, root: Root):
    """Evaluate a weight on the coroot H_beta of any root beta.

    Uses H_beta = sum_i c_i (d_i / d_beta) H_{alpha_i} for beta = sum_i c_i alpha_i.
    """
    if not rs.is_root(root):
        raise ValueError("%s is not a root of %s%d" % (root, rs.type_label, rs.rank))
    if len(lam.pairings) != rs.rank:
        raise ValueError("weight arity %d does not match rank %d"
                         % (len(lam.pairings), rs.rank))
    d_beta = root_norm_half(rs, root)
    acc = Fraction(0)
    for i, c in enumerate(root.coords):
        coeff = Fraction(c * rs.symmetrizer[i]) / d_beta
        acc = acc + lam.pairings[i] * coeff
    return acc
