"""Finite root systems in the simple-root basis.

Roots carry integer coordinates over the simple roots, coroots over the
simple coroots, and weights carry their pairings with the simple coroots.
Every coroot comes from the same reflection closure as its root, so pairing
a weight with it needs no division. Node numbering and the Cartan matrix
convention a_ij = alpha_j(H_{alpha_i}) are fixed in CONVENTIONS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple, Union

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
    positive_roots: Tuple[Root, ...]
    # Coordinates of every root, positive and negative, mapped to its
    # coroot in simple-coroot coordinates.
    coroots: Dict[Coords, Coords] = field(compare=False, hash=False, repr=False)

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError("simple root index %r out of range 1..%d" % (i, self.rank))
        return Root(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    @property
    def simple_roots(self) -> Tuple[Root, ...]:
        return tuple(self.simple_root(i) for i in range(1, self.rank + 1))

    def is_root(self, root: Root) -> bool:
        return root.coords in self.coroots


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


def _reflect(matrix, i: int, coords: Coords) -> Coords:
    """s_i (0-based) on coordinates: c_i -> c_i - sum_j m_ij c_j. The Cartan
    matrix acts on roots, its transpose on coroots."""
    c = list(coords)
    c[i] -= sum(m * x for m, x in zip(matrix[i], coords))
    return tuple(c)


def reflect_simple(rs: RootSystem, i: int, root: Root) -> Root:
    """Apply the simple reflection s_i (1-based) to a root."""
    if not 1 <= i <= rs.rank:
        raise ValueError("simple reflection index %r out of range 1..%d" % (i, rs.rank))
    return Root(_reflect(rs.cartan_matrix, i - 1, root.coords))


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the root system for a Dynkin type within the rank cap.

    The pairs (root, coroot) are closed under the simple reflections from
    (alpha_i, alpha_i^vee), since s_j(beta)^vee = s_j(beta^vee). Positive
    roots come back sorted by height, then lexicographically on coordinates.
    """
    _validate_type(type_label, rank)
    cartan = _cartan_matrix(type_label, rank)
    transpose = tuple(zip(*cartan))
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    coroots = dict(zip(simple, simple))
    stack = list(simple)
    while stack:
        root = stack.pop()
        for i in range(rank):
            image = _reflect(cartan, i, root)
            if image not in coroots:
                coroots[image] = _reflect(transpose, i, coroots[root])
                stack.append(image)
    positive = sorted((Root(c) for c in coroots if min(c) >= 0),
                      key=lambda r: (r.height, r.coords))
    return RootSystem(type_label, rank, cartan, tuple(positive), coroots)


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


def pair_with_coroot(rs: RootSystem, lam: Weight, root: Root):
    """Evaluate a weight on the coroot H_beta of any root beta: the sum of
    lam(H_{alpha_i}) c_i over the coroot coordinates c_i of beta."""
    coroot = rs.coroots.get(root.coords)
    if coroot is None:
        raise ValueError("%s is not a root of %s%d" % (root, rs.type_label, rs.rank))
    if len(lam.pairings) != rs.rank:
        raise ValueError("weight arity %d does not match rank %d"
                         % (len(lam.pairings), rs.rank))
    return sum((x * c for x, c in zip(lam.pairings, coroot)), Fraction(0))
