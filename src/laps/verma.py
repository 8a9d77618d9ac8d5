"""Highest weight modules and the simplicity criterion for their induced
characters.

The module M(lam) is spanned by ordered monomials in the negative root
vectors applied to a highest weight vector. Generators act by commuting
through the monomial with the structure constants that laps.lie derives
from the Chevalley-Serre relations, so the singular-vector search is an
independent check on the criterion.

The oracle scans only the weights linked to lam, the points w.lam of its
dot-orbit under W: a singular vector generates a highest weight submodule,
which has lam's central character, so its weight is w.lam for some w
(Harish-Chandra; Humphreys, BGG Category O, 2008, 1.9-1.10). Every other
weight has no singular vector, and the theorem does not use the criterion.

Criterion variants: "delta-only" tests witnesses over the simple roots
only, "all-positive" over every positive root. The two genuinely differ
(sl3 at pairings (-1/2, -1/2) is the documented disagreement point).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Tuple

from . import linalg
from .errors import ResourceLimitError
from .lie import realize
from .record import Record, Value
from .roots import (Coords, Entry, Generic, Root, RootSystem, Weight,
                    build_root_system, weight_of_root)

DELTA_ONLY = "delta-only"
ALL_POSITIVE = "all-positive"
VARIANTS = (DELTA_ONLY, ALL_POSITIVE)

ORACLE_CAP = 12
# kostant_counts' budget: B4 at height_bound 40 (2,172,016) passes.
COUNTS_CAP = 2_500_000
# Its row limit: under COUNTS_CAP alone, low ranks get far longer tables.
# B4 and C4 at height_bound 41 (C(45, 4) = 148,995 rows) pass.
COUNTS_ROWS_CAP = 150_000
_ORACLE_DEFAULT_SCAN = 6


def _entry(x) -> Entry:
    return x if isinstance(x, Generic) else Fraction(x)


class CriterionReport(Value):
    """Outcome of one criterion run: witnesses (beta, n) with n a positive
    integer pairing of lam + delta against the coroot of beta."""

    def __init__(self, variant: str, witnesses: Tuple[Tuple[Root, int], ...]):
        self.__dict__.update(variant=variant, witnesses=witnesses)

    @property
    def simple(self) -> bool:
        return not self.witnesses

    @property
    def verdict(self) -> str:
        return "simple" if self.simple else "not simple"


def bgg_criterion(rs: RootSystem, lam: Weight, variant: str = ALL_POSITIVE) -> CriterionReport:
    """Simplicity test for the highest weight module at lam.

    A witness is a candidate root beta with (lam + delta)(H_beta) a strictly
    positive integer; the module is simple exactly when the all-positive
    variant finds none.

    The pairings are summed in integers. With L the lcm of the denominators
    of the rational entries of lam + delta, each such entry x becomes x * L,
    and beta pairs to s / L, s the integer sum over the nonzero coordinates
    of its coroot: a witness iff s > 0 and L divides s, with n = s // L. A
    generic entry met by a nonzero coordinate makes the pairing generic, so
    beta is no witness; a zero coordinate drops it (GENERIC * 0 is 0).
    """
    if variant not in VARIANTS:
        raise ValueError("unknown criterion variant %r" % (variant,))
    if len(lam.pairings) != rs.rank:
        raise ValueError("weight arity %d does not match rank %d"
                         % (len(lam.pairings), rs.rank))
    shifted = (lam + rs.delta).pairings
    scale = math.lcm(*(x.denominator for x in shifted if not isinstance(x, Generic)))
    scaled = [None if isinstance(x, Generic) else x.numerator * (scale // x.denominator)
              for x in shifted]
    candidates = rs.simple_roots if variant == DELTA_ONLY else rs.positive_roots
    witnesses = []
    for beta in candidates:
        s = 0
        for x, c in zip(scaled, rs.coroots[beta.coords]):
            if c:
                if x is None:
                    break
                s += x * c
        else:
            if s > 0 and s % scale == 0:
                witnesses.append((beta, s // scale))
    return CriterionReport(variant, tuple(witnesses))


def character_weight(rs: RootSystem, exponents) -> Weight:
    """Highest weight attached to torus exponents (c_1, ..., c_{rank+1}).

    Type A diagonal-torus convention with the duality sign included:
    lam(H_{alpha_i}) = -(c_i - c_{i+1}). Other types have no exponent
    convention here and are rejected.
    """
    if rs.type_label != "A":
        raise ValueError("character exponents are defined for type A only")
    exps = tuple(_entry(x) for x in exponents)
    if len(exps) != rs.rank + 1:
        raise ValueError("expected %d exponents for A%d, got %d"
                         % (rs.rank + 1, rs.rank, len(exps)))
    return Weight(tuple(-(exps[i] - exps[i + 1]) for i in range(rs.rank)))


def gl2_character_criterion(c1, c2, variant: str = ALL_POSITIVE) -> CriterionReport:
    """Criterion for a GL2 character with exponents (c1, c2).

    Routed through the root-system criterion at lam(H) = -(c1 - c2); the
    module is simple exactly when -(c1 - c2) is not a nonnegative integer.
    """
    rs = build_root_system("A", 1)
    return bgg_criterion(rs, character_weight(rs, (c1, c2)), variant)


class CharacterSpec(Value):
    """A character of the restricted-scalars torus: one exponent tuple per
    embedding label."""

    def __init__(self, embeddings: Tuple[str, ...],
                 exponents: Tuple[Tuple[Entry, ...], ...]):
        if not embeddings:
            raise ValueError("need at least one embedding")
        if len(set(embeddings)) != len(embeddings):
            raise ValueError("embedding labels must be distinct")
        if len(exponents) != len(embeddings):
            raise ValueError("one exponent tuple per embedding required")
        arities = {len(t) for t in exponents}
        if len(arities) > 1:
            raise ValueError("exponent tuples have mixed arities %s" % sorted(arities))
        self.__dict__.update(embeddings=embeddings, exponents=exponents)


def character_spec(labels, exponents) -> CharacterSpec:
    """Validated CharacterSpec with entries normalized to Fractions or tags."""
    return CharacterSpec(tuple(labels),
                         tuple(tuple(_entry(x) for x in t) for t in exponents))


class RestrictionReport(Value):
    """Per-embedding criterion outcomes and the combined verdict."""

    def __init__(self, per_embedding: Tuple[Tuple[str, CriterionReport], ...],
                 irreducible: bool):
        self.__dict__.update(per_embedding=per_embedding,
                             irreducible=irreducible)


def restriction_of_scalars_check(rs: RootSystem, spec: CharacterSpec,
                                 variant: str = ALL_POSITIVE) -> RestrictionReport:
    """Run the criterion for every embedding; irreducible iff all are simple."""
    per = []
    for label, exps in zip(spec.embeddings, spec.exponents):
        lam = character_weight(rs, exps)
        per.append((label, bgg_criterion(rs, lam, variant)))
    return RestrictionReport(tuple(per), all(rep.simple for _, rep in per))


class PBWVector:
    """Sparse vector in the monomial basis: exponent tuple -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Coords, Fraction]):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, PBWVector) and self.terms == other.terms

    def __repr__(self):
        return "PBWVector(%r)" % (self.terms,)

    def scaled(self, c) -> "PBWVector":
        c = Fraction(c)
        return PBWVector({m: c * v for m, v in self.terms.items()})

    def __add__(self, other: "PBWVector") -> "PBWVector":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return PBWVector(out)


class VermaModule:
    """M(lam) with the fixed monomial order; its structure constants come
    from realize(rs).

    lam must be purely rational; generic tags belong to the criterion layer.
    """

    def __init__(self, rs: RootSystem, lam: Weight):
        if len(lam.pairings) != rs.rank:
            raise ValueError("weight arity %d does not match rank %d"
                             % (len(lam.pairings), rs.rank))
        if not lam.is_rational():
            raise ValueError("module weights must be rational; "
                             "generic tags are criterion-only")
        self.lam = lam
        self.pbw_order: Tuple[Root, ...] = rs.positive_roots
        self._rs = rs
        self._index = {beta: k for k, beta in enumerate(self.pbw_order)}
        self._root_pairings = [weight_of_root(rs, beta).pairings
                               for beta in self.pbw_order]
        self._ff, self._ef = realize(rs)
        self._memo: Dict[tuple, Dict[Coords, Fraction]] = {}

    def highest_weight_vector(self) -> PBWVector:
        return PBWVector({(0,) * len(self.pbw_order): Fraction(1)})

    def monomial_weight(self, mono: Coords) -> Weight:
        acc = list(self.lam.pairings)
        for k, mult in enumerate(mono):
            if mult:
                for i, p in enumerate(self._root_pairings[k]):
                    acc[i] -= mult * p
        return Weight(tuple(acc))

    def _act_key(self, key: tuple, mono: Coords) -> Dict[Coords, Fraction]:
        cached = self._memo.get((key, mono))
        if cached is not None:
            return cached
        kind = key[0]
        if kind == "h":
            out = {mono: self.monomial_weight(mono).pairings[key[1]]}
            self._memo[(key, mono)] = out
            return out
        j0 = next((k for k, mult in enumerate(mono) if mult), None)
        if kind == "f":
            k = key[1]
            if j0 is None or k <= j0:
                out = {mono[:k] + (mono[k] + 1,) + mono[k + 1:]: Fraction(1)}
                self._memo[(key, mono)] = out
                return out
            rest = mono[:j0] + (mono[j0] - 1,) + mono[j0 + 1:]
            out = self._mul_key(("f", j0), self._act_key(key, rest))
            hit = self._ff.get((k, j0))
            if hit is not None:
                idx, c = hit
                _merge(out, self._act_key(("f", idx), rest), c)
        elif kind == "e":
            if j0 is None:
                out = {}
            else:
                rest = mono[:j0] + (mono[j0] - 1,) + mono[j0 + 1:]
                out = self._mul_key(("f", j0), self._act_key(key, rest))
                hit = self._ef.get((key[1], j0))
                if hit is not None:
                    if hit[0] == "h":
                        _merge(out, self._act_key(("h", hit[1]), rest), Fraction(1))
                    else:
                        _merge(out, self._act_key(("f", hit[1]), rest), hit[2])
        else:
            raise ValueError("unknown action key %r" % (key,))
        out = {m: c for m, c in out.items() if c != 0}
        self._memo[(key, mono)] = out
        return out

    def _mul_key(self, key: tuple, vec: Dict[Coords, Fraction]) -> Dict[Coords, Fraction]:
        out: Dict[Coords, Fraction] = {}
        for mono, c in vec.items():
            _merge(out, self._act_key(key, mono), c)
        return {m: v for m, v in out.items() if v != 0}


def _merge(acc: Dict[Coords, Fraction], inc: Dict[Coords, Fraction], scale: Fraction):
    for m, c in inc.items():
        acc[m] = acc.get(m, Fraction(0)) + scale * c


_GEN_RE = re.compile(r"([efh])([1-9]\d*)")


def act_generator(module: VermaModule, gen: str, vec: PBWVector) -> PBWVector:
    """Apply a Chevalley generator ("e1", "f2", "h1", ...) to a homogeneous vector."""
    m = _GEN_RE.fullmatch(gen)
    if m is None:
        raise ValueError("generator must look like e1/f2/h3, got %r" % (gen,))
    kind, i = m.group(1), int(m.group(2))
    rank = module._rs.rank
    if i > rank:
        raise ValueError("generator index %d out of range 1..%d" % (i, rank))
    weights = {module.monomial_weight(mono).pairings for mono in vec.terms}
    if len(weights) > 1:
        raise ValueError("vector is not weight homogeneous")
    if kind == "f":
        key = ("f", module._index[module._rs.simple_root(i)])
    else:
        key = (kind, i - 1)
    return PBWVector(module._mul_key(key, vec.terms))


def kostant_partitions(rs: RootSystem, nu: Coords) -> Tuple[Coords, ...]:
    """Kostant partitions of nu (simple-root coordinates): the exponent
    tuples over rs.positive_roots, the PBW order, with sum n_beta * beta =
    nu, in ascending lexicographic order. They are the monomials spanning
    the weight space lam - nu of every M(lam)."""
    def partitions(roots, rem):
        if not roots:
            return [] if any(rem) else [()]
        beta = roots[0].coords
        cap = min((r // c for r, c in zip(rem, beta) if c > 0), default=0)
        return [(mult,) + rest for mult in range(cap + 1)
                for rest in partitions(roots[1:], tuple(
                    r - mult * c for r, c in zip(rem, beta)))]

    return tuple(partitions(rs.positive_roots, tuple(nu)))


def kostant_counts(rs: RootSystem, height_bound: int) -> Dict[Coords, int]:
    """p(nu), the Kostant partition count, for every nu in Q+ of height at
    most height_bound, in (height, coordinates) order: the coefficients of
    prod_{beta > 0} (1 - e^{-beta})^{-1}, by one in-place coin-change pass
    over the positive roots with nu going up in height. nu is keyed by its
    digits in base height_bound + 1, so the key of nu + beta is a sum.

    Before any work, the table's size in additions, C(height_bound + rank,
    rank) rows times the positive roots, is compared with COUNTS_CAP, and
    its rows with COUNTS_ROWS_CAP; a larger table is refused with
    ResourceLimitError."""
    rows = math.comb(height_bound + rs.rank, rs.rank)
    estimate = rows * len(rs.positive_roots)
    if estimate > COUNTS_CAP:
        try:
            message = ("Kostant count table of %d rows x %d positive roots = "
                       "%d exceeds the limit %d"
                       % (rows, len(rs.positive_roots), estimate, COUNTS_CAP))
        except ValueError:  # too many digits to print as an integer
            message = ("Kostant count table at height_bound %d and rank %d "
                       "exceeds the limit %d"
                       % (height_bound, rs.rank, COUNTS_CAP))
        raise ResourceLimitError(message)
    if rows > COUNTS_ROWS_CAP:
        raise ResourceLimitError(
            "Kostant count table of %d rows exceeds the row limit %d"
            % (rows, COUNTS_ROWS_CAP))
    base = height_bound + 1
    nus = [()]
    for _ in range(rs.rank):
        nus = [nu + (k,) for nu in nus for k in range(base - sum(nu))]
    nus.sort(key=sum)  # stable: lexicographic within a height
    key = lambda c: sum(x * base ** k for k, x in enumerate(c))
    keys = [(key(nu), sum(nu)) for nu in nus]
    counts = {k: int(k == 0) for k, _ in keys}
    for beta in rs.positive_roots:
        shift, top = key(beta.coords), height_bound - beta.height
        for k, h in keys:
            if h > top:
                break
            counts[k + shift] += counts[k]
    return {nu: counts[k] for nu, (k, _) in zip(nus, keys)}


def _depth(module: VermaModule, mu: Weight):
    """nu in Q+ (simple-root coordinates) with mu = lam - nu, or None."""
    if not mu.is_rational():
        raise ValueError("weight space lookup needs a rational weight")
    try:
        coords = linalg.solve_unique(module._rs.cartan_matrix,
                                     (module.lam - mu).pairings)
    except ValueError:
        return None
    if any(x.denominator != 1 or x < 0 for x in coords):
        return None
    return tuple(int(x) for x in coords)


def weight_space_basis(module: VermaModule, mu: Weight) -> Tuple[Coords, ...]:
    """All monomial exponents of weight mu, in ascending lexicographic order."""
    nu = _depth(module, mu)
    return () if nu is None else kostant_partitions(module._rs, nu)


def singular_vectors(module: VermaModule, nu: Coords) -> Tuple[PBWVector, ...]:
    """Basis of the space of vectors of weight lam - nu killed by every e_i,
    with nu in Q+ given in simple-root coordinates. The e_i images give the
    equations as sparse rows, one per (i, target monomial) they reach; a
    target that no image reaches would only give a zero row."""
    rs = module._rs
    nu = tuple(nu)
    if len(nu) != rs.rank:
        raise ValueError("nu arity %d does not match rank %d" % (len(nu), rs.rank))
    basis = kostant_partitions(rs, nu)
    rows: Dict[tuple, Dict[int, Fraction]] = {}
    for i in range(rs.rank):
        if nu[i] == 0:  # lam - nu + alpha_i is not a weight of M(lam)
            continue
        for col, mono in enumerate(basis):
            for target, c in module._act_key(("e", i), mono).items():
                rows.setdefault((i, target), {})[col] = c
    kernel = linalg.kernel_basis(list(rows.values()), len(basis))
    out = []
    for vec in kernel:
        out.append(PBWVector({mono: c for mono, c in zip(basis, vec)}))
    return tuple(out)


class OracleReport(Record):
    """Outcome of the singular-vector scan up to the degree bound."""

    def __init__(self, bound: int,
                 witnesses: Tuple[Tuple[Coords, Tuple[PBWVector, ...]], ...]):
        self.__dict__.update(bound=bound, witnesses=witnesses)

    @property
    def reducible(self) -> bool:
        return bool(self.witnesses)


def _dot_orbit_depths(rs: RootSystem, lam: Weight):
    """The integral nu = lam - w.lam, w in W, in simple-root coordinates as
    int tuples, by breadth-first search over s_i.mu = mu - (mu(H_i) + 1)
    alpha_i. lam is rational, and the search runs in integers on L * nu,
    with L the lcm of lam's denominators: the step on coordinate i adds
    L * lam_i + L - sum_j a_ij (L * nu)_j. The points that L divides are
    returned, divided by L."""
    cartan, rank = rs.cartan_matrix, rs.rank
    scale = math.lcm(*(x.denominator for x in lam.pairings))
    shift = [x.numerator * (scale // x.denominator) + scale for x in lam.pairings]
    start = (0,) * rank
    seen = {start}
    frontier = [start]
    while frontier:
        reached = []
        for nu in frontier:
            for i in range(rank):
                rise = shift[i] - sum(a * x for a, x in zip(cartan[i], nu))
                step = nu[:i] + (nu[i] + rise,) + nu[i + 1:]
                if step not in seen:
                    seen.add(step)
                    reached.append(step)
        frontier = reached
    return {tuple(x // scale for x in nu) for nu in seen
            if not any(x % scale for x in nu)}


def _within_bound(rs: RootSystem, bound: int):
    """Predicate on nu in Q+: is nu a sum of at most `bound` positive roots?

    Depth-first over the root that covers nu's first nonzero coordinate
    (some root in every such sum does), with the sums already known to be
    out of reach memoised. Every positive root lies below the highest root
    theta coordinatewise, so nu_i > k * theta_i rules out k roots at once.
    """
    theta = rs.positive_roots[-1].coords
    covering = [[beta.coords for beta in reversed(rs.positive_roots)
                 if beta.coords[i]] for i in range(rs.rank)]
    too_few: Dict[Coords, int] = {}

    def fits(nu, k):
        if not any(nu):
            return True
        if too_few.get(nu, -1) >= k or any(x > k * t for x, t in zip(nu, theta)):
            return False
        first = next(i for i, x in enumerate(nu) if x)
        for beta in covering[first]:
            rest = tuple(x - c for x, c in zip(nu, beta))
            if min(rest) >= 0 and fits(rest, k - 1):
                return True
        too_few[nu] = k
        return False

    return lambda nu: fits(nu, bound)


def simplicity_oracle(module: VermaModule, degree_bound: int = None) -> OracleReport:
    """Scan the weights lam - nu, nu = sum n_beta beta with sum n_beta <=
    bound, for singular vectors.

    Without an explicit bound, the criterion's witnesses fix it as
    max n * height(beta) (enough to reach every predicted singular weight);
    a weight the criterion calls simple gets a small confirmation scan. A
    bound above ORACLE_CAP is refused with ResourceLimitError.

    Only the nu linked to lam (lam - nu in its dot-orbit) are scanned: by
    Harish-Chandra's theorem no other weight holds a singular vector (see
    the module docstring). Witnesses come in (sum(nu), nu) order.
    """
    rs = module._rs
    if degree_bound is None:
        crit = bgg_criterion(rs, module.lam, ALL_POSITIVE)
        if crit.witnesses:
            degree_bound = max(n * beta.height for beta, n in crit.witnesses)
        else:
            degree_bound = _ORACLE_DEFAULT_SCAN
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if degree_bound > ORACLE_CAP:
        raise ResourceLimitError("oracle bound %d exceeds the safety cap %d"
                                 % (degree_bound, ORACLE_CAP))
    within = _within_bound(rs, degree_bound)
    linked = [nu for nu in _dot_orbit_depths(rs, module.lam)
              if min(nu) >= 0 and any(nu) and within(nu)]

    witnesses = []
    for nu in sorted(linked, key=lambda c: (sum(c), c)):
        vecs = singular_vectors(module, nu)
        if vecs:
            witnesses.append((nu, vecs))
    return OracleReport(degree_bound, tuple(witnesses))


def verma_module(type_label: str, rank: int, lam_values) -> VermaModule:
    """Convenience constructor: build the root system and induce from the weight."""
    rs = build_root_system(type_label, rank)
    lam = Weight(tuple(_entry(x) for x in lam_values))
    return VermaModule(rs, lam)
