"""Structure constants of n- from the root system, and an independent
coroot oracle.

The tables of laps.lie.realize are checked against the Lie algebra axioms
they must satisfy on every type: antisymmetry, the Jacobi identity on
triples of root vectors, e_i acting as a derivation, and the Chevalley
relations [e_i, f_j] = delta_ij h_i.

The coroot oracle evaluates lam on H_beta through the Weyl group: it walks
beta down to a simple root alpha_i by simple reflections, so beta = w(alpha_i)
and lam(H_beta) = (w^{-1} lam)(H_i), with w^{-1} applied to lam as a product
of reflection matrices on the pairing vector. That route never reads the
coroots of the root system, so agreement with pair_with_coroot pins both
sides.
"""

import random
from fractions import Fraction

import pytest

from laps import (Root, Weight, build_root_system, half_sum_positive_roots,
                  pair_with_coroot, realize, weight_of_root)

TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
         ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
         ("G", 2), ("F", 4)]


class _Algebra:
    """Brackets on g = n+ + h + n- restricted to what the tables give:
    [f_a, f_b], [e_i, f_b] and [h_i, f_b]. Elements are dicts from basis
    keys ("f", k) / ("h", i) to coefficients."""

    def __init__(self, label, rank):
        self.rs = build_root_system(label, rank)
        self.ff, self.ef = realize(self.rs)
        self.n = len(self.rs.positive_roots)
        self.pairings = [weight_of_root(self.rs, beta).pairings
                         for beta in self.rs.positive_roots]

    def basis(self, x, y):
        """[x, y] for basis keys x, y, at least one of them an f."""
        if x[0] == "f" and y[0] == "f":
            hit = self.ff.get((x[1], y[1]))
            return {} if hit is None else {("f", hit[0]): hit[1]}
        if y[0] == "f":
            if x[0] == "h":  # [h_i, f_b] = -beta_b(h_i) f_b
                return {y: -self.pairings[y[1]][x[1]]}
            hit = self.ef.get((x[1], y[1]))
            if hit is None:
                return {}
            return {hit: 1} if hit[0] == "h" else {("f", hit[1]): hit[2]}
        return {k: -c for k, c in self.basis(y, x).items()}

    def bracket(self, u, v):
        out = {}
        for x, a in u.items():
            for y, b in v.items():
                for k, c in self.basis(x, y).items():
                    out[k] = out.get(k, 0) + a * b * c
        return {k: c for k, c in out.items() if c != 0}


def _add(*vecs):
    out = {}
    for vec in vecs:
        for k, c in vec.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def _f(k):
    return {("f", k): Fraction(1)}


# -- table shape -------------------------------------------------------------

@pytest.mark.parametrize("label,rank", TYPES)
def test_chevalley_relations(label, rank):
    """[e_i, f_j] = delta_ij h_i, and ef[(i, alpha_i)] is ("h", i)."""
    alg = _Algebra(label, rank)
    rs = alg.rs
    simple = [rs.positive_roots.index(rs.simple_root(j + 1)) for j in range(rank)]
    for i in range(rank):
        for j in range(rank):
            assert alg.ef.get((i, simple[j])) == (("h", i) if i == j else None)
    assert sorted(key for key, hit in alg.ef.items() if hit[0] == "h") == [
        (i, simple[i]) for i in range(rank)]


@pytest.mark.parametrize("label,rank", TYPES)
def test_root_vectors_are_ad_eigenvectors(label, rank):
    """Brackets respect the root grading: [f_a, f_b] is a nonzero multiple
    of f_{a+b} exactly when beta_a + beta_b is a root, and [e_i, f_b] of
    f_{b - alpha_i} exactly when beta_b - alpha_i is a positive root."""
    alg = _Algebra(label, rank)
    rs = alg.rs
    roots = rs.positive_roots
    for a, alpha in enumerate(roots):
        for b, beta in enumerate(roots):
            total = Root(tuple(x + y for x, y in zip(alpha.coords, beta.coords)))
            hit = alg.ff.get((a, b))
            if rs.is_root(total):
                assert hit[0] == roots.index(total) and hit[1] != 0
            else:
                assert hit is None
    for i in range(rank):
        for b, beta in enumerate(roots):
            lower = Root(tuple(x - (k == i) for k, x in enumerate(beta.coords)))
            hit = alg.ef.get((i, b))
            if lower in roots:
                assert hit[:2] == ("f", roots.index(lower)) and hit[2] != 0
            elif beta != rs.simple_root(i + 1):
                assert hit is None


@pytest.mark.parametrize("label,rank", TYPES)
def test_ff_is_antisymmetric(label, rank):
    alg = _Algebra(label, rank)
    for (a, b), (t, c) in alg.ff.items():
        assert alg.ff[(b, a)] == (t, -c)


def test_sl3_composite_root_vector():
    # PBW order (a2, a1, a1+a2); f_{a1+a2} = [f_1, f_2] is its defining split,
    # so [e_1, f_{a1+a2}] = [h_1, f_2] = -a_12 f_2 = f_2 and
    # [e_2, f_{a1+a2}] = [f_1, h_2] = a_21 f_1 = -f_1.
    ff, ef = realize(build_root_system("A", 2))
    assert ff == {(1, 0): (2, 1), (0, 1): (2, -1)}
    assert ef[(0, 2)] == ("f", 0, 1) and ef[(1, 2)] == ("f", 1, -1)


# -- Lie algebra axioms ------------------------------------------------------

def test_jacobi_identity_on_generators():
    """Jacobi on every triple of root vectors f_a, f_b, f_c, all 14 types."""
    for label, rank in TYPES:
        alg = _Algebra(label, rank)
        for a in range(alg.n):
            for b in range(alg.n):
                ab = alg.bracket(_f(a), _f(b))
                for c in range(alg.n):
                    total = _add(alg.bracket(_f(a), alg.bracket(_f(b), _f(c))),
                                 alg.bracket(_f(b), alg.bracket(_f(c), _f(a))),
                                 alg.bracket(_f(c), ab))
                    assert not total, (label, rank, a, b, c)


@pytest.mark.parametrize("label,rank", TYPES)
def test_e_acts_as_derivation(label, rank):
    """[e_i, [f_a, f_b]] = [[e_i, f_a], f_b] + [f_a, [e_i, f_b]]."""
    alg = _Algebra(label, rank)
    for i in range(rank):
        e = {("e", i): Fraction(1)}
        for a in range(alg.n):
            for b in range(alg.n):
                lhs = alg.bracket(e, alg.bracket(_f(a), _f(b)))
                rhs = _add(alg.bracket(alg.bracket(e, _f(a)), _f(b)),
                           alg.bracket(_f(a), alg.bracket(e, _f(b))))
                assert lhs == rhs, (label, rank, i, a, b)


# -- independent coroot oracle -----------------------------------------------

def _reflection_matrix(rs, j):
    """s_j on pairing vectors: (s_j lam)(H_m) = lam(H_m) - lam(H_j) a_mj."""
    return [[(m == n) - (n == j) * rs.cartan_matrix[m][j]
             for n in range(rs.rank)] for m in range(rs.rank)]


def _pair_by_weyl_group(rs, lam, beta):
    """lam(H_beta) as (w^{-1} lam)(H_i), where beta = w(alpha_i) and
    w = s_{j_1} ... s_{j_k} is found by walking beta down: each step applies
    a simple reflection s_j with beta(H_j) > 0, which lowers the height."""
    vec = list(lam.pairings)
    coords = list(beta.coords)
    while sum(coords) > 1:
        j = next(j for j in range(rs.rank)
                 if sum(a * c for a, c in zip(rs.cartan_matrix[j], coords)) > 0)
        coords[j] -= sum(a * c for a, c in zip(rs.cartan_matrix[j], coords))
        s = _reflection_matrix(rs, j)
        vec = [sum(x * v for x, v in zip(row, vec)) for row in s]
    return vec[coords.index(1)]


@pytest.mark.parametrize("label,rank", TYPES)
def test_coroot_pairings_match_matrix_oracle(label, rank):
    rs = build_root_system(label, rank)
    rng = random.Random(20260815)
    weights = [half_sum_positive_roots(rs)]
    for _ in range(4):
        weights.append(Weight(tuple(
            Fraction(rng.randint(-12, 12), rng.randint(1, 5))
            for _ in range(rank))))
    for beta in rs.positive_roots:
        for lam in weights:
            assert pair_with_coroot(rs, lam, beta) == _pair_by_weyl_group(rs, lam, beta)


def test_b2_highest_root_against_matrix_oracle():
    rs = build_root_system("B", 2)
    delta = half_sum_positive_roots(rs)
    highest = max(rs.positive_roots, key=lambda r: r.height)
    assert highest == Root((1, 2))
    value = pair_with_coroot(rs, delta, highest)
    assert value == _pair_by_weyl_group(rs, delta, highest)
    assert value == 2
