"""Root system layer: construction, reflection closure, coroot pairings.

The non-obvious expected values here were derived by hand from the
reflection closure and beta^vee = 2 beta / (beta, beta) before the
implementation existed; the B2 pairings in particular pin the length
convention (a1+a2 short, a1+2a2 long). The coroots are checked against that
formula with the hand-written symmetrizers below and against the root sets
of the dual types, neither of which reads a coroot.
"""

from fractions import Fraction

import pytest

from laps import (GENERIC, ConfigError, Root, Weight, build_root_system,
                  half_sum_positive_roots, pair_with_coroot, weight,
                  weight_of_root)
from laps.roots import reflect_simple


# -- construction ------------------------------------------------------------

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16,
    ("D", 3): 6, ("D", 4): 12,
    ("G", 2): 6, ("F", 4): 24,
}


@pytest.mark.parametrize("label,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_root_counts(label, rank):
    rs = build_root_system(label, rank)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[(label, rank)]


# d_i with d_i a_ij symmetric, so (alpha_i, alpha_i) is proportional to d_i.
SYMMETRIZERS = {
    ("A", 1): (1,), ("A", 2): (1, 1), ("A", 3): (1, 1, 1), ("A", 4): (1, 1, 1, 1),
    ("B", 2): (2, 1), ("B", 3): (2, 2, 1), ("B", 4): (2, 2, 2, 1),
    ("C", 2): (1, 2), ("C", 3): (1, 1, 2), ("C", 4): (1, 1, 1, 2),
    ("D", 3): (1, 1, 1), ("D", 4): (1, 1, 1, 1),
    ("G", 2): (1, 3), ("F", 4): (2, 2, 1, 1),
}

# The type whose roots are the coroots, and whether its nodes run backwards.
DUALS = {
    ("B", 2): ("C", 2, False), ("B", 3): ("C", 3, False),
    ("B", 4): ("C", 4, False), ("C", 2): ("B", 2, False),
    ("C", 3): ("B", 3, False), ("C", 4): ("B", 4, False),
    ("G", 2): ("G", 2, True), ("F", 4): ("F", 4, True),
}


@pytest.mark.parametrize("label,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_cartan_invariants(label, rank):
    rs = build_root_system(label, rank)
    a = rs.cartan_matrix
    d = SYMMETRIZERS[(label, rank)]
    for i in range(rank):
        assert a[i][i] == 2
        assert d[i] >= 1
        for j in range(rank):
            if i != j:
                assert a[i][j] <= 0
            assert d[i] * a[i][j] == d[j] * a[j][i]
    # positive definiteness via leading principal minors
    for k in range(1, rank + 1):
        sub = [[Fraction(d[i] * a[i][j]) for j in range(k)] for i in range(k)]
        assert _det(sub) > 0


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_a2_positive_roots_by_hand():
    rs = build_root_system("A", 2)
    coords = {r.coords for r in rs.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1)}


def test_b2_positive_roots_by_hand():
    rs = build_root_system("B", 2)
    coords = {r.coords for r in rs.positive_roots}
    assert coords == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_simple_roots_are_unit_vectors():
    rs = build_root_system("C", 3)
    for i, alpha in enumerate(rs.simple_roots):
        assert alpha.coords == tuple(1 if j == i else 0 for j in range(3))
        assert rs.is_root(alpha)


def test_b2_cartan_convention():
    rs = build_root_system("B", 2)
    assert rs.cartan_matrix == ((2, -1), (-2, 2))
    # (a1, a1) = 2 and (a2, a2) = 1, so beta^vee = 2 beta / (beta, beta)
    # gives (a1+a2)^vee = 2a1^vee + a2^vee and (a1+2a2)^vee = a1^vee + a2^vee.
    assert {r.coords: rs.coroots[r.coords] for r in rs.positive_roots} == {
        (1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (2, 1), (1, 2): (1, 1)}


def test_g2_cartan_convention():
    rs = build_root_system("G", 2)
    assert rs.cartan_matrix == ((2, -3), (-1, 2))
    # (a1, a1) = 2 and (a2, a2) = 6: a1+a2 and 2a1+a2 are short, 3a1+a2 and
    # 3a1+2a2 long.
    assert {r.coords: rs.coroots[r.coords] for r in rs.positive_roots} == {
        (1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 3), (2, 1): (2, 3),
        (3, 1): (1, 1), (3, 2): (1, 2)}


@pytest.mark.parametrize("label,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_coroots_match_symmetrizer_formula(label, rank):
    # beta^vee = 2 beta / (beta, beta) = sum_i c_i (d_i / d_beta) alpha_i^vee
    # with d_beta = (beta, beta) / 2 = sum_ij c_i c_j d_i a_ij / 2.
    rs = build_root_system(label, rank)
    a, d = rs.cartan_matrix, SYMMETRIZERS[(label, rank)]
    assert len(rs.coroots) == 2 * len(rs.positive_roots)
    for c, coroot in rs.coroots.items():
        d_beta = Fraction(sum(c[i] * c[j] * d[i] * a[i][j]
                              for i in range(rank) for j in range(rank)), 2)
        assert coroot == tuple(c[i] * d[i] / d_beta for i in range(rank))


@pytest.mark.parametrize("label,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_coroots_are_roots_of_dual_type(label, rank):
    rs = build_root_system(label, rank)
    dual_label, dual_rank, backwards = DUALS.get((label, rank),
                                                 (label, rank, False))
    dual = build_root_system(dual_label, dual_rank)
    order = slice(None, None, -1 if backwards else 1)
    assert {c[order] for c in rs.coroots.values()} == set(dual.coroots)
    for beta in rs.positive_roots:
        coroot = rs.coroots[beta.coords]
        assert pair_with_coroot(rs, weight_of_root(rs, beta), beta) == 2
        assert rs.coroots[(-beta).coords] == tuple(-x for x in coroot)


@pytest.mark.parametrize("label,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 6), ("F", 3), ("G", 3),
    ("A", 5), ("H", 2),
])
def test_invalid_types_rejected(label, rank):
    with pytest.raises(ConfigError):
        build_root_system(label, rank)


# -- reflections -------------------------------------------------------------

@pytest.mark.parametrize("label,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 3), ("G", 2),
])
def test_simple_reflection_permutes_other_positives(label, rank):
    rs = build_root_system(label, rank)
    for i in range(1, rank + 1):
        alpha = rs.simple_root(i)
        assert reflect_simple(rs, i, alpha) == -alpha
        others = [r for r in rs.positive_roots if r != alpha]
        images = [reflect_simple(rs, i, r) for r in others]
        assert sorted(images) == sorted(others)


def test_reflection_is_involution():
    rs = build_root_system("G", 2)
    for r in rs.positive_roots:
        for i in (1, 2):
            assert reflect_simple(rs, i, reflect_simple(rs, i, r)) == r


# -- pairings ----------------------------------------------------------------

def test_pairing_simple_root_case():
    rs = build_root_system("A", 2)
    lam = weight(3, 5)
    assert pair_with_coroot(rs, lam, rs.simple_root(1)) == 3
    assert pair_with_coroot(rs, lam, rs.simple_root(2)) == 5


def test_pairing_reproduces_cartan_matrix():
    for label, rank in (("A", 3), ("B", 2), ("C", 3), ("G", 2), ("F", 4)):
        rs = build_root_system(label, rank)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                got = pair_with_coroot(rs, weight_of_root(rs, rs.simple_root(j)),
                                       rs.simple_root(i))
                assert got == rs.cartan_matrix[i - 1][j - 1]


def test_a2_coroot_addition():
    rs = build_root_system("A", 2)
    lam = weight("3/2", "5/7")
    value = pair_with_coroot(rs, lam, Root((1, 1)))
    assert value == Fraction(3, 2) + Fraction(5, 7)


def test_delta_pairs_to_one_on_simples():
    for label, rank in sorted(POSITIVE_ROOT_COUNTS):
        rs = build_root_system(label, rank)
        delta = half_sum_positive_roots(rs)
        assert delta.pairings == (Fraction(1),) * rank


def test_b2_delta_on_nonsimple_roots():
    # a1+a2 is short (coroot 2 a1^ + a2^, value 2+1), a1+2a2 is long
    # (coroot a1^ + a2^, value 1+1); derived by hand in test_b2_cartan_convention.
    rs = build_root_system("B", 2)
    delta = half_sum_positive_roots(rs)
    assert pair_with_coroot(rs, delta, Root((1, 1))) == 3
    assert pair_with_coroot(rs, delta, Root((1, 2))) == 2


def test_pairing_linear_in_weight():
    rs = build_root_system("B", 2)
    beta = Root((1, 2))
    a = weight("1/2", -3)
    b = weight(2, "7/3")
    s = Weight(tuple(x + y for x, y in zip(a.pairings, b.pairings)))
    assert (pair_with_coroot(rs, s, beta)
            == pair_with_coroot(rs, a, beta) + pair_with_coroot(rs, b, beta))


def test_pairing_rejects_non_roots():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        pair_with_coroot(rs, weight(0, 0), Root((2, 0)))
    with pytest.raises(ValueError):
        pair_with_coroot(rs, weight(0, 0, 0), rs.simple_root(1))


def test_negative_root_pairing():
    rs = build_root_system("A", 2)
    lam = weight(3, 5)
    assert pair_with_coroot(rs, lam, -Root((1, 1))) == -8


# -- weights and the generic tag ---------------------------------------------

def test_weight_arithmetic():
    a = weight(1, "1/2")
    b = weight("1/3", 2)
    assert (a + b).pairings == (Fraction(4, 3), Fraction(5, 2))
    assert (a - b).pairings == (Fraction(2, 3), Fraction(-3, 2))
    assert (-a).pairings == (Fraction(-1), Fraction(-1, 2))
    with pytest.raises(ValueError):
        a + weight(1)


def test_generic_tag_absorbs_arithmetic():
    assert GENERIC + 1 == GENERIC
    assert Fraction(1, 2) - GENERIC == GENERIC
    assert -GENERIC == GENERIC
    assert GENERIC * Fraction(3) == GENERIC
    assert 0 * GENERIC == 0
    assert GENERIC * 0 == Fraction(0)


def test_generic_weight_is_not_rational():
    lam = weight("generic", 0)
    assert not lam.is_rational()
    assert weight(1, 2).is_rational()


def test_generic_pairing_never_integer():
    rs = build_root_system("A", 2)
    lam = weight("generic", "1/2")
    value = pair_with_coroot(rs, lam, Root((1, 1)))
    assert value == GENERIC
    # zero coefficient kills the tag
    mu = weight("generic", 3)
    assert pair_with_coroot(rs, mu, Root((0, 1))) == 3


def test_generic_on_zero_coroot_coordinate_pairs_to_rational():
    rs = build_root_system("B", 2)
    lam = weight("1/2", "generic")
    assert pair_with_coroot(rs, lam, rs.simple_root(1)) == Fraction(1, 2)
    assert pair_with_coroot(rs, lam, Root((1, 1))) == GENERIC


# -- rendering ---------------------------------------------------------------

def test_root_str():
    assert str(Root((1, 0))) == "a1"
    assert str(Root((1, 2))) == "a1+2a2"
    assert str(-Root((1, 1))) == "-(a1+a2)"


def test_root_height_and_sign():
    r = Root((1, 2))
    assert r.height == 3
    assert r.sign == 1
    assert (-r).sign == -1
