"""Weyl group combinatorics: enumeration, canonical words, double cosets,
and the root-sign partition.

The element matrices, weyl_element, the closure and the double cosets are
checked against full integer matrix products written here, with no shared
code with the production BFS: weyl_element's canonical word is
checked against a peel of the product matrix, the closure reference is
keyed by matrix, the orbit oracle multiplies out u * w * v over the full
parabolic subgroups, and the representatives and coset sizes are checked
by descents and by Kilmoyer's formula. The A2 count for I = J = {1} is 2
(cosets {e, s1} and the four remaining elements); a one-sided count over
the same data gives 3.
"""

import itertools
import random

import pytest

from laps import (ParabolicType, ResourceLimitError, Root, build_root_system,
                  build_weyl_group, double_cosets, iwahori_root_partition,
                  weyl_element)
from laps.parahoric import WeylElement, _group_order, invert, multiply

# Every type within the rank cap whose group fits under WEYL_ORDER_CAP.
WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("C", 2): 8, ("C", 3): 48, ("C", 4): 384,
    ("D", 3): 24, ("D", 4): 192, ("G", 2): 12,
}
# And F4, whose group exceeds WEYL_ORDER_CAP.
ALL_ORDERS = {**WEYL_ORDERS, ("F", 4): 1152}


# -- full products, independent of laps.parahoric ----------------------------

def _mat_mul(x, y):
    return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(len(y)))
                       for c in range(len(y[0]))) for r in range(len(x)))


def _reflection(rs, i):
    """s_i (0-based) on simple-root coordinates: only coordinate i changes,
    c_i -> c_i - sum_j a_ij c_j (CONVENTIONS.md)."""
    a = rs.cartan_matrix
    return tuple(tuple((k == j) - (a[i][j] if k == i else 0)
                       for j in range(rs.rank)) for k in range(rs.rank))


# -- group construction ------------------------------------------------------

@pytest.mark.parametrize("label,rank", sorted(ALL_ORDERS))
def test_group_order_closed_forms(label, rank):
    # |W| = prod (m_k + 1) over the exponents, read before any search.
    rs = build_root_system(label, rank)
    order = ALL_ORDERS[(label, rank)]
    assert _group_order(rs) == order
    group = build_weyl_group(rs, cap=order)
    assert len(group) == order
    assert len({w.matrix for w in group}) == len(group)


@pytest.mark.parametrize("label,rank", sorted(WEYL_ORDERS))
def test_closure_words_match_descent_words(label, rank):
    # weyl_element recomputes the canonical word by peeling right descents;
    # the closure records its words without doing so, and must agree.
    rs = build_root_system(label, rank)
    for w in build_weyl_group(rs):
        again = weyl_element(rs, w.word)
        assert again.matrix == w.matrix
        assert again.word == w.word


def _closure_reference(rs):
    """The closure keyed by matrix, by full products with the generators as
    the outer loop, sorted by (length, word)."""
    gens = [_reflection(rs, i) for i in range(rs.rank)]
    ident = tuple(tuple(int(r == c) for c in range(rs.rank))
                  for r in range(rs.rank))
    seen, frontier = {ident: ()}, [ident]
    while frontier:
        new = []
        for i, s in enumerate(gens):
            for m in frontier:
                prod = _mat_mul(m, s)
                if prod not in seen:
                    seen[prod] = seen[m] + (i + 1,)
                    new.append(prod)
        frontier = new
    return sorted(seen.items(), key=lambda item: (len(item[1]), item[1]))


@pytest.mark.parametrize("label,rank", sorted(WEYL_ORDERS) + [("F", 4)])
def test_closure_matches_matrix_keyed_reference(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs, cap=1152)
    assert [(w.matrix, w.word) for w in group] == _closure_reference(rs)


@pytest.mark.parametrize("label,rank", sorted(WEYL_ORDERS))
def test_one_reflection_updates_match_full_products(label, rank):
    # A matrix is formed from the word one simple reflection at a time; the
    # element w * s_i has the matrix of w times S_i.
    rs = build_root_system(label, rank)
    gens = [_reflection(rs, i) for i in range(rank)]
    for w in build_weyl_group(rs):
        for i, s in enumerate(gens):
            ws = weyl_element(rs, w.word + (i + 1,))
            assert ws.matrix == _mat_mul(w.matrix, s)


@pytest.mark.parametrize("label,rank", [("B", 2), ("G", 2), ("A", 3)])
def test_multiply_matches_full_product(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    by_matrix = {w.matrix: w for w in group}
    for a in group:
        for b in group:
            ab = multiply(rs, a, b)
            assert ab == by_matrix[_mat_mul(a.matrix, b.matrix)]


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_longest_element_length(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    assert max(w.length for w in group) == len(rs.positive_roots)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_length_equals_inversion_count(label, rank):
    rs = build_root_system(label, rank)
    for w in build_weyl_group(rs):
        inversions = sum(1 for r in rs.positive_roots if w.apply(r).sign < 0)
        assert w.length == inversions


def test_elements_permute_the_root_set():
    rs = build_root_system("B", 2)
    roots = {r.coords for r in rs.positive_roots}
    roots |= {(-r).coords for r in rs.positive_roots}
    for w in build_weyl_group(rs):
        images = {w.apply(Root(c)).coords for c in roots}
        assert images == roots


def test_canonical_word_is_stable():
    rs = build_root_system("A", 2)
    assert str(weyl_element(rs, (1, 2, 1))) == "s1*s2*s1"
    assert str(weyl_element(rs, (2, 1, 2))) == "s1*s2*s1"
    assert str(weyl_element(rs, (1, 1))) == "e"
    rng = random.Random(31415)
    group = build_weyl_group(rs)
    for _ in range(40):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 8)))
        w = weyl_element(rs, word)
        match = [g for g in group if g.matrix == w.matrix]
        assert len(match) == 1
        assert match[0].word == w.word


def _peeled_word(rs, matrix):
    """Canonical word by peeling the matrix: while it is not the identity,
    record its smallest right descent i (column i nonpositive, so
    m(alpha_i) < 0) and go on with m * s_i."""
    ident = tuple(tuple(int(r == c) for c in range(rs.rank))
                  for r in range(rs.rank))
    suffix, m = [], matrix
    while m != ident:
        assert len(suffix) < len(rs.positive_roots)
        i = next(i for i in range(rs.rank) if all(row[i] <= 0 for row in m))
        suffix.append(i + 1)
        m = _mat_mul(m, _reflection(rs, i))
    return tuple(reversed(suffix))


@pytest.mark.parametrize("label,rank", sorted(WEYL_ORDERS) + [("F", 4)])
def test_weyl_element_matches_full_products_and_matrix_peel(label, rank):
    # Random words with repeated letters, up to 3 |Phi+| letters long, so
    # most are far from reduced.
    rs = build_root_system(label, rank)
    gens = [_reflection(rs, i) for i in range(rank)]
    rng = random.Random("%s%d" % (label, rank))
    for _ in range(60):
        word = [rng.randint(1, rank)
                for _ in range(rng.randint(0, 3 * len(rs.positive_roots)))]
        matrix = tuple(tuple(int(r == c) for c in range(rank))
                       for r in range(rank))
        for i in word:
            matrix = _mat_mul(matrix, gens[i - 1])
        w = weyl_element(rs, word)
        assert w.matrix == matrix
        assert w.word == _peeled_word(rs, matrix)


def test_multiply_and_invert():
    rs = build_root_system("B", 2)
    group = build_weyl_group(rs)
    identity = weyl_element(rs, ())
    for w in group:
        assert multiply(rs, w, invert(rs, w)) == identity
        assert invert(rs, invert(rs, w)) == w
    s1, s2 = weyl_element(rs, (1,)), weyl_element(rs, (2,))
    assert multiply(rs, s1, s2).word == (1, 2)


def test_group_cap_enforced():
    rs = build_root_system("A", 3)
    with pytest.raises(ResourceLimitError):
        build_weyl_group(rs, cap=10)


def test_element_is_its_word_over_its_cartan_matrix():
    a2, b2 = build_root_system("A", 2), build_root_system("B", 2)
    s1 = weyl_element(a2, (1,))
    assert s1 == WeylElement((1,), a2.cartan_matrix)
    assert s1.matrix == weyl_element(b2, (1,)).matrix == ((-1, 1), (0, 1))
    assert s1 != weyl_element(b2, (1,))


def test_apply_rejects_a_root_of_the_wrong_arity():
    w = weyl_element(build_root_system("A", 2), (1, 2))
    with pytest.raises(ValueError, match="root arity 3 does not match rank 2"):
        w.apply(Root((1, 0, 0)))


@pytest.mark.parametrize("letter", [0, 3, -1])
def test_weyl_element_rejects_an_out_of_range_letter(letter):
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="out of range 1..2"):
        weyl_element(rs, (1, letter))


def test_parabolic_type_normalizes():
    assert ParabolicType.of([2, 1, 2]).indices == (1, 2)
    assert ParabolicType.of([]).indices == ()


# -- double cosets -----------------------------------------------------------

def _orbit_oracle(rs, group, I, J):
    """Independent double cosets: multiply out the full products u * w * v.
    Returns the orbits as sets of matrices."""
    sub_i = _parabolic_matrices(rs, I)
    sub_j = _parabolic_matrices(rs, J)
    orbits = []
    seen = set()
    for w in group:
        if w.matrix in seen:
            continue
        orbit = {_mat_mul(uw, v) for uw in (_mat_mul(u, w.matrix) for u in sub_i)
                 for v in sub_j}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def _parabolic_matrices(rs, indices):
    """W_I as a set of matrices, closed under right products with s_i."""
    gens = [_reflection(rs, i - 1) for i in indices]
    members = {tuple(tuple(int(r == c) for c in range(rs.rank))
                     for r in range(rs.rank))}
    frontier = list(members)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                cand = _mat_mul(m, g)
                if cand not in members:
                    members.add(cand)
                    new.append(cand)
        frontier = new
    return members


def _assert_pins_orbits(dec, group, oracle):
    """As many representatives as oracle orbits, each in its own orbit, the
    shortest element of it, with that orbit's size."""
    by_matrix = {w.matrix: w for w in group}
    assert dec.group_order == len(group)
    assert len(dec.representatives) == len(dec.coset_sizes()) == len(oracle)
    homes = []
    for rep, size in zip(dec.representatives, dec.coset_sizes()):
        assert by_matrix[rep.matrix] == rep
        k = next(k for k, orbit in enumerate(oracle) if rep.matrix in orbit)
        homes.append(k)
        assert rep.length == min(by_matrix[m].length for m in oracle[k])
        assert size == len(oracle[k])
    assert sorted(homes) == list(range(len(oracle)))


def _assert_matches_oracle(rs, group, I, J):
    dec = double_cosets(rs, ParabolicType.of(I), ParabolicType.of(J))
    _assert_pins_orbits(dec, group, _orbit_oracle(rs, group, I, J))


def test_trivial_parabolic_gives_singletons():
    rs = build_root_system("A", 2)
    empty = ParabolicType.of([])
    dec = double_cosets(rs, empty, empty)
    assert len(dec.representatives) == 6
    assert dec.coset_sizes() == (1,) * 6


def test_a1_trivial_parabolic():
    rs = build_root_system("A", 1)
    empty = ParabolicType.of([])
    assert len(double_cosets(rs, empty, empty).representatives) == 2


def test_a2_parabolic_cosets_match_orbit_oracle():
    rs = build_root_system("A", 2)
    group = build_weyl_group(rs)
    one = ParabolicType.of([1])
    dec = double_cosets(rs, one, one)
    oracle = _orbit_oracle(rs, group, (1,), (1,))
    assert len(dec.representatives) == len(oracle) == 2
    assert sorted(dec.coset_sizes()) == sorted(len(o) for o in oracle) == [2, 4]
    assert [str(r) for r in dec.representatives] == ["e", "s2"]


def test_a2_one_sided_count_is_three():
    # W_I \ W for I = {1}: right cosets, obtained here as (I, empty) double
    # cosets; this is the 3 that a two-sided count does not produce.
    rs = build_root_system("A", 2)
    dec = double_cosets(rs, ParabolicType.of([1]), ParabolicType.of([]))
    assert len(dec.representatives) == 3


def test_b2_parabolic_cosets():
    rs = build_root_system("B", 2)
    group = build_weyl_group(rs)
    one = ParabolicType.of([1])
    dec = double_cosets(rs, one, one)
    oracle = _orbit_oracle(rs, group, (1,), (1,))
    assert len(dec.representatives) == len(oracle) == 3
    assert sum(dec.coset_sizes()) == 8


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_cosets_partition_the_group(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    indices = list(range(1, rank + 1))
    for take in range(rank + 1):
        for I in itertools.combinations(indices, take):
            dec = double_cosets(rs, ParabolicType.of(I), ParabolicType.of(I))
            assert sum(dec.coset_sizes()) == len(group)
            _assert_pins_orbits(dec, group, _orbit_oracle(rs, group, I, I))


def test_mixed_parabolics():
    rs = build_root_system("A", 2)
    group = build_weyl_group(rs)
    dec = double_cosets(rs, ParabolicType.of([1]), ParabolicType.of([2]))
    oracle = _orbit_oracle(rs, group, (1,), (2,))
    assert len(dec.representatives) == len(oracle)
    assert sum(dec.coset_sizes()) == 6


def _subsets(rank):
    return [I for take in range(rank + 1)
            for I in itertools.combinations(range(1, rank + 1), take)]


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 3)])
def test_rank3_cosets_match_orbit_oracle_for_every_pair(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    for I in _subsets(rank):
        for J in _subsets(rank):
            _assert_matches_oracle(rs, group, I, J)


def test_d4_cosets_match_orbit_oracle_on_a_sample():
    rs = build_root_system("D", 4)
    group = build_weyl_group(rs)
    subsets = _subsets(4)
    pairs = [((), ()), ((2,), (2,)), ((1, 3, 4), (1, 3, 4)), ((1, 2, 3, 4), ())]
    pairs += random.Random(2718).sample(
        [(I, J) for I in subsets for J in subsets], 8)
    for I, J in pairs:
        _assert_matches_oracle(rs, group, I, J)


def _inverses(rs, group):
    """w^{-1} for each w in group, as full products of the reflections of
    w's reversed word: (u * s_i)^{-1} = s_i * u^{-1}."""
    ident = tuple(tuple(int(r == c) for c in range(rs.rank))
                  for r in range(rs.rank))
    by_word = {(): ident}

    def inverse(word):
        if word not in by_word:
            by_word[word] = _mat_mul(_reflection(rs, word[-1] - 1),
                                     inverse(word[:-1]))
        return by_word[word]
    return [inverse(w.word) for w in group]


def _parabolic_order(group, indices):
    """|W_I|: the elements that change only the coordinates in I."""
    rank = len(group[0].matrix)
    return sum(all(w.matrix[k] == tuple(int(k == c) for c in range(rank))
                   for k in range(rank) if k + 1 not in indices)
               for w in group)


def _assert_descents_and_kilmoyer(rs, group, inverses, I, J):
    """Representatives are the elements with no left descent in I and no
    right descent in J; the coset of d has |W_I| |W_J| / |W_K| elements,
    K = {i in I : d^{-1}(alpha_i) = alpha_j for some j in J} (Kilmoyer;
    Carter, Finite Groups of Lie Type, 2.7)."""
    dec = double_cosets(rs, ParabolicType.of(I), ParabolicType.of(J),
                        cap=len(group))
    rank = len(group[0].matrix)
    unit = [tuple(int(k == c) for k in range(rank)) for c in range(rank)]
    order_i, order_j = _parabolic_order(group, I), _parabolic_order(group, J)
    minimal = []
    for d, inv in zip(group, inverses):
        images = [tuple(row[i - 1] for row in inv) for i in I]  # d^{-1}(a_i)
        if (all(max(col) > 0 for col in images)
                and all(max(row[j - 1] for row in d.matrix) > 0 for j in J)):
            minimal.append(d)
            K = [i for i, col in zip(I, images)
                 if any(col == unit[j - 1] for j in J)]
            assert dec.coset_sizes()[dec.representatives.index(d)] == (
                order_i * order_j // _parabolic_order(group, K))
    assert minimal == list(dec.representatives)


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
    ("D", 3), ("G", 2)])
def test_representatives_by_descents_sizes_by_kilmoyer(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    inverses = _inverses(rs, group)
    for I in _subsets(rank):
        for J in _subsets(rank):
            _assert_descents_and_kilmoyer(rs, group, inverses, I, J)


def test_representatives_by_descents_on_a4_every_pair():
    rs = build_root_system("A", 4)
    group = build_weyl_group(rs)
    inverses = _inverses(rs, group)
    for I in _subsets(4):
        for J in _subsets(4):
            _assert_descents_and_kilmoyer(rs, group, inverses, I, J)


@pytest.mark.parametrize("label,rank", [("B", 4), ("C", 4), ("D", 4)])
def test_representatives_by_descents_on_rank4_samples(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    inverses = _inverses(rs, group)
    subsets = _subsets(rank)
    for I, J in random.Random(1618).sample(
            [(I, J) for I in subsets for J in subsets], 4):
        _assert_descents_and_kilmoyer(rs, group, inverses, I, J)


def test_representatives_by_descents_on_f4():
    rs = build_root_system("F", 4)
    group = build_weyl_group(rs, cap=1152)
    _assert_descents_and_kilmoyer(rs, group, _inverses(rs, group), (1, 3),
                                  (2, 3))


@pytest.mark.parametrize("label,rank", [("B", 3), ("G", 2)])
def test_double_cosets_ignore_index_order_and_repeats(label, rank):
    rs = build_root_system(label, rank)
    rng = random.Random(4242)

    def scrambled(indices):
        messy = list(indices) * 2
        rng.shuffle(messy)
        return messy
    for I in _subsets(rank):
        for J in _subsets(rank):
            dec = double_cosets(rs, ParabolicType.of(I), ParabolicType.of(J))
            again = double_cosets(rs, scrambled(I), scrambled(J))
            assert again == dec


def test_double_cosets_rejects_bad_indices():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        double_cosets(rs, ParabolicType.of([3]), ParabolicType.of([]))


@pytest.mark.parametrize("label,rank", sorted(ALL_ORDERS))
def test_double_cosets_cap_is_the_group_order(label, rank):
    # |W| is read from the root heights and checked against the cap before
    # the orbit of lambda_I is searched: exactly the groups of more than cap
    # elements are refused.
    rs = build_root_system(label, rank)
    order = ALL_ORDERS[(label, rank)]
    with pytest.raises(ResourceLimitError) as closure:
        build_weyl_group(rs, cap=order - 1)
    assert str(closure.value) == (
        "Weyl group exceeds the cap of %d elements" % (order - 1))
    full = tuple(range(1, rank + 1))
    for I in {(), (1,), full[1:], full}:
        assert double_cosets(rs, I, (1,), cap=order).group_order == order
        with pytest.raises(ResourceLimitError) as refused:
            double_cosets(rs, I, (1,), cap=order - 1)
        assert str(refused.value) == str(closure.value)


# -- root partition ----------------------------------------------------------

def _partition_oracle(rs, indices, w):
    plus, minus = [], []
    w_inv = invert(rs, w)
    for r in rs.positive_roots:
        for signed in (r, -r):
            support = [i + 1 for i, c in enumerate(signed.coords) if c != 0]
            if set(support) <= set(indices):
                continue
            if w_inv.apply(signed).sign > 0:
                plus.append(signed)
            else:
                minus.append(signed)
    return plus, minus


@pytest.mark.parametrize("label,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_partition_matches_oracle_everywhere(label, rank):
    rs = build_root_system(label, rank)
    group = build_weyl_group(rs)
    indices = list(range(1, rank + 1))
    for take in range(rank + 1):
        for I in itertools.combinations(indices, take):
            par = ParabolicType.of(I)
            for w in group:
                plus, minus = iwahori_root_partition(rs, par, w)
                oplus, ominus = _partition_oracle(rs, I, w)
                assert sorted(plus) == sorted(oplus)
                assert sorted(minus) == sorted(ominus)
                assert not (set(plus) & set(minus))


def test_partition_identity_and_longest():
    rs = build_root_system("A", 2)
    empty = ParabolicType.of([])
    e = weyl_element(rs, ())
    plus, minus = iwahori_root_partition(rs, empty, e)
    assert sorted(plus) == sorted(rs.positive_roots)
    assert sorted(minus) == sorted(-r for r in rs.positive_roots)
    w0 = weyl_element(rs, (1, 2, 1))
    plus0, minus0 = iwahori_root_partition(rs, empty, w0)
    assert sorted(plus0) == sorted(minus)
    assert sorted(minus0) == sorted(plus)


def test_partition_a2_example():
    rs = build_root_system("A", 2)
    plus, minus = iwahori_root_partition(rs, ParabolicType.of([1]),
                                         weyl_element(rs, (2,)))
    assert len(plus) == len(minus) == 2
    assert {str(r) for r in plus} == {"-(a2)", "a1+a2"}
    assert {str(r) for r in minus} == {"a2", "-(a1+a2)"}
