"""Verma layer: generator actions, weight spaces, singular vectors, the
simplicity criterion, and the character conversions.

Expected values were frozen from independent derivations before wiring
up the module action:

  * sl2 closed form  e . (f^n v) = n (lam(H) - n + 1) f^(n-1) v,
  * the sl3 kernel at lam = (-1/2, -1/2), mu = lam - a1 - a2, where the
    two commutation equations degenerate to one and leave a line,
  * the GL2 example values -(c1 - c2) and its n = 4 witness at (0, 3).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from laps import (ALL_POSITIVE, DELTA_ONLY, GENERIC, PBWVector,
                  ResourceLimitError, Root, Weight, act_generator,
                  bgg_criterion, build_root_system, character_spec,
                  character_weight, gl2_character_criterion,
                  pair_with_coroot, restriction_of_scalars_check,
                  simplicity_oracle, singular_vectors, weight, weight_of_root,
                  weight_space_basis)
from laps.verma import (VermaModule, _dot_orbit_depths, _within_bound,
                        kostant_counts, kostant_partitions,
                        verma_module)
from test_parahoric import WEYL_ORDERS

# |W| for all 14 types within the rank cap; WEYL_ORDERS leaves out F4, whose
# group is over WEYL_ORDER_CAP.
ALL_ORDERS = {**WEYL_ORDERS, ("F", 4): 1152}


def _sl2(lam_h):
    return verma_module("A", 1, [lam_h])


def _sl3(a, b):
    return verma_module("A", 2, [a, b])


def _power(module, gen, n, vec):
    for _ in range(n):
        vec = act_generator(module, gen, vec)
    return vec


# -- generator actions -------------------------------------------------------

@pytest.mark.parametrize("lam_h", [Fraction(2), Fraction(0), Fraction(-1, 2),
                                   Fraction(7, 3), Fraction(-5)])
def test_sl2_action_closed_form(lam_h):
    module = _sl2(lam_h)
    v = module.highest_weight_vector()
    for n in range(1, 7):
        fn = _power(module, "f1", n, v)
        assert fn.terms == {(n,): Fraction(1)}
        got = act_generator(module, "e1", fn)
        coeff = n * (lam_h - n + 1)
        expect = {} if coeff == 0 else {(n - 1,): coeff}
        assert got.terms == expect


def test_h_action_scales_by_weight():
    module = _sl3(Fraction(-1, 2), Fraction(3))
    v = module.highest_weight_vector()
    w = act_generator(module, "f1", act_generator(module, "f2", v))
    for i, expect in ((1, Fraction(-1, 2) - 2 + 1), (2, Fraction(3) + 1 - 2)):
        scaled = act_generator(module, "h%d" % i, w)
        assert scaled.terms == {m: expect * c for m, c in w.terms.items()}


def test_ef_commutator_is_h_on_sampled_vectors():
    for label, rank in (("A", 2), ("B", 2)):
        rs = build_root_system(label, rank)
        module = VermaModule(rs, weight(*[Fraction(1, 3)] * rank))
        count = len(module.pbw_order)
        monos = [m for m in _all_monomials(count, 3)]
        for mono in monos:
            vec = PBWVector({mono: Fraction(1)})
            for i in range(1, rank + 1):
                ef = act_generator(module, "e%d" % i,
                                   act_generator(module, "f%d" % i, vec))
                fe = act_generator(module, "f%d" % i,
                                   act_generator(module, "e%d" % i, vec))
                hv = act_generator(module, "h%d" % i, vec)
                diff = ef + fe.scaled(-1) + hv.scaled(-1)
                assert diff.is_zero()


def _all_monomials(width, total):
    if width == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _all_monomials(width - 1, total - head):
            yield (head,) + rest


def test_action_shifts_weight_by_alpha():
    module = _sl3(Fraction(1, 2), Fraction(-2))
    rs = module._rs
    vec = act_generator(module, "f1", act_generator(module, "f2",
                        module.highest_weight_vector()))
    base = module.monomial_weight(next(iter(vec.terms)))
    for i in (1, 2):
        alpha = weight_of_root(rs, rs.simple_root(i))
        up = act_generator(module, "e%d" % i, vec)
        for mono in up.terms:
            assert module.monomial_weight(mono) == base + alpha
        down = act_generator(module, "f%d" % i, vec)
        for mono in down.terms:
            assert module.monomial_weight(mono) == base - alpha


def test_act_generator_rejects_bad_input():
    module = _sl3(0, 0)
    v = module.highest_weight_vector()
    with pytest.raises(ValueError):
        act_generator(module, "x1", v)
    with pytest.raises(ValueError):
        act_generator(module, "e3", v)
    mixed = v + act_generator(module, "f1", v)
    with pytest.raises(ValueError):
        act_generator(module, "e1", mixed)


def test_module_rejects_generic_weight():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        VermaModule(rs, weight("generic"))
    with pytest.raises(ValueError):
        VermaModule(rs, weight(0, 0))


# -- weight spaces -----------------------------------------------------------

def test_weight_space_at_highest_weight():
    module = _sl3(Fraction(1), Fraction(2))
    assert weight_space_basis(module, module.lam) == ((0, 0, 0),)


def test_sl3_weight_space_two_dimensional():
    module = _sl3(Fraction(-1, 2), Fraction(-1, 2))
    rs = module._rs
    mu = module.lam - weight_of_root(rs, Root((1, 1)))
    # pbw order is (a2, a1, a1+a2); the two monomials land in this order
    assert weight_space_basis(module, mu) == ((0, 0, 1), (1, 1, 0))


def test_sl2_weight_spaces_are_lines():
    module = _sl2(Fraction(5, 7))
    rs = module._rs
    alpha = weight_of_root(rs, rs.simple_root(1))
    for k in range(8):
        mu = Weight(tuple(p - k * a for p, a in
                          zip(module.lam.pairings, alpha.pairings)))
        assert weight_space_basis(module, mu) == ((k,),)


def test_weight_space_empty_off_lattice():
    module = _sl3(Fraction(0), Fraction(0))
    assert weight_space_basis(module, weight(Fraction(1, 3), 0)) == ()
    assert weight_space_basis(module, weight(1, 0)) == ()


def test_weight_space_dimension_matches_partition_count():
    module = VermaModule(build_root_system("B", 2), weight(0, 0))
    rs = module._rs
    for nu1 in range(5):
        for nu2 in range(5):
            mu = module.lam - Weight(tuple(
                sum(Fraction(rs.cartan_matrix[i][j]) * (nu1, nu2)[j]
                    for j in range(2)) for i in range(2)))
            count = _partition_count(rs, (nu1, nu2))
            assert len(weight_space_basis(module, mu)) == count


@pytest.mark.parametrize("label,rank,height", [
    ("A", 1, 6), ("A", 3, 5), ("A", 4, 4), ("B", 2, 6), ("B", 4, 5),
    ("C", 3, 5), ("C", 4, 5), ("D", 4, 5), ("G", 2, 7), ("F", 4, 5),
])
def test_kostant_counts_match_the_enumerator(label, rank, height):
    rs = build_root_system(label, rank)
    counts = kostant_counts(rs, height)
    box = [nu for nu in itertools.product(range(height + 1), repeat=rank)
           if sum(nu) <= height]
    assert list(counts) == sorted(box, key=lambda nu: (sum(nu), nu))
    for nu, n in counts.items():
        assert n == len(kostant_partitions(rs, nu))


def _partition_count(rs, nu):
    roots = [r.coords for r in rs.positive_roots]

    def go(idx, rem):
        if all(x == 0 for x in rem):
            return 1
        if idx == len(roots):
            return 0
        total = 0
        step = roots[idx]
        cap = min((r // s for r, s in zip(rem, step) if s > 0), default=0)
        for mult in range(cap + 1):
            total += go(idx + 1, tuple(r - mult * s for r, s in zip(rem, step)))
        return total

    return go(0, tuple(nu))


# -- singular vectors --------------------------------------------------------

def test_sl2_singular_vector_at_zero():
    module = _sl2(Fraction(0))
    vecs = singular_vectors(module, (1,))
    assert len(vecs) == 1
    assert vecs[0].terms == {(1,): Fraction(1)}


def test_sl2_no_singular_vector_at_minus_one():
    module = _sl2(Fraction(-1))
    assert singular_vectors(module, (1,)) == ()


def test_sl3_halfint_singular_line():
    module = _sl3(Fraction(-1, 2), Fraction(-1, 2))
    vecs = singular_vectors(module, (1, 1))
    assert len(vecs) == 1
    assert vecs[0].terms == {(0, 0, 1): Fraction(1, 2), (1, 1, 0): Fraction(1)}
    # confirm by hand: both raising operators kill it
    for i in (1, 2):
        assert act_generator(module, "e%d" % i, vecs[0]).is_zero()


def test_highest_weight_vector_is_singular():
    module = _sl3(Fraction(2), Fraction(-3))
    assert len(singular_vectors(module, (0, 0))) == 1


# -- simplicity oracle -------------------------------------------------------

def test_oracle_finds_sl2_degree_three():
    report = simplicity_oracle(_sl2(Fraction(2)), 5)
    assert report.reducible
    assert [nu for nu, _ in report.witnesses] == [(3,)]
    (nu, vecs), = report.witnesses
    assert vecs[0].terms == {(3,): Fraction(1)}


def test_oracle_clears_sl2_generic_rational():
    report = simplicity_oracle(_sl2(Fraction(-1, 2)), 10)
    assert not report.reducible
    assert report.bound == 10


def test_oracle_sl3_halfint_default_bound():
    report = simplicity_oracle(_sl3(Fraction(-1, 2), Fraction(-1, 2)))
    assert report.bound == 2
    assert [nu for nu, _ in report.witnesses] == [(1, 1)]


def test_oracle_respects_cap():
    with pytest.raises(ResourceLimitError):
        simplicity_oracle(_sl2(Fraction(0)), 13)


def test_oracle_default_bound_when_simple():
    report = simplicity_oracle(_sl2(Fraction(-1, 2)))
    assert report.bound == 6
    assert not report.reducible


def _box_depths(rs, bound):
    """Every nonzero nu = sum n_beta beta with sum n_beta <= bound, taken
    from the multiplicity box itself, in (sum(nu), nu) order."""
    roots = [beta.coords for beta in rs.positive_roots]
    depths = set()
    for count in range(1, bound + 1):
        for pick in itertools.combinations_with_replacement(roots, count):
            depths.add(tuple(sum(col) for col in zip(*pick)))
    return sorted(depths, key=lambda nu: (sum(nu), nu))


_H, _T = Fraction(1, 2), Fraction(1, 3)
_LINKED_GRIDS = (
    ("A", 2, 4, [(0, 0), (1, 0), (-1, 2), (-_H, -_H), (_H, -3 * _H),
                 (_T, -4 * _T), (-2 * _T, 2 * _T), (1, -_H), (-3, 1)]),
    ("B", 2, 4, [(0, 0), (-1, 1), (-_H, -_H), (_H, -3 * _H), (-_T, 2 * _T),
                 (1, -_H), (-1, -1)]),
    ("C", 2, 4, [(0, 0), (1, -1), (-_H, -_H), (-3 * _H, _H), (_T, -_T),
                 (-_H, 1), (-1, -1)]),
    ("A", 3, 3, [(0, 0, 0), (1, -1, 0), (-_H, -_H, -_H), (_T, -_T, 0),
                 (1, -_H, 0)]),
)


def test_linked_scan_equals_brute_force():
    """The oracle scans only the dot-orbit of lam; asking singular_vectors
    at every nu of the multiplicity box must find the same witnesses."""
    start = time.monotonic()
    found = 0
    for label, rank, bound, grid in _LINKED_GRIDS:
        rs = build_root_system(label, rank)
        box = _box_depths(rs, bound)
        for values in grid:
            module = VermaModule(rs, weight(*values))
            brute = []
            for nu in box:
                vecs = singular_vectors(module, nu)
                if vecs:
                    brute.append((nu, vecs))
            report = simplicity_oracle(module, bound)
            assert report.witnesses == tuple(brute), (label, rank, values)
            found += len(brute)
    assert found >= 40
    assert time.monotonic() - start < 5


def test_e_images_stay_in_the_target_weight_space():
    """singular_vectors builds its rows from the e_i images alone, which is
    exact only if e_i maps the weight space lam - nu into lam - nu +
    alpha_i: every image key must be a Kostant partition of nu - alpha_i."""
    checked = 0
    for label, rank, values in (("A", 3, (0, 0, 0)), ("B", 2, (0, 0)),
                                ("G", 2, (-1, 1))):
        rs = build_root_system(label, rank)
        module = VermaModule(rs, weight(*values))
        within = _within_bound(rs, 4)
        for nu in _dot_orbit_depths(rs, module.lam):
            nu = tuple(int(x) for x in nu)  # lam is integral here
            if min(nu) < 0 or not any(nu) or not within(nu):
                continue
            for i in (i for i in range(rank) if nu[i] > 0):
                target = set(kostant_partitions(
                    rs, nu[:i] + (nu[i] - 1,) + nu[i + 1:]))
                for mono in kostant_partitions(rs, nu):
                    image = module._act_key(("e", i), mono)
                    assert set(image) <= target, (label, nu, i, mono)
                    checked += len(image)
    assert checked > 0


def _fraction_orbit(rs, lam):
    """The integral nu = lam - w.lam by breadth-first search in Fraction
    arithmetic over s_i.mu = mu - (mu(H_i) + 1) alpha_i."""
    cartan = rs.cartan_matrix
    start = (Fraction(0),) * rs.rank
    seen, frontier = {start}, [start]
    while frontier:
        reached = []
        for nu in frontier:
            for i in range(rs.rank):
                mu_i = lam.pairings[i] - sum(a * x for a, x in zip(cartan[i], nu))
                step = nu[:i] + (nu[i] + mu_i + 1,) + nu[i + 1:]
                if step not in seen:
                    seen.add(step)
                    reached.append(step)
        frontier = reached
    return {tuple(int(x) for x in nu) for nu in seen
            if all(x.denominator == 1 for x in nu)}


@pytest.mark.parametrize("label,rank", sorted(ALL_ORDERS))
def test_dot_orbit_matches_fraction_search(label, rank):
    """The integer search on L * nu finds the same integral nu as a search
    in Fractions, for lam with denominators 1, 2, 3 and 6; at lam = 0 the
    orbit is regular, so it has |W| points."""
    rs = build_root_system(label, rank)
    rng = random.Random(rank * 31 + ord(label))
    zero = _dot_orbit_depths(rs, weight(*[0] * rank))
    assert len(zero) == ALL_ORDERS[(label, rank)]
    assert zero == _fraction_orbit(rs, weight(*[0] * rank))
    for dens in ((1,), (2,), (3,), (2, 3)):
        lam = weight(*(Fraction(rng.randint(-6, 6), rng.choice(dens))
                       for _ in range(rank)))
        got = _dot_orbit_depths(rs, lam)
        assert got == _fraction_orbit(rs, lam), (label, rank, lam)
        assert all(type(x) is int for nu in got for x in nu)


# -- criterion ---------------------------------------------------------------

def test_criterion_sl2_boundary_cases():
    rs = build_root_system("A", 1)
    assert bgg_criterion(rs, weight(-1), ALL_POSITIVE).simple
    rep = bgg_criterion(rs, weight(0), ALL_POSITIVE)
    assert not rep.simple
    assert rep.witnesses == ((Root((1,)), 1),)


def test_criterion_variants_disagree_at_sl3_halfint():
    rs = build_root_system("A", 2)
    lam = weight("-1/2", "-1/2")
    assert bgg_criterion(rs, lam, DELTA_ONLY).simple
    rep = bgg_criterion(rs, lam, ALL_POSITIVE)
    assert rep.witnesses == ((Root((1, 1)), 1),)


def test_criterion_rejects_unknown_variant():
    rs = build_root_system("A", 1)
    with pytest.raises(ValueError):
        bgg_criterion(rs, weight(0), "sometimes")
    with pytest.raises(ValueError):
        bgg_criterion(rs, weight(0, 0), ALL_POSITIVE)


def test_criterion_generic_weight_is_simple():
    rs = build_root_system("B", 2)
    rep = bgg_criterion(rs, weight("generic", "generic"), ALL_POSITIVE)
    assert rep.simple
    # a generic tag in one slot does not shield roots supported on the other
    partial = bgg_criterion(rs, weight("generic", 3), ALL_POSITIVE)
    assert partial.witnesses == ((Root((0, 1)), 4),)


def _reference_criterion(rs, lam, variant):
    """Witnesses by Fraction pairings with pair_with_coroot, where a generic
    entry times a zero coroot coordinate is 0 and otherwise stays generic."""
    shifted = lam + rs.delta
    candidates = rs.simple_roots if variant == DELTA_ONLY else rs.positive_roots
    out = []
    for beta in candidates:
        value = pair_with_coroot(rs, shifted, beta)
        if isinstance(value, Fraction) and value.denominator == 1 and value > 0:
            out.append((beta, int(value)))
    return tuple(out)


_ENTRIES = {
    "integral": lambda rng: Fraction(rng.randint(-4, 3)),
    "half": lambda rng: Fraction(rng.randint(-9, 7), 2),
    "third": lambda rng: Fraction(rng.randint(-12, 10), 3),
    "generic": lambda rng: GENERIC,
}


@pytest.mark.parametrize("label,rank", sorted(ALL_ORDERS))
def test_criterion_matches_fraction_pairings(label, rank):
    """The integer criterion gives the reference's witnesses, in the same
    order, on seeded lam drawn from integral, half, third and generic
    entries, one family or mixed, and on lam with generic entries."""
    rs = build_root_system(label, rank)
    rng = random.Random(rank * 17 + ord(label))
    families = list(_ENTRIES)
    # all generic, and one generic slot beside zeros (witnessed off that slot)
    lams = [Weight((GENERIC,) * rank)]
    lams += [Weight(tuple(GENERIC if j == i else Fraction(0) for j in range(rank)))
             for i in range(rank)]
    for k in range(48):
        pick = [families[k % 4]] * rank if k < 16 else rng.choices(families, k=rank)
        lams.append(Weight(tuple(_ENTRIES[f](rng) for f in pick)))
    found = {True: 0, False: 0}  # witnesses, by whether lam is rational
    for lam in lams:
        for variant in (DELTA_ONLY, ALL_POSITIVE):
            got = bgg_criterion(rs, lam, variant)
            assert got.witnesses == _reference_criterion(rs, lam, variant), (
                label, rank, lam, variant)
            found[lam.is_rational()] += len(got.witnesses)
    assert found[True] > 0 and (rank == 1 or found[False] > 0)


# -- characters --------------------------------------------------------------

def test_gl2_examples():
    assert not gl2_character_criterion(0, 0).simple
    assert gl2_character_criterion(Fraction(1, 2), 0).simple
    rep = gl2_character_criterion(0, 3)
    assert rep.witnesses == ((Root((1,)), 4),)


def test_gl2_matches_direct_condition_on_grid():
    for num in range(-8, 9):
        for den in (1, 2, 3):
            c1 = Fraction(num, den)
            value = -(c1 - 0)
            direct = not (value.denominator == 1 and value >= 0)
            assert gl2_character_criterion(c1, 0).simple == direct


def test_gl2_twist_invariance():
    rng = random.Random(4251)
    for _ in range(50):
        c1 = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        c2 = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        t = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        assert (gl2_character_criterion(c1, c2).simple
                == gl2_character_criterion(c1 + t, c2 + t).simple)


def test_character_weight_conversion():
    rs = build_root_system("A", 1)
    lam = character_weight(rs, (Fraction(1, 2), 0))
    assert lam.pairings == (Fraction(-1, 2),)
    rs3 = build_root_system("A", 2)
    lam3 = character_weight(rs3, (1, 0, -2))
    assert lam3.pairings == (Fraction(-1), Fraction(-2))


def test_character_weight_rejections():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        character_weight(rs, (1, 2))
    with pytest.raises(ValueError):
        character_weight(build_root_system("B", 2), (1, 2, 3))


def test_restriction_of_scalars():
    rs = build_root_system("A", 1)
    spec = character_spec(("s1", "s2"),
                          ((Fraction(1, 2), 0), (Fraction(3, 2), 1)))
    report = restriction_of_scalars_check(rs, spec)
    assert report.irreducible
    assert [label for label, _ in report.per_embedding] == ["s1", "s2"]

    bad = character_spec(("s1", "s2"), ((Fraction(1, 2), 0), (1, 1)))
    report = restriction_of_scalars_check(rs, bad)
    assert not report.irreducible
    assert report.per_embedding[0][1].simple
    assert not report.per_embedding[1][1].simple


def test_restriction_singleton_matches_gl2():
    rs = build_root_system("A", 1)
    rng = random.Random(977)
    for _ in range(25):
        c1 = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        c2 = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        spec = character_spec(("only",), ((c1, c2),))
        assert (restriction_of_scalars_check(rs, spec).irreducible
                == gl2_character_criterion(c1, c2).simple)


def test_restriction_generic_component():
    rs = build_root_system("A", 1)
    spec = character_spec(("s1",), ((GENERIC, 0),))
    assert restriction_of_scalars_check(rs, spec).irreducible


def test_character_spec_validation():
    with pytest.raises(ValueError):
        character_spec((), ())
    with pytest.raises(ValueError):
        character_spec(("a", "a"), ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        character_spec(("a", "b"), ((1, 2), (3, 4, 5)))


# -- criterion vs oracle spot agreement --------------------------------------

def test_small_agreement_sweep_b2():
    start = time.monotonic()
    rs = build_root_system("B", 2)
    for p1 in (Fraction(-1), Fraction(-1, 2), Fraction(0)):
        for p2 in (Fraction(-1), Fraction(1, 2)):
            lam = Weight((p1, p2))
            crit = bgg_criterion(rs, lam, ALL_POSITIVE)
            module = VermaModule(rs, lam)
            report = simplicity_oracle(module, 6)
            if crit.simple:
                assert not report.reducible
            elif all(n * b.height <= 6 for b, n in crit.witnesses):
                assert report.reducible
    assert time.monotonic() - start < 30
