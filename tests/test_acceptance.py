"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS or FAIL line before asserting.

Criterion c4b asserts the two-sided count W_I \\ W / W_J = 2 for
(A2, I = J = {1}) and the one-sided count W_I \\ W = 3. A stated value of 3
for the two-sided count was the one-sided count.
"""

import contextlib
import io
import itertools
import time
from fractions import Fraction
from pathlib import Path

from laps import (ALL_POSITIVE, DELTA_ONLY, ParabolicType, Root, Weight,
                  bgg_criterion, build_root_system, build_weyl_group,
                  canonical_valuation, dist_multiply, dist_series,
                  double_cosets, gl2_character_criterion,
                  iwahori_root_partition, mahler_coefficients, mahler_evaluate,
                  p_valuation_of_word, r_norm, simplicity_oracle,
                  verma_module, weight_of_root, weight_space_basis)
from laps.cli import main
from laps.padic import INF, PValuationSpec, RNormParam, epsilon
from laps.parahoric import multiply

import random

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(cid, name, ok):
    print("[%s] %s: %s" % (cid, name, "PASS" if ok else "FAIL"))
    return ok


# -- c1: GL2 criterion fidelity ----------------------------------------------

def test_c1_gl2_criterion_fidelity():
    values = sorted({Fraction(n, q) for q in (1, 2, 3, 4)
                     for n in range(-5 * q, 5 * q + 1)})
    pairs = [(c1, c2) for c1 in values for c2 in values]
    started = time.perf_counter()
    mismatches = []
    for c1, c2 in pairs:
        report = gl2_character_criterion(c1, c2, ALL_POSITIVE)
        diff = -(c1 - c2)
        direct_simple = not (diff.denominator == 1 and diff >= 0)
        if report.simple != direct_simple:
            mismatches.append((c1, c2))
    elapsed = time.perf_counter() - started
    ok = len(pairs) >= 1600 and not mismatches and elapsed < 1.0
    assert _report("c1", "gl2 criterion fidelity", ok), (
        "pairs=%d mismatches=%r elapsed=%.2fs"
        % (len(pairs), mismatches[:5], elapsed))


# -- c2: criterion-oracle agreement, sl2 ---------------------------------------

def test_c2_sl2_criterion_oracle_agreement():
    started = time.perf_counter()
    failures = []
    for k in range(-12, 13):
        lam_h = Fraction(k, 2)
        module = verma_module("A", 1, (lam_h,))
        crit = bgg_criterion(module._rs, Weight((lam_h,)), ALL_POSITIVE)
        oracle = simplicity_oracle(module, 10)
        if oracle.reducible == crit.simple:
            failures.append(("agreement", lam_h))
        n = lam_h + 1
        if n.denominator == 1 and 1 <= n <= 10:
            found = {nu for nu, _ in oracle.witnesses}
            if (int(n),) not in found:
                failures.append(("predicted degree", lam_h, int(n)))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    assert _report("c2", "sl2 criterion-oracle agreement", ok), (
        "failures=%r elapsed=%.2fs" % (failures, elapsed))


# -- c3: criterion-oracle agreement, sl3 ---------------------------------------

def test_c3_sl3_criterion_oracle_agreement():
    grid = [Fraction(x) for x in ("-2", "-3/2", "-1", "-1/2", "0", "1/2", "1")]
    started = time.perf_counter()
    failures = []
    disagreement_witnessed = False
    for a in grid:
        for b in grid:
            lam = Weight((a, b))
            module = verma_module("A", 2, (a, b))
            crit = bgg_criterion(module._rs, lam, ALL_POSITIVE)
            oracle = simplicity_oracle(module, 8)
            reachable = any(n * beta.height <= 8
                            for beta, n in crit.witnesses)
            if oracle.reducible != reachable:
                failures.append(("iff", a, b))
            if crit.simple and oracle.reducible:
                failures.append(("spurious", a, b))
            if (a, b) == (Fraction(-1, 2), Fraction(-1, 2)):
                delta_only = bgg_criterion(module._rs, lam, DELTA_ONLY)
                witnessed = {nu for nu, _ in oracle.witnesses}
                disagreement_witnessed = (delta_only.simple
                                          and not crit.simple
                                          and (1, 1) in witnessed)
    elapsed = time.perf_counter() - started
    ok = not failures and disagreement_witnessed and elapsed < 60.0
    assert _report("c3", "sl3 criterion-oracle agreement", ok), (
        "failures=%r disagreement=%r elapsed=%.2fs"
        % (failures, disagreement_witnessed, elapsed))


# -- c4: Weyl combinatorics ----------------------------------------------------

def test_c4a_weyl_orders_and_trivial_cosets():
    orders = {("A", 1): 2, ("A", 2): 6, ("A", 3): 24,
              ("B", 2): 8, ("C", 2): 8, ("G", 2): 12}
    ok = True
    for (t, r), expected in orders.items():
        group = build_weyl_group(build_root_system(t, r))
        ok = ok and len(group) == expected
    a2 = build_root_system("A", 2)
    empty = ParabolicType.of(())
    decomposition = double_cosets(a2, empty, empty)
    ok = ok and len(decomposition.representatives) == 6
    assert _report("c4a", "weyl group orders and trivial cosets", ok)


def test_c4b_a2_parabolic_double_coset_count():
    rs = build_root_system("A", 2)
    group = build_weyl_group(rs)
    sub = ParabolicType.of((1,))
    empty = ParabolicType.of(())
    two_sided = double_cosets(rs, sub, sub)
    one_sided = len(double_cosets(rs, sub, empty).representatives)
    # Each (I, J) double coset holds exactly one element with no left descent
    # in I and no right descent in J; count those without double_cosets.
    gens = {w.word[0]: w for w in group if w.length == 1}
    minimal = [w for w in group
               if all(multiply(rs, gens[i], w).length > w.length
                      for i in sub.indices)
               and all(multiply(rs, w, gens[j]).length > w.length
                       for j in sub.indices)]
    # S_(2,1) \ S_3 / S_(2,1): the 2x2 non-negative matrices with row and
    # column sums (2, 1) are [[2,0],[0,1]] and [[1,1],[1,0]], so 2 cosets,
    # {e, s1} and the other four elements. W_I \ W alone has 6 / 2 = 3.
    count = len(two_sided.representatives)
    ok = (count == len(minimal) == 2
          and two_sided.coset_sizes() == (2, 4)
          and [str(r) for r in two_sided.representatives] == ["e", "s2"]
          and [str(w) for w in minimal] == ["e", "s2"])
    _report("c4b", "a2 parabolic double coset count", ok)
    assert one_sided == 3
    assert ok, (
        "expected 2 double cosets; got %d of sizes %r with representatives "
        "%r, and minimal (I, J) representatives %r"
        % (count, two_sided.coset_sizes(),
           [str(r) for r in two_sided.representatives],
           [str(w) for w in minimal]))


def test_c4c_double_cosets_partition():
    # The orbits u * d * v over W_I x W_J of the representatives d are
    # disjoint, cover W, have the reported sizes and have d as a shortest
    # element. W_I is the elements whose reduced word uses only I.
    ok = True
    for t, r in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(t, r)
        group = build_weyl_group(rs)
        indices = range(1, r + 1)
        subsets = []
        for size in range(r + 1):
            subsets.extend(itertools.combinations(indices, size))
        for subset_i in subsets:
            for subset_j in subsets:
                dec = double_cosets(rs, ParabolicType.of(subset_i),
                                    ParabolicType.of(subset_j))
                sub_i = [u for u in group if set(u.word) <= set(subset_i)]
                sub_j = [v for v in group if set(v.word) <= set(subset_j)]
                covered = set()
                for d, size in zip(dec.representatives, dec.coset_sizes()):
                    orbit = {multiply(rs, multiply(rs, u, d), v)
                             for u in sub_i for v in sub_j}
                    ok = (ok and len(orbit) == size and not orbit & covered
                          and d.length == min(w.length for w in orbit))
                    covered |= orbit
                ok = ok and covered == set(group) and dec.group_order == len(group)
    assert _report("c4c", "double cosets partition the group", ok)


# -- c5: Iwahori partition invariant -------------------------------------------

def test_c5_iwahori_partition_invariant():
    ok = True
    for t, r in (("A", 1), ("A", 2), ("B", 2)):
        rs = build_root_system(t, r)
        group = build_weyl_group(rs)
        signed = [Root(tuple(s * c for c in root.coords))
                  for root in rs.positive_roots for s in (1, -1)]
        for size in range(r + 1):
            for subset in itertools.combinations(range(1, r + 1), size):
                idx = set(subset)
                expected = sorted(
                    root.coords for root in signed
                    if not all(c == 0 or (k + 1) in idx
                               for k, c in enumerate(root.coords)))
                for w in group:
                    plus, minus = iwahori_root_partition(rs, subset, w)
                    union = sorted(root.coords for root in plus + minus)
                    disjoint = not (set(plus) & set(minus))
                    ok = ok and union == expected and disjoint
    assert _report("c5", "iwahori partition invariant", ok)


# -- c6: weight-space dimensions ------------------------------------------------

def _multiset_partitions(roots, nu):
    if not any(nu):
        return 1
    if not roots:
        return 0
    head, rest = roots[0], roots[1:]
    total = 0
    top = min((n // c for n, c in zip(nu, head.coords) if c),
              default=0)
    for k in range(top + 1):
        reduced = tuple(n - k * c for n, c in zip(nu, head.coords))
        if all(x >= 0 for x in reduced):
            total += _multiset_partitions(rest, reduced)
    return total


def test_c6_weight_space_dimensions():
    ok = True
    for t, r in (("A", 2), ("B", 2)):
        rs = build_root_system(t, r)
        module = verma_module(t, r, (0,) * r)
        zero = Weight((Fraction(0),) * r)
        for coords in itertools.product(range(7), repeat=r):
            if sum(coords) > 6:
                continue
            expected = _multiset_partitions(list(rs.positive_roots), coords)
            nu_wt = (weight_of_root(rs, Root(coords)) if any(coords)
                     else zero)
            mu = zero - nu_wt
            got = len(weight_space_basis(module, mu))
            ok = ok and got == expected
    assert _report("c6", "weight-space dimensions", ok)


# -- c7: p-adic layer ------------------------------------------------------------

def _mahler_round_trip_ok(p):
    for k in range(9):
        series = mahler_coefficients(p, 1, lambda x: Fraction(x ** k), 8)
        for x in list(range(9)) + [10, 25]:
            if mahler_evaluate(series, (x,)) != Fraction(x ** k):
                return False
    for k1, k2 in itertools.combinations_with_replacement(range(5), 2):
        def f(x, y):
            return Fraction(x ** k1 * y ** k2)
        series = mahler_coefficients(p, 2, f, 4)
        for x in range(5):
            for y in range(5):
                if mahler_evaluate(series, (x, y)) != f(x, y):
                    return False
        if mahler_evaluate(series, (7, 6)) != f(7, 6):
            return False
    return True


def _random_series(rng, p, d, bound):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        n = tuple(rng.randint(0, bound // (2 * d)) for _ in range(d))
        num = rng.randint(-30, 30) or 1
        coeffs[n] = Fraction(num, rng.randint(1, 9)) * p ** rng.randint(-2, 2)
    return dist_series(p, d, coeffs, bound)


def _norm_multiplicative_ok(p, t, count):
    rng = random.Random(4000 + p)
    for _ in range(count):
        d = rng.choice((1, 2))
        tau = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 3))
                    for _ in range(d))
        param = RNormParam(t, tau)
        s = _random_series(rng, p, d, 12)
        u = _random_series(rng, p, d, 12)
        if r_norm(dist_multiply(s, u), param) != r_norm(s, param) + r_norm(u, param):
            return False
    return True


def _valuation_axioms_ok(p):
    rng = random.Random(5000 + p)
    omega = ((Fraction(3, 2), Fraction(2)) if p == 2
             else (Fraction(1), Fraction(2)))
    spec = PValuationSpec(p, 2, omega)
    floor = Fraction(1, p - 1)
    shift = 1 + epsilon(p)
    for _ in range(120):
        a = tuple(Fraction(rng.randint(-30, 30)) * p ** rng.randint(0, 2)
                  for _ in range(2))
        b = tuple(Fraction(rng.randint(-30, 30)) * p ** rng.randint(0, 2)
                  for _ in range(2))
        va, vb = p_valuation_of_word(spec, a), p_valuation_of_word(spec, b)
        if not (va == INF or va > floor):
            return False
        summed = tuple(x + y for x, y in zip(a, b))
        if p_valuation_of_word(spec, summed) < min(va, vb):
            return False
        scaled = tuple(p * x for x in a)
        expect = INF if va == INF else va + 1
        if p_valuation_of_word(spec, scaled) != expect:
            return False
        h = tuple(Fraction(rng.randint(-9, 9)) * p ** shift
                  for _ in range(2))
        g = tuple(Fraction(rng.randint(-9, 9)) * p ** shift
                  for _ in range(2))
        vh = canonical_valuation(p, 2, h)
        vg = canonical_valuation(p, 2, g)
        if not (vh == INF or vh > floor):
            return False
        merged = tuple(x + y for x, y in zip(h, g))
        if canonical_valuation(p, 2, merged) < min(vh, vg):
            return False
        deeper = tuple(p * x for x in h)
        expect = INF if vh == INF else vh + 1
        if canonical_valuation(p, 2, deeper) != expect:
            return False
    return True


def test_c7_padic_layer():
    ok = True
    for p in (2, 3, 5):
        ok = ok and _mahler_round_trip_ok(p)
        ok = ok and _valuation_axioms_ok(p)
    for p, t in ((2, Fraction(1, 2)), (3, Fraction(1, 3)),
                 (5, Fraction(3, 4))):
        ok = ok and _norm_multiplicative_ok(p, t, 500)
    assert _report("c7", "p-adic layer", ok)


# -- c8: deterministic golden reports --------------------------------------------

def _render(command, config, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, "--config", str(ROOT / "configs" / config),
                     "--format", fmt])
    assert code == 0
    return buf.getvalue()


def test_c8_deterministic_golden_reports():
    cases = [
        ("check", "gl2_irreducible"),
        ("check", "gl2_inconclusive"),
        ("check", "sl3_halfint"),
        ("check", "resscalars"),
        ("cosets", "cosets_a2"),
        ("partition", "partition_a2"),
        ("weights", "weights_b2"),
        ("mahler", "mahler_d2"),
        ("norm", "norm_d2"),
    ]
    ok = True
    for command, name in cases:
        for fmt, ext in (("text", "txt"), ("machine", "json")):
            golden = (GOLDEN / ("%s.%s" % (name, ext))).read_text(
                encoding="utf-8")
            first = _render(command, name + ".cfg", fmt)
            second = _render(command, name + ".cfg", fmt)
            ok = ok and first == second == golden
    assert _report("c8", "deterministic golden reports", ok)
