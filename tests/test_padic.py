"""p-adic layer: valuations, the canonical filtration valuation, Mahler
coefficients, series products, and the weighted Gauss norm.

Everything is exact exponent arithmetic; the only infinity is the float
INF sentinel for zero elements.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from laps import (DistSeries, MahlerSeries, PValuationSpec, RNormParam,
                  ResourceLimitError, canonical_valuation, dist_multiply,
                  dist_series, mahler_coefficients, mahler_evaluate,
                  p_valuation_of_word, padic, r_norm, rational_valuation)
from laps.padic import INF, epsilon, is_prime


# -- primitives --------------------------------------------------------------

def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_trial_division():
    for n in range(10 ** 5):
        expected = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == expected, n


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)
    # 149491 * 747451 * 34233211, a strong pseudoprime to the bases 2..23.
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not is_prime(3825123056546413051)
    # Above the deterministic range a base still proves compositeness ...
    assert not is_prime((2 ** 61 - 1) * (2 ** 31 - 1))
    # ... but a number that passes every base is not certified.
    with pytest.raises(ValueError, match="cannot certify"):
        is_prime(2 ** 89 - 1)


def test_rational_valuation():
    assert rational_valuation(3, Fraction(9)) == 2
    assert rational_valuation(3, Fraction(1, 3)) == -1
    assert rational_valuation(2, Fraction(12)) == 2
    assert rational_valuation(5, Fraction(7, 11)) == 0
    assert rational_valuation(3, Fraction(0)) == INF


def test_epsilon_singles_out_two():
    assert epsilon(2) == 1
    assert epsilon(3) == 0
    assert epsilon(5) == 0


# -- word valuations ---------------------------------------------------------

def test_valuation_spec_validation():
    with pytest.raises(ValueError):
        PValuationSpec(4, 1, (Fraction(1),))
    with pytest.raises(ValueError):
        PValuationSpec(3, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        PValuationSpec(3, 1, (Fraction(1, 2),))  # needs > 1/(p-1) strictly
    with pytest.raises(ValueError):
        PValuationSpec(2, 1, (Fraction(1),))  # p=2 needs > 1
    PValuationSpec(2, 1, (Fraction(3, 2),))


def test_word_valuation_examples():
    spec = PValuationSpec(3, 2, (Fraction(1), Fraction(1)))
    assert p_valuation_of_word(spec, (Fraction(1), Fraction(0))) == 1
    assert p_valuation_of_word(spec, (Fraction(3), Fraction(1))) == 1
    assert p_valuation_of_word(spec, (Fraction(0), Fraction(0))) == INF


def test_word_valuation_rejects_non_integral():
    spec = PValuationSpec(3, 1, (Fraction(1),))
    with pytest.raises(ValueError):
        p_valuation_of_word(spec, (Fraction(1, 3),))
    with pytest.raises(ValueError):
        p_valuation_of_word(spec, (Fraction(1),) * 2)


def _random_padic_vector(rng, p, d):
    return tuple(Fraction(rng.randint(-40, 40)) * p ** rng.randint(0, 3)
                 for _ in range(d))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_word_valuation_axioms(p):
    rng = random.Random(900 + p)
    omega = (Fraction(3, 2), Fraction(2)) if p == 2 else (Fraction(1), Fraction(2))
    spec = PValuationSpec(p, 2, omega)
    floor = Fraction(1, p - 1)
    for _ in range(150):
        a = _random_padic_vector(rng, p, 2)
        b = _random_padic_vector(rng, p, 2)
        va = p_valuation_of_word(spec, a)
        vb = p_valuation_of_word(spec, b)
        assert va > floor
        summed = tuple(x + y for x, y in zip(a, b))
        assert p_valuation_of_word(spec, summed) >= min(va, vb)
        scaled = tuple(p * x for x in a)
        expect = INF if va == INF else va + 1
        assert p_valuation_of_word(spec, scaled) == expect


# -- canonical valuation -----------------------------------------------------

def test_canonical_valuation_examples():
    assert canonical_valuation(3, 2, (Fraction(3), Fraction(9))) == 1
    assert canonical_valuation(3, 1, (Fraction(27),)) == 3
    assert canonical_valuation(3, 1, (Fraction(0),)) == INF


def test_canonical_valuation_p2_epsilon():
    assert canonical_valuation(2, 1, (Fraction(4),)) == 2
    assert canonical_valuation(2, 2, (Fraction(8), Fraction(4))) == 2
    with pytest.raises(ValueError):
        canonical_valuation(2, 1, (Fraction(2),))  # needs v >= 1 + eps = 2


def test_canonical_valuation_membership():
    with pytest.raises(ValueError):
        canonical_valuation(3, 1, (Fraction(1),))
    with pytest.raises(ValueError):
        canonical_valuation(3, 2, (Fraction(3), Fraction(1, 3)))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_valuation_range_axiom(p):
    rng = random.Random(77 + p)
    floor = Fraction(1, p - 1)
    shift = 1 + epsilon(p)
    for _ in range(100):
        h = tuple(Fraction(rng.randint(-9, 9)) * p ** shift for _ in range(2))
        v = canonical_valuation(p, 2, h)
        assert v == INF or v > floor


# -- mahler expansions -------------------------------------------------------

def test_mahler_of_identity():
    s = mahler_coefficients(3, 1, lambda x: Fraction(x), 4)
    assert s.coefficients == {(1,): Fraction(1)}


def test_mahler_of_square():
    s = mahler_coefficients(3, 1, lambda x: Fraction(x * x), 4)
    assert s.coefficients == {(1,): Fraction(1), (2,): Fraction(2)}


@pytest.mark.parametrize("k", range(5))
def test_mahler_basis_self_expansion(k):
    s = mahler_coefficients(5, 1, lambda x: Fraction(math.comb(x, k)), 6)
    assert s.coefficients == {(k,): Fraction(1)}


def test_mahler_round_trip_on_grid():
    rng = random.Random(1203)
    table = {(i, j): Fraction(rng.randint(-50, 50), rng.randint(1, 7))
             for i in range(4) for j in range(4)}
    s = mahler_coefficients(3, 2, table, 3)
    for point, value in table.items():
        assert mahler_evaluate(s, point) == value


def test_mahler_polynomial_extends_beyond_grid():
    s = mahler_coefficients(3, 1, lambda x: Fraction(x ** 2), 4)
    assert mahler_evaluate(s, (10,)) == 100


def test_mahler_incomplete_table_rejected():
    table = {(0,): Fraction(1), (2,): Fraction(1)}
    with pytest.raises(ValueError):
        mahler_coefficients(3, 1, table, 2)
    # The message names the first missing point in itertools.product order.
    table = {pt: Fraction(1) for pt in itertools.product(range(3), repeat=2)}
    del table[(1, 2)], table[(2, 0)]
    with pytest.raises(ValueError, match=r"missing grid point \(1, 2\)"):
        mahler_coefficients(3, 2, table, 2)


def _mahler_reference(d, table, bound):
    """c_n = sum over k <= n of (-1)^(|n| - |k|) prod_i C(n_i, k_i) f(k),
    the closed form of the iterated differences, nonzero terms only, in
    itertools.product order."""
    box = list(itertools.product(range(bound + 1), repeat=d))
    out = {}
    for n in box:
        c = sum((-1) ** (sum(n) - sum(k))
                * math.prod(math.comb(a, b) for a, b in zip(n, k)) * table[k]
                for k in itertools.product(*(range(a + 1) for a in n)))
        if c != 0:
            out[n] = c
    return out


def test_mahler_matches_the_closed_form_on_random_tables():
    rng = random.Random(5821)
    for trial in range(40):
        d, bound = rng.randint(1, 3), rng.randint(0, 4)
        table = {pt: Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                 for pt in itertools.product(range(bound + 1), repeat=d)}
        if trial % 3 == 0:  # sparse tables: many coefficients vanish
            table = {pt: v if rng.random() < 0.2 else Fraction(0)
                     for pt, v in table.items()}
        expected = _mahler_reference(d, table, bound)
        for f in (table, lambda *pt: table[pt]):
            s = mahler_coefficients(3, d, f, bound)
            assert list(s.coefficients.items()) == list(expected.items())
            assert s.degree_bound == d * bound
        for point, value in table.items():  # s is the same for both forms
            assert mahler_evaluate(s, point) == value


def test_mahler_callable_key_error_propagates():
    # Only a mapping's missing point becomes the ValueError; a KeyError
    # raised inside a callable is the caller's own and passes through.
    def f(x, y):
        return {}[(x, y)]
    with pytest.raises(KeyError, match=r"\(0, 0\)"):
        mahler_coefficients(3, 2, f, 2)


def test_mahler_degree_bound_is_full_box():
    s = mahler_coefficients(2, 2, lambda x, y: Fraction(1), 3)
    assert s.degree_bound == 6
    assert s.coefficients == {(0, 0): Fraction(1)}


def test_mahler_budget_admits_its_limit(monkeypatch):
    # d = 2, D = 3: two axes of three sweeps over 4^2 points = 96 steps
    def f(x, y):
        return x * y
    monkeypatch.setattr(padic, "MAHLER_CAP", 96)
    assert mahler_coefficients(3, 2, f, 3).coefficients == {(1, 1): 1}
    monkeypatch.setattr(padic, "MAHLER_CAP", 95)
    with pytest.raises(ResourceLimitError,
                       match=r"\{0\.\.3\}\^2 needs d\*D\*\(D\+1\)\^d = "
                             r"2\*3\*\(3\+1\)\^2 difference steps, over the "
                             r"limit 95"):
        mahler_coefficients(3, 2, f, 3)


# d is at most the monomial's length in a config, but not for a library
# caller; no power (D + 1)^d is formed.
@pytest.mark.parametrize("d,bound", [(10 ** 4299, 1), (10 ** 4299, 10 ** 4299)])
def test_mahler_over_budget_refused_before_the_grid(d, bound):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="over the limit 1000000"):
        mahler_coefficients(3, d, lambda *point: 0, bound)
    assert time.perf_counter() - start < 1.0


# -- series and norms --------------------------------------------------------

def test_dist_series_validation():
    dist_series(3, 2, {(0, 0): Fraction(1)}, 4)
    with pytest.raises(ValueError):
        dist_series(4, 1, {(0,): Fraction(1)}, 4)
    with pytest.raises(ValueError):
        dist_series(3, 1, {(0, 0): Fraction(1)}, 4)
    with pytest.raises(ValueError):
        dist_series(3, 1, {(5,): Fraction(1)}, 4)
    with pytest.raises(ValueError):
        dist_series(3, 1, {(-1,): Fraction(1)}, 4)


def test_dist_multiply_basic_products():
    one = dist_series(3, 1, {(0,): Fraction(1)}, 4)
    b = dist_series(3, 1, {(1,): Fraction(1)}, 4)
    s = dist_series(3, 1, {(0,): Fraction(2), (3,): Fraction(1, 3)}, 4)
    assert dist_multiply(s, one).coefficients == s.coefficients
    assert dist_multiply(b, b).coefficients == {(2,): Fraction(1)}
    plus = dist_series(3, 1, {(0,): Fraction(1), (1,): Fraction(1)}, 4)
    minus = dist_series(3, 1, {(0,): Fraction(1), (1,): Fraction(-1)}, 4)
    assert dist_multiply(plus, minus).coefficients == {
        (0,): Fraction(1), (2,): Fraction(-1)}


def test_dist_multiply_truncates_at_min_bound():
    a = dist_series(3, 1, {(3,): Fraction(1)}, 3)
    b = dist_series(3, 1, {(2,): Fraction(1)}, 5)
    product = dist_multiply(a, b)
    assert product.degree_bound == 3
    assert product.coefficients == {}


def test_dist_multiply_rejects_mismatch():
    a = dist_series(3, 1, {(0,): Fraction(1)}, 4)
    b = dist_series(5, 1, {(0,): Fraction(1)}, 4)
    with pytest.raises(ValueError):
        dist_multiply(a, b)


def test_rnorm_param_validation():
    RNormParam(Fraction(1, 2), (Fraction(1),))
    with pytest.raises(ValueError):
        RNormParam(Fraction(0), (Fraction(1),))
    with pytest.raises(ValueError):
        RNormParam(Fraction(1), (Fraction(1),))
    with pytest.raises(ValueError):
        RNormParam(Fraction(1, 2), (Fraction(0),))


def test_r_norm_examples():
    param = RNormParam(Fraction(1, 2), (Fraction(2),))
    one = dist_series(3, 1, {(0,): Fraction(1)}, 4)
    assert r_norm(one, param) == 0
    scaled = dist_series(3, 1, {(0,): Fraction(3)}, 4)
    assert r_norm(scaled, param) == 1
    b = dist_series(3, 1, {(1,): Fraction(1)}, 4)
    assert r_norm(b, param) == 1
    zero = dist_series(3, 1, {}, 4)
    assert r_norm(zero, param) == INF


def test_r_norm_tau_arity_checked():
    param = RNormParam(Fraction(1, 2), (Fraction(1), Fraction(1)))
    s = dist_series(3, 1, {(0,): Fraction(1)}, 2)
    with pytest.raises(ValueError):
        r_norm(s, param)


def _random_poly(rng, p, d, bound, terms):
    coeffs = {}
    for _ in range(terms):
        n = tuple(rng.randint(0, bound // (2 * d)) for _ in range(d))
        num = rng.randint(-30, 30) or 1
        coeffs[n] = Fraction(num, rng.randint(1, 9)) * p ** rng.randint(-2, 2)
    return dist_series(p, d, coeffs, bound)


@pytest.mark.parametrize("p,t", [(2, Fraction(1, 2)), (3, Fraction(1, 3)),
                                 (5, Fraction(3, 4))])
def test_r_norm_multiplicative_on_samples(p, t):
    rng = random.Random(611 * p)
    for _ in range(60):
        d = rng.choice((1, 2))
        tau = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 3))
                    for _ in range(d))
        param = RNormParam(t, tau)
        s = _random_poly(rng, p, d, 12, rng.randint(1, 4))
        u = _random_poly(rng, p, d, 12, rng.randint(1, 4))
        left = r_norm(dist_multiply(s, u), param)
        right = r_norm(s, param) + r_norm(u, param)
        assert left == right
