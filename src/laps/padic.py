"""Desk-scale p-adic machinery: p-valuations, Mahler series, weighted norms.

Everything is exact. Valuations and norm exponents are rationals, with
float('inf') standing in for +infinity (it compares exactly against
Fraction and never enters finite arithmetic).

The canonical valuation lives on the commutative uniform model group
p^(1+eps_p) Zp^d, where eps_p is 1 for p = 2 and 0 otherwise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .errors import ResourceLimitError
from .record import Record, Value

INF = float("inf")

# The box differences on the grid {0..D}^d take d*D*(D+1)^d steps, about a
# microsecond each under CPython 3.11: d = 7, D = 4 (2,187,500 steps) took
# 2.6-3.0 s, and no shipped config or bench case needs more than 576.
MAHLER_CAP = 1_000_000

Index = Tuple[int, ...]


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly for every n below _PRIME_BOUND (Sorenson and Webster 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin. From _PRIME_BOUND on, a number that no
    base shows composite is not certified and raises ValueError."""
    if n < 2 or any(n % q == 0 for q in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PRIME_BOUND:
        raise ValueError("cannot certify %d as prime: the deterministic test "
                         "is exact only below %d" % (n, _PRIME_BOUND))
    return True


def rational_valuation(p: int, x) -> object:
    """v_p of a rational number; the zero element has valuation +infinity."""
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))


def epsilon(p: int) -> int:
    """eps_p: 1 for p = 2, else 0."""
    return 1 if p == 2 else 0


class PValuationSpec(Value):
    """A p-valuation on a rank-d commutative uniform model.

    omega lists the valuations of the chosen ordered basis; each must
    exceed 1/(p-1).
    """

    def __init__(self, p: int, d: int, omega: Tuple[Fraction, ...]):
        _check_prime(p)
        if d < 1:
            raise ValueError("d must be at least 1")
        if len(omega) != d:
            raise ValueError("omega arity %d does not match d = %d"
                             % (len(omega), d))
        bound = Fraction(1, p - 1)
        for w in omega:
            if not isinstance(w, Fraction):
                raise ValueError("omega entries must be Fractions")
            if w <= bound:
                raise ValueError("omega entry %s must exceed 1/(p-1) = %s"
                                 % (w, bound))
        self.__dict__.update(p=p, d=d, omega=omega)


def p_valuation_of_word(spec: PValuationSpec, exponents) -> object:
    """omega(h_1^{a_1} ... h_d^{a_d}) = min_i omega_i + v_p(a_i).

    The exponents are p-adic integers given as rationals with v_p >= 0;
    the identity word (all exponents zero) gets +infinity.
    """
    if len(exponents) != spec.d:
        raise ValueError("expected %d exponents, got %d" % (spec.d, len(exponents)))
    best = INF
    for w, a in zip(spec.omega, exponents):
        v = rational_valuation(spec.p, a)
        if v is not INF and v < 0:
            raise ValueError("exponent %s is not a p-adic integer" % (Fraction(a),))
        if v is not INF:
            best = min(best, w + v)
    return best


def canonical_valuation(p: int, d: int, h) -> object:
    """The canonical p-valuation on the model group p^(1+eps_p) Zp^d.

    For this commutative model the filtration steps are P_i = p^(i-1) P_1,
    so the value collapses to min_j v_p(h_j). Coordinates must lie in the
    model group (valuation at least 1 + eps_p, or zero); the identity gets
    +infinity.
    """
    _check_prime(p)
    if d < 1:
        raise ValueError("d must be at least 1")
    if len(h) != d:
        raise ValueError("expected %d coordinates, got %d" % (d, len(h)))
    eps = epsilon(p)
    best = INF
    for x in h:
        v = rational_valuation(p, x)
        if v is INF:
            continue
        if v < 1 + eps:
            raise ValueError("coordinate %s lies outside p^%d Zp"
                             % (Fraction(x), 1 + eps))
        best = min(best, v)
    return best


def _normalize_terms(d: int, coefficients: Mapping[Index, Fraction],
                     degree_bound: int) -> Dict[Index, Fraction]:
    out: Dict[Index, Fraction] = {}
    for n, c in coefficients.items():
        n = tuple(int(k) for k in n)
        if len(n) != d or any(k < 0 for k in n):
            raise ValueError("bad multi-index %r for d = %d" % (n, d))
        if sum(n) > degree_bound:
            raise ValueError("multi-index %r exceeds degree bound %d"
                             % (n, degree_bound))
        c = Fraction(c)
        if c != 0:
            out[n] = c
    return out


class _Series(Record):
    def __init__(self, p: int, d: int, coefficients: Dict[Index, Fraction],
                 degree_bound: int):
        self.__dict__.update(p=p, d=d, coefficients=coefficients,
                             degree_bound=degree_bound)


class MahlerSeries(_Series):
    """Finite Mahler expansion sum_n c_n binom(x, n) of a function on a grid."""


class DistSeries(_Series):
    """Finite distribution series sum_n d_n b^n in the basis monomials b^n."""


def dist_series(p: int, d: int, coefficients: Mapping[Index, Fraction],
                degree_bound: int) -> DistSeries:
    """Validated DistSeries constructor; zero coefficients are dropped."""
    _check_prime(p)
    if d < 1 or degree_bound < 0:
        raise ValueError("need d >= 1 and degree_bound >= 0")
    return DistSeries(p, d, _normalize_terms(d, coefficients, degree_bound),
                      degree_bound)


class RNormParam(Value):
    """Parameters of the r-norm with r = p^(-t), 0 < t < 1.

    tau_weights are the basis valuations entering tau(n) = sum n_i tau_i.
    """

    def __init__(self, t: Fraction, tau_weights: Tuple[Fraction, ...]):
        if not isinstance(t, Fraction) or not 0 < t < 1:
            raise ValueError("t must be a Fraction strictly between 0 and 1")
        for w in tau_weights:
            if not isinstance(w, Fraction) or w <= 0:
                raise ValueError("tau weights must be positive Fractions")
        self.__dict__.update(t=t, tau_weights=tau_weights)


def _grid_table(d: int, f, bound: int) -> Dict[Index, Fraction]:
    points = [()]
    for _ in range(d):
        points = [pt + (k,) for pt in points for k in range(bound + 1)]
    table = {}
    for pt in points:
        if callable(f):
            value = f(*pt)
        else:
            try:
                value = f[pt]
            except KeyError:
                raise ValueError("function table is missing grid point %r" % (pt,))
        table[pt] = Fraction(value)
    return table


def _product_exceeds(factors, limit: int) -> bool:
    """Whether the product of the factors (ints >= 0) exceeds limit. It
    stops multiplying once the product passes limit or reaches 0."""
    product = 1
    for x in factors:
        product *= x
        if not 0 < product <= limit:
            break
    return product > limit


def mahler_coefficients(p: int, d: int, f, bound: int) -> MahlerSeries:
    """Mahler coefficients of f on the grid {0..bound}^d.

    f is a callable or a mapping from grid points to rationals and must
    cover the whole grid. Coefficients are iterated finite differences,
    c_n = (Delta^n f)(0), computed on the full box so the binomial
    reconstruction reproduces f exactly on every grid point. A grid whose
    differences would take more than MAHLER_CAP steps is refused with
    ResourceLimitError before it is built.
    """
    _check_prime(p)
    if d < 1 or bound < 0:
        raise ValueError("need d >= 1 and bound >= 0")
    steps = itertools.chain((d, bound), (bound + 1 for _ in range(d)))
    if _product_exceeds(steps, MAHLER_CAP):
        raise ResourceLimitError(
            "Mahler grid {0..%d}^%d needs d*D*(D+1)^d = %d*%d*(%d+1)^%d "
            "difference steps, over the limit %d"
            % (bound, d, d, bound, bound, d, MAHLER_CAP))
    table = _grid_table(d, f, bound)
    for axis in range(d):
        table = _difference_axis(table, axis, bound)
    coefficients = {pt: c for pt, c in table.items() if c != 0}
    return MahlerSeries(p, d, coefficients, d * bound)


def _difference_axis(table: Dict[Index, Fraction], axis: int,
                     bound: int) -> Dict[Index, Fraction]:
    """Replace values along one axis by iterated forward differences at 0.

    Sweep m freezes indices below m, the usual Newton difference-table
    recursion, so entry n ends up holding (Delta^n f)(0) along this axis.
    """
    out = table
    for m in range(1, bound + 1):
        prev = out
        out = {}
        for pt, value in prev.items():
            n = pt[axis]
            if n >= m:
                lower = pt[:axis] + (n - 1,) + pt[axis + 1:]
                out[pt] = value - prev[lower]
            else:
                out[pt] = value
    return out


def mahler_evaluate(series: MahlerSeries, point: Index) -> Fraction:
    """Evaluate the binomial expansion at a grid point."""
    if len(point) != series.d:
        raise ValueError("point arity %d does not match d = %d"
                         % (len(point), series.d))
    acc = Fraction(0)
    for n, c in series.coefficients.items():
        term = c
        for x, k in zip(point, n):
            term *= math.comb(x, k)
        acc += term
    return acc


def r_norm(series: DistSeries, param: RNormParam) -> object:
    """Exponent of the weighted Gauss norm: min_n v_p(d_n) + t * tau(n).

    The norm itself is p to the negative of this value; the zero series
    gets +infinity.
    """
    if len(param.tau_weights) != series.d:
        raise ValueError("tau arity %d does not match d = %d"
                         % (len(param.tau_weights), series.d))
    best = INF
    for n, c in series.coefficients.items():
        tau = sum(k * w for k, w in zip(n, param.tau_weights))
        best = min(best, rational_valuation(series.p, c) + param.t * tau)
    return best


def dist_multiply(s: DistSeries, u: DistSeries) -> DistSeries:
    """Convolution product truncated at the smaller degree bound."""
    if s.p != u.p or s.d != u.d:
        raise ValueError("series live on different models")
    bound = min(s.degree_bound, u.degree_bound)
    acc: Dict[Index, Fraction] = {}
    for n1, c1 in s.coefficients.items():
        for n2, c2 in u.coefficients.items():
            n = tuple(a + b for a, b in zip(n1, n2))
            if sum(n) > bound:
                continue
            acc[n] = acc.get(n, Fraction(0)) + c1 * c2
    return DistSeries(s.p, s.d, {n: c for n, c in acc.items() if c != 0}, bound)
