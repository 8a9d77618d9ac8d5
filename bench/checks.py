"""Independent output checks.

Every expectation is recomputed here from the definitions in CONVENTIONS.md
(Cartan matrices, symmetrizer, the coroot formula, Kostant partitions, the
binomial basis and the Gauss norm) without calling into `laps`. A check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Coords = Tuple[int, ...]


# ---------------------------------------------------------------- root data

def _cartan(t: str, r: int):
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    chain = r - 1 if t in "ABC" else r - 2
    for i in range(chain):
        a[i][i + 1] = a[i + 1][i] = -1
    if t == "B":
        a[r - 1][r - 2] = -2
    elif t == "C":
        a[r - 2][r - 1] = -2
    elif t == "D":
        a[r - 3][r - 1] = a[r - 1][r - 3] = -1
    return a


@functools.lru_cache(maxsize=None)
def root_data(t: str, r: int):
    """(cartan, symmetrizer, positive roots sorted by height then coords)."""
    a = _cartan(t, r)
    d = [Fraction(1)] + [None] * (r - 1)
    for _ in range(r):
        for i in range(r):
            for j in range(r):
                if d[i] is not None and d[j] is None and a[i][j]:
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
    scale = math.lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = math.gcd(*ints)
    sym = [x // g for x in ints]
    roots = {tuple(int(i == k) for i in range(r)) for k in range(r)}
    frontier = set(roots)
    while frontier:
        new = set()
        for c in frontier:
            for i in range(r):
                image = list(c)
                image[i] -= sum(a[i][j] * c[j] for j in range(r))
                image = tuple(image)
                if image not in roots:
                    new.add(image)
        roots |= new
        frontier = new
    positive = sorted((c for c in roots if all(x >= 0 for x in c)),
                      key=lambda c: (sum(c), c))
    return a, sym, positive


def weyl_order(t: str, r: int) -> int:
    f = math.factorial(r)
    return {"A": math.factorial(r + 1), "B": 2 ** r * f, "C": 2 ** r * f,
            "D": 2 ** (r - 1) * f}[t]


def fmt_root(c: Coords) -> str:
    if not all(x >= 0 for x in c):
        return "-(%s)" % fmt_root(tuple(-x for x in c))
    parts = [("a%d" if x == 1 else "%da%%d" % x) % i
             for i, x in enumerate(c, 1) if x]
    return "+".join(parts) if parts else "0"


def parse_root(s: str, rank: int) -> Coords:
    if s.startswith("-(") and s.endswith(")"):
        return tuple(-x for x in parse_root(s[2:-1], rank))
    c = [0] * rank
    if s != "0":
        for term in s.split("+"):
            m = re.fullmatch(r"(\d*)a(\d+)", term)
            if m is None:
                raise ValueError("bad root %r" % s)
            c[int(m.group(2)) - 1] = int(m.group(1) or 1)
    return tuple(c)


def _value(x):
    return None if x == "generic" else Fraction(x)


def criterion_witnesses(t: str, r: int, lam, variant: str):
    """Witnesses (beta, n): n = (lam + delta)(H_beta) a positive integer.

    delta pairs to 1 with every simple coroot, and
    H_beta = sum_i c_i (d_i / d_beta) H_{alpha_i}. A generic coordinate in
    the support of beta makes the pairing generic, never an integer.
    """
    a, sym, positive = root_data(t, r)
    shifted = [None if v is None else v + 1 for v in map(_value, lam)]
    candidates = positive[:r] if variant == "delta-only" else positive
    out = set()
    for c in candidates:
        if any(shifted[i] is None for i in range(r) if c[i]):
            continue
        d_beta = Fraction(sum(c[i] * c[j] * sym[i] * a[i][j]
                              for i in range(r) for j in range(r)), 2)
        v = sum(c[i] * sym[i] * shifted[i] for i in range(r) if c[i]) / d_beta
        if v.denominator == 1 and v > 0:
            out.add((c, int(v)))
    return out


@functools.lru_cache(maxsize=None)
def kostant_counts(t: str, r: int, height: int) -> Dict[Coords, int]:
    """p(nu) for every nu with height <= bound: ways to write nu as a sum of
    positive roots, by the coin-change recursion over the roots."""
    _, _, positive = root_data(t, r)
    box = [()]
    for _ in range(r):
        box = [b + (k,) for b in box for k in range(height + 1)]
    box = sorted((b for b in box if sum(b) <= height), key=lambda b: (sum(b), b))
    ways = {b: int(not any(b)) for b in box}
    for beta in positive:
        for b in box:
            prev = tuple(x - y for x, y in zip(b, beta))
            if min(prev) >= 0:
                ways[b] += ways[prev]
    return ways


def p_valuation(p: int, x: Fraction) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ------------------------------------------------------------------ parsing

def _check_payload(out: str, machine: bool):
    """(verdict, criteria, oracle blocks) from either report format."""
    if machine:
        payload = json.loads(out)
        criteria = [(e["embedding"], e["variant"],
                     {(w["beta"], w["n"]) for w in e["witnesses"]})
                    for e in payload["criteria"]]
        blocks = []
        for b in payload["oracle"] or ():
            if "skipped" in b:
                blocks.append((b["embedding"], None, None, None))
            else:
                blocks.append((b["embedding"], b["bound"], b["reducible"],
                               {w["weight"][len("lambda - ("):-1]
                                for w in b["witnesses"]}))
        return payload["verdict"], criteria, blocks
    verdict, criteria, blocks = None, [], []
    for line in out.splitlines():
        m = re.fullmatch(r"criterion \[([\w-]+)\](?: (\w+))?: (?:simple|not simple)",
                         line)
        if m:
            criteria.append((m.group(2), m.group(1), set()))
            continue
        m = re.fullmatch(r"  witness: beta = (\S+), n = (\d+)", line)
        if m:
            criteria[-1][2].add((m.group(1), int(m.group(2))))
            continue
        m = re.fullmatch(r"verdict: (\S+)", line)
        if m:
            verdict = m.group(1)
            continue
        m = re.fullmatch(r"oracle(?: (\w+))?: skipped .*", line)
        if m:
            blocks.append((m.group(1), None, None, None))
            continue
        m = re.fullmatch(r"oracle(?: (\w+))? \[bound (\d+)\]: (.*)", line)
        if m:
            blocks.append((m.group(1), int(m.group(2)),
                           m.group(3) == "reducible", set()))
            continue
        m = re.fullmatch(r"  lambda - \((.+)\): dim \d+", line)
        if m:
            blocks[-1][3].add(m.group(1))
    return verdict, criteria, blocks


def _text_rows(out: str, pattern: str) -> List[Tuple[str, ...]]:
    return [m.groups() for m in map(re.compile(pattern).fullmatch,
                                    out.splitlines()) if m]


# ------------------------------------------------------------------- checks

def _characters(exp) -> List[Tuple[Optional[str], str, int, list]]:
    """(embedding label, type, rank, lambda) for every character of a check."""
    kind = exp["group"][0]
    if kind == "lie":
        return [(None, exp["group"][1], exp["group"][2], exp["lambda"])]
    out = []
    for k, (c1, c2) in enumerate(exp["c"], 1):
        v1, v2 = _value(c1), _value(c2)
        lam = "generic" if v1 is None or v2 is None else -(v1 - v2)
        out.append(("sigma%d" % k if kind == "res" else None, "A", 1, [lam]))
    return out


def check_check(exp, out: str, machine: bool) -> Optional[str]:
    verdict, criteria, blocks = _check_payload(out, machine)
    requested = exp["variant"] or "all-positive"
    shown = ("delta-only", "all-positive") if requested == "both" else (requested,)
    decisive = "all-positive" if requested == "both" else requested
    expected, simple = [], True
    for label, t, r, lam in _characters(exp):
        for variant in shown:
            wits = criterion_witnesses(t, r, lam, variant)
            expected.append((label, variant, {(fmt_root(c), n) for c, n in wits}))
            if variant == decisive and wits:
                simple = False
    if criteria != expected:
        return "criterion witnesses differ from the recomputed ones"
    if verdict != ("irreducible" if simple else "inconclusive"):
        return "verdict %r does not match the recomputed criterion" % verdict
    bound = exp["oracle_bound"]
    if bound is None:
        return None if not blocks else "unexpected oracle block"
    if len(blocks) != len(_characters(exp)):
        return "missing oracle block"
    for (label, t, r, lam), (_, got_bound, reducible, weights) in zip(
            _characters(exp), blocks):
        if got_bound is None:
            if all(x != "generic" for x in lam):
                return "oracle skipped a rational character"
            continue
        if got_bound != bound:
            return "oracle bound %s, asked for %d" % (got_bound, bound)
        wits = criterion_witnesses(t, r, lam, "all-positive")
        if reducible and not wits:
            return "oracle reducible where the criterion has no witness"
        for c, n in wits:
            if n * sum(c) <= bound and fmt_root(tuple(n * x for x in c)) not in weights:
                return "oracle misses singular weight lambda - %d(%s)" % (n, fmt_root(c))
    return None


def check_weights(exp, out: str, machine: bool) -> Optional[str]:
    (t, r), height = exp["type"], exp["height_bound"]
    if machine:
        rows = [(row["nu"], row["dimension"]) for row in json.loads(out)["rows"]]
    else:
        rows = _text_rows(out, r"  nu = (\S+) \(height \d+\): dim (\d+)")
    got = {parse_root(nu, r): int(dim) for nu, dim in rows}
    counts = kostant_counts(t, r, height)
    if len(rows) != len(got) or set(got) != set(counts):
        return "weight rows do not cover height <= %d exactly once" % height
    for nu, dim in got.items():
        if dim != counts[nu]:
            return "dim at nu = %s is %d, Kostant count %d" % (fmt_root(nu), dim, counts[nu])
    return None


def check_cosets(exp, out: str, machine: bool) -> Optional[str]:
    t, r = exp["type"]
    if machine:
        payload = json.loads(out)
        order, sizes = payload["group_order"], [c["size"] for c in payload["cosets"]]
        count = payload["coset_count"]
    else:
        order = int(_text_rows(out, r"group order: (\d+)")[0][0])
        count = int(_text_rows(out, r"double cosets: (\d+)")[0][0])
        sizes = [int(s) for (s,) in _text_rows(out, r"  \[\d+\] .*, size = (\d+)")]
    expected = weyl_order(t, r)
    if order != expected or sum(sizes) != expected or count != len(sizes):
        return "coset sizes sum to %d, |W| = %d" % (sum(sizes), expected)
    return None


def check_partition(exp, out: str, machine: bool) -> Optional[str]:
    t, r = exp["type"]
    if machine:
        payload = json.loads(out)
        plus, minus = payload["plus"], payload["minus"]
    else:
        rows = dict(_text_rows(out, r"roots with w\^-1\(alpha\) ([<>]) 0: \[(.*)\]"))
        plus, minus = ([s for s in rows[k].split(", ") if s] for k in (">", "<"))
    plus = [parse_root(s, r) for s in plus]
    minus = [parse_root(s, r) for s in minus]
    _, _, positive = root_data(t, r)
    outside = {s for c in positive for s in (c, tuple(-x for x in c))
               if any(x and (i + 1) not in exp["I"] for i, x in enumerate(c))}
    if set(plus) & set(minus) or len(plus) + len(minus) != len(outside) \
            or set(plus) | set(minus) != outside:
        return "plus and minus do not split the roots outside the I-span"
    return None


def check_mahler(exp, out: str, machine: bool) -> Optional[str]:
    d, degree, mono = exp["d"], exp["degree"], exp["monomial"]
    if machine:
        coeffs = [(tuple(row["n"]), Fraction(row["c"]))
                  for row in json.loads(out)["coefficients"]]
    else:
        coeffs = [(tuple(int(x) for x in n.split(", ") if x), Fraction(c))
                  for n, c in _text_rows(out, r"  n = \[(.*)\]: c = (\S+)")]
    grid = [()]
    for _ in range(d):
        grid = [g + (k,) for g in grid for k in range(degree + 1)]
    for x in grid:
        value = sum(c * math.prod(math.comb(xi, ni) for xi, ni in zip(x, n))
                    for n, c in coeffs)
        if value != math.prod(xi ** k for xi, k in zip(x, mono)):
            return "binomial reconstruction differs at %r" % (x,)
    return None


def check_norm(exp, out: str, machine: bool) -> Optional[str]:
    p, t = exp["p"], Fraction(exp["t"])
    tau = [Fraction(x) for x in exp["tau"]]
    if machine:
        got = json.loads(out)["exponent"]
    else:
        got = _text_rows(out, r"exponent: (\S+)")[0][0]
    expected = min((p_valuation(p, Fraction(c)) + t * sum(k * w for k, w in zip(n, tau))
                    for n, c in exp["terms"] if Fraction(c)), default=None)
    if (got == "inf") != (expected is None) or (
            expected is not None and Fraction(got) != expected):
        return "exponent %s, expected %s" % (got, expected)
    return None


_CHECKS = {"check": check_check, "weights": check_weights, "cosets": check_cosets,
           "partition": check_partition, "mahler": check_mahler,
           "norm": check_norm}


def judge(case, status, out: str) -> Optional[str]:
    """None when the call ended as the case requires, else why it failed.

    status is the exit code, or "timeout" / "crash: ..." from the runner.
    """
    if not isinstance(status, int):
        return status
    if case.expect.get("malformed"):
        if status != 1 or out:
            return "malformed config exited %d, expected 1" % status
        return None
    if status != 0:
        return "exit code %d" % status
    try:
        return _CHECKS[case.command](case.expect, out, case.machine)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return "unparseable report: %s: %s" % (type(exc).__name__, exc)
