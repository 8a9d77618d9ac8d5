"""Command-line front end: declarative problem configs in, deterministic
reports out.

Subcommands map one-to-one onto the library layers: check (criterion and
oracle), cosets, partition, weights, mahler, norm. Reports render as a
fixed-order text layout or as JSON; both are byte-deterministic for a
fixed config.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Tuple

from . import __version__
from .errors import ConfigError, ResourceLimitError
from .padic import (_PRIME_BOUND, INF, _product_exceeds, dist_series,
                    is_prime, mahler_coefficients, r_norm, RNormParam)
from .parahoric import (ParabolicType, double_cosets, iwahori_root_partition,
                        weyl_element)
from .roots import GENERIC, Generic, Root, Weight, build_root_system
from .verma import (ALL_POSITIVE, DELTA_ONLY, VARIANTS, VermaModule,
                    bgg_criterion, character_weight, kostant_counts,
                    simplicity_oracle)

_GROUP_RE = re.compile(r"([A-G])([1-9])")
_RESSCALARS_RE = re.compile(r"ResScalars\(\s*GL2\s*,\s*([1-9]\d*)\s*\)")

VERDICT_IRREDUCIBLE = "irreducible"
VERDICT_INCONCLUSIVE = "inconclusive"


class ProblemConfig:
    """Parsed and validated problem description. parse_config fills it in
    key by key; a key the config leaves out keeps the class default."""

    group_kind = group_text = type_label = ""
    rank = gamma = 0
    oracle = False
    c = lam = variant = oracle_bound = None
    subset_i = subset_j = word = height_bound = None
    p = d = degree = monomial = t = tau = terms = None

    def __init__(self, echo: Dict[str, str]):
        self.echo = echo  # each given key's raw value, in schema order


def _tokenize_list(s: str):
    """Parse a bracketed value into nested lists of atom strings.

    Open lists live on an explicit stack, so no nesting depth can exhaust
    the interpreter stack; no key takes lists nested more than two deep.
    """
    tokens = re.findall(r"\[|\]|,|[^\[\],\s]+", s) + [None]  # None: end
    pos = 0
    open_lists: List[list] = []
    while True:
        tok = tokens[pos]
        pos += 1
        if tok is None:
            raise ValueError("unexpected end of list")
        if tok in (",", "]"):
            raise ValueError("unexpected %r" % tok)
        if tok != "[":
            value = tok
        elif tokens[pos] == "]":
            pos += 1
            value = []
        else:
            open_lists.append([])
            continue
        # A value is complete: add it to the innermost open list and close
        # every list that ends right after it.
        while open_lists:
            open_lists[-1].append(value)
            tok = tokens[pos]
            pos += 1
            if tok == ",":
                break
            if tok != "]":
                raise ValueError("unterminated list" if tok is None
                                 else "expected ',' or ']'")
            value = open_lists.pop()
        else:
            if tokens[pos] is not None:
                raise ValueError("trailing content after value")
            return value


# Every number must print, so numerators and denominators are held to
# Python's default integer-string limit. A decimal exponent of five or more
# digits breaks that limit for any nonzero mantissa, and is refused before
# Fraction builds 10**exponent.
_MAX_DIGITS = 4300
_NUMBER_CAP = 10 ** _MAX_DIGITS
_TOO_LARGE = ("number exceeds %d digits in numerator or denominator"
              % _MAX_DIGITS)
_EXPONENT_RE = re.compile(r"[eE][-+]?([\d_]+)\Z")


def _number(s: str) -> Fraction:
    """The parser of every numeric atom: a Fraction literal whose numerator
    and denominator have at most _MAX_DIGITS digits."""
    exponent = _EXPONENT_RE.search(s)
    if exponent and len(exponent.group(1).replace("_", "").lstrip("0")) > 4:
        raise ValueError(_TOO_LARGE)
    try:
        f = Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None
    if max(abs(f.numerator), f.denominator) >= _NUMBER_CAP:
        raise ValueError(_TOO_LARGE)
    return f


def _entry_atom(s: str):
    if s == "generic":
        return GENERIC
    return _number(s)


def _int_atom(s: str) -> int:
    f = _number(s)
    if f.denominator != 1:
        raise ValueError("expected an integer, got %s" % s)
    return int(f)


def _flat(value, atom, what):
    if not isinstance(value, list) or any(isinstance(x, list) for x in value):
        raise ValueError("%s must be a flat bracketed list" % what)
    return tuple(atom(x) for x in value)


def _parse_group(key, value, cfg):
    cfg.group_text = value
    m = _RESSCALARS_RE.fullmatch(value)
    if m is not None:
        cfg.type_label, cfg.rank = "A", 1
        cfg.gamma = int(m.group(1))
        return "resscalars"
    if value == "GL2":
        cfg.type_label, cfg.rank = "A", 1
        return "gl2"
    m = _GROUP_RE.fullmatch(value)
    if m is None:
        raise ValueError("group must be a Dynkin label (A2), GL2, or "
                         "ResScalars(GL2, k); got %r" % value)
    cfg.type_label, cfg.rank = m.group(1), int(m.group(2))
    try:
        build_root_system(cfg.type_label, cfg.rank)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None
    return "lie"


def _parse_c(key, value, cfg):
    parsed = _tokenize_list(value)
    if cfg.group_kind != "resscalars":
        flat = _flat(parsed, _entry_atom, key)
        if cfg.group_kind == "gl2" and len(flat) != 2:
            raise ValueError("GL2 takes exactly 2 exponents, got %d"
                             % len(flat))
        return flat
    if (not isinstance(parsed, list)
            or not all(isinstance(x, list) for x in parsed)):
        raise ValueError("c must be a list of exponent pairs for ResScalars")
    if len(parsed) != cfg.gamma:
        raise ValueError("expected %d exponent pairs, got %d"
                         % (cfg.gamma, len(parsed)))
    rows = []
    for row in parsed:
        if len(row) != 2 or any(isinstance(x, list) for x in row):
            raise ValueError("each exponent pair must have exactly 2 entries")
        rows.append(tuple(_entry_atom(x) for x in row))
    return tuple(rows)


def _parse_lambda(key, value, cfg):
    lam = _flat(_tokenize_list(value), _entry_atom, key)
    if cfg.group_kind == "lie" and len(lam) != cfg.rank:
        raise ValueError("lambda arity %d does not match rank %d"
                         % (len(lam), cfg.rank))
    return lam


def _parse_variant(key, value, cfg):
    if value not in VARIANTS + ("both",):
        raise ValueError("variant must be delta-only, all-positive, or both")
    return value


def _parse_oracle(key, value, cfg):
    if value not in ("true", "false"):
        raise ValueError("oracle must be true or false")
    return value == "true"


def _count(minimum):
    def parse(key, value, cfg):
        n = _int_atom(value)
        if n < minimum:
            raise ValueError("%s must be at least %d" % (key, minimum))
        return n
    return parse


def _parse_oracle_bound(key, value, cfg):
    bound = _count(1)(key, value, cfg)
    cfg.oracle = True
    return bound


def _parse_indices(key, value, cfg):
    indices = _flat(_tokenize_list(value), _int_atom, key)
    if any(x < 1 for x in indices):
        raise ValueError("%s entries must be at least 1" % key)
    if cfg.group_kind and any(x > cfg.rank for x in indices):
        raise ValueError("%s entry out of range 1..%d" % (key, cfg.rank))
    return indices


def _parse_prime(key, value, cfg):
    p = _int_atom(value)
    if p >= _PRIME_BOUND:
        raise ValueError("p must be below %d, the bound of the deterministic "
                         "primality test" % _PRIME_BOUND)
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    return p


def _parse_monomial(key, value, cfg):
    mono = _flat(_tokenize_list(value), _int_atom, key)
    if any(x < 0 for x in mono):
        raise ValueError("monomial exponents must be nonnegative")
    if cfg.d is not None and len(mono) != cfg.d:
        raise ValueError("monomial arity %d does not match d = %d"
                         % (len(mono), cfg.d))
    return mono


def _parse_t(key, value, cfg):
    t = _number(value)
    if not 0 < t < 1:
        raise ValueError("t must satisfy 0 < t < 1, got %s" % t)
    return t


def _parse_tau(key, value, cfg):
    tau = _flat(_tokenize_list(value), _number, key)
    if any(x <= 0 for x in tau):
        raise ValueError("tau entries must be positive")
    if cfg.d is not None and len(tau) != cfg.d:
        raise ValueError("tau arity %d does not match d = %d"
                         % (len(tau), cfg.d))
    return tau


def _parse_terms(key, value, cfg):
    parsed = _tokenize_list(value)
    if cfg.d is None:
        raise ValueError("terms requires d to be set")
    if (not isinstance(parsed, list)
            or not all(isinstance(x, list) for x in parsed)):
        raise ValueError("terms must be a list of "
                         "[n_1, ..., n_d, coefficient] rows")
    rows, seen = [], set()
    for row in parsed:
        if len(row) != cfg.d + 1 or any(isinstance(x, list) for x in row):
            raise ValueError("each term needs %d indices and one "
                             "coefficient" % cfg.d)
        index = tuple(_int_atom(x) for x in row[:-1])
        if any(x < 0 for x in index):
            raise ValueError("term indices must be nonnegative")
        if index in seen:
            raise ValueError("term index %s appears twice" % list(index))
        seen.add(index)
        rows.append((index, _number(row[-1])))
    return tuple(rows)


# Config key -> (ProblemConfig attribute, parser). A parser takes (key, raw
# value, config so far), returns the attribute value and raises ValueError
# with the violation text. Keys are parsed and echoed in this order, so a
# parser may read what the keys above it set (group fixes the kind and rank
# that c, lambda, I, J and w are checked against; d fixes the arity of
# monomial, tau and terms).
_SCHEMA = {
    "group": ("group_kind", _parse_group),
    "c": ("c", _parse_c),
    "lambda": ("lam", _parse_lambda),
    "variant": ("variant", _parse_variant),
    "oracle": ("oracle", _parse_oracle),
    "oracle_bound": ("oracle_bound", _parse_oracle_bound),
    "I": ("subset_i", _parse_indices),
    "J": ("subset_j", _parse_indices),
    "w": ("word", _parse_indices),
    "height_bound": ("height_bound", _count(1)),
    "p": ("p", _parse_prime),
    "d": ("d", _count(1)),
    "degree": ("degree", _count(0)),
    "monomial": ("monomial", _parse_monomial),
    "t": ("t", _parse_t),
    "tau": ("tau", _parse_tau),
    "terms": ("terms", _parse_terms),
}


def parse_config(text: str) -> ProblemConfig:
    """Parse the key-value schema, collecting every violation before failing."""
    violations: List[Tuple[int, str]] = []
    raw: Dict[str, Tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append((lineno, "expected 'key = value'"))
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            violations.append((lineno, "unknown key %r" % key))
            continue
        if key in raw:
            violations.append((lineno, "duplicate key %r" % key))
            continue
        if not value:
            violations.append((lineno, "empty value for %r" % key))
            continue
        raw[key] = (lineno, value)

    cfg = ProblemConfig({k: raw[k][1] for k in _SCHEMA if k in raw})
    for key, (attr, parse) in _SCHEMA.items():
        if key not in raw:
            continue
        lineno, value = raw[key]
        try:
            setattr(cfg, attr, parse(key, value, cfg))
        except ValueError as exc:
            violations.append((lineno, str(exc)))

    if violations:
        violations.sort(key=lambda v: v[0])
        raise ConfigError(["line %d: %s" % v for v in violations])
    return cfg


def _fmt(x) -> str:
    if isinstance(x, Generic):
        return "generic"
    return str(x)


def _fmt_weight(pairings) -> str:
    return "(" + ", ".join(_fmt(x) for x in pairings) + ")"


def _fmt_pbw(order, vec) -> str:
    parts = []
    for mono, coeff in vec.items():
        factors = []
        for k, n in enumerate(mono):
            if n:
                factors.append("f[%s]" % order[k] + ("^%d" % n if n > 1 else ""))
        body = "*".join(factors) if factors else "1"
        mag = abs(coeff)
        if mag == 1 and factors:
            text = body
        else:
            text = "%s*%s" % (mag, body) if factors else str(mag)
        if not parts:
            parts.append(text if coeff > 0 else "-" + text)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + text)
    return " ".join(parts) if parts else "0"


def _provenance(cfg: ProblemConfig) -> dict:
    return {
        "version": "laps " + __version__,
        "ordering": "roots by height then coordinates; exponents and words "
                    "lexicographic",
        "config": dict(cfg.echo),
    }


def _run_check(cfg: ProblemConfig) -> dict:
    requested = cfg.variant or ALL_POSITIVE
    verdict_variant = ALL_POSITIVE if requested == "both" else requested

    rs = build_root_system(cfg.type_label, cfg.rank)
    if cfg.group_kind == "lie":
        if cfg.lam is None:
            raise ConfigError(["check requires config key 'lambda'"])
        characters = [(None, Weight(cfg.lam))]
        character_echo = {"lambda": [_fmt(x) for x in cfg.lam]}
    else:
        # GL2 is the one-embedding case of ResScalars, echoed unlabelled.
        gl2 = cfg.group_kind == "gl2"
        if cfg.c is None:
            raise ConfigError(["check requires config key 'c' for %s"
                               % ("GL2" if gl2 else "ResScalars")])
        embeddings = ([(None, cfg.c)] if gl2 else
                      [("sigma%d" % k, c) for k, c in enumerate(cfg.c, 1)])
        characters = []
        character_echo = {}
        for label, exps in embeddings:
            lam = character_weight(rs, exps)
            characters.append((label, lam))
            echo = {"c": [_fmt(x) for x in exps],
                    "lambda": [_fmt(x) for x in lam.pairings]}
            character_echo.update(echo if label is None else {label: echo})

    shown = VARIANTS if requested == "both" else (requested,)
    criteria = []
    disagree = False
    failing = None
    for label, lam in characters:
        by_variant = {v: bgg_criterion(rs, lam, v) for v in VARIANTS}
        for v in shown:
            rep = by_variant[v]
            criteria.append({
                "embedding": label,
                "variant": v,
                "verdict": rep.verdict,
                "witnesses": [{"beta": str(b), "n": n}
                              for b, n in rep.witnesses],
            })
        disagree = disagree or (by_variant[DELTA_ONLY].simple
                                != by_variant[ALL_POSITIVE].simple)
        rep = by_variant[verdict_variant]
        if failing is None and not rep.simple:
            failing = (label, rep.witnesses[0])

    if failing is None:
        verdict, reason = VERDICT_IRREDUCIBLE, None
    else:
        label, (beta, n) = failing
        where = "" if label is None else " for %s" % label
        verdict = VERDICT_INCONCLUSIVE
        reason = ("criterion fails at witness (%s, n = %d)%s; simplicity "
                  "implies irreducibility, the converse is not asserted"
                  % (beta, n, where))

    payload = {
        "group": cfg.group_text,
        "character": character_echo,
        "variant": requested,
        "criteria": criteria,
        "variants_disagree": disagree,
        "verdict": verdict,
        "reason": reason,
        "basis": "BGG simplicity criterion, %s variant" % verdict_variant,
        "oracle": None,
    }

    if cfg.oracle:
        oracle_blocks = []
        for label, lam in characters:
            block = {"embedding": label}
            oracle_blocks.append(block)
            if not lam.is_rational():
                block["skipped"] = ("generic exponents: criterion-only "
                                    "character, nothing to scan")
                continue
            module = VermaModule(rs, lam)
            report = simplicity_oracle(module, cfg.oracle_bound)
            block["bound"] = report.bound
            block["reducible"] = report.reducible
            block["witnesses"] = [{
                "weight": "lambda - (%s)" % Root(nu),
                "dimension": len(vecs),
                "vectors": [_fmt_pbw(module.pbw_order, v) for v in vecs],
            } for nu, vecs in report.witnesses]
        payload["oracle"] = oracle_blocks
    return payload


def _run_cosets(cfg: ProblemConfig) -> dict:
    rs = build_root_system(cfg.type_label, cfg.rank)
    subset_i = ParabolicType.of(cfg.subset_i or ())
    subset_j = (ParabolicType.of(cfg.subset_j)
                if cfg.subset_j is not None else subset_i)
    decomposition = double_cosets(rs, subset_i, subset_j)
    rows = [{"representative": str(rep), "length": rep.length, "size": size}
            for rep, size in zip(decomposition.representatives,
                                 decomposition.coset_sizes())]
    return {
        "group": cfg.group_text,
        "I": list(subset_i.indices),
        "J": list(subset_j.indices),
        "group_order": decomposition.group_order,
        "coset_count": len(rows),
        "cosets": rows,
    }


def _run_partition(cfg: ProblemConfig) -> dict:
    rs = build_root_system(cfg.type_label, cfg.rank)
    subset_i = ParabolicType.of(cfg.subset_i or ())
    w = weyl_element(rs, cfg.word or ())
    plus, minus = iwahori_root_partition(rs, subset_i, w)
    return {
        "group": cfg.group_text,
        "I": list(subset_i.indices),
        "w": str(w),
        "plus": [str(r) for r in plus],
        "minus": [str(r) for r in minus],
    }


def _run_weights(cfg: ProblemConfig) -> dict:
    # dim M(lam)_{lam - nu} is the Kostant partition count of nu for every lam.
    rs = build_root_system(cfg.type_label, cfg.rank)
    lam = Weight(cfg.lam if cfg.lam is not None
                 else (Fraction(0),) * cfg.rank)
    if not lam.is_rational():
        raise ConfigError(["weights requires a rational lambda"])
    if len(lam.pairings) != rs.rank:
        raise ValueError("weight arity %d does not match rank %d"
                         % (len(lam.pairings), rs.rank))
    rows = [{"nu": str(Root(nu)), "height": sum(nu), "dimension": count}
            for nu, count in kostant_counts(rs, cfg.height_bound).items()]
    return {
        "group": cfg.group_text,
        "lambda": [_fmt(x) for x in lam.pairings],
        "height_bound": cfg.height_bound,
        "rows": rows,
    }


def _series_rows(series) -> list:
    """The coefficients of a series as {"n", "c"} rows in (sum(n), n) order."""
    return [{"n": list(n), "c": c}
            for n, c in sorted(series.coefficients.items(),
                               key=lambda item: (sum(item[0]), item[0]))]


def _run_mahler(cfg: ProblemConfig) -> dict:
    exps = cfg.monomial
    # A coefficient is a product of surjection counts n!*S(k, n) <= D^k, so
    # neither it nor a grid value exceeds D^(k_1+...+k_d).
    if cfg.degree > 1 and _product_exceeds(
            (cfg.degree for _ in range(sum(exps))), _NUMBER_CAP - 1):
        raise ResourceLimitError(
            "Mahler coefficients up to D^(k_1+...+k_d) with D = %d may "
            "exceed %d digits" % (cfg.degree, _MAX_DIGITS))
    # x^k = x^min(k, 1) on the grid {0, 1}: no power of a huge k
    powers = exps if cfg.degree > 1 else [min(k, 1) for k in exps]

    def f(*point):
        return Fraction(math.prod(x ** k for x, k in zip(point, powers)))

    series = mahler_coefficients(cfg.p, cfg.d, f, cfg.degree)
    return {
        "p": cfg.p,
        "d": cfg.d,
        "degree": cfg.degree,
        "monomial": list(exps),
        "degree_bound": series.degree_bound,
        "coefficients": _series_rows(series),
    }


def _run_norm(cfg: ProblemConfig) -> dict:
    bound = cfg.degree
    if bound is None:
        bound = max((sum(n) for n, _ in cfg.terms), default=0)
    series = dist_series(cfg.p, cfg.d, dict(cfg.terms), bound)
    param = RNormParam(cfg.t, cfg.tau)
    exponent = r_norm(series, param)
    if exponent == INF:
        norm_text = "0"
    elif exponent == 0:
        norm_text = "1"
    else:
        norm_text = "%d^(-%s)" % (cfg.p, exponent)
    return {
        "p": cfg.p,
        "d": cfg.d,
        "t": cfg.t,
        "tau": list(cfg.tau),
        "degree_bound": series.degree_bound,
        "terms": _series_rows(series),
        "exponent": "inf" if exponent == INF else exponent,
        "norm": norm_text,
    }


def _text_check(payload, lines):
    for key, value in payload["character"].items():
        if isinstance(value, dict):
            inner = ", ".join("%s = %s" % (k, _fmt_weight(v))
                              for k, v in value.items())
            lines.append("character %s: %s" % (key, inner))
        else:
            lines.append("%s: %s" % (key, _fmt_weight(value)))
    lines.append("variant: %s" % payload["variant"])
    lines.append("")
    for entry in payload["criteria"]:
        where = ("" if entry["embedding"] is None
                 else " %s" % entry["embedding"])
        lines.append("criterion [%s]%s: %s"
                     % (entry["variant"], where, entry["verdict"]))
        for wit in entry["witnesses"]:
            lines.append("  witness: beta = %s, n = %d"
                         % (wit["beta"], wit["n"]))
    if payload["variants_disagree"]:
        lines.append("note: criterion variants disagree at this character")
    lines.append("verdict: %s" % payload["verdict"])
    if payload["reason"]:
        lines.append("reason: %s" % payload["reason"])
    lines.append("basis: %s" % payload["basis"])
    for block in payload["oracle"] or ():
        where = ("" if block["embedding"] is None
                 else " %s" % block["embedding"])
        lines.append("")
        if "skipped" in block:
            lines.append("oracle%s: skipped (%s)" % (where, block["skipped"]))
            continue
        outcome = ("reducible" if block["reducible"]
                   else "no obstruction up to degree %d" % block["bound"])
        lines.append("oracle%s [bound %d]: %s"
                     % (where, block["bound"], outcome))
        for wit in block["witnesses"]:
            lines.append("  %s: dim %d" % (wit["weight"], wit["dimension"]))
            for vec in wit["vectors"]:
                lines.append("    vector: %s" % vec)


def _text_cosets(payload, lines):
    lines.append("I: %s" % payload["I"])
    lines.append("J: %s" % payload["J"])
    lines.append("")
    lines.append("group order: %d" % payload["group_order"])
    lines.append("double cosets: %d" % payload["coset_count"])
    for k, row in enumerate(payload["cosets"], 1):
        lines.append("  [%d] representative = %s, length = %d, size = %d"
                     % (k, row["representative"], row["length"], row["size"]))


def _text_partition(payload, lines):
    lines.append("I: %s" % payload["I"])
    lines.append("w: %s" % payload["w"])
    lines.append("")
    lines.append("roots with w^-1(alpha) > 0: [%s]"
                 % ", ".join(payload["plus"]))
    lines.append("roots with w^-1(alpha) < 0: [%s]"
                 % ", ".join(payload["minus"]))


def _text_weights(payload, lines):
    lines.append("lambda: %s" % _fmt_weight(payload["lambda"]))
    lines.append("height bound: %d" % payload["height_bound"])
    lines.append("")
    lines.append("weight-space dimensions at lambda - nu:")
    for row in payload["rows"]:
        lines.append("  nu = %s (height %d): dim %d"
                     % (row["nu"], row["height"], row["dimension"]))


def _text_mahler(payload, lines):
    lines.append("p: %d" % payload["p"])
    lines.append("d: %d" % payload["d"])
    lines.append("grid degree: %d" % payload["degree"])
    lines.append("monomial exponents: %s" % payload["monomial"])
    lines.append("")
    lines.append("mahler coefficients (degree bound %d):"
                 % payload["degree_bound"])
    for row in payload["coefficients"]:
        lines.append("  n = %s: c = %s" % (row["n"], _fmt(row["c"])))


def _text_norm(payload, lines):
    lines.append("p: %d" % payload["p"])
    lines.append("d: %d" % payload["d"])
    lines.append("t: %s" % _fmt(payload["t"]))
    lines.append("tau: [%s]" % ", ".join(_fmt(x) for x in payload["tau"]))
    lines.append("")
    lines.append("series terms (degree bound %d):" % payload["degree_bound"])
    for row in payload["terms"]:
        lines.append("  n = %s: d_n = %s" % (row["n"], _fmt(row["c"])))
    lines.append("exponent: %s" % _fmt(payload["exponent"]))
    lines.append("norm: %s" % payload["norm"])


class _Command(NamedTuple):
    help: str
    requires: Tuple[str, ...]
    runner: Callable[[ProblemConfig], dict]
    render: Callable[[dict, List[str]], None]


# Subcommands in help order. `requires` names keys of _SCHEMA; the runner
# returns the payload fields that run() puts between "command" and
# "provenance"; the renderer appends the text lines that render_text puts
# between the header and the provenance block.
_COMMANDS: Dict[str, _Command] = {
    "check": _Command("run the simplicity criterion (and optional oracle)",
                      ("group",), _run_check, _text_check),
    "cosets": _Command("enumerate parabolic double cosets",
                       ("group",), _run_cosets, _text_cosets),
    "partition": _Command("split roots by the sign of w^-1(alpha)",
                          ("group",), _run_partition, _text_partition),
    "weights": _Command("tabulate weight-space dimensions",
                        ("group", "height_bound"), _run_weights,
                        _text_weights),
    "mahler": _Command("expand a monomial in the binomial basis",
                       ("p", "d", "degree", "monomial"), _run_mahler,
                       _text_mahler),
    "norm": _Command("evaluate the weighted Gauss norm of a series",
                     ("p", "d", "t", "tau", "terms"), _run_norm, _text_norm),
}


def run(cfg: ProblemConfig, command: str) -> dict:
    """Execute one subcommand against a parsed config; return its payload."""
    spec = _COMMANDS.get(command)
    if spec is None:
        raise ConfigError(["unknown command %r" % command])
    missing = [key for key in spec.requires
               if getattr(cfg, _SCHEMA[key][0]) in (None, "")]
    if missing:
        raise ConfigError(["%s requires config key %r" % (command, key)
                           for key in missing])
    return {"command": command, **spec.runner(cfg),
            "provenance": _provenance(cfg)}


def render_machine(payload: dict) -> str:
    # Every payload value is JSON-native but Fraction, printed with str.
    return json.dumps(payload, indent=2, default=str) + "\n"


def render_text(payload: dict) -> str:
    lines = ["laps report", "command: %s" % payload["command"]]
    if "group" in payload:
        lines.append("group: %s" % payload["group"])
    _COMMANDS[payload["command"]].render(payload, lines)
    prov = payload["provenance"]
    lines.append("")
    lines.append("provenance:")
    lines.append("  version: %s" % prov["version"])
    lines.append("  ordering: %s" % prov["ordering"])
    for key, value in prov["config"].items():
        lines.append("  config: %s = %s" % (key, value))
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (2 is the resource code)."""

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_command_arguments(parser, command):
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="path to the problem config file")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report format")
    if command == "check":
        parser.add_argument("--variant",
                            choices=(DELTA_ONLY, ALL_POSITIVE, "both"),
                            help="criterion variant (overrides the config)")
        parser.add_argument("--oracle-bound", type=int, dest="oracle_bound",
                            metavar="N",
                            help="enable the oracle with this degree bound")


def _full_parser():
    parser = _Parser(prog="laps",
                     description="Irreducibility checks for locally analytic "
                                 "principal series and the surrounding "
                                 "root-system combinatorics.")
    parser.add_argument("--version", action="version",
                        version="laps " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        _add_command_arguments(sub.add_parser(name, help=spec.help), name)
    return parser


def _parse_args(argv):
    """Parse argv with the named subcommand's parser alone: the full tree
    would hand that parser the same arguments. The full tree is built only
    when argv names no subcommand (top-level help, --version, errors) or the
    subcommand leaves arguments over, so its usage texts and errors stay
    byte-identical."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog="laps " + argv[0])
        _add_command_arguments(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _full_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("laps: cannot read config: %s" % exc, file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text)
        if getattr(args, "variant", None):
            cfg.variant = args.variant
        if getattr(args, "oracle_bound", None) is not None:
            if args.oracle_bound < 1:
                raise ConfigError(["--oracle-bound must be at least 1"])
            cfg.oracle = True
            cfg.oracle_bound = args.oracle_bound
        payload = run(cfg, args.command)
    except ConfigError as exc:
        for violation in exc.violations:
            print("laps: config error: %s" % violation, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("laps: error: %s" % exc, file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print("laps: resource limit: %s" % exc, file=sys.stderr)
        return 2

    render = render_machine if args.format == "machine" else render_text
    sys.stdout.write(render(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
