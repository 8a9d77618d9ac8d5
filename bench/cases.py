"""Seeded case lists for the three benchmark workloads.

A case is one `laps` invocation: a subcommand, the text of the config file
it reads, extra command-line arguments, and the parameters the independent
checker in checks.py needs to recompute the expected answer. The program
itself only ever sees the generated config files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

LIE_TYPES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4))
SMALL_TYPES = tuple((t, r) for t, r in LIE_TYPES if r <= 3)
PRIMES = (2, 3, 5, 7)
FAMILIES = ("integral", "half", "third", "generic")
VARIANTS = (None, "all-positive", "delta-only", "both")

# Oracle bounds per type. Explicit bounds keep the cost of a case a property
# of the code, not of the lambda draw: default bounds follow the criterion's
# witnesses and ran from 0.06 s to over 13 s on rank-2 draws alone.
ORACLE_SCHEDULE = (("A", 2, 6), ("B", 2, 5), ("C", 2, 5), ("A", 3, 4),
                   ("B", 3, 2), ("C", 3, 2), ("A", 4, 2))
# Draws per oracle type in one pass: the cheap rank-2 types repeat so a pass
# holds enough calls for a latency tail. Pass sizes here and in LIGHT_CASES
# sit midway between pass counts for a 40 s run (4 oracle passes of ~8.7 s,
# 9 light_mix passes of ~4.2 s), so that count does not flip run to run.
# A 30 s run was tried: with 3 oracle passes the tail's rank falls between
# the rank-3/4 cases and the rest, and the tail spread over seeds grew.
ORACLE_REPEATS = {("A", 2): 6, ("B", 2): 3, ("C", 2): 3}

TABLE_TYPES = (("B", 3, 6), ("C", 3, 6), ("A", 4, 6), ("D", 4, 4), ("B", 4, 4),
               ("C", 4, 4))
TABLE_SIDE_CASES = 4  # cosets and partitions per type in one pass

LIGHT_CASES = 1350


@dataclass
class Case:
    """One invocation: `laps <command> --config <file> <args...>`."""

    command: str
    config: str
    args: Tuple[str, ...] = ()
    expect: Dict = field(default_factory=dict)

    @property
    def machine(self) -> bool:
        return "machine" in self.args


def _fmt_list(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def _entry(rng: random.Random, family: str) -> str:
    if family == "integral":
        return str(rng.randint(-4, 3))
    if family == "half":
        return "%d/2" % (2 * rng.randint(-4, 2) + 1)
    if family == "third":
        return "%d/3" % rng.choice((-8, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7))
    if family == "generic":
        return "generic" if rng.random() < 0.5 else str(rng.randint(-3, 2))
    raise ValueError(family)


def _weight(rng: random.Random, family: str, size: int) -> List[str]:
    values = [_entry(rng, family) for _ in range(size)]
    if family == "generic" and "generic" not in values:
        values[rng.randrange(size)] = "generic"
    return values


def _subset(rng: random.Random, rank: int) -> List[int]:
    return [i for i in range(1, rank + 1) if rng.random() < 0.4]


def _pick(options, k: int):
    """The k-th structural choice. Cases cycle through types, families and
    sizes so every seed has the same mix; the seed draws the values."""
    return options[k % len(options)]


def _lie_check(rng: random.Random, k: int, oracle_bound: Optional[int] = None,
               types=LIE_TYPES, families=FAMILIES) -> Case:
    t, r = _pick(types, k)
    lam = _weight(rng, _pick(families, k // len(types)), r)
    variant = _pick(VARIANTS, k // (len(types) * len(families)))
    lines = ["group = %s%d" % (t, r), "lambda = %s" % _fmt_list(lam)]
    args: Tuple[str, ...] = ()
    if variant is not None:
        if k % 5 == 0:
            args = ("--variant", variant)
        else:
            lines.append("variant = %s" % variant)
    if oracle_bound is not None:
        args += ("--oracle-bound", str(oracle_bound))
    return Case("check", "\n".join(lines) + "\n", args,
                {"group": ("lie", t, r), "lambda": lam, "variant": variant,
                 "oracle_bound": oracle_bound})


def _gl2_check(rng: random.Random, k: int) -> Case:
    c = _weight(rng, _pick(FAMILIES, k), 2)
    variant = _pick(VARIANTS, k // len(FAMILIES))
    lines = ["group = GL2", "c = %s" % _fmt_list(c)]
    if variant:
        lines.append("variant = %s" % variant)
    return Case("check", "\n".join(lines) + "\n", (),
                {"group": ("gl2",), "c": [c], "variant": variant,
                 "oracle_bound": None})


def _resscalars_check(rng: random.Random, k: int) -> Case:
    count = 1 + k % 3
    pairs = [_weight(rng, _pick(FAMILIES, k // 3 + j), 2) for j in range(count)]
    variant = _pick((None, "all-positive", "both"), k // 12)
    lines = ["group = ResScalars(GL2, %d)" % count,
             "c = [" + ", ".join(_fmt_list(p) for p in pairs) + "]"]
    if variant:
        lines.append("variant = %s" % variant)
    return Case("check", "\n".join(lines) + "\n", (),
                {"group": ("res", count), "c": pairs, "variant": variant,
                 "oracle_bound": None})


def _partition(rng: random.Random, k: int, types=SMALL_TYPES, longest=6) -> Case:
    t, r = _pick(types, k)
    subset = _subset(rng, r)
    word = [rng.randint(1, r) for _ in range(k // len(types) % (longest + 1))]
    lines = ["group = %s%d" % (t, r)]
    if subset or k % 2:
        lines.append("I = %s" % _fmt_list(subset))
    if word or k % 3:
        lines.append("w = %s" % _fmt_list(word))
    return Case("partition", "\n".join(lines) + "\n", (),
                {"type": (t, r), "I": subset})


def _cosets(rng: random.Random, k: int, types=SMALL_TYPES) -> Case:
    t, r = _pick(types, k)
    lines = ["group = %s%d" % (t, r), "I = %s" % _fmt_list(_subset(rng, r))]
    if k // len(types) % 3:
        lines.append("J = %s" % _fmt_list(_subset(rng, r)))
    return Case("cosets", "\n".join(lines) + "\n", (), {"type": (t, r)})


_MAHLER_SHAPES = tuple((d, degree) for d, top in ((1, 6), (2, 4), (3, 3))
                       for degree in range(top + 1))


def _mahler(rng: random.Random, k: int) -> Case:
    d, degree = _pick(_MAHLER_SHAPES, k)
    mono = [rng.randint(0, 3) for _ in range(d)]
    text = ("p = %d\nd = %d\ndegree = %d\nmonomial = %s\n"
            % (rng.choice(PRIMES), d, degree, _fmt_list(mono)))
    return Case("mahler", text, (), {"d": d, "degree": degree, "monomial": mono})


def _norm(rng: random.Random, k: int) -> Case:
    p = rng.choice(PRIMES)
    d = 1 + k % 3
    side = {1: 50, 2: 8, 3: 5}[d]
    count = 10 + (k // 3) * 7 % 31
    indices = set()
    while len(indices) < count:
        indices.add(tuple(rng.randrange(side) for _ in range(d)))
    terms = []
    for n in sorted(indices):
        num = rng.choice((-1, 1)) * rng.randint(1, 30) * p ** rng.randint(0, 3)
        den = rng.randint(1, 30) * p ** rng.randint(0, 2)
        terms.append((list(n), "%d/%d" % (num, den)))
    t = rng.choice(("1/2", "1/3", "2/3", "1/4", "3/4"))
    tau = [rng.choice(("1", "2", "1/2", "3/2")) for _ in range(d)]
    rows = ", ".join(_fmt_list(n + [c]) for n, c in terms)
    text = ("p = %d\nd = %d\nt = %s\ntau = %s\nterms = [%s]\n"
            % (p, d, t, _fmt_list(tau), rows))
    return Case("norm", text, (), {"p": p, "t": t, "tau": tau, "terms": terms})


# Every entry must exit 1: each breaks one rule of the config schema.
_MALFORMED = (
    ("check", "group = A2\nlambda = [1, 2]\ncolour = red\n", ()),
    ("check", "group = E9\nlambda = [0]\n", ()),
    ("check", "group = A7\nlambda = [0, 0, 0, 0, 0, 0, 0]\n", ()),
    ("check", "group = B3\nlambda = [1/2, 0]\n", ()),
    ("check", "group = A2\nlambda [0, 0]\n", ()),
    ("check", "group = A2\n", ()),
    ("check", "group = C2\nlambda = [1, 2\n", ()),
    ("check", "group = A2\nlambda = [0, 0]\nlambda = [1, 1]\n", ()),
    ("check", "group = A3\nlambda = [0, 0, 0]\nvariant = some\n", ()),
    ("check", "group = A2\nlambda = [0, 0]\n", ("--format", "xml")),
    ("weights", "group = B2\nlambda = [0, 0]\n", ()),
    ("cosets", "group = A3\nI = [4]\n", ()),
    ("mahler", "p = 4\nd = 2\ndegree = 2\nmonomial = [1, 1]\n", ()),
    ("norm", "p = 3\nd = 1\nt = 3/2\ntau = [1]\nterms = [[0, 1]]\n", ()),
    ("partition", "group = Q3\nI = [1]\n", ()),
)


def _malformed(rng: random.Random, k: int) -> Case:
    command, text, args = _pick(_MALFORMED, k)
    return Case(command, text, args, {"malformed": True})


# (maker, share of light_mix in percent). No record of real traffic exists,
# so the shares are fitted instead: every kind other than a Lie-type check
# keeps a floor of 5% (so all six subcommands and the exit-1 path are
# loaded), and the rest goes to Lie-type checks, the share that brings the
# cProfile split of a pass (argparse, criterion with pair_with_coroot,
# build_root_system, parse_config) closest to the one the benchmark was
# specified from. See README.md.
_LIGHT_MIX = ((_lie_check, 65), (_gl2_check, 5), (_resscalars_check, 5),
              (_partition, 5), (_cosets, 5), (_mahler, 5), (_norm, 5),
              (_malformed, 5))


def light_mix(seed: int) -> List[Case]:
    """Everyday queries across all six subcommands, in a seeded order."""
    rng = random.Random("light_mix:%d" % seed)
    cases = []
    for maker, share in _LIGHT_MIX:
        for k in range(LIGHT_CASES * share // 100):
            case = maker(rng, k)
            # One valid case in four asks for JSON, so render_machine is
            # loaded beside render_text; the share is an assumption too.
            if not case.expect.get("malformed") and k % 4 == 3:
                case.args += ("--format", "machine")
            cases.append(case)
    rng.shuffle(cases)
    return cases


def tables(seed: int) -> List[Case]:
    """Weight tables at rank 3-4 plus cosets and partitions on the same types."""
    rng = random.Random("tables:%d" % seed)
    cases = []
    for n, (t, r, height) in enumerate(TABLE_TYPES):
        lam = _weight(rng, _pick(FAMILIES[:3], n), r)
        cases.append(Case("weights", "group = %s%d\nlambda = %s\nheight_bound = %d\n"
                          % (t, r, _fmt_list(lam), height), (),
                          {"type": (t, r), "height_bound": height}))
        for k in range(TABLE_SIDE_CASES):
            cases.append(_cosets(rng, k, types=((t, r),)))
            cases.append(_partition(rng, k + 3, types=((t, r),), longest=10))
    rng.shuffle(cases)
    return cases


def oracle(seed: int) -> List[Case]:
    """Criterion plus singular-vector oracle at the fixed bound schedule."""
    rng = random.Random("oracle:%d" % seed)
    cases = []
    for n, (t, r, bound) in enumerate(ORACLE_SCHEDULE):
        for k in range(ORACLE_REPEATS.get((t, r), 1)):
            cases.append(_lie_check(rng, n + k, bound, types=((t, r),),
                                    families=FAMILIES[:3]))
    rng.shuffle(cases)
    return cases


WORKLOADS = {"light_mix": light_mix, "tables": tables, "oracle": oracle}
