"""Command-line layer: config parsing with line-numbered violations, report
payloads for every subcommand, deterministic rendering, and exit codes.

main() is driven in-process with explicit argv lists; the one subprocess is
the fresh interpreter that checks what `import laps.cli` loads.
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from laps import (ALL_POSITIVE, ConfigError, ResourceLimitError, Root, Weight,
                  bgg_criterion, build_root_system, verma)
from laps.cli import (ProblemConfig, main, parse_config, render_machine,
                      render_text, run)
from laps.verma import kostant_partitions

GL2_GOOD = """\
# a smooth character pair
group = GL2
c = [1/2, 0]
variant = all-positive
"""

SL3_BOTH = """\
group = A2
lambda = [-1/2, -1/2]
variant = both
oracle = true
"""


def _cfg(text):
    return parse_config(text)


def _write(tmp_path, text, name="problem.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- config parsing ----------------------------------------------------------

def test_parse_gl2_config():
    cfg = _cfg(GL2_GOOD)
    assert cfg.group_kind == "gl2"
    assert cfg.group_text == "GL2"
    assert (cfg.type_label, cfg.rank) == ("A", 1)
    assert cfg.c == (Fraction(1, 2), Fraction(0))
    assert cfg.variant == "all-positive"
    assert cfg.oracle is False


def test_parse_lie_config():
    cfg = _cfg(SL3_BOTH)
    assert cfg.group_kind == "lie"
    assert (cfg.type_label, cfg.rank) == ("A", 2)
    assert cfg.lam == (Fraction(-1, 2), Fraction(-1, 2))
    assert cfg.variant == "both"
    assert cfg.oracle is True


def test_parse_resscalars_config():
    cfg = _cfg("group = ResScalars(GL2, 2)\nc = [[1/2, 0], [3/2, 1]]\n")
    assert cfg.group_kind == "resscalars"
    assert cfg.gamma == 2
    assert cfg.c == ((Fraction(1, 2), Fraction(0)),
                     (Fraction(3, 2), Fraction(1)))


def test_parse_generic_entries():
    cfg = _cfg("group = GL2\nc = [generic, 0]\n")
    rational, tag = cfg.c[1], cfg.c[0]
    assert rational == 0
    assert tag == tag + 1  # generic tag absorbs shifts


def test_parse_comments_and_blank_lines():
    cfg = _cfg("\n# heading\ngroup = A2   # trailing\n\nlambda = [0, 0]\n")
    assert cfg.group_kind == "lie"
    assert cfg.lam == (Fraction(0), Fraction(0))


def test_parse_echo_preserves_raw_text():
    cfg = _cfg(GL2_GOOD)
    assert cfg.echo == {"group": "GL2", "c": "[1/2, 0]",
                        "variant": "all-positive"}


def test_parse_oracle_bound_implies_oracle():
    cfg = _cfg("group = A2\nlambda = [0, 0]\noracle_bound = 4\n")
    assert cfg.oracle is True
    assert cfg.oracle_bound == 4


def test_parse_unknown_key_reports_line():
    with pytest.raises(ConfigError) as err:
        _cfg("group = GL2\nflavour = up\n")
    assert err.value.violations == ["line 2: unknown key 'flavour'"]


def test_parse_duplicate_key():
    with pytest.raises(ConfigError) as err:
        _cfg("group = GL2\ngroup = A2\n")
    assert "line 2: duplicate key 'group'" in err.value.violations


def test_parse_missing_equals():
    with pytest.raises(ConfigError) as err:
        _cfg("group GL2\n")
    assert err.value.violations == ["line 1: expected 'key = value'"]


def test_parse_violations_sorted_by_line():
    text = "group = GL2\nvariant = bogus\nc = [1/0, 0]\np = 4\n"
    with pytest.raises(ConfigError) as err:
        _cfg(text)
    lines = [int(v.split(":")[0].split()[1]) for v in err.value.violations]
    assert lines == sorted(lines)
    assert len(lines) == 3


@pytest.mark.parametrize("text,needle", [
    ("group = X9\n", "Dynkin label"),
    ("group = A9\n", "rank"),
    ("group = GL2\nc = [1/2]\n", "exactly 2"),
    ("group = A2\nlambda = [0, 0, 0]\n", "does not match rank"),
    ("group = A2\nlambda = [0, 0]\nvariant = maybe\n", "variant must be"),
    ("group = A2\nlambda = [0, 0]\noracle = yes\n", "true or false"),
    ("group = A2\noracle_bound = 0\n", "at least 1"),
    ("group = A2\nI = [3]\n", "out of range"),
    ("group = A2\nw = [0]\n", "at least 1"),
    ("p = 4\n", "prime"),
    ("t = 2\n", "0 < t < 1"),
    ("d = 1\ntau = [0]\n", "positive"),
    ("terms = [[0, 1]]\n", "requires d"),
    ("d = 2\nmonomial = [1]\n", "does not match d"),
    ("d = 1\nterms = [[0, 1, 1]]\n", "needs 1 indices"),
    ("group = ResScalars(GL2, 2)\nc = [1/2, 0]\n", "list of exponent pairs"),
    ("group = ResScalars(GL2, 2)\nc = [[1/2, 0]]\n", "expected 2"),
    ("group = A2\nlambda = [1/0, 0]\n", "Fraction(1, 0)"),
    ("group = A2\nlambda = [0, 0\n", "unterminated"),
    ("group = A2\nI = [1/0]\n", "line 2: Fraction(1, 0)"),
    ("d = 1\nmonomial = [1/0]\n", "line 2: Fraction(1, 0)"),
    ("group =\n", "line 1: empty value for 'group'"),
    ("group = A2\nlambda = [[0], 0]\n", "must be a flat bracketed list"),
    ("d = 1/2\n", "expected an integer, got 1/2"),
    ("height_bound = 0\n", "height_bound must be at least 1"),
    ("d = 0\n", "d must be at least 1"),
    ("degree = -1\n", "degree must be at least 0"),
    ("group = A2\nJ = [3]\n", "J entry out of range 1..2"),
    ("monomial = [-1]\n", "monomial exponents must be nonnegative"),
    ("d = 2\ntau = [1]\n", "tau arity 1 does not match d = 2"),
    ("group = ResScalars(GL2, 1)\nc = [[1, 2, 3]]\n",
     "each exponent pair must have exactly 2 entries"),
    ("d = 1\nterms = [1, 2]\n", "terms must be a list of"),
    ("d = 1\nterms = [[-1, 1]]\n", "term indices must be nonnegative"),
    ("d = 1\nterms = [[0, 1], [0, 2]]\n", "line 2: term index [0] appears twice"),
    ("group = A2\nlambda = [0, 0] 1\n", "trailing content"),
    ("group = A2\nlambda = [0 0]\n", "expected ',' or ']'"),
    ("group = A2\nlambda = [0,\n", "unexpected end of list"),
    ("group = A2\nlambda = [1e5000, 0]\n",
     "line 2: number exceeds 4300 digits in numerator or denominator"),
    ("group = A2\nlambda = [1e-4300, 0]\n", "line 2: number exceeds"),
    ("group = GL2\nc = [0, 1e99999]\n", "line 2: number exceeds"),
    ("group = A2\nI = [1e10000]\n", "line 2: number exceeds"),
    ("t = 1e-5000\n", "line 1: number exceeds"),
    ("d = 1\ntau = [1e5000]\n", "line 2: number exceeds"),
    ("d = 1\nterms = [[0, 1e5000]]\n", "line 2: number exceeds"),
])
def test_parse_rejections(text, needle):
    with pytest.raises(ConfigError) as err:
        _cfg(text)
    assert any(needle in v for v in err.value.violations)


_KEYS = ("group", "c", "lambda", "variant", "oracle", "oracle_bound", "I",
         "J", "w", "height_bound", "p", "d", "degree", "monomial", "t",
         "tau", "terms")
_ATOMS = st.one_of(
    st.fractions().map(str), st.integers(-5, 5).map(str), st.text(max_size=6),
    st.sampled_from(["generic", "1/0", "A2", "B3", "GL2", "ResScalars(GL2, 2)",
                     "true", "both", "2305843009213693951"]))
_VALUES = st.recursive(
    _ATOMS, lambda inner: st.lists(inner, max_size=4).map(
        lambda items: "[" + ", ".join(items) + "]"), max_leaves=12)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(
        lambda kv: "%s = %s" % kv),
    st.text(max_size=20))


@settings(max_examples=400, deadline=None)
@given(st.lists(_LINES, max_size=8))
def test_parse_config_returns_config_or_config_error(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, ProblemConfig)


# -- check payloads ----------------------------------------------------------

def test_check_gl2_irreducible():
    payload = run(_cfg(GL2_GOOD), "check")
    assert payload["verdict"] == "irreducible"
    assert payload["reason"] is None
    assert payload["variants_disagree"] is False
    (entry,) = payload["criteria"]
    assert entry["variant"] == "all-positive"
    assert entry["witnesses"] == []
    assert payload["basis"] == ("BGG simplicity criterion, "
                                "all-positive variant")


def test_check_gl2_inconclusive():
    payload = run(_cfg("group = GL2\nc = [0, 0]\n"), "check")
    assert payload["verdict"] == "inconclusive"
    assert "witness (a1, n = 1)" in payload["reason"]
    assert "converse is not asserted" in payload["reason"]
    (entry,) = payload["criteria"]
    assert entry["witnesses"] == [{"beta": "a1", "n": 1}]


def test_check_verdict_vocabulary_has_no_reducible():
    for c in ("[0, 0]", "[1/2, 0]", "[0, 3]", "[generic, 0]"):
        payload = run(_cfg("group = GL2\nc = %s\n" % c), "check")
        assert payload["verdict"] in ("irreducible", "inconclusive")


def test_check_sl3_variants_disagree():
    payload = run(_cfg(SL3_BOTH), "check")
    assert payload["variants_disagree"] is True
    by_variant = {e["variant"]: e for e in payload["criteria"]}
    assert by_variant["delta-only"]["verdict"] == "simple"
    assert by_variant["all-positive"]["verdict"] == "not simple"
    assert by_variant["all-positive"]["witnesses"] == [
        {"beta": "a1+a2", "n": 1}]
    assert payload["verdict"] == "inconclusive"


def test_check_sl3_oracle_block():
    payload = run(_cfg(SL3_BOTH), "check")
    (block,) = payload["oracle"]
    assert block["reducible"] is True
    assert block["bound"] == 2
    (wit,) = block["witnesses"]
    assert wit["weight"] == "lambda - (a1+a2)"
    assert wit["dimension"] == 1
    assert wit["vectors"] == ["1/2*f[a1+a2] + f[a2]*f[a1]"]


def test_check_oracle_skipped_for_generic():
    text = "group = GL2\nc = [generic, 0]\noracle = true\n"
    payload = run(_cfg(text), "check")
    assert payload["verdict"] == "irreducible"
    (block,) = payload["oracle"]
    assert "generic exponents" in block["skipped"]


def test_check_resscalars_embeddings():
    text = "group = ResScalars(GL2, 2)\nc = [[0, 0], [1/2, 0]]\n"
    payload = run(_cfg(text), "check")
    labels = [e["embedding"] for e in payload["criteria"]]
    assert labels == ["sigma1", "sigma2"]
    assert payload["verdict"] == "inconclusive"
    assert "for sigma1" in payload["reason"]


def test_check_resscalars_all_simple():
    text = "group = ResScalars(GL2, 2)\nc = [[1/2, 0], [3/2, 1]]\n"
    payload = run(_cfg(text), "check")
    assert payload["verdict"] == "irreducible"
    assert payload["character"]["sigma2"]["lambda"] == ["-1/2"]


def test_check_requires_character_data():
    with pytest.raises(ConfigError):
        run(_cfg("group = GL2\n"), "check")
    with pytest.raises(ConfigError):
        run(_cfg("group = A2\n"), "check")
    with pytest.raises(ConfigError):
        run(_cfg("c = [1/2, 0]\n"), "check")


# -- other subcommand payloads -----------------------------------------------

def test_cosets_payload():
    payload = run(_cfg("group = A2\nI = [1]\nJ = [1]\n"), "cosets")
    assert payload["group_order"] == 6
    assert payload["coset_count"] == 2
    assert [r["representative"] for r in payload["cosets"]] == ["e", "s2"]
    assert [r["size"] for r in payload["cosets"]] == [2, 4]
    assert sum(r["size"] for r in payload["cosets"]) == 6


def test_main_cosets_f4_exceeds_the_weyl_cap(tmp_path, capsys):
    # |W(F4)| = 1152 > WEYL_ORDER_CAP, for every I: W_I and the orbit of
    # lambda_I share the cap.
    for indices in ("[]", "[1, 2, 3, 4]", "[2, 3]"):
        path = _write(tmp_path, "group = F4\nI = %s\n" % indices)
        assert main(["cosets", "--config", path]) == 2
        assert capsys.readouterr() == (
            "", "laps: resource limit: Weyl group exceeds the cap of 1000 "
            "elements\n")


def test_cosets_j_defaults_to_i():
    with_j = run(_cfg("group = B2\nI = [1]\nJ = [1]\n"), "cosets")
    without = run(_cfg("group = B2\nI = [1]\n"), "cosets")
    assert with_j["cosets"] == without["cosets"]
    assert without["J"] == [1]


def test_partition_payload():
    payload = run(_cfg("group = A2\nI = [1]\nw = [2]\n"), "partition")
    assert payload["w"] == "s2"
    assert payload["plus"] == ["-(a2)", "a1+a2"]
    assert payload["minus"] == ["-(a1+a2)", "a2"]


def test_weights_payload():
    text = "group = A2\nlambda = [0, 0]\nheight_bound = 2\n"
    payload = run(_cfg(text), "weights")
    by_nu = {row["nu"]: row["dimension"] for row in payload["rows"]}
    assert by_nu == {"0": 1, "a1": 1, "a2": 1, "2a1": 1, "a1+a2": 2,
                     "2a2": 1}
    heights = [row["height"] for row in payload["rows"]]
    assert heights == sorted(heights)


# Positive roots in simple-root coordinates (CONVENTIONS.md: in B the last
# simple root is short; in D4 the second node is the branch node).
_B3_ROOTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
             (1, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2))
_D4_ROOTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
             (1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (1, 1, 1, 0),
             (1, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1), (1, 2, 1, 1))
_G2_ROOTS = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def _coin_change_counts(roots, height):
    """Kostant partition counts of every nu with ht nu <= height: the ways
    to make nu from positive roots used any number of times."""
    rank = len(roots[0])
    box = sorted((nu for nu in itertools.product(range(height + 1),
                                                 repeat=rank)
                  if sum(nu) <= height), key=sum)
    counts = dict.fromkeys(box, 0)
    counts[(0,) * rank] = 1
    for beta in roots:
        for nu in box:  # by height, so nu - beta already counts beta
            rest = tuple(a - b for a, b in zip(nu, beta))
            if rest in counts:
                counts[nu] += counts[rest]
    return counts


def _nu_text(nu):
    return "+".join("a%d" % i if c == 1 else "%da%d" % (c, i)
                    for i, c in enumerate(nu, 1) if c) or "0"


@pytest.mark.parametrize("group,roots,height", [
    ("B3", _B3_ROOTS, 4), ("D4", _D4_ROOTS, 3), ("G2", _G2_ROOTS, 6),
])
def test_weights_are_kostant_counts(group, roots, height):
    # Two references: the coin-change recursion above, and the length of
    # the enumerator's list of partitions, a different algorithm.
    text = "group = %s\nheight_bound = %d\n" % (group, height)
    payload = run(_cfg(text), "weights")
    expected = {_nu_text(nu): n
                for nu, n in _coin_change_counts(roots, height).items()}
    got = {row["nu"]: row["dimension"] for row in payload["rows"]}
    assert len(got) == len(payload["rows"])
    assert got == expected
    rs = build_root_system(group[0], int(group[1]))
    assert got == {_nu_text(nu): len(kostant_partitions(rs, nu))
                   for nu in _coin_change_counts(roots, height)}


def test_main_weights_b4_height_12_is_quick(tmp_path, capsys):
    # Listing every partition took over 20 s on this config; counting the
    # whole table takes milliseconds.
    path = _write(tmp_path, "group = B4\nheight_bound = 12\n")
    start = time.perf_counter()
    assert main(["weights", "--config", path, "--format", "machine"]) == 0
    assert time.perf_counter() - start < 2.0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 1820  # nu in N^4 with height <= 12: C(16, 4)
    assert rows[-1] == {"nu": "12a1", "height": 12, "dimension": 1}


def test_main_weights_g2(tmp_path, capsys):
    # Positive roots a1, a2, a1+a2, 2a1+a2, 3a1+a2, 3a1+2a2; e.g. 2a1+a2 is
    # the root itself, a1 + (a1+a2), or a1 + a1 + a2.
    path = _write(tmp_path, "group = G2\nlambda = [0, 0]\nheight_bound = 3\n")
    assert main(["weights", "--config", path, "--format", "machine"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(row["nu"], row["dimension"]) for row in rows] == [
        ("0", 1), ("a2", 1), ("a1", 1), ("2a2", 1), ("a1+a2", 2), ("2a1", 1),
        ("3a2", 1), ("a1+2a2", 2), ("2a1+a2", 3), ("3a1", 1)]


@pytest.mark.parametrize("group,height,rows,roots", [
    # C(104, 4) = 4,598,126 rows; both inputs ran out of memory unrefused
    ("B4", 100, 4598126, 16),
    ("A1", 10 ** 8, 10 ** 8 + 1, 1),
])
def test_main_weights_over_budget_refused_quickly(tmp_path, capsys, group,
                                                  height, rows, roots):
    path = _write(tmp_path, "group = %s\nheight_bound = %d\n" % (group, height))
    start = time.perf_counter()
    assert main(["weights", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "laps: resource limit: Kostant count table of %d rows x %d positive "
        "roots = %d exceeds the limit 2500000\n" % (rows, roots, rows * roots))


def test_main_weights_unprintable_count_refused_quickly(tmp_path, capsys):
    # C(H + 4, 4) x 16 has about 17,000 digits, past the interpreter's limit
    # for printing an int, so the refusal names H and the rank instead.
    height = 10 ** 4299
    path = _write(tmp_path, "group = B4\nheight_bound = %d\n" % height)
    start = time.perf_counter()
    assert main(["weights", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "laps: resource limit: Kostant count table at height_bound %d and "
        "rank 4 exceeds the limit 2500000\n" % height)


@pytest.mark.parametrize("group,height,rows", [
    # Both fit COUNTS_CAP; both ran for seconds at hundreds of MiB unrefused
    ("A1", 2499999, 2500000),
    ("A2", 1289, 832695),  # C(1291, 2)
])
def test_main_weights_over_row_limit_refused_quickly(tmp_path, capsys, group,
                                                     height, rows):
    path = _write(tmp_path, "group = %s\nheight_bound = %d\n" % (group, height))
    start = time.perf_counter()
    assert main(["weights", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "laps: resource limit: Kostant count table of %d rows exceeds the "
        "row limit 150000\n" % rows)


def test_weights_budget_admits_its_limit(monkeypatch):
    # A2 at height 3: C(5, 2) = 10 rows x 3 positive roots = 30 additions
    monkeypatch.setattr(verma, "COUNTS_CAP", 30)
    assert len(run(_cfg("group = A2\nheight_bound = 3\n"),
                   "weights")["rows"]) == 10
    monkeypatch.setattr(verma, "COUNTS_CAP", 29)
    with pytest.raises(ResourceLimitError, match="= 30 exceeds the limit 29"):
        run(_cfg("group = A2\nheight_bound = 3\n"), "weights")
    monkeypatch.setattr(verma, "COUNTS_CAP", 30)
    monkeypatch.setattr(verma, "COUNTS_ROWS_CAP", 10)
    assert len(run(_cfg("group = A2\nheight_bound = 3\n"),
                   "weights")["rows"]) == 10
    monkeypatch.setattr(verma, "COUNTS_ROWS_CAP", 9)
    with pytest.raises(ResourceLimitError,
                       match="10 rows exceeds the row limit 9"):
        run(_cfg("group = A2\nheight_bound = 3\n"), "weights")


@pytest.mark.parametrize("text,message", [
    ("group = GL2\nlambda = [0, 0, 0]\nheight_bound = 2\n",
     "laps: error: weight arity 3 does not match rank 1\n"),
    ("group = ResScalars(GL2, 2)\nlambda = [0, 0]\nheight_bound = 2\n",
     "laps: error: weight arity 2 does not match rank 1\n"),
    ("group = A2\nlambda = [generic, 0]\nheight_bound = 2\n",
     "laps: config error: weights requires a rational lambda\n"),
])
def test_main_weights_rejects_lambda(tmp_path, capsys, text, message):
    path = _write(tmp_path, text)
    assert main(["weights", "--config", path]) == 1
    assert capsys.readouterr().err == message


def test_mahler_payload():
    text = "p = 3\nd = 1\ndegree = 3\nmonomial = [2]\n"
    payload = run(_cfg(text), "mahler")
    rows = {tuple(r["n"]): r["c"] for r in payload["coefficients"]}
    assert rows == {(1,): Fraction(1), (2,): Fraction(2)}
    assert payload["degree_bound"] == 3


def test_norm_payload():
    text = ("p = 3\nd = 2\nt = 1/2\ntau = [1, 2]\ndegree = 4\n"
            "terms = [[0, 0, 1], [1, 1, 1/3]]\n")
    payload = run(_cfg(text), "norm")
    assert payload["exponent"] == 0
    assert payload["norm"] == "1"


def test_norm_zero_series():
    text = "p = 3\nd = 1\nt = 1/2\ntau = [1]\ndegree = 2\nterms = []\n"
    payload = run(_cfg(text), "norm")
    assert payload["exponent"] == "inf"
    assert payload["norm"] == "0"


def test_main_norm_zero_series_machine_format(tmp_path, capsys):
    # Every coefficient is zero, so the series is 0 and its exponent is
    # infinite; the JSON carries it as the string "inf", never a float.
    path = _write(tmp_path, "p = 3\nd = 1\nt = 1/2\ntau = [1]\n"
                            "terms = [[0, 0], [2, 0/5]]\n")
    assert main(["norm", "--config", path, "--format", "machine"]) == 0

    def no_constant(name):
        raise AssertionError("JSON constant %s in the report" % name)

    data = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert (data["terms"], data["exponent"], data["norm"]) == ([], "inf", "0")


def test_norm_fractional_exponent_text():
    text = "p = 3\nd = 1\nt = 1/2\ntau = [1]\nterms = [[1, 1]]\n"
    payload = run(_cfg(text), "norm")
    assert payload["exponent"] == Fraction(1, 2)
    assert payload["norm"] == "3^(-1/2)"


def test_unknown_command_rejected():
    with pytest.raises(ConfigError):
        run(_cfg(GL2_GOOD), "solve")


# -- rendering ---------------------------------------------------------------

def test_render_text_layout():
    text = render_text(run(_cfg(SL3_BOTH), "check"))
    lines = text.splitlines()
    assert lines[0] == "laps report"
    assert lines[1] == "command: check"
    assert "note: criterion variants disagree at this character" in lines
    assert "verdict: inconclusive" in lines
    assert any(line.startswith("oracle [bound 2]: reducible")
               for line in lines)
    assert "provenance:" in lines
    assert text.isascii()
    assert text.endswith("\n")


def test_render_machine_is_json():
    payload = run(_cfg(SL3_BOTH), "check")
    data = json.loads(render_machine(payload))
    assert data["command"] == "check"
    assert data["verdict"] == "inconclusive"
    assert data["provenance"]["config"]["lambda"] == "[-1/2, -1/2]"
    assert data["character"]["lambda"] == ["-1/2", "-1/2"]


def test_render_deterministic():
    payload_a = run(_cfg(SL3_BOTH), "check")
    payload_b = run(_cfg(SL3_BOTH), "check")
    assert render_text(payload_a) == render_text(payload_b)
    assert render_machine(payload_a) == render_machine(payload_b)


# -- main() and exit codes ---------------------------------------------------

def test_main_check_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, GL2_GOOD)
    assert main(["check", "--config", path]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("laps report\n")
    assert out.err == ""


def test_main_missing_file_exits_one(tmp_path, capsys):
    path = str(tmp_path / "absent.cfg")
    assert main(["check", "--config", path]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_undecodable_config_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("group = A2\nlambda = [0, 0]  # \u00e9\n".encode("latin-1"))
    assert main(["check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("laps: cannot read config: ")
    assert "codec can't decode" in captured.err


def test_main_config_error_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "group = GL2\nflavour = up\nc = [1/0, 0]\n")
    assert main(["check", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "laps: config error: line 2: unknown key 'flavour'" in err
    assert err.index("line 2") < err.index("line 3")


def test_main_zero_denominator_index_is_config_error(tmp_path, capsys):
    path = _write(tmp_path, "group = A2\nI = [1/0]\n")
    assert main(["cosets", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err == "laps: config error: line 2: Fraction(1, 0)\n"


def test_main_deep_nesting_is_config_error(tmp_path, capsys):
    path = _write(tmp_path, "group = A2\nlambda = %s%s\n" % ("[" * 3000,
                                                            "]" * 3000))
    assert main(["check", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("laps: config error: line 2:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,text,line", [
    ("check", "group = A2\nlambda = [1e5000, 0]\n", 2),
    ("weights", "group = A2\nlambda = [1e5000, 0]\nheight_bound = 2\n", 2),
    ("norm", "p = 3\nd = 1\nt = 1/2\ntau = [1]\nterms = [[0, 1e5000]]\n", 5),
])
def test_main_oversized_number_is_config_error(tmp_path, capsys, command,
                                               text, line):
    path = _write(tmp_path, text)
    assert main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("laps: config error: line %d: number exceeds "
                            "4300 digits in numerator or denominator\n" % line)


def test_main_huge_exponent_is_refused_quickly(tmp_path, capsys):
    path = _write(tmp_path, "group = A2\nlambda = [1e10000000, 0]\n")
    start = time.perf_counter()
    assert main(["check", "--config", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert "line 2: number exceeds" in capsys.readouterr().err


def test_main_mahler_large_prime(tmp_path, capsys):
    path = _write(tmp_path, "p = %d\nd = 1\ndegree = 2\nmonomial = [2]\n"
                  % (2 ** 61 - 1))
    assert main(["mahler", "--config", path]) == 0
    assert "p: 2305843009213693951" in capsys.readouterr().out


_COEFFICIENT_REFUSAL = ("Mahler coefficients up to D^(k_1+...+k_d) with D = 2 "
                       "may exceed 4300 digits")


@pytest.mark.parametrize("text,message", [
    # a 5^12-point grid; it ended in MemoryError
    ("p = 3\nd = 12\ndegree = 4\nmonomial = [%s]\n" % ", ".join(["1"] * 12),
     "Mahler grid {0..4}^12 needs d*D*(D+1)^d = 12*4*(4+1)^12 difference "
     "steps, over the limit 1000000"),
    ("p = 3\nd = 1\ndegree = 100000000\nmonomial = [2]\n",
     "Mahler grid {0..100000000}^1 needs d*D*(D+1)^d = "
     "1*100000000*(100000000+1)^1 difference steps, over the limit 1000000"),
    # 2!*S(20000, 2) = 2^20000 - 2 has 6,021 digits and could not be printed
    ("p = 3\nd = 1\ndegree = 2\nmonomial = [20000]\n", _COEFFICIENT_REFUSAL),
    ("p = 3\nd = 1\ndegree = 2\nmonomial = [1000000000000]\n",
     _COEFFICIENT_REFUSAL),
], ids=["d12", "degree_1e8", "monomial_20000", "monomial_1e12"])
def test_main_mahler_over_budget_refused_quickly(tmp_path, capsys, text,
                                                 message):
    path = _write(tmp_path, text)
    start = time.perf_counter()
    assert main(["mahler", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "laps: resource limit: %s\n" % message


def test_main_mahler_coefficient_limit_is_exact(tmp_path, capsys):
    # 2^14284 has 4,300 digits, 2^14285 has 4,301
    path = _write(tmp_path, "p = 3\nd = 1\ndegree = 2\nmonomial = [14284]\n")
    assert main(["mahler", "--config", path]) == 0
    assert "n = [2]: c = %d\n" % (2 ** 14284 - 2) in capsys.readouterr().out
    path = _write(tmp_path, "p = 3\nd = 1\ndegree = 2\nmonomial = [14285]\n")
    assert main(["mahler", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "laps: resource limit: %s\n" % _COEFFICIENT_REFUSAL)


# Each draw is small (at most 3) or far over a limit: a degree of a million
# or more passes the grid budget, an exponent that large the digit limit
# whenever D >= 2.
_SMALL_OR_HUGE = st.one_of(st.integers(0, 3), st.integers(10 ** 6, 10 ** 4299))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(
    st.just(d), _SMALL_OR_HUGE,
    st.lists(_SMALL_OR_HUGE, min_size=d, max_size=d))))
def test_main_mahler_ends_in_report_or_refusal(tmp_path_factory, drawn):
    d, degree, monomial = drawn
    path = tmp_path_factory.getbasetemp() / "mahler_drawn.cfg"
    path.write_text("p = 3\nd = %d\ndegree = %d\nmonomial = [%s]\n"
                    % (d, degree, ", ".join(map(str, monomial))),
                    encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mahler", "--config", str(path)])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("laps: resource limit: ")


def test_main_uncertifiable_prime_is_refused_quickly(tmp_path, capsys):
    # 4,300 digits and no prime below 42 divides it, so Miller-Rabin would
    # run every base at full size before giving up
    path = _write(tmp_path, "p = %d\nd = 1\ndegree = 2\nmonomial = [2]\n"
                  % (10 ** 4299 + 7))
    start = time.perf_counter()
    assert main(["mahler", "--config", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert ("line 1: p must be below 3317044064679887385961981"
            in capsys.readouterr().err)


def test_main_resource_limit_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "group = A2\nlambda = [-1/2, -1/2]\n")
    code = main(["check", "--config", path, "--oracle-bound", "15"])
    assert code == 2
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("text, bound", [
    ("group = B4\nlambda = [1/7, 1/11, 1/13, 1/17]\noracle_bound = 13\n", 13),
    # the criterion's witnesses put the default bound at 252
    ("group = B4\nlambda = [5, 5, 5, 5]\noracle = true\n", 252),
], ids=["explicit", "criterion"])
def test_main_over_cap_oracle_bound_refused_quickly(tmp_path, capsys, text, bound):
    path = _write(tmp_path, text)
    start = time.perf_counter()
    assert main(["check", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "oracle bound %d exceeds the safety cap 12" % bound in err


def test_main_oracle_without_linked_weights(tmp_path, capsys):
    # no point of lam's dot-orbit other than lam lies in lam - Q+
    path = _write(tmp_path, "group = B4\nlambda = [1/7, 1/11, 1/13, 1/17]\n"
                            "oracle_bound = 12\n")
    start = time.perf_counter()
    assert main(["check", "--config", path]) == 0
    assert time.perf_counter() - start < 10.0
    assert "oracle [bound 12]: no obstruction up to degree 12" in capsys.readouterr().out


def test_main_oracle_a3_zero_finds_every_linked_weight(tmp_path, capsys):
    # lam = 0 is dominant integral, so M(w.0) lies in M(0) for all w in W:
    # |W(A3)| - 1 = 23 singular weights, all within the default bound 9.
    path = _write(tmp_path, "group = A3\nlambda = [0, 0, 0]\noracle = true\n")
    start = time.perf_counter()
    assert main(["check", "--config", path, "--format", "machine"]) == 0
    assert time.perf_counter() - start < 5.0
    (block,) = json.loads(capsys.readouterr().out)["oracle"]
    assert block["bound"] == 9
    assert len(block["witnesses"]) == 23


def test_main_oracle_b3_half_meets_every_criterion_witness(tmp_path, capsys):
    # a witness (beta, n) gives M(s_beta.lam) in M(lam), at lam - n beta
    path = _write(tmp_path, "group = B3\nlambda = [-1/2, -1/2, -1/2]\n"
                            "oracle = true\n")
    start = time.perf_counter()
    assert main(["check", "--config", path, "--format", "machine"]) == 0
    assert time.perf_counter() - start < 5.0
    rs = build_root_system("B", 3)
    crit = bgg_criterion(rs, Weight((Fraction(-1, 2),) * 3), ALL_POSITIVE)
    assert crit.witnesses
    (block,) = json.loads(capsys.readouterr().out)["oracle"]
    found = {w["weight"] for w in block["witnesses"]}
    for beta, n in crit.witnesses:
        assert "lambda - (%s)" % Root(tuple(n * c for c in beta.coords)) in found


def _criterion_weights(rs, lam, bound):
    """The weights lam - n beta of the criterion's witnesses within bound."""
    crit = bgg_criterion(rs, lam, ALL_POSITIVE)
    return crit.simple, {"lambda - (%s)" % Root(tuple(n * c for c in beta.coords))
                         for beta, n in crit.witnesses if n * beta.height <= bound}


def test_main_oracle_g2_grid_agrees_with_criterion(tmp_path, capsys):
    rs = build_root_system("G", 2)
    entries = (Fraction(-1), Fraction(0), Fraction(-1, 2), Fraction(1, 2),
               Fraction(-1, 3), Fraction(2, 3))
    start = time.perf_counter()
    predicted = 0
    for lam in itertools.product(entries, repeat=2):
        path = _write(tmp_path, "group = G2\nlambda = [%s, %s]\noracle_bound = 4\n"
                      % lam)
        assert main(["check", "--config", path, "--format", "machine"]) == 0
        (block,) = json.loads(capsys.readouterr().out)["oracle"]
        found = {w["weight"] for w in block["witnesses"]}
        simple, expected = _criterion_weights(rs, Weight(lam), 4)
        assert expected <= found, lam
        assert not (simple and found), lam
        predicted += len(expected)
    assert predicted >= 15
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("label", ["B", "C"])
def test_main_oracle_rank3_grid_agrees_with_criterion(tmp_path, capsys, label):
    # the smallest rank-3 types with coroots other than the roots; the
    # oracle never reads a coroot, so it checks them independently
    rs = build_root_system(label, 3)
    entries = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2))
    predicted = 0
    for lam in itertools.product(entries, repeat=3):
        path = _write(tmp_path, "group = %s3\nlambda = [%s, %s, %s]\n"
                      "oracle_bound = 2\n" % ((label,) + lam))
        assert main(["check", "--config", path, "--format", "machine"]) == 0
        (block,) = json.loads(capsys.readouterr().out)["oracle"]
        found = {w["weight"] for w in block["witnesses"]}
        simple, expected = _criterion_weights(rs, Weight(lam), 2)
        assert expected <= found, lam
        assert not (simple and found), lam
        predicted += len(expected)
    assert predicted == 68


def test_main_oracle_f4_half_meets_criterion_witnesses(tmp_path, capsys):
    path = _write(tmp_path, "group = F4\nlambda = [-1/2, -1/2, -1/2, -1/2]\n"
                            "oracle_bound = 2\n")
    start = time.perf_counter()
    assert main(["check", "--config", path, "--format", "machine"]) == 0
    assert time.perf_counter() - start < 10.0
    (block,) = json.loads(capsys.readouterr().out)["oracle"]
    found = {w["weight"] for w in block["witnesses"]}
    lam = Weight((Fraction(-1, 2),) * 4)
    _, expected = _criterion_weights(build_root_system("F", 4), lam, 2)
    assert expected and expected <= found


def test_main_oracle_f4_without_linked_weights(tmp_path, capsys):
    path = _write(tmp_path, "group = F4\nlambda = [1/7, 1/11, 1/13, 1/17]\n"
                            "oracle = true\n")
    assert main(["check", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "no obstruction" in out and "skipped" not in out


def test_main_bad_oracle_bound_exits_one(tmp_path, capsys):
    path = _write(tmp_path, GL2_GOOD)
    assert main(["check", "--config", path, "--oracle-bound", "0"]) == 1
    assert "--oracle-bound must be at least 1" in capsys.readouterr().err


def test_main_variant_flag_overrides_config(tmp_path, capsys):
    path = _write(tmp_path, SL3_BOTH)
    assert main(["check", "--config", path, "--variant", "delta-only",
                 "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["variant"] == "delta-only"
    assert data["verdict"] == "irreducible"
    assert data["variants_disagree"] is True


def test_main_oracle_bound_flag_enables_oracle(tmp_path, capsys):
    path = _write(tmp_path, "group = A2\nlambda = [-1/2, -1/2]\n")
    code = main(["check", "--config", path, "--oracle-bound", "3",
                 "--format", "machine"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["oracle"][0]["bound"] == 3
    assert data["oracle"][0]["reducible"] is True


def test_main_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["check", "--config", "x", "--format", "yaml"])
    assert exc.value.code == 1
    capsys.readouterr()


# Usage, help and argparse errors captured from the full parser tree: exit
# code, stdout and stderr per argv, at a fixed help width of 80 columns.
# argparse's wording changes between Python versions, so the texts hold for
# the version they were captured with.
_USAGE_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "cli_usage.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _USAGE_GOLDEN["cases"],
                         ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_main_usage_matches_golden(case, capsys, monkeypatch):
    if "%d.%d" % sys.version_info[:2] != _USAGE_GOLDEN["python"]:
        pytest.skip("usage texts captured with Python %s"
                    % _USAGE_GOLDEN["python"])
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["code"], case["stdout"], case["stderr"])


def test_import_cli_leaves_out_dataclasses():
    # -S: no site hooks, so only what laps.cli itself imports is loaded.
    code = "import sys, laps.cli; print('dataclasses' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_every_public_name_resolves():
    import laps
    assert all(hasattr(laps, name) for name in laps.__all__)


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "check" in capsys.readouterr().out


def test_main_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("laps ")


def test_main_byte_deterministic(tmp_path, capsys):
    path = _write(tmp_path, SL3_BOTH)
    for fmt in ("text", "machine"):
        assert main(["check", "--config", path, "--format", fmt]) == 0
        first = capsys.readouterr().out
        assert main(["check", "--config", path, "--format", fmt]) == 0
        assert capsys.readouterr().out == first


def test_main_every_command_runs(tmp_path, capsys):
    texts = {
        "check": GL2_GOOD,
        "cosets": "group = A2\nI = [1]\n",
        "partition": "group = A2\nI = [1]\nw = [2]\n",
        "weights": "group = B2\nlambda = [0, 0]\nheight_bound = 3\n",
        "mahler": "p = 3\nd = 2\ndegree = 3\nmonomial = [2, 1]\n",
        "norm": ("p = 3\nd = 2\nt = 1/2\ntau = [1, 2]\ndegree = 4\n"
                 "terms = [[0, 0, 1], [1, 1, 1/3]]\n"),
    }
    for command, text in texts.items():
        path = _write(tmp_path, text, name=command + ".cfg")
        assert main([command, "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("laps report\ncommand: %s\n" % command)
        assert out.isascii()
        assert main([command, "--config", path, "--format", "machine"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == command
        assert "provenance" in data


def test_main_repeated_calls_leak_no_state(tmp_path, capsys):
    # Calls in one process share the cached root systems; a flag given to
    # one call must not reach the next, and help and usage errors repeat.
    sl3 = _write(tmp_path, "group = A2\nlambda = [-1/2, -1/2]\n", "sl3.cfg")
    gl2 = _write(tmp_path, GL2_GOOD, "gl2.cfg")

    def out(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def exits(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    plain = {path: out(["check", "--config", path]) for path in (sl3, gl2)}
    usage = exits(["check"])
    assert usage[0] == 1 and "--config" in usage[1].err
    help_text = exits(["--help"])
    assert help_text[0] == 0 and "check" in help_text[1].out
    for path, variant, bound in ((sl3, "both", 2), (gl2, "delta-only", 3)):
        flagged = json.loads(out(["check", "--config", path, "--variant",
                                  variant, "--oracle-bound", str(bound),
                                  "--format", "machine"]))
        assert flagged["variant"] == variant
        assert flagged["oracle"][0]["bound"] == bound
        assert out(["check", "--config", path]) == plain[path]
    assert exits(["check"]) == usage
    assert exits(["--help"]) == help_text
