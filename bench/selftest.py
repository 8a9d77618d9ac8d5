"""Self-test: the checker must count broken output as a failure.

Runs a few real cases, confirms their true output passes, then feeds the
ledger a flipped verdict, a dropped coset, an altered weight dimension and
a call forced past its time limit, each of which must be recorded as a
failed call.
"""

from __future__ import annotations

import os
import re
import tempfile

from cases import Case


def _mutations():
    check = Case("check", "group = A2\nlambda = [1/2, 1/2]\n", (),
                 {"group": ("lie", "A", 2), "lambda": ["1/2", "1/2"],
                  "variant": None, "oracle_bound": None})
    cosets = Case("cosets", "group = B3\nI = [1]\nJ = [2]\n", (), {"type": ("B", 3)})
    weights = Case("weights", "group = C3\nlambda = [0, 0, 0]\nheight_bound = 3\n",
                   (), {"type": ("C", 3), "height_bound": 3})

    def flip(out):
        return re.sub(r"verdict: (\w+)", lambda m: "verdict: " + (
            "inconclusive" if m.group(1) == "irreducible" else "irreducible"), out)

    def drop_coset(out):
        return re.sub(r"\n  \[2\] [^\n]*", "", out, count=1)

    def bump_dim(out):
        return re.sub(r"dim (\d+)\n", lambda m: "dim %d\n" % (int(m.group(1)) + 1),
                      out, count=1)

    return (("flipped verdict", check, flip), ("dropped coset", cosets, drop_coset),
            ("altered weight dimension", weights, bump_dim))


def main(cli, call, ledger_cls, work: str) -> int:
    ok = True
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work, prefix="selftest") as tmp:
        def run(case, timeout=30.0):
            path = os.path.join(tmp, case.command + ".cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(case.config)
            return call(cli, [case.command, "--config", path, *case.args], timeout)

        for label, case, mutate in _mutations():
            status, out = run(case)
            broken = mutate(out)
            ledger = ledger_cls([case])
            ledger.record(1, [(status, out, 0.0)])
            clean = not ledger.failures
            ledger.record(2, [(status, broken, 0.0)])
            caught = broken != out and len(ledger.failures) == 1
            print("%-26s true output passes: %-5s mutation counted: %s"
                  % (label, clean, caught))
            ok = ok and clean and caught

        slow = Case("check", "group = B3\nlambda = [0, 0, 0]\n", ("--oracle-bound", "2"),
                    {"group": ("lie", "B", 3), "lambda": ["0", "0", "0"],
                     "variant": None, "oracle_bound": 2})
        status, out = run(slow, timeout=0.05)
        ledger = ledger_cls([slow])
        ledger.record(1, [(status, out, 0.05)])
        caught = status == "timeout" and ledger.failures == [(1, 0, "timeout")]
        print("%-26s status: %-26s counted: %s" % ("forced timeout", status, caught))
        ok = ok and caught
    print("self-test %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1
