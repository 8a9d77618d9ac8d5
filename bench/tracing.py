"""Spans around the calls into each `laps` layer, for the traced run only.

Wrappers are installed from the benchmark's side: each public function
named in TARGETS is replaced in every `laps` namespace that holds it (cli
imports simplicity_oracle by name, verma imports pair_with_coroot, and so
on), and VermaModule is traced through its __init__, which builds the
structure tables. Spans are kept in memory as
(name, start, end, parent, case id, note, scale) and aggregated per pass;
a layer's self time is its span duration minus the time of its child
spans, each duration multiplied by the host-speed scale that run.py
worked out for the batch of calls the span ran in.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# (metric prefix, module, attribute, note taken from (args, result))
TARGETS = (
    ("cli.main", "laps.cli", "main", None),
    ("cli.parse_config", "laps.cli", "parse_config", None),
    ("cli.render", "laps.cli", "render_text", None),
    ("cli.render", "laps.cli", "render_machine", None),
    ("roots.build_root_system", "laps.roots", "build_root_system", None),
    ("roots.pair_with_coroot", "laps.roots", "pair_with_coroot", None),
    ("lie.realize", "laps.lie", "realize",
     lambda a, r: (a[0].type_label, a[0].rank)),
    ("verma.bgg_criterion", "laps.verma", "bgg_criterion", None),
    ("verma.VermaModule", "laps.verma", "VermaModule.__init__", None),
    ("verma.weight_space_basis", "laps.verma", "weight_space_basis",
     lambda a, r: (len(r), (id(a[0]), a[1].pairings))),
    ("verma.singular_vectors", "laps.verma", "singular_vectors",
     lambda a, r: bool(r)),
    ("verma.simplicity_oracle", "laps.verma", "simplicity_oracle", None),
    ("linalg.kernel_basis", "laps.linalg", "kernel_basis",
     lambda a, r: (len(a[0]) * a[1], bool(r))),
    ("linalg.solve_unique", "laps.linalg", "solve_unique", None),
    ("parahoric.build_weyl_group", "laps.parahoric", "build_weyl_group",
     lambda a, r: len(r)),
    ("parahoric.double_cosets", "laps.parahoric", "double_cosets", None),
    ("parahoric.iwahori_root_partition", "laps.parahoric",
     "iwahori_root_partition", None),
    ("parahoric.weyl_element", "laps.parahoric", "weyl_element", None),
    ("padic.mahler_coefficients", "laps.padic", "mahler_coefficients",
     lambda a, r: (a[3] + 1) ** a[1]),
    ("padic.r_norm", "laps.padic", "r_norm", None),
    ("padic.dist_series", "laps.padic", "dist_series",
     lambda a, r: len(r.coefficients)),
)

# Which end-to-end metric each layer should move, and on which workload.
LAYER_TARGETS = (
    ("cli", "case_geomean_ms and latency_tail_ms on light_mix"),
    ("roots", "case_geomean_ms on light_mix"),
    ("lie", "wall_s on tables, a smaller share on oracle"),
    ("verma.bgg_criterion", "case_geomean_ms on light_mix"),
    ("verma.VermaModule", "wall_s on tables, then oracle"),
    ("verma.weight_space_basis", "wall_s on oracle, and tables through weights"),
    ("verma.singular_vectors / simplicity_oracle", "wall_s on oracle"),
    ("linalg.kernel_basis", "wall_s and case_geomean_ms on oracle only"),
    ("linalg.solve_unique", "wall_s on tables and oracle"),
    ("parahoric", "wall_s on tables (cosets), case_geomean_ms on light_mix (partition)"),
    ("padic", "case_geomean_ms on light_mix"),
)


class Tracer:
    """Span recorder; install() patches laps, uninstall() restores it."""

    def __init__(self):
        self.spans: List[list] = []
        self.case = -1
        self._scaled = 0
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case,
                    None, 1.0]
            spans.append(span)
            stack.append(sid)
            span[1] = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.thread_time()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "laps" or n.startswith("laps.")]
        for name, modname, attr, note in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, note))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def scale(self, factor: float) -> None:
        """Set the host-speed scale of every span recorded since the last
        call."""
        for span in self.spans[self._scaled:]:
            span[6] = factor
        self._scaled = len(self.spans)

    def take(self) -> List[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        self._scaled = 0
        return out


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op minus a bare
    no-op, each the best of five loops. The wrapper does strictly more work
    than the call it wraps, so this cannot read below zero the way a
    traced-minus-untraced pass time does. It is a lower bound: it leaves out
    the note functions and the garbage collection the span list causes.
    """
    tracer = Tracer()

    def noop():
        return None

    def best(fn):
        fastest = math.inf
        for _ in range(5):
            t0 = time.thread_time()
            for _ in range(calls):
                fn()
            fastest = min(fastest, time.thread_time() - t0)
            tracer.spans.clear()
        return fastest / calls

    return best(tracer._wrap("noop", noop, None)) - best(noop)


def pass_metrics(spans: List[list], cost: float) -> Dict[str, float]:
    """Per-layer metrics for one pass over the case list; cost is the
    scaled seconds one span adds (span_cost)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, case, note, scale in spans:
        if parent >= 0:
            child[parent] += (t1 - t0) * scale
    calls: Dict[str, int] = defaultdict(int)
    self_ms: Dict[str, float] = defaultdict(float)
    for (name, t0, t1, *_, scale), kids in zip(spans, child):
        calls[name] += 1
        self_ms[name] += ((t1 - t0) * scale - kids) * 1e3

    def notes(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def repeats(keys):
        return len(keys) - len(set(keys))

    out = {}
    for name, _, _, _ in TARGETS:
        out[name + ".calls"] = calls[name]
        out[name + ".self_ms"] = self_ms[name]
    realized = notes("lie.realize")
    out["lie.realize.repeat_ratio"] = ratio(repeats(realized), len(realized))
    bases = [(s[4], s[5]) for s in spans
             if s[0] == "verma.weight_space_basis" and s[5] is not None]
    out["verma.weight_space_basis.monomials"] = sum(n for _, (n, _) in bases)
    out["verma.weight_space_basis.repeat_ratio"] = ratio(
        repeats([(case, key) for case, (_, key) in bases]), len(bases))
    hits = notes("verma.singular_vectors")
    out["verma.singular_vectors.hit_ratio"] = ratio(sum(hits), len(hits))
    kernels = notes("linalg.kernel_basis")
    out["linalg.kernel_basis.cells"] = sum(c for c, _ in kernels)
    out["linalg.kernel_basis.nonempty_ratio"] = ratio(
        sum(k for _, k in kernels), len(kernels))
    out["parahoric.build_weyl_group.elements"] = sum(
        notes("parahoric.build_weyl_group"))
    out["padic.mahler_coefficients.grid_points"] = sum(
        notes("padic.mahler_coefficients"))
    out["padic.dist_series.terms"] = sum(notes("padic.dist_series"))
    out["trace.overhead_ms"] = len(spans) * cost * 1e3
    return out


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path: str, spans: List[list]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sid, (name, t0, t1, parent, case, _, scale) in enumerate(spans):
            handle.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "scale": scale,
                                     "parent": parent, "case": case}) + "\n")
