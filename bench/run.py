"""Benchmark for `laps`: one closed-loop client driving `laps.cli.main`.

    python3 bench/run.py --workload light_mix|tables|oracle|all
                         --seed N --seconds S --trace 0|1
    python3 bench/run.py --reach        # heavy inputs, one child each
    python3 bench/run.py --self-test    # the checker catches broken output

Run from the repository root. The workload's cases are generated from the
seed and written as config files under .bench_run/; then passes over the
case list run in this single process, one call at a time. Call times (CPU
time of this thread) are scaled to a fixed host speed by a probe timed
between calls, and passes
repeat until the next one would take the scaled total past --seconds.
Every output is checked (checks.py) and the last line printed is a JSON
result. With --trace 1 the per-layer metrics of
tracing.py are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
CASE_TIMEOUT_S = 30.0
# Fresh interpreters timed for setup_s, SETUP_BATCH before each untraced
# pass until there are SETUP_SPAWNS: spread over the run, they sample more
# of the host's slow swings in speed than one burst does.
SETUP_SPAWNS = 20
SETUP_BATCH = 5
# probe() on the 2-vCPU Xeon VM where bench/baseline.json was measured; it
# sets the scale of every reported call time (see probe()).
PROBE_S = 1.1e-3
PROBE_EVERY_S = 0.1

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cases as casegen  # noqa: E402
import checks  # noqa: E402
import reach  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402


class CaseTimeout(BaseException):
    """Raised by the alarm inside a call that overran its time limit."""


def _alarm(signum, frame):
    raise CaseTimeout()


def load_laps():
    """Import laps from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "laps", "cli.py")):
        sys.exit("bench: %s/laps not found; run from a laps checkout" % SRC)
    sys.path.insert(0, SRC)
    import laps.cli
    if not os.path.abspath(laps.cli.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported laps from %s, not %s" % (laps.cli.__file__, SRC))
    return laps.cli


def measure_setup(spawns: int):
    """Wall times for fresh interpreters to import laps.cli, each scaled by
    the probes taken before and after it (see probe())."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import laps.cli"]
    times = []
    for _ in range(spawns):
        before = probe()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit("bench: import laps.cli failed: %s"
                     % proc.stderr.decode(errors="replace").strip())
        times.append(elapsed * 2 * PROBE_S / (before + probe()))
    return times


def write_configs(cases, directory: str):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, case in enumerate(cases):
        path = os.path.join(directory, "case%04d.cfg" % k)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case.config)
        paths.append(path)
    return paths


def call(cli, argv, timeout: float):
    """Run laps once; (status, stdout). status is the exit code, "timeout"
    or "crash: <exception>"."""
    out, err = io.StringIO(), io.StringIO()
    status = None
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except CaseTimeout:
        status = "timeout"
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed case, not a failed run
        status = "crash: %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, out.getvalue()


def probe() -> float:
    """CPU seconds for a fixed piece of Fraction arithmetic, best of three.

    This is the host-speed reference: on a shared VM the same code runs up
    to twice as fast in some minutes as in others, so call times are scaled
    by PROBE_S / probe() measured around them. GC is off inside the probe
    so the program's heap cannot lengthen it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.thread_time()
            acc = Fraction(0)
            for k in range(1, 150):
                acc += Fraction(k, k + 1) * Fraction(3, 7)
            best = min(best, time.thread_time() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def run_pass(cli, cases, paths, timeout, tracer=None):
    """One pass over the case list.

    Returns [(status, stdout, seconds, scaled seconds)], the raw wall time
    and the probe times. A call's time is the CPU time of this thread: on a
    shared VM the vCPU is taken away for tens of milliseconds now and then,
    and in wall time those stalls, not laps, set the latency tail. A probe
    runs at least every PROBE_EVERY_S; each call, and each span the tracer
    recorded in it, is scaled by the mean of the probes before and after it.
    """
    # Objects alive now (the harness's case lists and earlier timings) are
    # frozen out of the collector, so a collection that falls inside a call
    # scans what laps allocated, not the benchmark's own heap.
    gc.collect()
    gc.freeze()
    results, probes, pending = [], [probe()], []
    start = last = time.perf_counter()
    for k, (case, path) in enumerate(zip(cases, paths)):
        if tracer is not None:
            tracer.case = k
        argv = [case.command, "--config", path, *case.args]
        t0 = time.thread_time()
        status, out = call(cli, argv, timeout)
        pending.append((status, out, time.thread_time() - t0))
        if time.perf_counter() - last >= PROBE_EVERY_S or k == len(cases) - 1:
            probes.append(probe())
            factor = 2 * PROBE_S / (probes[-2] + probes[-1])
            results.extend((st, o, dt, dt * factor) for st, o, dt in pending)
            if tracer is not None:
                tracer.scale(factor)
            pending = []
            last = time.perf_counter()
    return results, time.perf_counter() - start, probes


class Ledger:
    """Checks the output of every call and keeps the failures."""

    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failures = []

    def record(self, pass_no, results):
        for k, (status, out, *_) in enumerate(results):
            self.attempted += 1
            reason = checks.judge(self.cases[k], status, out)
            if reason is not None:
                self.failures.append((pass_no, k, reason))


def tail(latencies):
    """Latency at the highest percentile with at least ten calls beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    cli = load_laps()
    cases = casegen.WORKLOADS[name](seed)
    if not traced:
        measure_setup(1)  # the first spawn may compile bytecode
    setup_times = []
    directory = os.path.join(WORK, "%s-%d-%d" % (name, seed, os.getpid()))
    paths = write_configs(cases, directory)
    ledger = Ledger(cases)
    tracer = tracing.Tracer() if traced else None
    if traced:
        before = probe()
        span_cost = tracing.span_cost()
        span_cost *= 2 * PROBE_S / (before + probe())
    # Pass times are the sums of their scaled call times.
    walls, per_call, per_layer = [], [[] for _ in cases], []
    raw_walls, probes = [], []
    try:
        while True:
            if traced:
                tracer.install()
            elif len(setup_times) < SETUP_SPAWNS:
                setup_times.extend(measure_setup(SETUP_BATCH))
            try:
                results, raw_wall, pass_probes = run_pass(
                    cli, cases, paths, CASE_TIMEOUT_S, tracer)
            finally:
                if traced:
                    tracer.uninstall()
            ledger.record(len(walls), results)
            raw_walls.append(raw_wall)
            probes.extend(pass_probes)
            walls.append(sum(scaled for *_, scaled in results))
            if traced:
                spans = tracer.take()
                per_layer.append(tracing.pass_metrics(spans, span_cost))
            else:
                for k, (*_, scaled) in enumerate(results):
                    per_call[k].append(scaled)
            # Counting scaled time keeps the number of passes, and with it
            # the rank the latency tail is read at, independent of host speed.
            if sum(walls) + max(walls) > seconds:
                break
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    report = {"workload": name, "seed": seed, "passes": len(raw_walls),
              "cases": len(cases), "attempted": ledger.attempted,
              "failed": len(ledger.failures), "failures": ledger.failures,
              "pass_s": statistics.median(walls),
              "raw_wall_s": statistics.median(raw_walls),
              "probe_ms": statistics.median(probes) * 1e3}
    if traced:
        metrics = tracing.median_metrics(per_layer)
        os.makedirs(WORK, exist_ok=True)
        tracing.write_spans(os.path.join(WORK, "spans-%s-%d.jsonl" % (name, seed)),
                            spans)
        report["metrics"] = metrics
        return report
    value, pct, count = tail([dt for times in per_call for dt in times])
    report["tail"] = (pct, count)
    report["metrics"] = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "case_geomean_ms": math.exp(statistics.fmean(
            math.log(statistics.median(times) * 1e3) for times in per_call)),
        "latency_tail_ms": value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def print_report(report, spec, traced: bool):
    print("workload %s  seed %d  passes %d  cases/pass %d"
          % (report["workload"], report["seed"], report["passes"], report["cases"]))
    print("  call times scaled by %.4g ms / probe; probe median %.4g ms"
          % (PROBE_S * 1e3, report["probe_ms"]))
    print("  %s pass median %.4g s scaled CPU time, %.4g s wall"
          % ("traced" if traced else "untraced", report["pass_s"],
             report["raw_wall_s"]))
    listed = spec["per_layer" if traced else "end_to_end"]
    for m in listed:
        print("  %-44s %14.6g %s" % (m["name"], report["metrics"][m["name"]], m["unit"]))
    if traced:
        print("  layer -> end-to-end metric it should move:")
        for layer, target in tracing.LAYER_TARGETS:
            print("    %s -> %s" % (layer, target))
    else:
        pct, count = report["tail"]
        print("  latency_tail_ms is p%.2f over %d calls" % (pct, count))
    print("  fail_ratio %.6g  (%d failed of %d attempted)"
          % (report["failed"] / report["attempted"], report["failed"],
             report["attempted"]))
    for pass_no, k, reason in report["failures"][:10]:
        print("  FAIL pass %d case %d: %s" % (pass_no, k, reason))


def result_line(report, spec, traced: bool) -> str:
    listed = spec["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]],
                                "unit": m["unit"]} for m in listed},
    })


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS stays per workload."""
    combined = {}
    for name in casegen.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(casegen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reach", action="store_true")
    parser.add_argument("--self-test", action="store_true", dest="self_test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    if args.reach:
        load_laps()
        return reach.main(SRC, WORK)
    if args.self_test:
        return selftest.main(load_laps(), call, Ledger, WORK)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, spec, bool(args.trace))
    print(result_line(report, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
