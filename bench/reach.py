"""Reach probe: the heavy inputs the CLI accepts today, one child each.

Not a timed workload. Each input runs in its own interpreter under a
wall-clock timeout and an address-space limit set on that child alone
(mahler at d = 12 would otherwise try to build a 5^12-entry grid), and
ends as ok (exit 0), refused (exit 2, a resource limit), timeout, or
error (any other exit, with the last line of stderr).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

TIMEOUT_S = 20
ADDRESS_SPACE = 768 * 1024 * 1024

INPUTS = (
    ("oracle_a3_zero", "check", "group = A3\nlambda = [0, 0, 0]\noracle = true\n"),
    ("oracle_b3_half", "check",
     "group = B3\nlambda = [-1/2, -1/2, -1/2]\noracle = true\n"),
    ("weights_b4_h40", "weights", "group = B4\nlambda = [0, 0, 0, 0]\nheight_bound = 40\n"),
    ("mahler_d12", "mahler",
     "p = 3\nd = 12\ndegree = 4\nmonomial = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]\n"),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def probe(src: str, work: str, name: str, command: str, config: str) -> dict:
    path = os.path.join(work, name + ".cfg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(config)
    cmd = [sys.executable, "-m", "laps.cli", command, "--config", path]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return {"input": name, "outcome": "timeout", "seconds": TIMEOUT_S}
    seconds = round(time.perf_counter() - t0, 3)
    if proc.returncode == 0:
        return {"input": name, "outcome": "ok", "seconds": seconds}
    if proc.returncode == 2:
        return {"input": name, "outcome": "refused", "seconds": seconds}
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    return {"input": name, "outcome": "error", "exit": proc.returncode,
            "stderr": last, "seconds": seconds}


def main(src: str, work: str) -> int:
    work = os.path.join(work, "reach")
    os.makedirs(work, exist_ok=True)
    records = []
    for name, command, config in INPUTS:
        record = probe(src, work, name, command, config)
        print("  %-16s %-8s %s" % (name, record["outcome"], record["seconds"]),
              flush=True)
        records.append(record)
    print(json.dumps({"timeout_s": TIMEOUT_S, "address_space_mb": ADDRESS_SPACE >> 20,
                      "inputs": records}))
    return 0
