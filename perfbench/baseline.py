"""Record the benchmark's baseline: repeated runs, medians and quartiles.

    python3 perfbench/baseline.py                              # seeds 0-9, writes
    python3 perfbench/baseline.py --first-seed 10 --no-write   # a second set

Runs ``run.py`` once per seed on each workload with the ``run_seconds`` of
BENCHMARK.json: 10 untraced runs, then 3 traced ones. Prints each metric's
median, quartiles and spread (quartile distance over the median) against
its bound, and writes ``baseline.json`` with the machine and program
versions it was measured on.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from common import HERE, ROOT, nproc
from run import WORKLOADS

RUNS = 10
TRACE_RUNS = 3


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["run_wall_s"] = time.perf_counter() - t0
    return doc


def summarise(docs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in docs[0]["metrics"]:
        values = [d["metrics"][name]["value"] for d in docs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": docs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
        bound = bounds.get(name)
        spread = out[name]["spread"]
        mark = "" if bound is None or spread is None else f"  bound {bound}  {spread / bound:.2f} of bound"
        print(f"  {name:36s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread if spread is None else round(spread, 4)}{mark}", flush=True)
        print("    values", " ".join(f"{v:.4g}" for v in values), flush=True)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--no-write", action="store_true", help="print only")
    args = p.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = {}
    for name in WORKLOADS:
        entry = {"why": whys[name], "threads": WORKLOADS[name].threads}
        for trace, runs, key in ((0, RUNS, "end_to_end"), (1, TRACE_RUNS, "per_layer")):
            docs = [one_run(name, args.first_seed + k, seconds, trace) for k in range(runs)]
            print(f"{name} --trace {trace}: {runs} runs, "
                  f"{statistics.median(d['run_wall_s'] for d in docs):.1f} s each (median), "
                  f"failed {sum(d['failed'] for d in docs)} of {sum(d['attempted'] for d in docs)}",
                  flush=True)
            entry[key] = summarise(docs, bounds)
            entry[f"{key}_run_wall_s"] = [d["run_wall_s"] for d in docs]
            entry[f"{key}_correct"] = all(d["correct"] for d in docs)
        workloads[name] = entry
    if args.no_write:
        return 0
    doc = {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
