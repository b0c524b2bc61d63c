"""droneplace benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload place-nc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Each workload is a closed loop with one client: the bench calls
``droneplace.cli.main([...])`` in-process, one invocation per population
seed, and sends the next only when the previous returned. A run passes
over the workload's cycle of consecutive seeds, rotated to begin at
``--seed``, at least once and until ``--seconds`` have elapsed. Every run
covers the same populations, whose costs differ by up to 10x, so runs with
different ``--seed`` measure the same mix. ``--holdout`` swaps in the
held-out seeds.

Every output is re-checked after the timed loop (see check.py); a request
fails if it exits non-zero, raises, writes no outputs or fails a check.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one pass
with spans (see spans.py), whatever ``--seconds`` says, and prints the
per-layer metrics of that pass plus the tracing overhead; it also reruns
the first seed and requires the counters of a single-threaded workload to
repeat exactly. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 1 if the result is not correct, and 2 if there is no
program to measure (no result line then).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import Checker
from common import (
    GOLDEN_PATH,
    RUN_DIR,
    SRC,
    MissingProgram,
    import_program,
    load_golden,
    nproc,
    population_seed,
)
from spans import Tracer, layer_metrics, request_counts, span_cost


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    mode: str
    threaded: bool
    cycle: int  # population seeds one pass visits

    @property
    def threads(self) -> int:
        return nproc() if self.threaded else 1


# The three workloads separate the layers (BENCHMARK.json says why each):
# place-nc is bound by selection, place-uc bypasses it (screening and
# geometry dominate), and sweep-nc amortises geometry over 20 warm-started,
# threaded scans. Cycle lengths keep one pass at about 5-15 s on 2 cores at
# the seed commit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("place-nc", "place", "network_centric", False, 32),
        Workload("place-uc", "place", "user_centric", False, 32),
        Workload("sweep-nc", "sweep-backhaul", "network_centric", True, 2),
    )
}

END_TO_END_UNITS = {
    "scans_per_s": "1/s",
    "request_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import droneplace.cli\n"
    "droneplace.cli.load_config()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


@dataclass
class Request:
    id: int
    seed: int
    out_dir: Path
    seconds: float
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the CLI and resolve defaults."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Client:
    """Sends one CLI invocation at a time and records what came back."""

    def __init__(self, cli, wl: Workload, out_root: Path):
        self.cli = cli
        self.wl = wl
        self.out_root = out_root
        self.tracer: Tracer | None = None
        self.requests: list[Request] = []

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        wl = self.wl
        return [wl.command, "--mode", wl.mode, "--seed", str(seed),
                "--threads", str(wl.threads), "--output-dir", str(out_dir)]

    def call(self, argv: list[str]) -> tuple[int | None, str | None]:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is None:
                    return self.cli.main(argv), None
                with self.tracer.span("cli.main"):
                    return self.cli.main(argv), None
        except (Exception, SystemExit) as e:
            return None, f"raised {e!r}"

    def invoke(self, seed: int) -> Request:
        rid = len(self.requests)
        out_dir = self.out_root / f"r{rid}"
        if self.tracer is not None:
            self.tracer.request = rid
        t0 = time.perf_counter()
        rc, error = self.call(self.argv(seed, out_dir))
        req = Request(rid, seed, out_dir, time.perf_counter() - t0)
        if error is not None:
            req.errors.append(error)
        elif rc != 0:
            req.errors.append(f"exit code {rc}")
        self.requests.append(req)
        return req

    def warm_up(self, seed: int) -> None:
        """One untimed call on a coarse grid, so lazy set-up is not timed."""
        argv = self.argv(seed, self.out_root / "warmup") + ["--set", "grid_step_m=1000"]
        rc, error = self.call(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up failed: {error or f'exit code {rc}'}")

    def drive(self, seeds: list[int], seconds: float, max_requests: int | None):
        """Cycle over ``seeds``: one whole pass, then on until ``seconds`` elapsed.

        Returns the requests and their wall time.
        """
        first = len(self.requests)
        t0 = time.perf_counter()
        for seed in itertools.cycle(seeds):
            self.invoke(seed)
            done = len(self.requests) - first
            elapsed = time.perf_counter() - t0
            if done == max_requests or (done >= len(seeds) and elapsed >= seconds):
                return self.requests[first:], elapsed


def check_all(checker: Checker, wl: Workload, requests: list[Request]) -> int:
    check = checker.check_place if wl.command == "place" else checker.check_sweep
    for req in requests:
        if req.failed:
            continue
        try:
            req.errors.extend(check(req.out_dir, wl.mode, req.seed))
        except (OSError, ValueError, KeyError) as e:  # missing or malformed outputs
            req.errors.append(f"unreadable outputs: {e!r}")
    failed = [r for r in requests if r.failed]
    for req in failed[:5]:
        print(f"FAILED seed {req.seed}: {'; '.join(req.errors)}", file=sys.stderr)
    return len(failed)


def timed_run(client: Client, checker_args, seeds, args) -> dict:
    """End-to-end metrics, built from per-seed medians over the passes.

    A seed's typical invocation time is the median over its repeats, so a
    transient stall moves it little. ``scans_per_s`` is the scans of one
    pass over the sum of those typical times, scaled by the share of
    requests that did not fail; ``request_s.p50`` is their median, which
    weighs every population of the cycle equally.
    """
    wl = client.wl
    setup_s = measure_setup()
    client.warm_up(seeds[0])
    requests, _ = client.drive(seeds, args.seconds, args.max_requests)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = check_all(Checker(*checker_args), wl, requests)
    scans = scans_per_request(client.cli) if wl.command != "place" else 1
    per_seed: dict[int, list[float]] = {}
    for r in requests:
        per_seed.setdefault(r.seed, []).append(r.seconds)
    typical = [statistics.median(t) for t in per_seed.values()]
    ok_share = 1.0 - failed / len(requests)
    metrics = {
        "scans_per_s": ok_share * scans * len(typical) / sum(typical),
        "request_s.p50": statistics.median(typical),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return result(failed == 0, requests, failed, metrics, END_TO_END_UNITS)


def traced_run(client: Client, checker_args, seeds, args, pkg) -> dict:
    """One traced pass, then one traced rerun of its first seed.

    Per-layer totals cover exactly one pass over the cycle, so they compare
    across runs and commits. The overhead is the pass's span count times the
    cost of one span, timed on a no-op in this process: comparing with an
    untraced pass would bury it in run-to-run noise.
    """
    wl = client.wl
    client.warm_up(seeds[0])
    tracer = client.tracer = Tracer()
    tracer.install(pkg)
    try:
        cpu0 = time.process_time()
        traced, traced_wall = client.drive(seeds, 0.0, args.max_requests)
        cpu = time.process_time() - cpu0
        rerun = client.invoke(traced[0].seed)
    finally:
        tracer.uninstall()
        client.tracer = None
    tracer.dump(RUN_DIR / f"spans_{wl.name}.tsv")

    requests = traced + [rerun]
    failed = check_all(Checker(*checker_args), wl, requests)
    spans = [s for s in tracer.spans if s.request != rerun.id]
    metrics = layer_metrics(spans, traced_wall, cpu)
    overhead_s = len(spans) * span_cost()
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.overhead_frac"] = overhead_s / (traced_wall - overhead_s)
    first, again = request_counts(tracer.spans, traced[0].id), request_counts(tracer.spans, rerun.id)
    for name in ("selection.bnb_calls", "selection.nodes"):
        a, b = first[name], again[name]
        metrics[f"{name}.rerun_spread"] = abs(a - b) / max(a, b, 1)
    stable = wl.threaded or first == again
    if not stable:
        print(f"UNSTABLE counts on a single-threaded rerun: {first} vs {again}", file=sys.stderr)
    units = {name: layer_unit(name) for name in metrics}
    return result(stable and failed == 0, requests, failed, metrics, units)


def scans_per_request(cli) -> int:
    return len(cli.load_config().resolved["backhaul_values_mbps"])


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".p50")):
        return "s"
    if name.endswith(("calls", "nodes", "count", "links", "scans")):
        return "count"
    return "ratio"


def result(correct: bool, requests, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; prints one table of every metric."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--golden", str(args.golden)]
        if args.holdout:
            argv.append("--holdout")
        if args.max_requests is not None:
            argv += ["--max-requests", str(args.max_requests)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exit code {proc.returncode}, no result")
            continue
        rows = [(k, m["value"], m["unit"]) for k, m in doc["metrics"].items()]
        rows.append(("failed_frac", doc["failed"] / doc["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:9s} {metric:32s} {value:14.6g} {unit}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0, help="rotation of the seed cycle")
    p.add_argument("--seconds", type=float, default=20.0, help="minimum measured time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--holdout", action="store_true", help="use the held-out seed block")
    p.add_argument("--golden", type=Path, default=GOLDEN_PATH, help="golden objective table")
    p.add_argument("--max-requests", type=int, help="stop after this many (smoke runs)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
        golden = load_golden(args.golden)
    except (MissingProgram, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    seeds = [population_seed(args.seed, i, wl.cycle, args.holdout) for i in range(wl.cycle)]
    RUN_DIR.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=RUN_DIR))
    try:
        client = Client(cli, wl, out_root)
        if args.trace:
            doc = traced_run(client, (cli, golden), seeds, args, sys.modules["droneplace"])
        else:
            doc = timed_run(client, (cli, golden), seeds, args)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    for name, m in doc["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_frac {doc['failed'] / doc['attempted']!r} ratio")
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
