"""Regenerate ``golden.json``: exact objectives keyed by (mode, seed, R).

Untimed. Run once at the commit whose objectives are taken as the truth:

    python3 perfbench/golden.py

Network-centric objectives come from one ``sweep-backhaul`` per seed over
the default R grid (the default R of ``place`` is one of its points);
user-centric objectives from one ``place`` per seed at the default R. Only
objectives are kept: placements and served sets may legitimately change
under a different tie-break.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time

from common import (
    BENCH_SEEDS,
    GOLDEN_PATH,
    HOLDOUT_SEEDS,
    RUN_DIR,
    golden_key,
    import_program,
    nproc,
    read_placement,
    read_sweep,
)


def main() -> int:
    cli = import_program()
    cfg = cli.load_config()
    threads = nproc()
    objectives: dict[str, dict[str, dict[str, float]]] = {
        "network_centric": {},
        "user_centric": {},
    }
    out = RUN_DIR / "golden"
    for seed in range(BENCH_SEEDS + HOLDOUT_SEEDS):
        t0 = time.perf_counter()
        for mode, command in (("network_centric", "sweep-backhaul"), ("user_centric", "place")):
            shutil.rmtree(out, ignore_errors=True)
            argv = [command, "--mode", mode, "--seed", str(seed),
                    "--threads", str(threads), "--output-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{command} failed on seed {seed}")
            if command == "place":
                doc, _ = read_placement(out)
                row = {golden_key(cfg.system.backhaul_mbps): doc["objective"]}
            else:
                row = {golden_key(r): v["objective"] for r, v in read_sweep(out).items()}
            objectives[mode][str(seed)] = row
        print(f"seed {seed}: {time.perf_counter() - t0:.2f} s", file=sys.stderr, flush=True)
    shutil.rmtree(out, ignore_errors=True)
    doc = {
        "bench_seeds": BENCH_SEEDS,
        "holdout_seeds": HOLDOUT_SEEDS,
        "backhaul_values_mbps": list(cfg.resolved["backhaul_values_mbps"]),
        "default_backhaul_mbps": cfg.system.backhaul_mbps,
        "objectives": objectives,
    }
    with open(GOLDEN_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
