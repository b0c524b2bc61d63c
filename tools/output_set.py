"""Write the byte-identity output set of a droneplace source tree.

    python3 tools/output_set.py [--src DIR] OUTDIR

Runs the CLI in-process, from ``DIR`` (default: the ``src/`` next to this
script), and writes under OUTDIR:

- ``place_network_centric/`` and ``place_user_centric/``: ``place`` for
  population seeds 0-63;
- ``place_ten_rates_network_centric/`` and ``place_ten_rates_user_centric/``:
  ``place`` for seeds 0-7 over a 10-value rate set (0.1, 0.3, ..., 1.7,
  2.0 Mbps), more rate classes than the value-only count solvers take;
- ``place_step70_network_centric/``, ``place_step130_network_centric/`` and
  their ``user_centric`` twins: ``place`` for seeds 0-7 at ``grid_step_m``
  70 and 130, whose axes end in a clamped short step and split into
  margin-stage tiles with a partial last one;
- ``sweep_threads1/`` and ``sweep_threads2/``: network-centric
  ``sweep-backhaul`` for seeds 0 and 1, one seed per invocation, at
  ``--threads`` 1 and 2;
- ``sweep_default_network_centric_threads1/``,
  ``sweep_default_user_centric_threads1/`` and their ``_threads2`` twins:
  ``sweep-backhaul`` over the default 20 seeds in each mode. The
  network-centric one holds the heaviest B&B instances (seeds 4 and 14),
  which the two-seed sweeps never reach; the user-centric one runs the
  reachable-sum bound and same-class dominance together;
- ``robustness_network_centric_threads1/``,
  ``robustness_user_centric_threads1/`` and their ``_threads2`` twins:
  ``robustness`` on the default seeds;
- ``cdf_threads1/`` and ``cdf_threads2/``: ``cdf`` on the default seeds
  (it runs both modes).

Each ``_threads2`` directory must equal its ``_threads1`` twin byte for
byte, since ``--threads`` only spreads a driver's points over processes.

A change that must leave results alone is checked by writing the set for
both source trees and comparing them with ``diff -r``. An older commit's
tree needs no checkout of its own::

    git archive <commit> src | tar -x -C OLD
    python3 tools/output_set.py --src OLD/src OLD_OUT
    python3 tools/output_set.py NEW_OUT
    diff -r OLD_OUT NEW_OUT

Exits 1 if any invocation fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PLACE_SEEDS = range(64)
TEN_RATES_SEEDS = range(8)
TEN_RATES = "rate_set_mbps=[0.1,0.3,0.5,0.7,0.9,1.1,1.3,1.5,1.7,2.0]"
GRID_STEPS = (70, 130)
GRID_STEP_SEEDS = range(8)
SWEEP_SEEDS = (0, 1)


def invocations(out: Path):
    for mode in ("network_centric", "user_centric"):
        for seed in PLACE_SEEDS:
            yield ["place", "--mode", mode, "--seed", str(seed),
                   "--output-dir", str(out / f"place_{mode}")]
        for seed in TEN_RATES_SEEDS:
            yield ["place", "--mode", mode, "--seed", str(seed), "--set", TEN_RATES,
                   "--output-dir", str(out / f"place_ten_rates_{mode}")]
        for step in GRID_STEPS:
            for seed in GRID_STEP_SEEDS:
                yield ["place", "--mode", mode, "--seed", str(seed), "--set", f"grid_step_m={step}",
                       "--output-dir", str(out / f"place_step{step}_{mode}")]
    for threads in (1, 2):
        for seed in SWEEP_SEEDS:
            yield ["sweep-backhaul", "--mode", "network_centric", "--seed", str(seed),
                   "--threads", str(threads), "--output-dir", str(out / f"sweep_threads{threads}")]
    for threads in (1, 2):
        tail = ["--threads", str(threads)]
        for mode in ("network_centric", "user_centric"):
            yield ["sweep-backhaul", "--mode", mode, *tail,
                   "--output-dir", str(out / f"sweep_default_{mode}_threads{threads}")]
            yield ["robustness", "--mode", mode, *tail,
                   "--output-dir", str(out / f"robustness_{mode}_threads{threads}")]
        yield ["cdf", *tail, "--output-dir", str(out / f"cdf_threads{threads}")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", type=Path, default=SRC,
                   help="source tree holding the droneplace package (default: %(default)s)")
    p.add_argument("outdir", type=Path)
    args = p.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from droneplace import cli

    failed = 0
    for cmd in invocations(args.outdir):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(cmd)
        if rc != 0:
            failed += 1
            print(f"exit code {rc}: {' '.join(cmd)}\n{sink.getvalue()}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
