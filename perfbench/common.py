"""Shared paths, seed universe and output readers of the benchmark.

The benchmark drives the droneplace package of the checkout it sits in
(``src/``) through ``droneplace.cli.main``; nothing here is installed.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"
HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
# everything a run writes (CLI outputs, span dumps) lives under here
RUN_DIR = ROOT / ".perfbench_run"

# Population seeds: bench runs draw from [0, BENCH_SEEDS); the held-out
# block [BENCH_SEEDS, BENCH_SEEDS + HOLDOUT_SEEDS) is golden-checked too,
# but only visited with --holdout, so a claim can be rechecked on seeds
# nobody tuned against. The blocks are equally long, so every workload's
# cycle fits in either.
BENCH_SEEDS = 32
HOLDOUT_SEEDS = 32


class MissingProgram(RuntimeError):
    """The checkout holds no droneplace sources to benchmark."""


def import_program():
    """Make ``src/`` importable and return the ``droneplace.cli`` module."""
    if not (SRC / "droneplace" / "cli.py").is_file():
        raise MissingProgram(f"no droneplace sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import droneplace.cli

    return droneplace.cli


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def population_seed(start: int, i: int, cycle: int, holdout: bool = False) -> int:
    """Population seed of the i-th request of a run that starts at ``start``.

    A run cycles through ``cycle`` consecutive seeds of its universe (the
    bench block, or with ``holdout`` the held-out block), beginning at the
    rotation ``start`` selects.
    """
    base = BENCH_SEEDS if holdout else 0
    return base + (start + i) % cycle


def read_placement(out_dir: Path) -> tuple[dict, list[dict]]:
    """The placement JSON and served-user CSV rows a ``place`` run wrote."""
    (doc_path,) = out_dir.glob("placement_seed*.json")
    (csv_path,) = out_dir.glob("served_seed*.csv")
    with open(doc_path) as f:
        doc = json.load(f)
    with open(csv_path, newline="") as f:
        rows = list(csv.DictReader(f))
    return doc, rows


def read_sweep(out_dir: Path) -> dict[float, dict[str, float]]:
    """``{R: {metric: value}}`` from the CSV a one-seed sweep wrote."""
    (csv_path,) = out_dir.glob("sweep_backhaul_*.csv")
    table: dict[float, dict[str, float]] = {}
    with open(csv_path, newline="") as f:
        for row in csv.DictReader(f):
            table.setdefault(float(row["x_value"]), {})[row["metric"]] = float(row["value"])
    return table


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def golden_key(r_mbps: float) -> str:
    return repr(float(r_mbps))
