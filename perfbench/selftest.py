"""Self-test of the benchmark: smoke runs, checker cases, negative cases.

    python3 perfbench/selftest.py

Runs one request of every workload, untraced and traced, and checks that
each reports exactly the metrics ``BENCHMARK.json`` names with no failure.
Then the negative cases: a checker fed a tampered output must object, a
corrupted golden objective must make requests fail, and a directory holding
only the benchmark (no program) must exit non-zero without a result line.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

from check import Checker
from common import GOLDEN_PATH, HERE, ROOT, RUN_DIR, golden_key, import_program, load_golden
from run import WORKLOADS

RUN = [sys.executable, str(HERE / "run.py")]


def bench(*args: str, correct: bool = True) -> dict:
    """One-request run; exits 0 with a correct result, 1 with an incorrect one."""
    proc = subprocess.run([*RUN, *args, "--seed", "0", "--seconds", "0", "--max-requests", "1"],
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != (0 if correct else 1):
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = sorted(m["name"] for m in spec[key])
        for name in WORKLOADS:
            doc = bench("--workload", name, "--trace", str(trace))
            assert doc["correct"] and doc["failed"] == 0, (name, trace, doc)
            assert sorted(doc["metrics"]) == names, (name, trace, sorted(doc["metrics"]))
            print(f"ok   smoke {name} --trace {trace}: {doc['attempted']} requests")


def place_once(cli, out, *extra: str) -> None:
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["place", "--mode", "user_centric", "--seed", "1",
                       "--output-dir", str(out), *extra])
    assert rc == 0


def checker_cases(cli, golden) -> None:
    checker = Checker(cli, golden)
    out = RUN_DIR / "selftest-place"
    place_once(cli, out)
    assert checker.check_place(out, "user_centric", 1) == [], "clean output rejected"
    print("ok   checker accepts a clean output")

    (doc_path,) = out.glob("placement_seed*.json")
    doc = json.loads(doc_path.read_text())
    doc["served_user_ids"] = doc["served_user_ids"][:-1]
    doc_path.write_text(json.dumps(doc))
    errors = checker.check_place(out, "user_centric", 1)
    assert errors, "tampered output passed the checker"
    print(f"ok   checker rejects a tampered output: {errors[0]}")

    # a consistent, feasible output that is optimal only for a smaller R:
    # the golden table and the milp re-proof must both object
    place_once(cli, out, "--set", "backhaul_mbps=60")
    errors = checker.check_place(out, "user_centric", 1)
    assert any("golden" in e for e in errors) and any("milp" in e for e in errors), errors
    print(f"ok   checker rejects a suboptimal served set: {errors}")
    shutil.rmtree(out)


def corrupted_golden(golden) -> None:
    path = RUN_DIR / "selftest-golden.json"
    rows = golden["objectives"]["network_centric"]["0"]
    rows[golden_key(golden["default_backhaul_mbps"])] += 1.0
    rows[golden_key(golden["backhaul_values_mbps"][0])] += 1.0
    path.write_text(json.dumps(golden))
    try:
        for name in ("place-nc", "sweep-nc"):
            doc = bench("--workload", name, "--trace", "0", "--golden", str(path), correct=False)
            assert doc["failed"] > 0 and not doc["correct"], (name, doc)
            print(f"ok   corrupted golden fails {name}: {doc['failed']}/{doc['attempted']}")
    finally:
        path.unlink()


def without_program() -> None:
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, f"{tmp}/{HERE.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "place-nc",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok   no program: exit code", proc.returncode)


def main() -> int:
    RUN_DIR.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_program()
    smoke(spec)
    checker_cases(cli, load_golden(GOLDEN_PATH))
    corrupted_golden(load_golden(GOLDEN_PATH))
    without_program()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
