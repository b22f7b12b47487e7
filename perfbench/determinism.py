"""Determinism self-check for the benchmark.

    python3 perfbench/determinism.py

For every workload: two traced runs on SEED must report identical count
metrics (calls, syllables, system shapes, infeasible solves, cache hit
ratios and sizes, errors), and one untraced run on FRESH_SEED must pass
every output check.  Each run is its own process of SECONDS.  Exits 1 on
any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
# timings differ between runs by nature; everything else must repeat exactly
TIMED_SUFFIXES = (".self_s", ".overhead_ratio")
SEED = 5
FRESH_SEED = 6
SECONDS = 6


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(RUN),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SECONDS),
            "--trace", str(trace),
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    workloads = json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]

    ok = True
    for name in (w["name"] for w in workloads):
        first, second = (run(name, SEED, 1) for _ in range(2))
        counts = [k for k in first["metrics"] if not k.endswith(TIMED_SUFFIXES)]
        diff = [
            k for k in counts if first["metrics"][k]["value"] != second["metrics"][k]["value"]
        ]
        fresh = run(name, FRESH_SEED, 0)
        good = not diff and fresh["correct"] and first["correct"] and second["correct"]
        ok = ok and good
        print(
            f"{name}: {len(counts)} count metrics {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}; "
            f"fresh seed {FRESH_SEED}: {fresh['attempted']} ops, {fresh['failed']} failed"
        )
    print("determinism self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
