"""Benchmark entry point for vrhmc: one workload (or all) per invocation.

    python3 perfbench/run.py --workload quad-ensemble --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout. Each workload runs in its own child
process (perfbench/workloads.py) with OpenBLAS / OpenMP / MKL pinned to
one thread and src/ on PYTHONPATH, so peak RSS belongs to that workload
alone and nothing needs installing. Scratch files go to .bench_work/ in
the checkout. The metrics printed are exactly those BENCHMARK.json
declares: its end_to_end list with --trace 0, its per_layer list with
--trace 1. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; with --workload all the
metric names are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quad-ensemble", "quad-diag-stride1", "logistic-sparse")
CHILD_TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(name, args, declared):
    """Run one workload in a child process and return its parsed result."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(PINNED, "1"))
    command = [
        sys.executable, str(Path(__file__).with_name("workloads.py")),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"{name}: workload process exited with code {child.returncode}")
    result = json.loads(lines[-1])
    mismatch = set(declared) ^ set(result["metrics"])
    if mismatch:
        sys.exit(f"{name}: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    for line in lines[:-1]:
        print(f"[{name}] {line}")
    for metric, unit in declared.items():
        print(f"[{name}] {metric} = {result['metrics'][metric]!r} {unit}")
    print(f"[{name}] correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    result["metrics"] = {
        metric: {"value": result["metrics"][metric], "unit": unit} for metric, unit in declared.items()
    }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="vrhmc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vrhmc" / "__init__.py").is_file():
        sys.exit(f"no vrhmc sources under {ROOT / 'src'}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args, declared) for name in names}
    if len(results) == 1:
        (combined,) = results.values()
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
