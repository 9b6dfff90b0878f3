"""Run one workload N times in fresh processes and print each metric's spread.

    python3 bench/steady.py --workload sweep --runs 10

Seeds run from 1 upward, one process after another, each run as long as
``run_seconds`` in ``BENCHMARK.json``.  For each metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread: the
distance between the quartiles as a share of the median.  It also prints
each run's share of failed ops.  The raw result lines are
saved to ``.bench_out/steady-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> None:
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"runs {len(results)}  correct {all(r['correct'] for r in results)}  failed shares {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:24s} {unit:6s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:7.2%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results = []
    for seed in range(1, args.runs + 1):
        results.append(one_run(args.workload, seed, seconds))
        print(f"seed {seed}: " + json.dumps({k: round(v["value"], 5) for k, v in results[-1]["metrics"].items()}), flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}.json").write_text(json.dumps(results, indent=1))
    summarize(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
