"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, whose spans
are written to ``.bench_out/``.  Outputs are checked after each round of
ops, with the loop clock stopped.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
SETUPS = 15  # set-ups an untraced run times; setup_s is their median
PROGRAM = ("cli", "checker", "diagram", "formula", "lexicon", "model", "prover", "relsem", "vecsem")


def load_program() -> types.SimpleNamespace:
    """Import lamsem from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"lamsem.{name}") for name in PROGRAM}
    except ImportError as exc:
        raise SystemExit(f"cannot import lamsem from {src}: {exc}") from None
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lamsem was imported from {mods['cli'].__file__}, not {src}")
    return types.SimpleNamespace(**mods)


def program_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name == "lamsem" or name.startswith("lamsem.")}


def set_up(wl, seed: int):
    """Set the workload up from a fresh import of lamsem, so that import
    work and module-level state count.  Returns the seconds it took and the
    state, which holds the program."""
    for name in program_modules():
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    state = wl.setup(load_program(), ROOT, random.Random(seed))
    return perf_counter() - start, state


def time_set_up(wl, seed: int) -> float:
    """Time one more set-up and throw it away; the run's modules are put back."""
    kept = program_modules()
    took, state = set_up(wl, seed)
    wl.cleanup(state)
    sys.modules.update(kept)
    del state
    gc.collect()
    return took


def run(args) -> dict:
    from workloads import WORKLOADS
    from tracing import LAYER_METRICS, Tracer

    wl = WORKLOADS[args.workload]
    took, state = set_up(wl, args.seed)
    setup_times = [took]
    inputs_rng = random.Random(f"{args.seed}/inputs")
    tracer = Tracer()
    if args.trace:
        tracer.install()
    op_ms, loop_s, failed, wrong, problems, run_level = [], 0.0, 0, 0, [], []
    try:
        while loop_s < args.seconds:
            # inputs are made, and outputs checked, while the loop clock is stopped
            inputs = wl.round_inputs(state, inputs_rng)
            records = []
            round_start = perf_counter()
            for inp in inputs:
                tracer.op = len(op_ms)
                start = perf_counter()
                try:
                    out, err = wl.run_op(state, inp), None
                except Exception as exc:  # an op that raises counts as failed
                    out, err = None, f"{type(exc).__name__}: {exc}"
                op_ms.append((perf_counter() - start) * 1000)
                tracer.op = -1
                records.append((inp, out, err))
            loop_s += perf_counter() - round_start
            bad, run_problems = wl.check(state, records)
            for i, (_, _, err) in enumerate(records):
                if err is not None or i in bad:
                    failed += 1
                    problems.append(f"op {len(op_ms) - len(records) + i} failed: {err or '; '.join(bad[i])}")
            wrong += len(bad)
            run_level += run_problems
            # the other set-ups are spread over the loop, so that their median
            # meets the same drift of machine speed as the ops do
            due = 0 if args.trace else min(SETUPS, 1 + int(SETUPS * loop_s / args.seconds))
            while len(setup_times) < due:
                setup_times.append(time_set_up(wl, args.seed))
    finally:
        tracer.uninstall()
        wl.cleanup(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for problem in (problems + run_level)[:20]:
        print(problem, file=sys.stderr)
    ops_per_s = len(op_ms) / loop_s
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.txt")
        layers = tracer.layer_metrics(len(op_ms))
        layers["trace.ops_per_s"] = ops_per_s
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        p90 = statistics.quantiles(op_ms, n=10)[-1] if len(op_ms) > 1 else op_ms[0]
        info = {"op_ms_p90": p90, "ops": len(op_ms), "setup_times_s": setup_times, "loop_s": loop_s}
        print(json.dumps({"info": info}))
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": wrong == 0 and not run_level,
        "attempted": len(op_ms),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "universe", "discourse", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
