"""Reference figures, each measured in a child process under a memory limit.

    python3 bench/reference.py

Prints one JSON line per case: wall seconds, peak RSS in MB, and the
outcome.  Each child process has its address space capped with
``RLIMIT_AS`` at ``LIMIT_MB``, so a case whose memory grows without bound
ends in ``MemoryError`` inside the child instead of exhausting the
machine; a case still running after ``TIMEOUT_S`` seconds is stopped.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
LIMIT_MB = 1024
TIMEOUT_S = 600

CASES = {
    "cliff: every farmer owns a donkey, k=2": ("prove_sentence", "every farmer owns a donkey", 2),
    "a farmer owns a donkey, k=2": ("prove_sentence", "a farmer owns a donkey", 2),
    "discourse, 2 names and 2 pronouns, k=2": ("prove_sequent", "!@np, np\\s, @np\\np, np\\s, !@np, np\\s, @np\\np, np\\s -> s.s.s.s", 2),
    "donkey rel+vec at |U|=6, k=2": ("eval_donkey", 6, 2),
    "donkey rel+vec at |U|=5, k=3": ("eval_donkey", 5, 3),
    "donkey rel at |U|=6, k=3": ("eval_donkey", 6, 3),
}


def child(kind: str, arg, k: int) -> dict:
    import run

    lam = run.load_program()
    lex = lam.lexicon.Lexicon.from_path(str(run.ROOT / "src" / "lamsem" / "data" / "lexicon.json"))
    cfg = lam.prover.SearchConfig(k=k)
    start = perf_counter()
    if kind == "prove_sentence":
        goal = lam.formula.parse_formula("s", lex.atoms)
        seq = lam.lexicon.sentence_to_sequents(arg.split(), lex, goal)[0]
        outcome = f"{len(lam.prover.prove(seq, cfg).proofs)} proofs"
    elif kind == "prove_sequent":
        seq = lam.formula.parse_sequent(arg, lex.atoms)
        outcome = f"{len(lam.prover.prove(seq, cfg).proofs)} proofs"
    else:
        import oracle
        from workloads import compile_sentence

        (d,) = compile_sentence(lam, lex, oracle.DONKEY, "s")
        start = perf_counter()
        pm = oracle.random_model(random.Random(1), arg, {oracle.DONKEY: True})
        m = lam.model.Model.from_dict(pm.to_dict())
        outcome = f"rel {lam.relsem.eval_diagram_rel(d, m, k).nonempty}"
        if k == 2 or arg < 6:
            outcome += f", vec {lam.vecsem.eval_diagram_vec(d, m, k)}"
    return {"seconds": perf_counter() - start, "outcome": outcome}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--case", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.case:
        limit = LIMIT_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        try:
            result = child(*CASES[args.case])
        except MemoryError:
            result = {"outcome": f"MemoryError under a {LIMIT_MB} MB address-space limit"}
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    for name in CASES:
        cmd = [sys.executable, __file__, "--case", name]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            result = {"outcome": f"stopped after {TIMEOUT_S} s"}
        result["wall_s"] = perf_counter() - start
        print(json.dumps({"case": name, **result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
