"""The four workloads: set-up, seeded op inputs, the op, and its checks.

Each workload calls the program through module attributes
(``relsem.eval_diagram_rel``, not a name imported once), so that a traced
run's wrappers see every call.  ``setup`` is what ``setup_s`` times;
``round_inputs`` gives the inputs of one round; ``run_op`` is one timed op;
``check`` takes a round's records (input, output, error) and returns
{record index: [problems]} plus problems of the round as a whole.  Inputs
are made and outputs checked while the loop clock is stopped.
"""
from __future__ import annotations

import io
import itertools
import json
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle

K = 2


def _data(root: Path, name: str) -> str:
    return str(root / "src" / "lamsem" / "data" / name)


def _lexicon(lam, root: Path):
    return lam.lexicon.Lexicon.from_path(_data(root, "lexicon.json"))


def compile_sentence(lam, lex, sentence: str, goal: str) -> list:
    """Every distinct diagram of the first provable reading, as the CLI does."""
    words = sentence.split()
    goal_f = lam.formula.parse_formula(goal, lex.atoms)
    for seq in lam.lexicon.sentence_to_sequents(words, lex, goal_f):
        result = lam.prover.prove(seq, lam.prover.SearchConfig(k=K))
        if result.proofs:
            break
    else:
        raise RuntimeError(f"no proof of {sentence!r}")
    seen = {}
    for proof in result.proofs:
        raw = lam.diagram.proof_to_diagram(proof, lex, words=words)
        d = lam.diagram.substitute_wirings(raw, lex)
        seen.setdefault(lam.diagram.swap_erased_key(d), d)
    return list(seen.values())


# ------------------------------------------------------------ sweep, universe


class ModelSweep:
    """Compiled diagrams evaluated with both backends on seeded models.

    One op evaluates every diagram on one model.  Ops come in pairs, a model
    and the same model relabelled, and rounds of two pairs on which every
    sentence takes both truth values.
    """

    def __init__(self, sentences, size: int, k: int):
        self.sentences = sentences
        self.size = size
        self.k = k

    def setup(self, lam, root: Path, rng):
        lex = _lexicon(lam, root)
        return {
            "lam": lam,
            "diagrams": [(s, compile_sentence(lam, lex, s, g)) for s, g in self.sentences],
            "pairs": 0,
        }

    def round_inputs(self, state, rng) -> list:
        models = oracle.model_round(rng, self.size, [s for s, _ in self.sentences])
        out = []
        for i, pm in enumerate(models):
            pair = state["pairs"] + i // 2
            out.append((pair, pm, state["lam"].model.Model.from_dict(pm.to_dict())))
        state["pairs"] += len(models) // 2
        return out

    def run_op(self, state, inp):
        lam, (_, _, m) = state["lam"], inp
        out = []
        for sentence, diagrams in state["diagrams"]:
            for d in diagrams:
                rel = lam.relsem.eval_diagram_rel(d, m, self.k)
                count = lam.vecsem.eval_diagram_vec(d, m, self.k)
                out.append((sentence, rel.nonempty, count))
        return out

    def check(self, state, records):
        bad: dict[int, list[str]] = {}
        by_pair: dict[int, list[int]] = {}
        seen: dict[str, set] = {s: set() for s, _ in self.sentences}
        for i, (inp, out, err) in enumerate(records):
            if err is not None:
                continue
            pair, pm, _ = inp
            by_pair.setdefault(pair, []).append(i)
            for sentence, truth, count in out:
                want = oracle.truth(sentence, pm)
                seen[sentence].add(truth)
                if truth != want:
                    bad.setdefault(i, []).append(f"{sentence!r}: rel says {truth}, closed form {want}")
                if not isinstance(count, int) or count < 0 or (count != 0) != want:
                    bad.setdefault(i, []).append(f"{sentence!r}: vec count {count!r} but truth {want}")
        for ops in by_pair.values():
            if len(ops) == 2 and records[ops[0]][1] != records[ops[1]][1]:
                for i in ops:
                    bad.setdefault(i, []).append("truth or count changed under relabelling")
        run = [
            f"{s!r} took only the values {sorted(v)} over the run"
            for s, v in seen.items()
            if v != {True, False}
        ]
        return bad, run

    def cleanup(self, state) -> None:
        pass


# ------------------------------------------------------------------ discourse

# Synthetic three-sentence discourses as (names, pronouns, k); every order
# with a name first appears `repeats` times a round.  All take tens of
# milliseconds; (1, 2, 2) is one copy short of provable.
SYNTHETIC = ((3, 0, 2), (3, 0, 3), (2, 1, 2), (2, 1, 3), (1, 2, 2), (1, 2, 3))
LEXICAL = (
    (oracle.DONKEY, 2),
    (oracle.DONKEY, 3),
    ("a farmer owns a donkey", 2),
    ("every farmer owns a donkey", 2),  # the prover's cliff
)
NAME, PRONOUN, VERB = "!@np", "@np\\np", "np\\s"


def synthetic_orders(n: int, j: int) -> list[tuple[str, ...]]:
    """Distinct name/pronoun orders with a name first, so that every
    pronoun has an antecedent before it."""
    rest = [NAME] * (n - 1) + [PRONOUN] * j
    return sorted({(NAME,) + p for p in itertools.permutations(rest)})


class Discourse:
    """Proof search only: one op proves one sequent and checks its proofs."""

    repeats = 2

    def setup(self, lam, root: Path, rng):
        lex = _lexicon(lam, root)
        ops = []
        for n, j, k in SYNTHETIC:
            for order in synthetic_orders(n, j):
                ant = ", ".join(f"{f}, {VERB}" for f in order)
                goal = ".".join(["s"] * (n + j))
                seq = lam.formula.parse_sequent(f"{ant} -> {goal}", lex.atoms)
                want = oracle.discourse_provable(n, j, k)
                ops += [("synthetic", seq, k, want)] * self.repeats
        s_goal = lam.formula.parse_formula("s", lex.atoms)
        for sentence, k in LEXICAL:
            ops.append(("lexicon", (sentence.split(), lex, s_goal), k, True))
        rng.shuffle(ops)
        return {"lam": lam, "ops": ops}

    def round_inputs(self, state, rng) -> list:
        return state["ops"]

    def run_op(self, state, inp):
        lam = state["lam"]
        kind, data, k, _ = inp
        cfg = lam.prover.SearchConfig(k=k)
        if kind == "synthetic":
            seq = data
            proofs = lam.prover.prove(seq, cfg).proofs
        else:
            words, lex, goal = data
            for seq in lam.lexicon.sentence_to_sequents(words, lex, goal):
                proofs = lam.prover.prove(seq, cfg).proofs
                if proofs:
                    break
        reports = [lam.checker.check_proof_report(p, k=k) for p in proofs]
        return seq, proofs, reports

    def check(self, state, records):
        lam = state["lam"]
        bad: dict[int, list[str]] = {}
        for i, (inp, out, err) in enumerate(records):
            if err is not None:
                continue
            kind, data, k, want = inp
            seq, proofs, reports = out
            problems = []
            if bool(proofs) != want:
                problems.append(f"provable={bool(proofs)}, resource count says {want}")
            if kind == "synthetic" and seq != data:
                problems.append("proved another sequent than the input")
            if kind == "lexicon" and len(seq.antecedent) != len(data[0]):
                problems.append("sequent does not have one formula per word")
            for p, rep in zip(proofs, reports):
                again = lam.checker.check_proof_report(p, k=k)
                if rep is not None or again is not None:
                    problems.append(f"proof fails the checker: {rep or again}")
                if p.conclusion != seq:
                    problems.append("proof does not conclude the input sequent")
            if len(reports) != len(proofs):
                problems.append("not every proof was checked")
            if problems:
                bad[i] = problems
        return bad, []

    def cleanup(self, state) -> None:
        pass


# ------------------------------------------------------------------------ cli

CLI_SENTENCES = {
    "dogs": oracle.DOGS,
    "every-dog": oracle.EVERY_DOG,
    "john": "john sleeps. he snores.",
    "donkey": oracle.DONKEY,
}
CLI_EVALS = (
    ("dogs", "model_dogs.json", oracle.DOGS),
    ("every-dog", "model_dogs.json", oracle.EVERY_DOG),
    ("john", "model_dogs.json", oracle.JOHN),
    ("donkey", "model_donkey_true.json", oracle.DONKEY),
    ("donkey", "model_donkey_false.json", oracle.DONKEY),
)
_READING = re.compile(r"^reading \d+: rel: (true|false), vec: (\d+), equivalent: (True|False)$")


class Cli:
    """The user's path: one op is one pass over a fixed script of commands."""

    def setup(self, lam, root: Path, rng):
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        script = []
        for name in ("dogs", "john", "donkey"):
            script.append((("prove", CLI_SENTENCES[name]), 0, None, None))
        for name in ("every-dog", "donkey", "john"):
            exports = ("--export-json", str(tmp / f"{name}.json"), "--export-dot", str(tmp / f"{name}.dot"))
            script.append((("diagram", CLI_SENTENCES[name]) + exports, 0, name, None))
        for name, model_file, sentence in CLI_EVALS:
            path = _data(root, model_file)
            with open(path, encoding="utf-8") as fh:
                want = oracle.truth(sentence, oracle.from_json(json.load(fh)))
            argv = ("eval", CLI_SENTENCES[name], "--model", path, "--backend", "both")
            script.append((argv, 0 if want else 1, None, want))
        rng.shuffle(script)
        return {"lam": lam, "tmp": tmp, "script": script}

    def round_inputs(self, state, rng) -> list:
        return [(state["tmp"], state["script"])]

    def run_op(self, state, inp):
        main = state["lam"].cli.main
        out = []
        for argv, _, _, _ in inp[1]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            out.append((code, stdout.getvalue(), stderr.getvalue()))
        return out

    def check(self, state, records):
        diagram = state["lam"].diagram
        bad: dict[int, list[str]] = {}
        for i, (inp, out, err) in enumerate(records):
            if err is not None:
                continue
            where, cmds = inp
            problems = []
            for (argv, code, export, want), (got, stdout, stderr) in zip(cmds, out):
                if got != code:
                    problems.append(f"{argv[:2]} exited {got}, expected {code}: {stderr.strip()}")
                if want is not None:
                    problems += _check_eval_output(argv, stdout, want)
                if export:
                    text = (where / f"{export}.json").read_text(encoding="utf-8")
                    again = diagram.export(diagram.diagram_from_json(text), "json")
                    if again != text:
                        problems.append(f"{export}.json does not re-export byte-identically")
                    if not (where / f"{export}.dot").read_text(encoding="utf-8").startswith("digraph"):
                        problems.append(f"{export}.dot is not a DOT graph")
            if len(out) != len(cmds):
                problems.append("not every command ran")
            if problems:
                bad[i] = problems
        return bad, []

    def cleanup(self, state) -> None:
        shutil.rmtree(state["tmp"], ignore_errors=True)


def _check_eval_output(argv, stdout: str, want: bool) -> list[str]:
    lines = stdout.strip().splitlines()
    readings = [_READING.match(line) for line in lines[:-1]]
    problems = []
    if not lines or lines[-1] != f"any-true: {'true' if want else 'false'}":
        problems.append(f"{argv[1]!r}: any-true line wrong, closed form says {want}")
    if not readings or not all(readings):
        return problems + [f"{argv[1]!r}: unreadable eval output"]
    for r in readings:
        rel, count, equiv = r.group(1) == "true", int(r.group(2)), r.group(3) == "True"
        if not equiv or (count != 0) != rel:
            problems.append(f"{argv[1]!r}: rel {rel} and vec {count} disagree")
    if any(r.group(1) == "true" for r in readings) != want:
        problems.append(f"{argv[1]!r}: readings disagree with the closed form {want}")
    return problems


WORKLOADS = {
    "sweep": ModelSweep(oracle.SWEEP_SENTENCES, size=3, k=K),
    "universe": ModelSweep(((oracle.DONKEY, "s"),), size=5, k=K),
    "discourse": Discourse(),
    "cli": Cli(),
}
