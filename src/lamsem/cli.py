"""Command line front end: prove sentences, export diagrams, evaluate truth.

Exit codes form a total contract: 0 = proved / true, 1 = not proved /
false, 2 = error (including ungrammatical input to `eval`).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

from .checker import check_proof_report
from .diagram import export, proof_to_diagram, substitute_wirings, swap_erased_key
from .formula import FormulaSyntaxError, format_sequent, parse_formula
from .lexicon import Lexicon, LexiconError, sentence_to_sequents
from .model import Model, ModelError
from .prover import TRACE, SearchConfig, prove, proof_to_json, proof_to_text
from .relsem import MAX_K, SemanticsError, eval_diagram_rel
from .vecsem import check_equivalence, eval_diagram_vec

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2

_PUNCT = ".?!,;:"


class CliError(Exception):
    pass


def _default_data(name: str) -> Path:
    return Path(str(resources.files("lamsem").joinpath("data", name)))


def tokenize(sentence: str) -> tuple[list[str], int]:
    """Lowercased whitespace tokens and the number of sentences.

    Terminal punctuation is stripped from each token; the sentence count is
    the number of period-terminated segments (at least 1).
    """
    raw = sentence.split()
    n_sentences = sum(1 for t in raw if t.endswith(".") or t == ".")
    words = []
    for t in raw:
        w = t.lower().strip(_PUNCT)
        if w:
            words.append(w)
    if not words:
        raise CliError("empty sentence")
    return words, max(n_sentences, 1)


def _goal_formula(args, n_sentences: int, atoms):
    if args.goal is not None:
        return parse_formula(args.goal, atoms)
    return parse_formula(".".join(["s"] * n_sentences), atoms)


def _find_proofs(args, lexicon: Lexicon):
    words, n_sentences = tokenize(args.sentence)
    goal = _goal_formula(args, n_sentences, lexicon.atoms)
    cfg = SearchConfig(k=args.k)
    attempts = []
    for seq in sentence_to_sequents(words, lexicon, goal):
        result = prove(seq, cfg)
        attempts.append((seq, result))
        if result.proofs:
            return words, attempts, seq, result.proofs
    return words, attempts, None, ()


def _load_lexicon(args) -> Lexicon:
    path = args.lexicon or _default_data("lexicon.json")
    return Lexicon.from_path(path)


def _load_model(args) -> Model:
    path = args.model or _default_data("model_dogs.json")
    return Model.from_path(path)


def _numbered(path: str, index: int) -> str:
    if index == 0:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}-{index + 1}{p.suffix}"))


def cmd_prove(args) -> int:
    lexicon = _load_lexicon(args)
    words, attempts, seq, proofs = _find_proofs(args, lexicon)
    for attempted, result in attempts:
        status = f"{len(result.proofs)} proof(s)" if result.proofs else "no proof"
        print(f"sequent: {format_sequent(attempted)}  [{status}]")
    if not proofs:
        return EXIT_NO
    for i, proof in enumerate(proofs):
        report = check_proof_report(proof, k=args.k)
        if report is not None:  # defensive: search output must always check
            raise CliError(f"internal error: proof failed checking: {report}")
        print(f"--- proof {i + 1} ---")
        print(proof_to_text(proof))
        if args.export_json:
            Path(_numbered(args.export_json, i)).write_text(proof_to_json(proof))
    return EXIT_OK


def _diagrams(args, lexicon: Lexicon):
    words, attempts, seq, proofs = _find_proofs(args, lexicon)
    if not proofs:
        return words, []
    # equal raw keys give equal substituted keys, so substitute one per class
    raw = {}
    for proof in proofs:
        d = proof_to_diagram(proof, lexicon, words=words)
        raw.setdefault(swap_erased_key(d), d)
    out = {}
    for d in raw.values():
        s = substitute_wirings(d, lexicon)
        out.setdefault(swap_erased_key(s), s)
    return words, list(out.values())


def cmd_diagram(args) -> int:
    lexicon = _load_lexicon(args)
    words, diagrams = _diagrams(args, lexicon)
    if not diagrams:
        print("no proof: nothing to draw", file=sys.stderr)
        return EXIT_NO
    for i, d in enumerate(diagrams):
        if args.export_json:
            Path(_numbered(args.export_json, i)).write_text(export(d, "json"))
        if args.export_dot:
            Path(_numbered(args.export_dot, i)).write_text(export(d, "dot"))
        print(f"diagram {i + 1}: {len(d.nodes)} nodes, {len(d.edges)} edges")
        if not (args.export_json or args.export_dot):
            print(export(d, "dot"))
    return EXIT_OK


def cmd_eval(args) -> int:
    lexicon = _load_lexicon(args)
    model = _load_model(args)
    words, diagrams = _diagrams(args, lexicon)
    if not diagrams:
        print("ungrammatical: no derivation found", file=sys.stderr)
        return EXIT_ERROR
    any_true = False
    for i, d in enumerate(diagrams):
        parts = []
        truth = None
        if args.backend in ("rel", "both"):
            rel = eval_diagram_rel(d, model, args.k)
            truth = rel.nonempty
            parts.append(f"rel: {'true' if truth else 'false'}")
        if args.backend in ("vec", "both"):
            scalar = eval_diagram_vec(d, model, args.k, use_float=args.float)
            if truth is None:
                truth = scalar != 0
            parts.append(f"vec: {scalar}")
        if args.backend == "both":
            parts.append(f"equivalent: {check_equivalence(rel, scalar)}")
        any_true = any_true or bool(truth)
        print(f"reading {i + 1}: " + ", ".join(parts))
    print(f"any-true: {'true' if any_true else 'false'}")
    return EXIT_OK if any_true else EXIT_NO


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamsem",
        description="Lambek-with-subexponentials prover, diagrams, and semantics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("prove", cmd_prove), ("eval", cmd_eval), ("diagram", cmd_diagram)):
        p = sub.add_parser(name)
        p.add_argument("sentence")
        p.add_argument("--lexicon", default=None)
        p.add_argument("--model", default=None)
        p.add_argument("--goal", default=None)
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--backend", choices=("rel", "vec", "both"), default="rel")
        p.add_argument("--export-dot", default=None)
        p.add_argument("--export-json", default=None)
        p.add_argument("--float", action="store_true")
        p.add_argument(
            "--trace",
            action="store_true",
            help="print as JSON lines on stderr the counters of each proof search "
            "(pruned and memo_size count distinct sequents), the rewrites of each "
            "wiring substitution and each contraction step and the ports it builds on",
        )
        p.set_defaults(fn=fn)
    return parser


def _print_trace(record: dict) -> None:
    print(json.dumps(record), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    token = TRACE.set(_print_trace if args.trace else None)
    try:
        if not 1 <= args.k <= MAX_K:
            raise CliError(f"copy bound k must be in 1..{MAX_K}")
        return args.fn(args)
    except (
        CliError,
        LexiconError,
        ModelError,
        SemanticsError,
        FormulaSyntaxError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_ERROR
    finally:
        TRACE.reset(token)


if __name__ == "__main__":
    sys.exit(main())
