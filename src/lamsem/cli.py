"""Command line front end: prove sentences, export diagrams, evaluate truth.

Every command takes a sentence and ``--lexicon``, ``--goal``, ``--k`` and
``--trace``; each other flag belongs to the commands that read it:

- ``prove``: ``--export-json``;
- ``diagram``: ``--export-json`` and ``--export-dot``;
- ``eval``: ``--model`` and ``--backend``.

Exit codes form a total contract: 0 = proved / true (and ``--help``),
1 = not proved / false, 2 = error (including ungrammatical input to
`eval`, a flag the command does not take and an abbreviated flag).
:func:`main` returns the code and raises no ``SystemExit``.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

from .checker import check_proof_report
from .diagram import export, readings
from .formula import FormulaSyntaxError, format_sequent, parse_formula
from .lexicon import Lexicon, LexiconError, prove_sentence
from .model import Model, ModelError
from .prover import TRACE, SearchConfig, proof_to_json, proof_to_text
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


def _prove(args, lexicon: Lexicon):
    """The sentence's words and each sequent tried for it, with its result:
    the last one tried is the parse, if it has a proof."""
    words, n_sentences = tokenize(args.sentence)
    goal = ".".join(["s"] * n_sentences) if args.goal is None else args.goal
    goal = parse_formula(goal, lexicon.atoms)
    return words, prove_sentence(words, lexicon, goal, SearchConfig(k=args.k))


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
    _, attempts = _prove(args, lexicon)
    for attempted, result in attempts:
        status = f"{len(result.proofs)} proof(s)" if result.proofs else "no proof"
        print(f"sequent: {format_sequent(attempted)}  [{status}]")
    proofs = attempts[-1][1].proofs
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


def cmd_diagram(args) -> int:
    lexicon = _load_lexicon(args)
    words, attempts = _prove(args, lexicon)
    diagrams = readings(attempts[-1][1].proofs, lexicon, words)
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
    words, attempts = _prove(args, lexicon)
    diagrams = readings(attempts[-1][1].proofs, lexicon, words)
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
            scalar = eval_diagram_vec(d, model, args.k)
            if truth is None:
                truth = scalar != 0
            parts.append(f"vec: {scalar}")
        if args.backend == "both":
            parts.append(f"equivalent: {check_equivalence(rel, scalar)}")
        any_true = any_true or bool(truth)
        print(f"reading {i + 1}: " + ", ".join(parts))
    print(f"any-true: {'true' if any_true else 'false'}")
    return EXIT_OK if any_true else EXIT_NO


_TRACED = (
    "print on stderr as JSON lines the counters of each proof search (memo_size counts distinct "
    "sequents, pruned each sequent cut once and each \\L, /L or *R split cut once per arrangement)"
)
_REWRITES = ", then the rewrites of each wiring substitution"


def _export_help(fmt: str, what: str) -> str:
    return f"write the {fmt} of {what} 1 to PATH and of {what} i to PATH's stem + -i + suffix"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lamsem",
        description="Lambek-with-subexponentials prover, diagrams, and semantics",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, about, traced in (
        ("prove", cmd_prove, "print the derivations of a sentence", ""),
        ("eval", cmd_eval, "evaluate each reading of a sentence on a model",
         _REWRITES + ", then each contraction step and the ports it builds on"),
        ("diagram", cmd_diagram,
         "draw each reading of a sentence as a string diagram (DOT on stdout unless exported)",
         _REWRITES),
    ):
        p = sub.add_parser(name, help=about, description=about, allow_abbrev=False)
        p.add_argument("sentence")
        p.add_argument("--lexicon", metavar="PATH", help="lexicon JSON (default: the bundled one)")
        p.add_argument("--goal", metavar="FORMULA",
                       help="goal formula (default: s.s...s, one s per period-ended sentence)")
        p.add_argument("--k", type=int, default=2, help=f"copy bound of ! (1..{MAX_K}, default 2)")
        p.add_argument("--trace", action="store_true", help=_TRACED + traced)
        if name == "eval":
            p.add_argument("--model", metavar="PATH",
                           help="model JSON (default: the bundled dogs model)")
            p.add_argument("--backend", choices=("rel", "vec", "both"), default="rel",
                           help="print the relational truth, the vector witness count, "
                           "or both and whether they agree")
        else:
            what = "proof" if name == "prove" else "diagram"
            p.add_argument("--export-json", metavar="PATH", help=_export_help("JSON", what))
        if name == "diagram":
            p.add_argument("--export-dot", metavar="PATH", help=_export_help("DOT", "diagram"))
        p.set_defaults(fn=fn, error=p.error)
    return parser


def _print_trace(record: dict) -> None:
    print(json.dumps(record), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # reported with the usage of the command, not of lamsem
            args.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse has printed the usage error or --help
        return EXIT_ERROR if exc.code else EXIT_OK
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
