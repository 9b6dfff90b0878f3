"""lamsem: a Lambek-with-subexponentials grammar and semantics toolkit.

Pipeline: parse a lexicon, prove a sentence sequent with bounded copying
(!) and permutation (@) modalities (`prove_sentence`), compile the proof to
a typed string diagram and substitute lexical internal wirings (`readings`),
and contract the diagram once over a finite model (`evaluate`), read as a
finite relation (`eval_diagram_rel`) or a witness count (`eval_diagram_vec`).
"""
from .checker import ProofCheckError, check_proof_report, verify_proof
from .diagram import (
    Diagram,
    DiagramError,
    export,
    diagram_from_json,
    proof_to_diagram,
    readings,
    substitute_wirings,
    swap_erased_key,
    typecheck_report,
)
from .formula import (
    Atom,
    Bang,
    Formula,
    FormulaSyntaxError,
    Nabla,
    Over,
    Sequent,
    Tensor,
    Under,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
)
from .lexicon import Lexicon, LexiconError, prove_sentence, sentence_to_sequents
from .model import Model, ModelError
from .prover import (
    ProofTree,
    SearchConfig,
    SearchResult,
    proof_from_json,
    proof_to_json,
    proof_to_text,
    prove,
)
from .relsem import (
    FinRel,
    SemanticsError,
    eval_diagram_rel,
    evaluate,
    generator_rel,
    interp_object,
    interp_word_rel,
)
from .vecsem import check_equivalence, eval_diagram_vec

__version__ = "0.1.0"
