"""Print one SHA-256 digest of the proofs and exports of the test corpus.

Run as ``PYTHONPATH=src:tests python tests/corpus_digest.py``.  It prints
three lines.  The first is the number of proofs and the hex digest: two trees
that print the same line find the same proofs and export them to the same
bytes, so a change meant to leave the pipeline's output alone can be checked
against its parent with one command.  The second is the number of records
the trace channel :data:`lamsem.prover.TRACE` received meanwhile and one
SHA-256 over ``json.dumps(record, sort_keys=True)`` of each, in order: two
trees that print it alike also searched, substituted and counted alike.

For each ``CORPUS`` sentence in order and each k = 1, 2, 3 it takes the
sequent that :func:`lamsem.prove_sentence` parses it with, searched with
the default ``SearchConfig``, and at k <= 2 searches it a second time for
every unique proof.  For each proof it feeds the JSON and then the DOT
export of the raw diagram, then of the substituted one.

The third line is computed after the trace channel is reset, so the first
two do not depend on it.  It is the number of evaluations and one SHA-256
over the sorted relation pairs and the witness count of each: every
distinct substituted corpus diagram at each k = 1, 2, 3 on each of the
seeded ``MODELS`` of ``test_corpus.py``, read with ``eval_diagram_rel`` and
then ``eval_diagram_vec``.  Two trees that print it alike evaluate alike.
"""
from __future__ import annotations

import hashlib
import json

from lamsem import (
    Lexicon,
    SearchConfig,
    eval_diagram_rel,
    eval_diagram_vec,
    export,
    proof_to_diagram,
    prove,
    prove_sentence,
    substitute_wirings,
)
from lamsem.formula import parse_formula
from lamsem.prover import TRACE

from conftest import data_path
from test_corpus import CORPUS, MODELS, corpus_diagrams


def corpus_digest() -> tuple[int, str]:
    lexicon = Lexicon.from_path(data_path("lexicon.json"))
    h = hashlib.sha256()
    count = 0
    for sentence, goal, _ in CORPUS:
        words = sentence.split()
        goal_f = parse_formula(goal, lexicon.atoms)
        for k in (1, 2, 3):
            seq, result = prove_sentence(words, lexicon, goal_f, SearchConfig(k=k))[-1]
            proofs = result.proofs
            if not proofs:
                continue
            if k <= 2:
                proofs += prove(seq, SearchConfig(k=k, max_proofs=None)).proofs
            for p in proofs:
                raw = proof_to_diagram(p, lexicon, words=words)
                for d in (raw, substitute_wirings(raw, lexicon)):
                    h.update(export(d, "json").encode())
                    h.update(export(d, "dot").encode())
                count += 1
    return count, h.hexdigest()


def evaluation_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for d in corpus_diagrams():
        for k in (1, 2, 3):
            for m in MODELS:
                pairs = sorted(eval_diagram_rel(d, m, k).pairs, key=repr)
                h.update(repr((pairs, eval_diagram_vec(d, m, k))).encode())
                count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    records: list[dict] = []
    token = TRACE.set(records.append)
    try:
        print(*corpus_digest())
    finally:
        TRACE.reset(token)
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode())
    print(len(records), h.hexdigest())
    print(*evaluation_digest())
