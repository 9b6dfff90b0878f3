"""Print one SHA-256 digest of the proofs and exports of the test corpus.

Run as ``PYTHONPATH=src:tests python tests/corpus_digest.py``.  It prints
two lines.  The first is the number of proofs and the hex digest: two trees
that print the same line find the same proofs and export them to the same
bytes, so a change meant to leave the pipeline's output alone can be checked
against its parent with one command.  The second is the number of records
the trace channel :data:`lamsem.prover.TRACE` received meanwhile and one
SHA-256 over ``json.dumps(record, sort_keys=True)`` of each, in order: two
trees that print it alike also searched, substituted and counted alike.

For each ``CORPUS`` sentence in order and each k = 1, 2, 3 it takes the
first provable sequent, searches it with the default ``SearchConfig`` and,
at k <= 2, a second time for every unique proof.  For each proof it feeds
the JSON and then the DOT export of the raw diagram, then of the
substituted one.
"""
from __future__ import annotations

import hashlib
import json

from lamsem import (
    Lexicon,
    SearchConfig,
    export,
    proof_to_diagram,
    prove,
    sentence_to_sequents,
    substitute_wirings,
)
from lamsem.formula import parse_formula
from lamsem.prover import TRACE

from conftest import data_path
from test_corpus import CORPUS


def corpus_digest() -> tuple[int, str]:
    lexicon = Lexicon.from_path(data_path("lexicon.json"))
    h = hashlib.sha256()
    count = 0
    for sentence, goal, _ in CORPUS:
        words = sentence.split()
        goal_f = parse_formula(goal, lexicon.atoms)
        for k in (1, 2, 3):
            for seq in sentence_to_sequents(words, lexicon, goal_f):
                proofs = prove(seq, SearchConfig(k=k)).proofs
                if proofs:
                    break
            else:
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
