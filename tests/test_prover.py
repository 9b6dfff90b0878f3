"""Proof search: golden derivations, soundness, and search behavior."""
import time

import pytest

from lamsem import SearchConfig, check_proof, prove
from lamsem.formula import Atom, parse_sequent
from lamsem.lexicon import sentence_to_sequents
from lamsem.prover import proof_from_json, proof_to_json, proof_to_text

from conftest import DONKEY, find_proofs


def test_golden_transitive_sentence():
    seq = parse_sequent("np, np\\s/np, np -> s")
    t0 = time.monotonic()
    result = prove(seq, SearchConfig(k=2))
    assert time.monotonic() - t0 < 5.0
    assert result.proofs
    assert result.proofs[0].rule_multiset() == {"/L": 1, "\\L": 1, "Axiom": 3}


def test_golden_pronoun_discourse():
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s")
    t0 = time.monotonic()
    result = prove(seq, SearchConfig(k=2))
    assert time.monotonic() - t0 < 5.0
    assert result.proofs
    multisets = [p.rule_multiset() for p in result.proofs]
    assert any(
        m.get("!L", 0) >= 1 and m.get("Perm", 0) >= 1 and m.get("@L", 0) >= 1
        and m.get("*R", 0) >= 1
        for m in multisets
    )


def test_golden_donkey_sequent(lexicon):
    t0 = time.monotonic()
    _, proofs = find_proofs(lexicon, DONKEY, k=2)
    assert time.monotonic() - t0 < 5.0
    assert proofs
    m = proofs[0].rule_multiset()
    assert m.get("!L") == 2
    assert m.get("@L") == 2
    assert m.get("Perm", 0) >= 1


def test_all_search_outputs_pass_checker(lexicon):
    sentences = [
        ("dogs eat snacks", "s"),
        ("every dog eats snacks", "s"),
        ("dogs who eat snacks", "np"),
        ("john sleeps he snores", "s.s"),
        (DONKEY, "s"),
    ]
    for sentence, goal in sentences:
        _, proofs = find_proofs(lexicon, sentence, goal=goal, k=3)
        assert proofs, sentence
        for p in proofs:
            assert check_proof(p, k=3), proof_to_text(p)


def test_unprovable_word_order():
    seq = parse_sequent("np, np, np\\s/np -> s")
    result = prove(seq, SearchConfig(k=2))
    assert not result.proofs
    assert result.exhaustive  # definitively unprovable, not a depth cutoff


def first_result(lexicon, sentence: str, cfg: SearchConfig):
    """The search result of the sentence's first provable reading."""
    for seq in sentence_to_sequents(sentence.split(), lexicon, Atom("s")):
        result = prove(seq, cfg)
        if result.proofs:
            return result
    raise AssertionError(f"no proof for {sentence!r}")


def test_proof_cap_is_reported_as_not_exhaustive(lexicon):
    cfg = SearchConfig(k=2, enumerate_all=True)
    donkey = first_result(lexicon, DONKEY, cfg)
    assert len(donkey.proofs) == 26
    assert donkey.exhaustive is False  # the per-sequent cap cut the search
    assert first_result(lexicon, "dogs eat snacks", cfg).exhaustive is True


def test_copy_bound_is_respected():
    # two pronouns referring back need three antecedent copies: k=2 fails
    seq = parse_sequent(
        "!@np, np\\s, @np\\np, np\\s, @np\\np, np\\s -> s.s.s"
    )
    assert not prove(seq, SearchConfig(k=2)).proofs
    assert prove(seq, SearchConfig(k=3)).proofs


def test_k_monotonicity():
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s")
    assert not prove(seq, SearchConfig(k=1)).proofs
    for k in (2, 3):
        assert prove(seq, SearchConfig(k=k)).proofs


def test_proofs_are_distinct_and_canonically_ordered():
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s")
    result = prove(seq, SearchConfig(k=2))
    texts = [proof_to_text(p) for p in result.proofs]
    assert len(set(texts)) == len(texts)
    assert texts == sorted(texts)


def test_proof_json_round_trip():
    seq = parse_sequent("np, np\\s/np, np -> s")
    proof = prove(seq, SearchConfig(k=2)).proofs[0]
    again = proof_from_json(proof_to_json(proof))
    assert again == proof
    assert check_proof(again, k=2)


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        SearchConfig(k=0)
