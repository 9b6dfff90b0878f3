"""Lexicon loading, wiring tags, sentences to sequents, and their parse."""
import pytest

from lamsem.formula import Atom, parse_formula
from lamsem.lexicon import (
    Lexicon,
    LexiconError,
    UnknownWordError,
    WIRING_DETBOX,
    WIRING_PLAIN,
    WIRING_PRONOUN,
    WIRING_RELPRO,
    prove_sentence,
    sentence_to_sequents,
)
from lamsem.prover import SearchConfig, prove


def test_bundled_lexicon_words(lexicon):
    assert lexicon.formulas("dogs") == (Atom("np"),)
    assert lexicon.formulas("eats") == (parse_formula("np\\s/np"),)
    assert lexicon.formulas("a") == (parse_formula("!@((!@np)/n)"),)
    assert lexicon.formulas("it") == (parse_formula("@np\\np"),)


def test_bundled_wiring_tags(lexicon):
    assert lexicon.wiring("who") == WIRING_RELPRO
    assert lexicon.wiring("it") == WIRING_PRONOUN
    assert lexicon.wiring("every") == WIRING_DETBOX
    assert lexicon.wiring("dogs") == WIRING_PLAIN


def test_unknown_word(lexicon):
    with pytest.raises(UnknownWordError):
        lexicon.formulas("zebra")


def test_unknown_wiring_tag_rejected():
    with pytest.raises(LexiconError):
        Lexicon.from_dict(
            {"atoms": ["n", "np", "s"], "words": {"x": ["n"]}, "wirings": {"x": "bogus"}}
        )


def test_wiring_must_match_a_formula_shape():
    with pytest.raises(LexiconError):
        Lexicon.from_dict(
            {
                "atoms": ["n", "np", "s"],
                "words": {"x": ["n"]},
                "wirings": {"x": WIRING_RELPRO},
            }
        )


def test_sentence_to_sequents_product(lexicon):
    seqs = sentence_to_sequents(["dogs", "eat", "snacks"], lexicon, Atom("s"))
    assert len(seqs) == 1
    assert seqs[0].succedent == Atom("s")
    assert [f for f in seqs[0].antecedent] == [
        Atom("np"),
        parse_formula("np\\s/np"),
        Atom("np"),
    ]


def test_prove_sentence_stops_at_the_first_provable_sequent(lexicon):
    eat = tuple(map(parse_formula, ("np\\s", "np\\s/np", "np\\(s/np)")))
    lex = Lexicon(lexicon.atoms, {**lexicon.entries, "eat": eat}, lexicon.wirings)
    cfg, s = SearchConfig(), Atom("s")
    for words, tried in ((["dogs", "eat", "snacks"], 2), (["dogs", "eat", "snacks", "snacks"], 3)):
        want = [(seq, prove(seq, cfg)) for seq in sentence_to_sequents(words, lex, s)[:tried]]
        assert prove_sentence(words, lex, s, cfg) == want
        assert [bool(result.proofs) for _, result in want] == [False] * (tried - 1) + [tried == 2]
