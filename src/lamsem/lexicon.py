"""Lexicon loading, sentence-to-sequent expansion, and the choice of the
sequent a sentence is parsed with."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .formula import (
    Atom,
    Formula,
    Nabla,
    Over,
    Sequent,
    Under,
    format_formula,
    matrix,
    parse_formula,
)
from .prover import SearchConfig, SearchResult, prove

WIRING_PLAIN = "plain"
WIRING_RELPRO = "relpro-subject"
WIRING_PRONOUN = "pronoun-cap"
WIRING_DETBOX = "determiner-box"
WIRING_TAGS = frozenset({WIRING_PLAIN, WIRING_RELPRO, WIRING_PRONOUN, WIRING_DETBOX})

_NP = Atom("np")
_RELPRO_SHAPE = Over(Under(_NP, _NP), Under(_NP, Atom("s")))
_PRONOUN_SHAPE = Under(Nabla(_NP), _NP)


class LexiconError(ValueError):
    pass


class UnknownWordError(LexiconError):
    def __init__(self, word: str):
        super().__init__(f"word not in lexicon: {word!r}")
        self.word = word


def _tag_matches(tag: str, f: Formula) -> bool:
    if tag == WIRING_RELPRO:
        return f == _RELPRO_SHAPE
    if tag == WIRING_PRONOUN:
        return f == _PRONOUN_SHAPE
    if tag == WIRING_DETBOX:
        m = matrix(f)
        return isinstance(m, Over) and m.right == Atom("n")
    return True


@dataclass(frozen=True)
class Lexicon:
    atoms: frozenset[str]
    entries: Mapping[str, tuple[Formula, ...]]
    wirings: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for word, formulas in self.entries.items():
            if not formulas:
                raise LexiconError(f"word {word!r} has no formulas")
        for word, tag in self.wirings.items():
            if tag not in WIRING_TAGS:
                raise LexiconError(f"unknown wiring tag {tag!r} for {word!r}")
            if word not in self.entries:
                raise LexiconError(f"wiring given for unknown word {word!r}")
            if tag != WIRING_PLAIN and not any(
                _tag_matches(tag, f) for f in self.entries[word]
            ):
                shapes = ", ".join(format_formula(f) for f in self.entries[word])
                raise LexiconError(
                    f"word {word!r} tagged {tag!r} but none of its formulas"
                    f" fit that shape: {shapes}"
                )

    def wiring(self, word: str) -> str:
        return self.wirings.get(word, WIRING_PLAIN)

    def formulas(self, word: str) -> tuple[Formula, ...]:
        try:
            return self.entries[word]
        except KeyError:
            raise UnknownWordError(word) from None

    @classmethod
    def from_dict(cls, d: dict) -> "Lexicon":
        if not isinstance(d, dict) or "words" not in d:
            raise LexiconError('a lexicon must be a JSON object with a "words" map')
        words = d["words"]
        if not isinstance(words, dict) or not all(
            isinstance(ts, list) and all(isinstance(t, str) for t in ts)
            for ts in words.values()
        ):
            raise LexiconError('"words" must map each word to a list of formulas')
        atoms = d.get("atoms", ["n", "np", "s"])
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise LexiconError('"atoms" must be a list of strings')
        wirings = d.get("wirings", {})
        if not isinstance(wirings, dict) or not all(
            isinstance(t, str) for t in wirings.values()
        ):
            raise LexiconError('"wirings" must map each word to a wiring tag')
        atoms = frozenset(atoms)
        entries = {
            word: tuple(parse_formula(t, atoms) for t in texts)
            for word, texts in words.items()
        }
        return cls(atoms=atoms, entries=entries, wirings=dict(wirings))

    @classmethod
    def from_path(cls, path: str | Path) -> "Lexicon":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "atoms": sorted(self.atoms),
            "words": {
                w: [format_formula(f) for f in fs] for w, fs in sorted(self.entries.items())
            },
            "wirings": dict(sorted(self.wirings.items())),
        }


def sentence_to_sequents(
    words: list[str], lexicon: Lexicon, goal: Formula
) -> list[Sequent]:
    """One sequent per choice of formula for each (possibly ambiguous) word."""
    choices = [lexicon.formulas(w) for w in words]
    return [Sequent(tuple(combo), goal) for combo in itertools.product(*choices)]


def prove_sentence(
    words: list[str], lexicon: Lexicon, goal: Formula, cfg: SearchConfig
) -> list[tuple[Sequent, SearchResult]]:
    """Each sequent tried and its search result, in :func:`sentence_to_sequents`
    order, up to and including the first that has a proof: that one is the
    sentence's parse.  If none has a proof, every sequent is tried."""
    attempts = []
    for seq in sentence_to_sequents(words, lexicon, goal):
        result = prove(seq, cfg)
        attempts.append((seq, result))
        if result.proofs:
            break
    return attempts
