"""Lexicon loading and sentence-to-sequent expansion."""
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
        atoms = frozenset(d.get("atoms", ("n", "np", "s")))
        entries = {
            word: tuple(parse_formula(t, atoms) for t in texts)
            for word, texts in d["words"].items()
        }
        return cls(atoms=atoms, entries=entries, wirings=dict(d.get("wirings", {})))

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
