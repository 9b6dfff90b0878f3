"""Shared fixtures: bundled lexicon/models and pipeline helpers."""
from __future__ import annotations

import importlib
import pkgutil
import sys
from importlib import resources
from pathlib import Path

import pytest

import lamsem
from lamsem import (
    Lexicon,
    Model,
    SearchConfig,
    proof_to_diagram,
    prove_sentence,
    substitute_wirings,
)
from lamsem.formula import parse_formula


# Every lamsem module, imported now, before the test files are collected, so
# that this is the program they import.  ``bench/run.set_up`` drops lamsem
# from ``sys.modules`` and imports it afresh; after a bench test has run, a
# test here would otherwise mix classes from two copies of one module.
for _info in pkgutil.iter_modules(lamsem.__path__):
    importlib.import_module(f"lamsem.{_info.name}")
COLLECTED = {
    name: mod
    for name, mod in sys.modules.items()
    if name == "lamsem" or name.startswith("lamsem.")
}


@pytest.fixture(autouse=True)
def collected_program():
    """Put back the lamsem modules the test files were collected against."""
    sys.modules.update(COLLECTED)


def data_path(name: str) -> Path:
    return Path(str(resources.files("lamsem").joinpath("data", name)))


@pytest.fixture(scope="session")
def lexicon() -> Lexicon:
    return Lexicon.from_path(data_path("lexicon.json"))


@pytest.fixture(scope="session")
def model_dogs() -> Model:
    return Model.from_path(data_path("model_dogs.json"))


@pytest.fixture(scope="session")
def model_donkey_true() -> Model:
    return Model.from_path(data_path("model_donkey_true.json"))


@pytest.fixture(scope="session")
def model_donkey_false() -> Model:
    return Model.from_path(data_path("model_donkey_false.json"))


def find_proofs(lexicon: Lexicon, sentence: str, goal="s", k=2, max_proofs=SearchConfig.max_proofs):
    """The sentence's words and the proofs of its parse (none if it has none)."""
    words = sentence.split()
    goal_f = parse_formula(goal, lexicon.atoms)
    _, result = prove_sentence(words, lexicon, goal_f, SearchConfig(k, max_proofs))[-1]
    return words, result.proofs


def sentence_diagram(lexicon: Lexicon, sentence: str, goal: str = "s", k: int = 2):
    """Compiled, wiring-substituted diagram of the first proof."""
    words, proofs = find_proofs(lexicon, sentence, goal, k)
    assert proofs, f"no proof for {sentence!r}"
    raw = proof_to_diagram(proofs[0], lexicon, words=words)
    return substitute_wirings(raw, lexicon)


DONKEY = "every farmer who owns a donkey beats it"


def donkey_oracle(m: Model) -> bool:
    """Brute-force weak-reading truth condition for the donkey sentence.

    True iff there are F1 containing all farmers and D1, D2 each
    intersecting the donkeys with F1 cut down by owns(D1) equal to
    beats(D2).
    """
    farmer = m.unary_set("farmer")
    donkey = m.unary_set("donkey")
    for f1 in m.subsets():
        if farmer & ~f1:
            continue
        for d1 in m.subsets():
            if not d1 & donkey:
                continue
            owns = f1 & m.forward_image("owns", d1)
            for d2 in m.subsets():
                if not d2 & donkey:
                    continue
                if owns == m.forward_image("beats", d2):
                    return True
    return False
