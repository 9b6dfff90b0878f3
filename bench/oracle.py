"""Seeded model generation and closed-form truth, made apart from lamsem.

Nothing here imports the program.  A model is plain data: a universe size,
unary predicates as bitmasks over the entities, binary relations as sets of
(x, y) index pairs.  The truth of each corpus sentence is computed straight
from that data, so a check built on it does not share code with the
evaluator it checks.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DOGS = "dogs eat snacks"
EVERY_DOG = "every dog eats snacks"
JOHN = "john sleeps he snores"
DONKEY = "every farmer who owns a donkey beats it"

SWEEP_SENTENCES = ((DOGS, "s"), (EVERY_DOG, "s"), (JOHN, "s.s"), (DONKEY, "s"))

UNARY = ("dog", "dogs", "snacks", "farmer", "donkey", "john", "sleeps", "snores")
BINARY = ("eat", "eats", "owns", "beats")


@dataclass(frozen=True)
class PlainModel:
    size: int
    unary: dict  # name -> bitmask
    binary: dict  # name -> frozenset of (x, y)

    def to_dict(self) -> dict:
        """The model in lamsem's JSON model format."""
        ent = [f"e{i}" for i in range(self.size)]
        return {
            "universe": ent,
            "unary": {
                n: [ent[i] for i in range(self.size) if m >> i & 1]
                for n, m in self.unary.items()
            },
            "binary": {
                n: [[ent[x], ent[y]] for x, y in sorted(r)]
                for n, r in self.binary.items()
            },
            "determiners": {"every": "every", "some": "some", "a": "a"},
        }


def from_json(d: dict) -> PlainModel:
    """A model given in lamsem's JSON model format, read directly."""
    index = {e: i for i, e in enumerate(d["universe"])}
    unary = {n: sum(1 << index[e] for e in es) for n, es in d.get("unary", {}).items()}
    binary = {
        n: frozenset((index[x], index[y]) for x, y in pairs)
        for n, pairs in d.get("binary", {}).items()
    }
    return PlainModel(len(index), unary, binary)


def image(rel, subset: int) -> int:
    """{x | (x, y) in rel for some y in subset}, as a bitmask."""
    out = 0
    for x, y in rel:
        if subset >> y & 1:
            out |= 1 << x
    return out


def donkey_truth(m: PlainModel) -> bool:
    """Weak reading of the donkey sentence, by exhaustive search.

    The same condition as ``donkey_oracle`` in ``tests/conftest.py``: there
    are F1 containing every farmer and D1, D2 each meeting the donkeys with
    F1 cut down by owns(D1) equal to beats(D2).
    """
    n = 1 << m.size
    farmer, donkey = m.unary["farmer"], m.unary["donkey"]
    owns = [image(m.binary["owns"], d) for d in range(n) if d & donkey]
    beats = {image(m.binary["beats"], d) for d in range(n) if d & donkey}
    for f1 in range(n):
        if farmer & ~f1:
            continue
        if any(f1 & o in beats for o in owns):
            return True
    return False


def truth(sentence: str, m: PlainModel) -> bool:
    u, b = m.unary, m.binary
    if sentence == DOGS:
        return u["dogs"] == image(b["eat"], u["snacks"])
    if sentence == EVERY_DOG:
        return u["dog"] & ~image(b["eats"], u["snacks"]) == 0
    if sentence == JOHN:
        return u["john"] == u["sleeps"] == u["snores"]
    if sentence == DONKEY:
        return donkey_truth(m)
    raise KeyError(sentence)


def relabel(m: PlainModel, perm: list[int]) -> PlainModel:
    """The same model with entity i renamed perm[i]."""

    def mask(s: int) -> int:
        return sum(1 << perm[i] for i in range(m.size) if s >> i & 1)

    return PlainModel(
        m.size,
        {n: mask(s) for n, s in m.unary.items()},
        {n: frozenset((perm[x], perm[y]) for x, y in r) for n, r in m.binary.items()},
    )


def _subset(rng: random.Random, size: int, card: int) -> int:
    return sum(1 << i for i in rng.sample(range(size), card))


def _relation(rng: random.Random, size: int, pairs: int) -> frozenset:
    cells = [(x, y) for x in range(size) for y in range(size)]
    return frozenset(rng.sample(cells, pairs))


def random_model(rng: random.Random, size: int, want: dict) -> PlainModel:
    """A model on which each sentence in ``want`` has the wanted truth value.

    Predicate sizes and relation sizes are fixed for a given universe size,
    so that evaluation cost varies little from model to model.  The donkey
    part is drawn again until the oracle gives the wanted value.
    """
    full = (1 << size) - 1
    third = max(1, size // 3)
    unary = {n: _subset(rng, size, third) for n in UNARY}
    binary = {n: _relation(rng, size, size + 1) for n in BINARY}
    if DOGS in want:
        img = image(binary["eat"], unary["snacks"])
        if want[DOGS]:
            unary["dogs"] = img
        else:
            unary["dogs"] = rng.choice([s for s in range(full + 1) if s != img])
    if EVERY_DOG in want:
        img = image(binary["eats"], unary["snacks"])
        if want[EVERY_DOG]:
            unary["dog"] = img & rng.randrange(full + 1)
        else:
            while img == full:
                binary["eats"] = _relation(rng, size, size + 1)
                img = image(binary["eats"], unary["snacks"])
            unary["dog"] = rng.choice([s for s in range(full + 1) if s & ~img])
    if JOHN in want:
        j = unary["john"]
        if want[JOHN]:
            unary["sleeps"] = unary["snores"] = j
        else:
            unary["snores"] = rng.choice([s for s in range(full + 1) if s != j])
            unary["sleeps"] = rng.choice((j, unary["snores"]))
    if DONKEY in want:
        while True:
            m = PlainModel(size, unary, binary)
            if donkey_truth(m) == want[DONKEY]:
                break
            unary["farmer"] = _subset(rng, size, third)
            unary["donkey"] = _subset(rng, size, third)
            binary["owns"] = _relation(rng, size, size + 1)
            binary["beats"] = _relation(rng, size, size + 1)
    return PlainModel(size, dict(unary), dict(binary))


def model_round(rng: random.Random, size: int, sentences) -> list[PlainModel]:
    """Four models: a pair (model, relabelled copy) and a second pair on
    which every sentence takes the other truth value, so every round has
    each sentence true on some models and false on others."""
    want = {s: rng.random() < 0.5 for s in sentences}
    out = []
    for w in (want, {s: not v for s, v in want.items()}):
        m = random_model(rng, size, w)
        perm = list(range(size))
        while perm == sorted(perm) and size > 1:
            rng.shuffle(perm)
        out += [m, relabel(m, perm)]
    return out


def discourse_provable(n: int, j: int, k: int) -> bool:
    """n names (!@np) give between n and n*k noun phrases; each of the n+j
    verbs takes one, and each of the j pronouns passes one through."""
    return j <= n * (k - 1)
