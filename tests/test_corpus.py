"""Invariants of the whole pipeline over a fixed corpus of sentences.

These checks do not pin which proofs the search returns, only what stays
true whatever it returns: every proof checks and compiles, wiring
substitution is idempotent, diagrams round-trip through JSON, each
sentence keeps its number of readings (``swap_erased_key`` classes of its
substituted diagrams), which belongs to the grammar, not to the search, and
each substituted diagram counts the witnesses that the brute-force
evaluator in ``reference.py`` counts, whatever order the model lists its
universe in.  Proofs whose raw diagrams are equal up to swaps give
substituted diagrams that are too, and the counts a model keeps from its
last evaluation are those a fresh model computes.
"""
from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lamsem import (
    DiagramError,
    Lexicon,
    Model,
    SearchConfig,
    check_proof_report,
    diagram_from_json,
    export,
    proof_to_diagram,
    prove,
    sentence_to_sequents,
    substitute_wirings,
    swap_erased_key,
    typecheck,
)
from lamsem.formula import parse_formula
from lamsem.planner import DEFAULT_CELL_BUDGET
from lamsem.prover import proof_to_text
from lamsem.relsem import SemanticsError, _witness_counts, eval_diagram_rel
from lamsem.vecsem import eval_diagram_vec

from conftest import DONKEY, data_path
from reference import reference_counts
from test_vecsem import random_model

# (sentence, goal, readings)
CORPUS = (
    ("dogs eat snacks", "s", 1),
    ("every dog eats snacks", "s", 1),
    ("some dog eats snacks", "s", 1),
    ("a dog eats snacks", "s", 1),
    ("john sleeps he snores", "s.s", 1),
    (DONKEY, "s", 1),
    ("a farmer who owns a donkey beats it", "s", 1),
    ("some farmer who owns a donkey beats it", "s", 1),
    ("dogs who eat snacks", "np", 1),
    ("a farmer owns a donkey", "s", 2),
    ("every farmer owns a donkey", "s", 1),
    ("john owns a donkey", "s", 1),
    ("john beats a donkey", "s", 1),
    ("every farmer beats john", "s", 1),
    ("john sleeps", "s", 1),
    ("every farmer who beats john sleeps", "s", 1),
    ("john owns a donkey he beats it", "s.s", 1),
    ("every dog who eats snacks sleeps", "s", 1),
)
# a pronoun takes a copy of its referent, so it needs k >= 2
PRONOUN_WORDS = {"he", "it"}


def _first_proofs(lexicon, words, goal, k, max_proofs=SearchConfig.max_proofs):
    """The proofs of the first provable sequent reading, or ()."""
    goal_f = parse_formula(goal, lexicon.atoms)
    for seq in sentence_to_sequents(words, lexicon, goal_f):
        result = prove(seq, SearchConfig(k=k, max_proofs=max_proofs))
        if result.proofs:
            return result.proofs
    return ()


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize(
    "sentence,goal,readings", CORPUS, ids=[s for s, _, _ in CORPUS]
)
def test_corpus_invariants(lexicon, sentence, goal, readings, k):
    words = sentence.split()
    proofs = _first_proofs(lexicon, words, goal, k)
    if k == 1 and PRONOUN_WORDS & set(words):
        assert not proofs
        return
    assert proofs
    keys = set()
    for p in proofs:
        assert check_proof_report(p, k=k) is None, proof_to_text(p)
        raw = proof_to_diagram(p, lexicon, words=words)
        assert typecheck(raw)
        sub = substitute_wirings(raw, lexicon)
        assert substitute_wirings(sub, lexicon) == sub
        for d in (raw, sub):
            assert diagram_from_json(export(d, "json"), lexicon.atoms) == d
        keys.add(swap_erased_key(sub))
    assert len(keys) == readings


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize(
    "sentence,goal", [(s, g) for s, g, _ in CORPUS], ids=[s for s, _, _ in CORPUS]
)
def test_each_raw_class_substitutes_into_one_class(lexicon, sentence, goal, k):
    """Equal raw keys give equal substituted keys, which lets the CLI
    substitute one diagram per raw class."""
    words = sentence.split()
    classes: dict = {}
    for p in _first_proofs(lexicon, words, goal, k, max_proofs=None):
        raw = proof_to_diagram(p, lexicon, words=words)
        sub = substitute_wirings(raw, lexicon)
        classes.setdefault(swap_erased_key(raw), set()).add(swap_erased_key(sub))
    assert all(len(subs) == 1 for subs in classes.values())


def reversed_model(m: Model) -> Model:
    """`m` with its universe listed in reverse order: the same model,
    relabelled."""
    last = m.size - 1
    flip = lambda subset: sum(1 << (last - i) for i in range(m.size) if subset >> i & 1)
    return Model(
        universe=m.universe[::-1],
        unary={name: flip(subset) for name, subset in m.unary.items()},
        binary={
            name: frozenset((last - x, last - y) for x, y in pairs)
            for name, pairs in m.binary.items()
        },
        determiners=m.determiners,
    )


# two models at each of |U| = 2 and 3; on this seed 16 of the 18 sentences
# are true on some of them and false on others
_rng = random.Random(23)
MODELS = tuple(random_model(_rng, size) for size in (2, 2, 3, 3))


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize(
    "sentence,goal", [(s, g) for s, g, _ in CORPUS], ids=[s for s, _, _ in CORPUS]
)
def test_corpus_witness_counts(lexicon, sentence, goal, k):
    words = sentence.split()
    diagrams = {
        substitute_wirings(proof_to_diagram(p, lexicon, words=words), lexicon)
        for p in _first_proofs(lexicon, words, goal, k)
    }
    for d in diagrams:
        for m in MODELS:
            counts = _witness_counts(d, m, k)
            assert counts == reference_counts(d, m, k)
            relabelled = _witness_counts(d, reversed_model(m), k)
            assert sorted(relabelled.values()) == sorted(counts.values())


@functools.cache
def corpus_diagrams() -> tuple:
    """The distinct substituted diagrams of the corpus at k = 1..3, in order."""
    lexicon = Lexicon.from_path(data_path("lexicon.json"))
    out: dict = {}
    for sentence, goal, _ in CORPUS:
        words = sentence.split()
        for k in (1, 2, 3):
            for p in _first_proofs(lexicon, words, goal, k):
                raw = proof_to_diagram(p, lexicon, words=words)
                out.setdefault(substitute_wirings(raw, lexicon), None)
    return tuple(out)


# shared by every example, so that each reads what earlier calls kept
SHARED_MODELS = (random_model(random.Random(5), 2), random_model(random.Random(6), 3))
READINGS = (_witness_counts, eval_diagram_rel, eval_diagram_vec)


def _outcome(read, d, m, k, budget):
    try:
        return read(d, m, k, budget)
    except (DiagramError, SemanticsError) as exc:
        return type(exc)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_kept_counts_are_never_stale(data):
    pool = data.draw(st.lists(st.sampled_from(corpus_diagrams()), min_size=1, max_size=2))
    calls = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(READINGS),
                st.sampled_from(pool),
                st.sampled_from(SHARED_MODELS),
                st.sampled_from((1, 2, 3)),
                st.sampled_from((DEFAULT_CELL_BUDGET, 1)),  # 1 is too small for most
            ),
            min_size=1,
            max_size=12,
        )
    )
    for read, d, m, k, budget in calls:
        fresh = dataclasses.replace(m)
        assert _outcome(read, d, m, k, budget) == _outcome(read, d, fresh, k, budget)
