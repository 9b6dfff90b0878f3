"""Invariants of the whole pipeline over a fixed corpus of sentences.

These checks do not pin which proofs the search returns, only what stays
true whatever it returns: every proof checks and compiles, wiring
substitution is idempotent, diagrams round-trip through JSON, each
sentence keeps its number of readings (``swap_erased_key`` classes of its
substituted diagrams), which belongs to the grammar, not to the search, and
each substituted diagram counts the witnesses that the brute-force
evaluator in ``reference.py`` counts, whatever order the model lists its
universe in.  Proofs whose raw diagrams are equal up to swaps give
substituted diagrams that are too, substitution keeps a raw diagram's
witness counts, and the counts a model keeps from its last evaluation are
those a fresh model computes.  The last test alone pins
outputs: the digests of ``corpus_digest.py``.
"""
from __future__ import annotations

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from lamsem import (
    Diagram,
    DiagramError,
    Lexicon,
    Model,
    check_proof_report,
    diagram_from_json,
    export,
    proof_to_diagram,
    readings,
    substitute_wirings,
    swap_erased_key,
    typecheck_report,
)
from lamsem.prover import TRACE, proof_to_text
from lamsem.relsem import SemanticsError, eval_diagram_rel, evaluate
from lamsem.vecsem import eval_diagram_vec

from conftest import DONKEY, data_path, find_proofs
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


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize(
    "sentence,goal,n_readings", CORPUS, ids=[s for s, _, _ in CORPUS]
)
def test_corpus_invariants(lexicon, sentence, goal, n_readings, k):
    words, proofs = find_proofs(lexicon, sentence, goal, k)
    if k == 1 and PRONOUN_WORDS & set(words):
        assert not proofs
        return
    assert proofs
    keys = set()
    for p in proofs:
        assert check_proof_report(p, k=k) is None, proof_to_text(p)
        raw = proof_to_diagram(p, lexicon, words=words)
        assert typecheck_report(raw) is None
        sub = substitute_wirings(raw, lexicon)
        assert substitute_wirings(sub, lexicon) == sub
        for d in (raw, sub):
            assert diagram_from_json(export(d, "json"), lexicon.atoms) == d
        keys.add(swap_erased_key(sub))
    assert len(keys) == len(readings(proofs, lexicon, words)) == n_readings


@pytest.mark.parametrize("k", (1, 2, 3))
@pytest.mark.parametrize(
    "sentence,goal", [(s, g) for s, g, _ in CORPUS], ids=[s for s, _, _ in CORPUS]
)
def test_each_raw_class_substitutes_into_one_class(lexicon, sentence, goal, k):
    """Equal raw keys give equal substituted keys, which lets `readings`
    substitute one diagram per raw class."""
    words, proofs = find_proofs(lexicon, sentence, goal, k, max_proofs=None)
    classes: dict = {}
    for p in proofs:
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
def test_corpusevaluate(lexicon, sentence, goal, k):
    words, proofs = find_proofs(lexicon, sentence, goal, k)
    diagrams = {
        substitute_wirings(proof_to_diagram(p, lexicon, words=words), lexicon) for p in proofs
    }
    for d in diagrams:
        for m in MODELS:
            counts = evaluate(d, m, k)
            assert counts == reference_counts(d, m, k)
            relabelled = evaluate(d, reversed_model(m), k)
            assert sorted(relabelled.values()) == sorted(counts.values())


def test_substitution_keeps_the_witness_counts(lexicon):
    """A raw diagram and its wiring substitution count the same witnesses,
    one proof per raw class of each sentence at k = 1 and 2.  A raw `who`
    means something only as its Frobenius wiring, so evaluating it raises."""
    compared = 0
    for sentence, goal, _ in CORPUS:
        for k in (1, 2):
            words, proofs = find_proofs(lexicon, sentence, goal, k)
            raws: dict = {}
            for p in proofs:
                raw = proof_to_diagram(p, lexicon, words=words)
                raws.setdefault(swap_erased_key(raw), raw)
            for raw in raws.values():
                sub = substitute_wirings(raw, lexicon)
                for m in MODELS:
                    if "who" in words:
                        with pytest.raises(SemanticsError):
                            evaluate(raw, m, k)
                        continue
                    assert evaluate(raw, m, k) == evaluate(sub, m, k), (sentence, k)
                    compared += 1
    assert compared >= 96


@functools.cache
def corpus_diagrams() -> tuple:
    """The distinct substituted diagrams of the corpus at k = 1..3, in order."""
    lexicon = Lexicon.from_path(data_path("lexicon.json"))
    out: dict = {}
    for sentence, goal, _ in CORPUS:
        for k in (1, 2, 3):
            words, proofs = find_proofs(lexicon, sentence, goal, k)
            for p in proofs:
                raw = proof_to_diagram(p, lexicon, words=words)
                out.setdefault(substitute_wirings(raw, lexicon), None)
    return tuple(out)


@functools.cache
def raw_relative_clause() -> Diagram:
    """The raw diagram of "dogs who eat snacks": its `who` has no meaning
    until substitution gives it its wiring, so evaluating it raises."""
    lexicon = Lexicon.from_path(data_path("lexicon.json"))
    words, proofs = find_proofs(lexicon, "dogs who eat snacks", "np")
    return proof_to_diagram(proofs[0], lexicon, words=words)


# shared by every example, so that each reads what earlier calls kept
SHARED_MODELS = (random_model(random.Random(5), 2), random_model(random.Random(6), 3))
READINGS = (evaluate, eval_diagram_rel, eval_diagram_vec)


def _outcome(read, d, m, k):
    try:
        return read(d, m, k)
    except (DiagramError, SemanticsError) as exc:
        return type(exc)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_kept_counts_are_never_stale(data):
    # the raw diagram fails on every call, so failures are drawn too
    diagrams = corpus_diagrams() + (raw_relative_clause(),)
    pool = data.draw(st.lists(st.sampled_from(diagrams), min_size=1, max_size=2))
    calls = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(READINGS),
                st.sampled_from(pool),
                st.sampled_from(SHARED_MODELS),
                st.sampled_from((1, 2, 3)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    for read, d, m, k in calls:
        fresh = dataclasses.replace(m)
        assert _outcome(read, d, m, k) == _outcome(read, d, fresh, k)


def test_corpus_and_evaluation_digests_are_pinned():
    """The proofs, their JSON and DOT exports and the evaluations of the
    corpus are byte-identical to those pinned here (see ``corpus_digest.py``).

    A pinned value changes only with a reason in CHANGES.md.
    """
    from corpus_digest import corpus_digest, evaluation_digest, trace_digest

    records: list[dict] = []
    token = TRACE.set(records.append)
    try:
        assert corpus_digest() == (
            1001, "9dee11791186a3bae3ac22c8c4b5066999953d829a8dc8ea62149728643c0860"
        )
    finally:
        TRACE.reset(token)
    assert trace_digest(records) == (
        1086, "ca9b3279f6d34b2ca1e9c53439073896d6a8310efa61789ef718dae85ac68864"
    )
    assert evaluation_digest() == (
        312, "1234bac89f1f45492df1d7cff31a41b359fc397c7ccc1b22c9e194cf8395ccc5"
    )
