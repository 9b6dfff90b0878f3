"""Vector-space semantics: indicator tensors, exact witness counts, and
agreement with the relational backend."""
from __future__ import annotations

import itertools
import random

import pytest
from conftest import DONKEY, sentence_diagram
from reference import reference_counts

from lamsem import Model, check_equivalence, eval_diagram_rel, eval_diagram_vec, evaluate
from lamsem.diagram import Counit, Mult, NWire, Proj, formula_wires
from lamsem.formula import parse_formula
from lamsem.relsem import SemanticsError, generator_entries, word_entries

ATOMS = ("np", "n", "s")
N = NWire()


def small_model(n: int = 2) -> Model:
    return Model(universe=tuple(f"e{i}" for i in range(n)))


# ----------------------------------------------------------- tensor basics
# A word or generator denotes the indicator tensor of its relation: entry 1
# at each related tuple, so its support is the relation's set of tuples.


def test_word_vec_is_indicator(model_dogs):
    f = parse_formula("np\\s/np", ATOMS)
    entries = word_entries("eats", f, model_dogs, 2)
    assert entries
    assert all(len(t) == len(formula_wires(f)) == 3 for t in entries)


def test_counit_vec_is_all_ones():
    m = small_model(2)
    assert generator_entries(Counit(N), m, 2) == {(i,) for i in range(4)}


def test_proj_vec_arity_two():
    m = small_model(1)
    assert len(generator_entries(Proj(2, N), m, 2)) == 4


def test_mult_vec_matches_relation():
    m = small_model(2)
    entries = generator_entries(Mult(), m, 2)
    assert entries == {(a, b, a & b) for a in range(4) for b in range(4)}


# ------------------------------------------------------------ functoriality


def test_indicator_functoriality():
    """Contracting two indicator tensors supports exactly the relational
    composition of the underlying relations (entries may exceed 1)."""
    rng = random.Random(7)
    n = 4  # subsets of a 2-element universe
    for _ in range(50):
        r = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.4}
        s = {(b, c) for b in range(n) for c in range(n) if rng.random() < 0.4}
        comp = {(a, c) for a, b in r for b2, c in s if b == b2}
        counts: dict[tuple, int] = {}
        for a, b in r:
            for b2, c in s:
                if b == b2:
                    counts[(a, c)] = counts.get((a, c), 0) + 1
        assert set(counts) == comp
        assert all(v >= 1 for v in counts.values())


@pytest.mark.parametrize("size", [1, 2, 3])
def test_vector_bialgebra_compatibility(size):
    from lamsem.diagram import Comult, Diagram, Edge, Swap

    m = small_model(size)
    lhs = Diagram(
        (Mult(), Comult(N)),
        (Edge(0, 0, 1, 0),),
        ((0, 0), (0, 1)),
        ((1, 0), (1, 1)),
    )
    rhs = Diagram(
        (Comult(N), Comult(N), Swap((N,), (N,)), Mult(), Mult()),
        (
            Edge(0, 1, 2, 0),
            Edge(1, 0, 2, 1),
            Edge(0, 0, 3, 0),
            Edge(2, 0, 3, 1),
            Edge(2, 1, 4, 0),
            Edge(1, 1, 4, 1),
        ),
        ((0, 0), (1, 0)),
        ((3, 0), (4, 0)),
    )
    assert evaluate(lhs, m, 2) == evaluate(rhs, m, 2) == reference_counts(lhs, m, 2)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_vector_frobenius_law(size):
    from lamsem.diagram import Comult, Cup, Diagram, Edge

    m = small_model(size)
    lhs = Diagram(
        (Comult(N), Comult(N), Cup(N)),
        (Edge(0, 1, 1, 0), Edge(1, 1, 2, 0)),
        ((0, 0), (2, 1)),
        ((0, 0), (1, 0)),
    )
    rhs = Diagram(
        (Comult(N), Cup(N), Comult(N)),
        (Edge(0, 1, 1, 0), Edge(0, 0, 2, 0)),
        ((0, 0), (1, 1)),
        ((2, 0), (2, 1)),
    )
    got_lhs, got_rhs = evaluate(lhs, m, 2), evaluate(rhs, m, 2)
    assert got_lhs == got_rhs == reference_counts(lhs, m, 2)
    assert got_lhs == {(a, a, a, a): 1 for a in m.subsets()}


# ----------------------------------------------------------- sentence scalars


def test_transitive_sentence_scalar(lexicon, model_dogs):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    scalar = eval_diagram_vec(d, model_dogs)
    assert isinstance(scalar, int)
    assert scalar == 1


def test_quantified_sentence_scalar(lexicon, model_dogs):
    d = sentence_diagram(lexicon, "every dog eats snacks")
    scalar = eval_diagram_vec(d, model_dogs)
    assert isinstance(scalar, int) and scalar > 0


def test_donkey_scalar_counts_witnesses(lexicon, model_donkey_true):
    """The exact scalar equals the number of oracle witness triples."""
    d = sentence_diagram(lexicon, DONKEY)
    scalar = eval_diagram_vec(d, model_donkey_true)
    assert isinstance(scalar, int)

    m = model_donkey_true
    farmer, donkey = m.unary_set("farmer"), m.unary_set("donkey")
    witnesses = 0
    for f1, d1, d2 in itertools.product(m.subsets(), repeat=3):
        if farmer & ~f1 or not d1 & donkey or not d2 & donkey:
            continue
        if f1 & m.forward_image("owns", d1) == m.forward_image("beats", d2):
            witnesses += 1
    assert scalar == witnesses == 32


def test_donkey_scalar_zero_on_false_model(lexicon, model_donkey_false):
    d = sentence_diagram(lexicon, DONKEY)
    assert eval_diagram_vec(d, model_donkey_false) == 0


def test_open_diagram_rejected(lexicon):
    from lamsem.diagram import Diagram, Id

    open_d = Diagram((Id(N),), (), ((0, 0),), ((0, 0),))
    with pytest.raises(SemanticsError):
        eval_diagram_vec(open_d, small_model(1))


# ------------------------------------------------------------- equivalence


def random_model(rng: random.Random, size: int) -> Model:
    pick = lambda: rng.randrange(1 << size)
    pairs = lambda: frozenset(
        (x, y)
        for x in range(size)
        for y in range(size)
        if rng.random() < 0.4
    )
    return Model(
        universe=tuple(f"u{i}" for i in range(size)),
        unary={
            name: pick()
            for name in ("dog", "dogs", "snacks", "farmer", "donkey",
                         "john", "eat", "eats", "sleeps", "snores")
        },
        binary={name: pairs() for name in ("eat", "eats", "owns", "beats")},
        determiners={"every": "every", "a": "some", "some": "some"},
    )


SENTENCES = (
    ("dogs eat snacks", "s"),
    ("every dog eats snacks", "s"),
    ("john sleeps he snores", "s.s"),
    (DONKEY, "s"),
)


def test_rel_vec_equivalence_randomized(lexicon):
    """>= 200 random models: scalar non-zero iff relational truth, across
    the bundled sentence set, and both agree with the brute-force
    reference evaluator."""
    diagrams = [sentence_diagram(lexicon, s, goal=g) for s, g in SENTENCES]
    rng = random.Random(424242)
    checked = 0
    for i in range(200):
        m = random_model(rng, size=2 + i % 2)
        for d in diagrams:
            rel, vec = eval_diagram_rel(d, m, k=2), eval_diagram_vec(d, m, k=2)
            assert check_equivalence(rel, vec)
            ref = reference_counts(d, m, k=2)
            assert vec == sum(ref.values())
            assert rel.nonempty == bool(ref)
            checked += 1
    assert checked == 200 * len(SENTENCES)


def test_equivalence_is_semantic_not_trivial(
    lexicon, model_donkey_true, model_donkey_false
):
    """Equivalence holds on a true and on a false model, and the reference
    evaluator confirms which is which."""
    d = sentence_diagram(lexicon, DONKEY)
    assert check_equivalence(
        eval_diagram_rel(d, model_donkey_true), eval_diagram_vec(d, model_donkey_true)
    )
    assert eval_diagram_rel(d, model_donkey_true).nonempty
    assert sum(reference_counts(d, model_donkey_true, k=2).values()) == 32

    assert check_equivalence(
        eval_diagram_rel(d, model_donkey_false), eval_diagram_vec(d, model_donkey_false)
    )
    assert eval_diagram_vec(d, model_donkey_false) == 0
    assert not eval_diagram_rel(d, model_donkey_false).nonempty
    assert reference_counts(d, model_donkey_false, k=2) == {}


def test_vec_rejects_bad_k(lexicon, model_dogs):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    with pytest.raises(SemanticsError):
        eval_diagram_vec(d, model_dogs, k=0)
