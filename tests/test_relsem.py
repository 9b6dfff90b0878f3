"""Relational semantics: carriers, word/generator relations, algebraic
laws, and the end-to-end truth conditions."""
from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest
from conftest import DONKEY, donkey_oracle, sentence_diagram
from reference import reference_counts

from lamsem import relsem
from lamsem import (
    FinRel,
    Model,
    eval_diagram_rel,
    eval_diagram_vec,
    generator_rel,
    interp_object,
    interp_word_rel,
)
from lamsem.diagram import (
    Cap,
    Comult,
    Counit,
    Cup,
    DetBox,
    Diagram,
    DiagramError,
    Edge,
    FockLift,
    FockWire,
    Id,
    Mult,
    NWire,
    ProductWire,
    Proj,
    Swap,
    SWire,
    Unit,
    diagram_from_json,
    export,
)
from lamsem.formula import parse_formula
from lamsem.prover import TRACE
from lamsem.relsem import STAR, SemanticsError, _entries_to_finrel, rel_true

ATOMS = ("np", "n", "s")
N = NWire()
NN = ProductWire((N, N))


def small_model(n: int = 2) -> Model:
    return Model(universe=tuple(f"e{i}" for i in range(n)))


def rel_pairs(d: Diagram, m: Model, k: int = 2) -> frozenset:
    """The relation's pairs, checked against the brute-force reference."""
    r = eval_diagram_rel(d, m, k)
    support = reference_counts(d, m, k)
    assert r == _entries_to_finrel(support, d.input_types(), d.output_types())
    return r.pairs


def chain(*gens, seal_output: bool = False) -> Diagram:
    """Compose single-wire generators top to bottom into an open diagram."""
    edges = []
    for i in range(len(gens) - 1):
        edges.append(Edge(i, 0, i + 1, 0))
    inputs = ((0, 0),) if gens[0].ins else ()
    outputs = () if seal_output else ((len(gens) - 1, 0),)
    return Diagram(tuple(gens), tuple(edges), inputs, outputs)


# -------------------------------------------------------------- carriers


def test_interp_object_sizes():
    m3, m2 = small_model(3), small_model(2)
    assert len(interp_object(N, m3, k=2)) == 8
    assert interp_object(SWire(), m3, k=2) == [STAR]
    fock = interp_object(FockWire(N), m2, k=2)
    assert len(fock) == 4 + 16
    assert ((0,), 1) in fock and ((1, 2), 2) in fock


def test_interp_object_budget():
    with pytest.raises(SemanticsError):
        interp_object(FockWire(N), small_model(3), k=3, budget=100)
    with pytest.raises(SemanticsError):
        interp_object(N, small_model(2), k=0)


def test_interp_object_rejects_k_above_the_maximum():
    assert len(interp_object(N, small_model(2), k=relsem.MAX_K)) == 4
    with pytest.raises(SemanticsError, match="1..3"):
        interp_object(N, small_model(2), k=4)


# ------------------------------------------------------- model operations


def test_forward_image(model_dogs):
    eats = model_dogs.binary_rel("eats")
    assert eats  # bundled model has eaters
    everyone = model_dogs.full_set
    img = model_dogs.forward_image("eats", everyone)
    assert img == model_dogs.subset_id(sorted({model_dogs.universe[x] for x, _ in eats}))
    assert model_dogs.forward_image("eats", 0) == 0


def test_interp_determiner(model_dogs):
    a = model_dogs.unary_set("dog")
    for b in model_dogs.interp_determiner("every", a):
        assert a & ~b == 0
    for b in model_dogs.interp_determiner("some", a):
        assert a & b
    custom = Model(universe=("x",), determiners={"d": ((1, 0),)})
    assert custom.interp_determiner("d", 1) == frozenset({0})
    assert custom.interp_determiner("d", 0) == frozenset()


# ------------------------------------------------------------ word relations


def test_word_rel_noun(model_dogs):
    r = interp_word_rel("dog", parse_formula("n", ATOMS), model_dogs)
    assert r.pairs == frozenset({(STAR, model_dogs.unary_set("dog"))})


def test_word_rel_transitive():
    m = small_model(2)
    m = Model(universe=m.universe, binary={"eats": frozenset({(0, 1)})})
    r = interp_word_rel("eats", parse_formula("np\\s/np", ATOMS), m)
    # one triple per object subset B: (image, *, B)
    assert len(r.pairs) == 4
    assert (STAR, (m.forward_image("eats", 2), STAR, 2)) in r.pairs


def test_word_rel_every(model_dogs):
    r = interp_word_rel("every", parse_formula("np/n", ATOMS), model_dogs)
    for _, (x, a) in r.pairs:
        assert a & ~x == 0


def test_word_rel_lifted_every(model_dogs):
    r = interp_word_rel("every", parse_formula("!@np/n", ATOMS), model_dogs, k=2)
    arities = {f[1] for _, (f, _a) in r.pairs}
    assert arities == {1, 2}


def test_word_rel_unknown_shape(model_dogs):
    with pytest.raises(SemanticsError):
        interp_word_rel("dog", parse_formula("s/s", ATOMS), model_dogs)


# ------------------------------------------------------- generator relations


def test_generator_mult_is_intersection():
    m = small_model(2)
    r = generator_rel(Mult(), m)
    assert ((1, 3), 1) in r.pairs and ((2, 1), 0) in r.pairs
    assert len(r.pairs) == 16


def test_generator_proj_arities():
    m = small_model(1)
    r2 = generator_rel(Proj(2, N), m, k=2)
    assert all(f[1] == 2 and out == tuple(f[0]) for f, out in r2.pairs)
    assert len(r2.pairs) == 4
    # a projection beyond the copy bound is the empty relation
    assert generator_rel(Proj(3, N), m, k=2).pairs == frozenset()


def test_generator_focklift_of_identity():
    m = small_model(1)
    inner = Diagram((Id(N),), (), ((0, 0),), ((0, 0),))
    r = generator_rel(FockLift(inner), m, k=2)
    assert all(src == dst for src, dst in r.pairs)
    assert len(r.pairs) == 2 + 4


def input_driven_generators():
    """Every kind of generator that maps inputs to outputs, one or more each."""
    mult = Diagram((Mult(),), (), ((0, 0), (0, 1)), ((0, 0),))
    det = DetBox("a", parse_formula("np/n", ATOMS))
    some = Diagram((det,), (), ((0, 0),), ((0, 0),))
    return [
        DetBox("every", parse_formula("np/n", ATOMS)),
        DetBox("a", parse_formula("(!@np)/n", ATOMS)),
        Mult(),
        Proj(1, N),
        Proj(2, N),
        Proj(3, N),
        Proj(1, NN),
        Proj(2, NN),
        Comult(N),
        Comult(FockWire(N)),
        Counit(N),
        FockLift(some),
        FockLift(mult),
    ]


def map_model(size: int) -> Model:
    return Model(
        universe=tuple(f"e{i}" for i in range(size)),
        determiners={"every": "every", "a": "some"},
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_map_tuple_has_one_value_per_port(k):
    """A `Proj` over a bundle of wires flattens its n items into n x width
    output values, like every other generator gives one value per port."""
    from lamsem.relsem import generator_entries

    m = map_model(2)
    for g in input_driven_generators():
        entries = generator_entries(g, m, k)
        assert all(len(t) == len(g.ins) + len(g.outs) for t in entries), g.label
    pair = generator_entries(Proj(2, NN), map_model(1), 2)
    assert len(pair) == 16 and all(len(t) == 5 for t in pair)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_build_from_inputs_is_the_filtered_relation(size, k):
    """Built from the values at some of its input ports, or at all its
    output ports when they determine its inputs, a generator gives exactly
    the tuples of its whole relation whose values there are among them (the
    empty set included)."""
    from lamsem.relsem import generator_entries

    m = map_model(size)
    rng = random.Random(1000 * size + k)
    generators = input_driven_generators()
    assert {type(g) for g in generators} == set(relsem._MAPS)
    for g in generators:
        if relsem._carrier_product(g.ins, size, k) > 5000:
            continue  # the Fock-lifted Mult at |U| = 3, k = 3
        n_in, wires = len(g.ins), g.ins + g.outs
        whole = generator_entries(g, m, k)
        carrier = list(itertools.product(*(interp_object(w, m, k) for w in g.ins)))
        assert generator_entries(g, m, k, (tuple(range(n_in)), carrier)) == whole
        port_sets = [
            tuple(sorted(rng.sample(range(n_in), r))) for r in range(1, n_in + 1)
        ]
        if isinstance(g, (Proj, Comult)):
            port_sets.append(tuple(range(n_in, len(wires))))
        for ports in port_sets:
            values = list(
                itertools.product(*(interp_object(wires[p], m, k) for p in ports))
            )
            related = sorted({tuple(t[p] for p in ports) for t in whole}, key=repr)
            for n in (0, 1, 2, len(values) // 3):
                keys = set(rng.sample(values, min(n, len(values))))
                keys |= set(rng.sample(related, min(n, len(related))))
                want = {t for t in whole if tuple(t[p] for p in ports) in keys}
                got = generator_entries(g, m, k, (ports, keys))
                assert got == want, (g.label, ports, keys)


# ----------------------------------------------------------- algebraic laws


@pytest.mark.parametrize("size", [1, 2, 3])
def test_unit_counit_laws(size):
    m = small_model(size)
    ident = rel_pairs(chain(Id(N)), m)
    # (Unit x Id) ; Mult = Id
    d = Diagram(
        (Unit(N), Mult(), Id(N)),
        (Edge(0, 0, 1, 0), Edge(2, 0, 1, 1)),
        ((2, 0),),
        ((1, 0),),
    )
    assert rel_pairs(d, m) == ident
    # Comult ; (Counit x Id) = Id
    d2 = Diagram(
        (Comult(N), Counit(N)),
        (Edge(0, 0, 1, 0),),
        ((0, 0),),
        ((0, 1),),
    )
    assert rel_pairs(d2, m) == ident


@pytest.mark.parametrize("size", [1, 2, 3])
def test_special_law(size):
    m = small_model(size)
    ident = rel_pairs(chain(Id(N)), m)
    # special law: Comult ; Mult = Id
    spec = Diagram(
        (Comult(N), Mult()),
        (Edge(0, 0, 1, 0), Edge(0, 1, 1, 1)),
        ((0, 0),),
        ((1, 0),),
    )
    assert rel_pairs(spec, m) == ident


@pytest.mark.parametrize("size", [1, 2, 3])
def test_bialgebra_compatibility(size):
    m = small_model(size)
    # Mult ; Comult  =  (Comult x Comult) ; (Id x Swap x Id) ; (Mult x Mult)
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
    assert rel_pairs(lhs, m) == rel_pairs(rhs, m)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_compare_monoid(size):
    """Copy's converse (compare) is a monoid: mu(a, b) defined iff a = b."""
    m = small_model(size)
    mu = Diagram(
        (Comult(N), Cup(N)),
        (Edge(0, 1, 1, 0),),
        ((0, 0), (1, 1)),
        ((0, 0),),
    )
    pairs = rel_pairs(mu, m)
    assert pairs == frozenset(
        {((a, a), a) for a in m.subsets()}
    )


@pytest.mark.parametrize("size", [1, 2, 3])
def test_frobenius_law(size):
    """(Comult x Id) ; (Id x compare) = Comult . compare on copy/compare."""
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
    expected = frozenset({((a, a), (a, a)) for a in m.subsets()})
    assert rel_pairs(lhs, m) == rel_pairs(rhs, m) == expected


@pytest.mark.parametrize("size", [1, 2, 3])
def test_snake_law(size):
    m = small_model(size)
    ident = rel_pairs(chain(Id(N)), m)
    snake = Diagram(
        (Cap(N), Cup(N)),
        (Edge(0, 0, 1, 1),),
        ((1, 0),),
        ((0, 1),),
    )
    assert rel_pairs(snake, m) == ident


# ------------------------------------------------------ projector naturality


def random_subset_relation(rng: random.Random, m: Model) -> tuple:
    n = 1 << m.size
    return tuple(
        (a, b)
        for a in range(n)
        for b in range(n)
        if rng.random() < 0.3
    )


def test_projector_naturality():
    """pi_n . F(R) = R^n . pi_n for arbitrary relations R on subsets."""
    rng = random.Random(20240817)
    base = small_model(2)
    formula = parse_formula("np/n", ATOMS)
    for _ in range(100):
        table = random_subset_relation(rng, base)
        m = Model(universe=base.universe, determiners={"r": table})
        inner = Diagram((DetBox("r", formula),), (), ((0, 0),), ((0, 0),))
        k = 3
        fock = generator_rel(FockLift(inner), m, k).pairs
        for n in (1, 2, 3):
            proj = generator_rel(Proj(n, N), m, k).pairs
            lhs = {
                (src, out)
                for src, mid in fock
                for mid2, out in proj
                if mid == mid2
            }
            rel = set(table)
            rhs = set()
            for (items, arity), out in proj:
                if arity != n:
                    continue
                outs = out if n > 1 else (out,)
                for image in _tuple_images(outs, rel):
                    rhs.add(((items, n), image if n > 1 else image[0]))
            assert lhs == rhs


def _tuple_images(values: tuple, rel: set) -> list:
    """All componentwise images of a tuple under a relation."""
    import itertools

    choices = [[b for a, b in rel if a == v] for v in values]
    return [tuple(c) for c in itertools.product(*choices)]


# --------------------------------------------------------- sentence truth


def test_transitive_sentence_truth(lexicon, model_dogs):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    r = eval_diagram_rel(d, model_dogs)
    assert rel_true(r)
    assert r.pairs == frozenset({(STAR, STAR)})


def test_quantified_sentence_truth(lexicon, model_dogs):
    d = sentence_diagram(lexicon, "every dog eats snacks")
    assert rel_true(eval_diagram_rel(d, model_dogs))


def test_relative_clause_denotes_intersection(lexicon, model_dogs):
    m = model_dogs
    d = sentence_diagram(lexicon, "dogs who eat snacks", goal="np")
    want = m.unary_set("dogs") & m.forward_image("eat", m.unary_set("snacks"))
    assert rel_pairs(d, m) == frozenset({(STAR, want)})


def test_donkey_on_bundled_models(lexicon, model_donkey_true, model_donkey_false):
    d = sentence_diagram(lexicon, DONKEY)
    assert rel_true(eval_diagram_rel(d, model_donkey_true))
    assert not rel_true(eval_diagram_rel(d, model_donkey_false))
    assert donkey_oracle(model_donkey_true)
    assert not donkey_oracle(model_donkey_false)


def random_donkey_model(rng: random.Random, size: int = 3) -> Model:
    universe = tuple(f"u{i}" for i in range(size))
    pick = lambda: rng.randrange(1 << size)
    pairs = lambda: frozenset(
        (x, y) for x in range(size) for y in range(size) if rng.random() < 0.4
    )
    return Model(
        universe=universe,
        unary={"farmer": pick(), "donkey": pick()},
        binary={"owns": pairs(), "beats": pairs()},
        determiners={"every": "every", "a": "some"},
    )


def test_donkey_oracle_sweep(lexicon):
    """>= 500 random three-entity models agree with the brute-force oracle."""
    d = sentence_diagram(lexicon, DONKEY)
    rng = random.Random(991)
    start = time.monotonic()
    trues = 0
    for _ in range(500):
        m = random_donkey_model(rng)
        got = rel_true(eval_diagram_rel(d, m, k=2))
        assert got == donkey_oracle(m)
        trues += got
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert 0 < trues < 500  # both outcomes exercised


def test_eval_rejects_bad_k(lexicon, model_dogs):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    assert rel_true(eval_diagram_rel(d, model_dogs, k=3))  # caches its plan
    for k in (0, 4, 9):
        with pytest.raises(SemanticsError):
            eval_diagram_rel(d, model_dogs, k=k)
    with pytest.raises(DiagramError):  # the plan's bound, on the cached plan
        eval_diagram_rel(d, model_dogs, k=3, budget=1)


# ------------------------------------------------------------- plan reuse


def assert_matches_reference(d: Diagram, m: Model, k: int = 2) -> None:
    rel_pairs(d, m, k)  # asserts the relation is the reference's support
    assert eval_diagram_vec(d, m, k) == sum(reference_counts(d, m, k).values())


def test_plans_follow_the_universe_size(lexicon):
    d = sentence_diagram(lexicon, DONKEY)
    rng = random.Random(17)
    relsem._plan.cache_clear()
    for size in (2, 3, 2, 3):
        assert_matches_reference(d, random_donkey_model(rng, size))
    info = relsem._plan.cache_info()
    assert (info.misses, info.hits) == (2, 6)  # one plan per size, then reuse


def test_equal_diagram_reuses_the_plan(lexicon, model_donkey_true):
    d = sentence_diagram(lexicon, DONKEY)
    eval_diagram_rel(d, model_donkey_true)
    twin = diagram_from_json(export(d, "json"))
    assert twin == d and twin is not d
    hits = relsem._plan.cache_info().hits
    assert eval_diagram_vec(twin, model_donkey_true) == 32
    assert relsem._plan.cache_info().hits == hits + 1
    assert_matches_reference(twin, model_donkey_true)


def test_plan_is_built_once_per_size_and_k(lexicon, monkeypatch):
    d = sentence_diagram(lexicon, DONKEY)
    calls = Counter()

    def counting(name: str):
        real = getattr(relsem, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("typecheck_report", "extract_network"):
        monkeypatch.setattr(relsem, name, counting(name))
    relsem._plan.cache_clear()
    rng = random.Random(23)
    for _ in range(5):
        m = random_donkey_model(rng)
        assert rel_true(eval_diagram_rel(d, m)) == donkey_oracle(m)
    assert calls == {"typecheck_report": 1, "extract_network": 1}


def test_ill_typed_diagram_raises_on_every_call(model_dogs):
    bad = Diagram((Mult(),), (Edge(0, 0, 5, 0),))
    for _ in range(2):
        with pytest.raises(DiagramError):
            eval_diagram_rel(bad, model_dogs)



def test_donkey_matches_the_reference_at_four_entities(lexicon):
    d = sentence_diagram(lexicon, DONKEY)
    rng = random.Random(41)
    seen = Counter()
    while min(seen[True], seen[False]) < 2:
        m = random_donkey_model(rng, 4)
        truth = donkey_oracle(m)
        if seen[truth] == 2:
            continue
        seen[truth] += 1
        want = reference_counts(d, m, 2)
        assert relsem._witness_counts(d, m, 2) == want
        assert bool(want) == truth == rel_true(eval_diagram_rel(d, m, 2))


def test_donkey_builds_few_generator_entries(lexicon, monkeypatch):
    """Leaves built from the values that reach them stay small at |U| = 5:
    the whole relations come to about 23.5k entries per evaluation.  Models
    shaped like the benchmark's (one farmer and one donkey, six owns and
    six beats pairs) build at most 1,500; denser ones build more, because
    the lifted `a` box and Proj(2) are built from every value that reaches
    them (up to 992 and 1,024 entries)."""
    d = sentence_diagram(lexicon, DONKEY)
    built = []
    real = relsem.generator_entries

    def counted(*args):
        entries = real(*args)
        built.append(len(entries))
        return entries

    monkeypatch.setattr(relsem, "generator_entries", counted)
    rng = random.Random(5)
    models = [random_donkey_model(rng, 5) for _ in range(4)]
    everything = Model(
        universe=models[0].universe,
        unary={"farmer": 31, "donkey": 31},
        binary={"owns": frozenset(), "beats": frozenset()},
        determiners={"every": "every", "a": "some"},
    )
    cells = list(itertools.product(range(5), repeat=2))
    sparse = [
        Model(
            universe=models[0].universe,
            unary={name: 1 << rng.randrange(5) for name in ("farmer", "donkey")},
            binary={name: frozenset(rng.sample(cells, 6)) for name in ("owns", "beats")},
            determiners={"every": "every", "a": "some"},
        )
        for _ in range(8)
    ]

    def entries_built(m: Model) -> int:
        built.clear()
        assert rel_true(eval_diagram_rel(d, m, 2)) == donkey_oracle(m)
        return sum(built)

    for m in models + [everything]:
        assert 0 < entries_built(m) <= 2200
    for m in sparse:
        assert 0 < entries_built(m) <= 1500


def test_budget_below_the_plan_bound_raises_before_building(lexicon, monkeypatch):
    d = sentence_diagram(lexicon, DONKEY)
    m = random_donkey_model(random.Random(3), 5)
    bound = relsem._plan(d, 5, 2).bound
    built = []
    real = relsem.generator_entries
    monkeypatch.setattr(relsem, "generator_entries", lambda *a: built.append(a) or real(*a))
    with pytest.raises(DiagramError, match="budget"):
        eval_diagram_rel(d, m, 2, budget=bound - 1)
    assert built == []
    assert rel_true(eval_diagram_rel(d, m, 2, budget=bound)) == donkey_oracle(m)
    assert built
    # a Fock-lifted diagram is evaluated under the same budget
    lift = FockLift(Diagram((Mult(),), (), ((0, 0), (0, 1)), ((0, 0),)))
    with pytest.raises(DiagramError, match="budget"):
        real(lift, m, 2, None, 10)


@pytest.mark.parametrize("k", [2, 3])
def test_default_budget_evaluates_the_donkey_up_to_six_entities(lexicon, k):
    """The plan's bound holds every tensor it builds or outputs, and stays
    under the default budget up to |U| = 6."""
    d = sentence_diagram(lexicon, DONKEY)
    rng = random.Random(k)
    for size in range(1, 7):
        bound = relsem._plan(d, size, k).bound
        assert bound <= relsem.DEFAULT_CELL_BUDGET
        m = random_donkey_model(rng, size)
        seen = []
        token = TRACE.set(lambda r: seen.extend(r["entries_in"] + [r["entries_out"]]))
        try:
            assert rel_true(eval_diagram_rel(d, m, k)) == donkey_oracle(m)
        finally:
            TRACE.reset(token)
        assert 0 < max(seen) <= bound
