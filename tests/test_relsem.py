"""Relational semantics: carriers, word/generator relations, algebraic
laws, and the end-to-end truth conditions."""
from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
import time
import tracemalloc
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


def random_groups(rng: random.Random, g, m: Model, k: int, whole: set, ports: list):
    """`ports` split at random into groups of inputs and groups of outputs,
    each with a few of the values the whole relation takes at its ports and
    a few drawn from their carriers."""
    wires, n_in = g.ins + g.outs, len(g.ins)
    sides = [[p for p in ports if p < n_in], [p for p in ports if p >= n_in]]
    groups = []
    for side in sides:
        rng.shuffle(side)
    while sides[0] or sides[1]:
        side = sides[0] or sides[1]
        cut = rng.randint(1, len(side))
        group, side[:] = tuple(sorted(side[:cut])), side[cut:]
        taken = sorted({tuple(t[p] for p in group) for t in whole}, key=repr)
        values = set(rng.sample(taken, min(rng.randint(0, 3), len(taken))))
        carriers = [interp_object(wires[p], m, k) for p in group]
        values |= {tuple(map(rng.choice, carriers)) for _ in range(rng.randint(0, 2))}
        groups.append((group, values))
    return tuple(groups)


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_build_from_inputs_is_the_filtered_relation(size, k, monkeypatch):
    """Built on value sets at some of its ports, a generator gives exactly the
    tuples of its whole relation whose values there are among them (the
    empty set included): at some of its inputs, at all its outputs when
    they determine its inputs, and at any mix of input and output ports,
    one set per port or one over several inputs or several outputs.  When
    every output is carried and they are fewer than the fanout, a lifted
    determiner box tests them against each input instead of listing the
    outputs, and `Proj` and `Comult` go backwards from them when they are
    fewer than the inputs."""
    from lamsem.relsem import generator_entries

    tested = Counter()
    real = relsem._map_of

    def counted(g, *args):
        """`_map_of`, counting the calls of each generator's inverse and test."""
        outputs, domain, inputs, related = real(g, *args)

        def count(f, name):
            return f and (lambda x: tested.update([(type(g), name)]) or f(x))

        return outputs, domain, count(inputs, "inputs"), count(related, "related")

    monkeypatch.setattr(relsem, "_map_of", counted)
    m = map_model(size)
    rng = random.Random(1000 * size + k)
    mixed = random.Random(2000 * size + k)
    generators = input_driven_generators()
    assert {type(g) for g in generators} == set(relsem._MAPS)
    for g in generators:
        if relsem._carrier_product(g.ins, size, k) > 5000:
            continue  # the Fock-lifted Mult at |U| = 3, k = 3
        n_in, wires = len(g.ins), g.ins + g.outs
        whole = generator_entries(g, m, k)
        carrier = list(itertools.product(*(interp_object(w, m, k) for w in g.ins)))
        assert generator_entries(g, m, k, ((tuple(range(n_in)), carrier),)) == whole
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
                got = generator_entries(g, m, k, ((ports, keys),))
                assert got == want, (g.label, ports, keys)
        outs = list(range(n_in, len(wires)))
        for trial in range(8):
            # every output, with or without inputs, then any mix of ports
            ports = outs + mixed.sample(range(n_in), mixed.randint(0, n_in))
            if trial % 2:
                ports = mixed.sample(range(len(wires)), mixed.randint(1, len(wires)))
            carried = random_groups(mixed, g, m, k, whole, ports)
            want = {
                t for t in whole
                if all(tuple(t[p] for p in group) in vs for group, vs in carried)
            }
            assert generator_entries(g, m, k, carried) == want, (g.label, carried)
    # the lifted determiner box tested, Proj and Comult built backwards
    assert tested[DetBox, "related"] and tested[Proj, "inputs"] and tested[Comult, "inputs"]


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
    # one plan per size, then reuse; vec reads the counts rel kept on the model
    assert (info.misses, info.hits) == (2, 2)


def test_equal_diagram_reuses_the_plan(lexicon, model_donkey_true):
    d = sentence_diagram(lexicon, DONKEY)
    eval_diagram_rel(d, model_donkey_true)
    twin = diagram_from_json(export(d, "json"))
    assert twin == d and twin is not d
    # a content-equal model keeps no counts, so the plan is what gets reused
    model = Model.from_dict(model_donkey_true.to_dict())
    hits = relsem._plan.cache_info().hits
    assert eval_diagram_vec(twin, model) == 32
    assert relsem._plan.cache_info().hits == hits + 1
    assert_matches_reference(twin, model)


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


# ------------------------------------------------------------- kept counts


def counted_contractions(monkeypatch) -> list:
    """The calls of relsem.contract_network made from now on."""
    calls = []
    real = relsem.contract_network
    monkeypatch.setattr(relsem, "contract_network", lambda *a: calls.append(a) or real(*a))
    return calls


def test_rel_then_vec_contracts_once(lexicon, monkeypatch):
    d = sentence_diagram(lexicon, DONKEY)
    m = random_donkey_model(random.Random(3))
    calls = counted_contractions(monkeypatch)
    rel = eval_diagram_rel(d, m)
    assert eval_diagram_vec(d, m) == sum(reference_counts(d, m, 2).values())
    assert len(calls) == 1
    assert rel_true(rel) == donkey_oracle(m)
    # an equal diagram is the same key
    assert eval_diagram_vec(diagram_from_json(export(d, "json")), m) and len(calls) == 1
    other = sentence_diagram(lexicon, "every farmer owns a donkey")
    budget = relsem.DEFAULT_CELL_BUDGET
    for again in (
        lambda: eval_diagram_vec(d, m, 3),
        lambda: eval_diagram_vec(d, m, 2, budget - 1),
        lambda: eval_diagram_vec(other, m),
        lambda: eval_diagram_vec(d, dataclasses.replace(m)),
    ):
        eval_diagram_rel(d, m)  # kept: (d, 2, budget)
        before = len(calls)
        again()
        assert len(calls) == before + 1


def test_a_failed_evaluation_is_not_kept(lexicon, monkeypatch):
    d = sentence_diagram(lexicon, DONKEY)
    m = random_donkey_model(random.Random(3))
    calls = counted_contractions(monkeypatch)
    for read in (eval_diagram_rel, eval_diagram_vec):
        with pytest.raises(DiagramError, match="budget"):
            read(d, m, 2, 1)
    assert len(calls) == 2


def test_fock_lift_rel_then_vec_contracts_as_often_as_rel(monkeypatch):
    det = DetBox("a", parse_formula("np/n", ATOMS))
    lift = FockLift(Diagram((det,), (), ((0, 0),), ((0, 0),)))
    d = Diagram((Cap(lift.ins[0]), lift), (Edge(0, 1, 1, 0),), (), ((0, 0), (1, 0)))
    calls = counted_contractions(monkeypatch)
    eval_diagram_rel(d, map_model(2), 3)
    alone = len(calls)
    assert alone >= 2  # the inner diagram and the outer one
    m = map_model(2)
    rel = eval_diagram_rel(d, m, 3)
    scalar = eval_diagram_vec(d, m, 3)
    assert len(calls) == 2 * alone
    assert rel.pairs == rel_pairs(d, map_model(2), 3)
    assert scalar == sum(reference_counts(d, map_model(2), 3).values())


def test_copies_of_a_model_keep_no_counts(lexicon, model_donkey_true):
    m = Model.from_dict(model_donkey_true.to_dict())
    eval_diagram_rel(sentence_diagram(lexicon, DONKEY), m)
    assert "_last_counts" in vars(m)
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert twin == m and "_last_counts" not in vars(twin)



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
    """Leaves built on the values their wires take elsewhere stay small at
    |U| = 5: the whole relations come to about 23.5k entries per evaluation.
    Models shaped like the benchmark's (one farmer and one donkey, six owns
    and six beats pairs) build at most 746 entries; the denser ones at most
    2,053, on the model where every entity is a farmer and a donkey, whose
    lifted `a` box and Proj(2) keep 961 and 1,024 entries.  The bounds are
    those maxima plus 5%, rounded up to a multiple of 10."""
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
        assert 0 < entries_built(m) <= 2160
    for m in sparse:
        assert 0 < entries_built(m) <= 790


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


def test_outputs_carried_from_two_operands_hold_no_product(lexicon, monkeypatch):
    """A `Comult` or `Proj(2)` built on one input value and on 64 values at
    each output keeps only the tuples of its relation among them: it never
    holds the 4,096 pairs of output values, which the plan's bound does not
    count.  In a plan that builds `Proj(2)` on outputs from two operands, a
    budget below the bound still raises before anything is built."""
    from lamsem.relsem import generator_entries
    from test_vecsem import random_model

    m = map_model(6)
    subsets = {(x,) for x in interp_object(N, m, 2)}
    tracemalloc.start()
    try:
        pairs = set(itertools.product(subsets, repeat=2))
        held = tracemalloc.get_traced_memory()[0]
        del pairs
        for g in (Comult(), Proj(2, N)):
            whole = generator_entries(g, m, 2)
            carried = (((0,), {max(whole)[:1]}), ((1,), subsets), ((2,), subsets))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            got = generator_entries(g, m, 2, carried)
            assert tracemalloc.get_traced_memory()[1] - before < held / 10, g.label
            assert got == {t for t in whole if t[:1] in carried[0][1]}
    finally:
        tracemalloc.stop()
    d = sentence_diagram(lexicon, "john owns a donkey he beats it", "s.s", 2)
    plan = relsem._plan(d, 3, 2)
    assert any(
        isinstance(plan.net.tensors[slot].gen, Proj)
        and len({src for ports, src, _ in groups if ports[0] > 0}) == 2
        for step in plan.steps
        for slot, groups in zip(step[:2], step[6:8])
        if slot < len(plan.net.tensors)
    )
    m = random_model(random.Random(7), 3)
    built = []
    real = relsem.generator_entries
    monkeypatch.setattr(relsem, "generator_entries", lambda *a: built.append(a) or real(*a))
    with pytest.raises(DiagramError, match="budget"):
        relsem._witness_counts(d, m, 2, plan.bound - 1)
    assert built == []
    assert relsem._witness_counts(d, m, 2, plan.bound) == reference_counts(d, m, 2)


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


def sparse_donkey_model(rng: random.Random, size: int) -> Model:
    """A model past the default universe cap, read as a JSON object: a third
    of the entities are farmers and a third donkeys, with size + 1 owns and
    beats pairs."""
    universe = [f"e{i}" for i in range(size)]
    pairs = [[x, y] for x in universe for y in universe]
    return Model.from_dict(
        {
            "universe": universe,
            "unary": {n: rng.sample(universe, size // 3) for n in ("farmer", "donkey")},
            "binary": {n: rng.sample(pairs, size + 1) for n in ("owns", "beats")},
            "determiners": {"every": "every", "a": "some"},
        },
        universe_cap=10,
    )


@pytest.mark.parametrize("size", [7, 8])
def test_donkey_past_the_default_cap_builds_within_the_plan_bound(lexicon, size):
    """At |U| = 7 and 8, k = 2 and 3, on a true and a false model: the plan's
    bound holds every tensor it builds or outputs, the truth is the
    oracle's, and the lifted `a` box, built on the values its output wire
    takes in another operand, has no more entries than that operand."""
    d = sentence_diagram(lexicon, DONKEY)
    tensors = relsem._plan(d, size, 2).net.tensors
    (a_box,) = [
        n for n, tn in enumerate(tensors)
        if isinstance(tn.gen, DetBox) and isinstance(tn.gen.outs[0], FockWire)
    ]
    rng = random.Random(size)
    models = {}
    while len(models) < 2:
        m = sparse_donkey_model(rng, size)
        models.setdefault(donkey_oracle(m), m)
    for truth, m in models.items():
        for k in (2, 3):
            plan = relsem._plan(d, size, k)
            records = []
            token = TRACE.set(records.append)
            try:
                assert rel_true(eval_diagram_rel(d, m, k)) == truth
            finally:
                TRACE.reset(token)
            sizes = {}  # entries of each slot, as the trace reports them
            for r in records:
                sizes.update(zip(r["slots"], r["entries_in"]))
                sizes[len(tensors) + r["step"]] = r["entries_out"]
            assert 0 < max(sizes.values()) <= plan.bound
            (step,) = [s for s in plan.steps if a_box in s[:2]]
            groups = step[6] if step[0] == a_box else step[7]
            (source,) = [src for ports, src, _ in groups if 1 in ports]
            assert sizes[a_box] <= sizes[source]
