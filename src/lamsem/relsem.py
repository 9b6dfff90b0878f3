"""Finite relational semantics over the powerset of the universe.

Wire types denote finite carriers (``NWire`` = P(U), ``SWire`` = a one-point
set, ``FockWire(w)`` = the disjoint union of powers 1..k of w's carrier),
words and generators denote finite relations, and a sentence diagram
evaluates to a relation from the one-point set to itself: the sentence is
true iff that relation is non-empty.  A diagram's relation is computed as the
support of its exact witness counts (:func:`_witness_counts`), the same
contraction whose sum is the vector semantics.

A generator that maps inputs to outputs (``_MAPS``: determiner boxes,
``Mult``, ``Proj``, ``Comult``, ``Counit``, ``FockLift``) has one definition:
the outputs of one input tuple, its inverse for ``Proj`` and ``Comult``, and
a test of outputs for one input where it has many.  :func:`generator_entries`
builds it on the values other operands give its ports, carriers elsewhere.
The planner orders its steps by bounds on entry counts (:func:`_leaf_bound`)
that read only the generator's kind, |U| and k.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .diagram import (
    Cap,
    Counit,
    Comult,
    Cup,
    DetBox,
    Diagram,
    DiagramError,
    FockLift,
    FockWire,
    Generator,
    Id,
    Mult,
    NWire,
    ProductWire,
    Proj,
    State,
    SWire,
    Swap,
    Unit,
    WireType,
    bundle,
    flatten,
    formula_wires,
    typecheck_report,
)
from .formula import Atom, Bang, Formula, Over, Under, strip_nabla
from .model import Model, ModelError, SubsetId
from .planner import DEFAULT_CELL_BUDGET, Plan, _getter, contract_network, extract_network
from .planner import plan_network

STAR = "*"  # the unique inhabitant of the one-point carrier

DEFAULT_K = 2
MAX_K = 3
PLAN_CACHE_SIZE = 256  # contraction plans kept, one per (diagram, |U|, k)


class SemanticsError(ValueError):
    pass


# ------------------------------------------------------------------- carriers


def carrier_size(w: WireType, size: int, k: int) -> int:
    """Number of elements of w's carrier over a universe of `size` entities."""
    if isinstance(w, NWire):
        return 1 << size
    if isinstance(w, SWire):
        return 1
    if isinstance(w, ProductWire):
        n = 1
        for part in w.parts:
            n *= carrier_size(part, size, k)
        return n
    if isinstance(w, FockWire):
        base = carrier_size(w.inner, size, k)
        return sum(base**i for i in range(1, k + 1))
    raise SemanticsError(f"no carrier for wire type {w!r}")


def _carrier_product(ws: Iterable[WireType], size: int, k: int) -> int:
    return math.prod(carrier_size(w, size, k) for w in ws)


def interp_object(
    w: WireType, m: Model, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> list:
    """The finite carrier denoted by a wire type, canonically ordered."""
    if k < 1 or k > MAX_K:
        raise SemanticsError(f"copy bound k must be in 1..{MAX_K}")
    size = carrier_size(w, m.size, k)
    if size > budget:
        raise SemanticsError(
            f"carrier of size {size} for {w!r} exceeds the {budget} budget"
        )
    return list(_iter_carrier(w, m, k))


def _iter_carrier(w: WireType, m: Model, k: int) -> Iterator:
    if isinstance(w, NWire):
        yield from m.subsets()
    elif isinstance(w, SWire):
        yield STAR
    elif isinstance(w, ProductWire):
        yield from itertools.product(*(_iter_carrier(p, m, k) for p in w.parts))
    elif isinstance(w, FockWire):
        yield from _fock(_iter_carrier(w.inner, m, k), k)
    else:
        raise SemanticsError(f"no carrier for wire type {w!r}")


def _group(values: tuple):
    """One-point element for no wires, bare value for one, tuple otherwise."""
    if not values:
        return STAR
    if len(values) == 1:
        return values[0]
    return values


# ------------------------------------------------------------------ relations


@dataclass(frozen=True)
class FinRel:
    """A finite relation between the carriers of two wire-type tuples."""

    source: tuple[WireType, ...]
    target: tuple[WireType, ...]
    pairs: frozenset[tuple]  # of (source element, target element)

    @property
    def nonempty(self) -> bool:
        return bool(self.pairs)


def _entries_to_finrel(
    entries: Iterable[tuple], ins: tuple[WireType, ...], outs: tuple[WireType, ...]
) -> FinRel:
    n_in = len(ins)
    pairs = frozenset(
        (_group(tup[:n_in]), _group(tup[n_in:])) for tup in entries
    )
    return FinRel(ins, outs, pairs)


# ------------------------------------------------------------------- words


def _fock(values: Iterable, k: int) -> Iterator[tuple]:
    """The Fock elements ``(items, n)`` over `values`, for n = 1..k."""
    values = list(values)
    for n in range(1, k + 1):
        for items in itertools.product(values, repeat=n):
            yield (items, n)


def _det_images(word: str, lifted: bool, m: Model, k: int, a: SubsetId) -> list:
    """The noun-phrase values a determiner relates to the noun value `a`."""
    xs = sorted(m.interp_determiner(word, a))
    return list(_fock(xs, k)) if lifted else xs


def _word_shape(f: Formula) -> str | None:
    """A word's semantic role, read off its (nabla-free) formula shape.

    One of noun, vp, pronoun, tv, det, det! (Fock-lifted result) and bang
    (``!`` over another shape); None if no role fits.
    """
    if isinstance(f, Bang):
        return "bang"
    if isinstance(f, Atom) and f.name in ("n", "np"):
        return "noun"
    if isinstance(f, Under):
        left, right = strip_nabla(f.left), strip_nabla(f.right)
        if left == Atom("np") and right in (Atom("s"), Atom("np")):
            return "vp" if right == Atom("s") else "pronoun"
    if isinstance(f, Over):
        left, right = strip_nabla(f.left), strip_nabla(f.right)
        if (
            isinstance(left, Under)
            and strip_nabla(left.left) == Atom("np")
            and strip_nabla(left.right) == Atom("s")
            and right == Atom("np")
        ):
            return "tv"
        if right == Atom("n"):
            if left == Atom("np"):
                return "det"
            if isinstance(left, Bang) and strip_nabla(left.inner) == Atom("np"):
                return "det!"
    return None


def word_entries(word: str, f: Formula, m: Model, k: int) -> set[tuple]:
    """The relation a word denotes, as flat tuples over its output wires.

    The word's semantic role (noun, verb phrase, transitive verb,
    determiner, pronoun) is recovered from the formula shape; ``@`` is
    transparent and ``!`` lifts the underlying relation to tuples of
    length 1..k.
    """
    f = strip_nabla(f)
    shape = _word_shape(f)
    if shape == "bang":
        base = word_entries(word, f.inner, m, k)
        return {(x,) for x in _fock(sorted({_group(t) for t in base}, key=repr), k)}
    if shape == "noun":
        return {(m.unary_set(word),)}
    if shape == "vp":
        # verb phrase: {(A, *) | A = [[v]]}
        return {(m.unary_set(word), STAR)}
    if shape == "pronoun":
        # pronoun: the identity pass-through
        return {(a, a) for a in m.subsets()}
    if shape == "tv":
        # transitive verb: {(A, *, B) | A = [[v]](B)}
        return {(m.forward_image(word, b), STAR, b) for b in m.subsets()}
    if shape in ("det", "det!"):
        # determiner, result possibly Fock-lifted: np/n or !@np/n
        return {
            (x, a)
            for a in m.subsets()
            for x in _det_images(word, shape == "det!", m, k, a)
        }
    raise SemanticsError(
        f"no interpretation for {word!r} at formula shape {f!r}"
    )


def _word_bound(f: Formula, size: int, k: int) -> int:
    """An upper bound on the entries of ``word_entries`` at formula `f`."""
    f = strip_nabla(f)
    shape = _word_shape(f)
    if shape == "bang":
        base = _word_bound(f.inner, size, k)
        return sum(base**n for n in range(1, k + 1))
    if shape in ("noun", "vp"):
        return 1
    if shape in ("pronoun", "tv"):
        return 1 << size
    if shape in ("det", "det!"):
        return (1 << size) * carrier_size(formula_wires(f)[0], size, k)
    # no role: building it raises; any bound will do
    return _carrier_product(formula_wires(f), size, k)


def interp_word_rel(word: str, f: Formula, m: Model, k: int = DEFAULT_K) -> FinRel:
    return _entries_to_finrel(word_entries(word, f, m, k), (), formula_wires(f))


# ---------------------------------------------------------------- generators

# generators that map inputs to outputs, and those among them that give
# at most one output tuple for each input tuple
_FUNCTIONS = (Mult, Comult, Counit, Proj)
_MAPS = _FUNCTIONS + (DetBox, FockLift)


def _map_of(g: Generator, m: Model, k: int, budget: int = DEFAULT_CELL_BUDGET):
    """A generator in ``_MAPS``, defined once: (outputs, domain, inputs, related).

    ``outputs(ins)`` lists the output tuples related to one input tuple.
    `domain` holds every input tuple that has any output, drawn from the
    input carrier, so the relation is ``outputs`` taken over `domain`.
    ``inputs(outs)``, the inverse, lists the input tuples related to one
    output tuple where outputs determine inputs (``Proj``, ``Comult``).
    ``related(ins)`` tests output tuples for one input tuple where it has a
    Fock power of them (a lifted ``DetBox``): a Fock tuple is an image when
    its items are.
    """
    if isinstance(g, DetBox):
        lifted = isinstance(g.outs[0], FockWire)

        def related(ins):
            image = m.interp_determiner(g.word, ins[0])
            return lambda outs: image.issuperset(outs[0][0])

        return (
            lambda ins: [(x,) for x in _det_images(g.word, lifted, m, k, ins[0])],
            ((a,) for a in m.subsets()),
            None,
            related if lifted else None,
        )
    if isinstance(g, Mult):
        pairs = itertools.product(m.subsets(), repeat=2)
        return lambda ins: [(ins[0] & ins[1],)], pairs, None, None
    if isinstance(g, Comult):
        return (
            lambda ins: [ins + ins],
            ((a,) for a in _iter_carrier(g.wtype, m, k)),
            lambda outs: [outs[:1]] if outs[0] == outs[1] else [],
            None,
        )
    if isinstance(g, Counit):
        return lambda ins: [()], ((a,) for a in _iter_carrier(g.wtype, m, k)), None, None
    if isinstance(g, Proj):  # the n items' values, `width` each, in a row
        base = list(_iter_carrier(g.inner, m, k)) if g.n <= k else []
        width = len(flatten(g.inner))

        def outputs(ins):
            items, n = ins[0]
            if n != g.n:
                return []
            return [items if width == 1 else tuple(itertools.chain.from_iterable(items))]

        def inputs(outs):
            items = outs if width == 1 else tuple(zip(*[iter(outs)] * width))
            return [((items, g.n),)] if g.n <= k else []

        domain = (((items, g.n),) for items in itertools.product(base, repeat=g.n))
        return outputs, domain, inputs, None
    if isinstance(g, FockLift):
        n_in = len(g.inner.input_types())
        image: dict = {}
        for t in _witness_counts(g.inner, m, k, budget):
            image.setdefault(_group(t[:n_in]), []).append(_group(t[n_in:]))

        def outputs(ins):
            xs, n = ins[0]
            images = (image.get(x, ()) for x in xs)
            return [((ys, n),) for ys in itertools.product(*images)]

        return outputs, ((x,) for x in _fock(sorted(image, key=repr), k)), None, None
    raise SemanticsError(f"{g.label} does not map inputs to outputs")


def _tuples(groups) -> Iterable[tuple]:
    """The tuples over the ports of `groups`, ascending, whose values at each
    group's ports are among its own; listed lazily when there are several."""
    if len(groups) == 1:
        return groups[0][1]
    order = [p for group, _ in groups for p in group]
    parts = map(itertools.chain.from_iterable, itertools.product(*(v for _, v in groups)))
    return map(_getter(sorted(range(len(order)), key=order.__getitem__)), map(tuple, parts))


def generator_entries(
    g: Generator, m: Model, k: int, carried=None, budget: int = DEFAULT_CELL_BUDGET
) -> set[tuple]:
    """Flat relation tuples (ins then outs) of a single generator.

    With `carried`, (ports, values) pairs of a generator in ``_MAPS``, ports
    ascending and all inputs or all outputs: the tuples whose values at each
    pair's ports are among its values.  It lists the outputs of the carried
    inputs (times the carriers of the rest) and keeps the carried ones or,
    when all outputs are carried, goes backwards from them if they are
    fewer, or tests them against each input if fewer than the fanout bound.
    It holds no product of several pairs' values, only the tuples it lists.
    """
    if isinstance(g, _MAPS):
        outputs, domain, inputs, related = _map_of(g, m, k, budget)
        n_in = len(g.ins)
        at_ins = [c for c in carried or () if c[0][0] < n_in]
        at_outs = [c for c in carried or () if c[0][0] >= n_in]
        ins, n_ins = domain, math.inf
        if at_ins:  # and the carriers of the inputs no pair covers
            held = {p for ports, _ in at_ins for p in ports}
            at_ins += [((p,), [(x,) for x in _iter_carrier(w, m, k)])
                       for p, w in enumerate(g.ins) if p not in held]
            ins, n_ins = _tuples(at_ins), math.prod(len(v) for _, v in at_ins)
        every_out = at_outs and sum(len(ports) for ports, _ in at_outs) == len(g.outs)
        n_outs = every_out and math.prod(len(v) for _, v in at_outs)
        if every_out and inputs is not None and n_outs < n_ins:
            entries, unmet = {i + o for o in _tuples(at_outs) for i in inputs(o)}, at_ins
        elif every_out and related and n_outs < _carrier_product(g.outs, m.size, k):
            entries = {i + o for i in ins for o in filter(related(i), _tuples(at_outs))}
            unmet = ()
        else:  # the outputs carried, read at once when one pair holds them all
            one = at_outs[0][1] if every_out and len(at_outs) == 1 else None
            entries = {i + o for i in ins for o in outputs(i) if one is None or o in one}
            unmet = at_outs if one is None else ()
        for ports, values in unmet:
            get = _getter(ports)
            entries = {t for t in entries if get(t) in values}
        return entries
    if isinstance(g, State):
        return word_entries(g.word, g.formula, m, k)
    if isinstance(g, Unit):
        if g.wtype == SWire():
            return {(STAR,)}
        return {(m.full_set,)}
    if isinstance(g, (Cup, Cap, Id)):
        return {(a, a) for a in _iter_carrier(g.wtype, m, k)}
    if isinstance(g, Swap):
        ins = list(itertools.product(*(_iter_carrier(w, m, k) for w in g.ins)))
        na = len(g.a)
        return {tuple(v) + tuple(v[na:] + v[:na]) for v in ins}
    raise SemanticsError(f"no relational interpretation for {g.label}")


def _leaf_bound(g: Generator, size: int, k: int) -> tuple[int, int | None, int | None]:
    """Bounds on g's entries and, if g is in ``_MAPS``, on its fanout and (if
    its outputs determine its inputs) its fanin, or None.

    They read only the kind of g, |U| and k, so a plan can use them.
    """
    if isinstance(g, _MAPS):
        fanout = 1 if isinstance(g, _FUNCTIONS) else _carrier_product(g.outs, size, k)
        fanin = 1 if isinstance(g, (Proj, Comult)) else None
        return _carrier_product(g.ins, size, k) * fanout, fanout, fanin
    if isinstance(g, State):
        return _word_bound(g.formula, size, k), None, None
    if isinstance(g, Unit):
        return 1, None, None
    return _carrier_product(g.ins + g.outs, size, k), None, None


def generator_rel(g: Generator, m: Model, k: int = DEFAULT_K) -> FinRel:
    return _entries_to_finrel(generator_entries(g, m, k), g.ins, g.outs)


# ---------------------------------------------------------------- evaluation


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(d: Diagram, size: int, k: int) -> Plan:
    """Typecheck, extract and plan a diagram once per (diagram, |U|, k)."""
    report = typecheck_report(d)
    if report is not None:
        raise DiagramError(f"cannot evaluate an ill-typed diagram: {report}")
    return plan_network(
        extract_network(d),
        lambda w: carrier_size(w, size, k),
        lambda g: _leaf_bound(g, size, k),
    )


def _witness_counts(
    d: Diagram, m: Model, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> dict[tuple, int]:
    """Witness count of each boundary tuple (ins then outs) of a diagram.

    The one evaluation both backends share: the diagram's relation is the
    set of keys, its vector scalar (when closed) the sum of the values.
    Only the generator entries are built from `m`; the plan is reused.
    `m` keeps the counts of its last evaluation, so a second reading of the
    same ``(d, k, budget)`` does not contract again; the returned dict is
    shared and must not be changed.
    """
    if k < 1 or k > MAX_K:
        raise SemanticsError(f"copy bound k must be in 1..{MAX_K}")
    key = (d, k, budget)
    kept = m.__dict__.get("_last_counts")
    if kept is not None and kept[0] == key:
        return kept[1]
    counts = contract_network(
        _plan(d, m.size, k),
        lambda tn, carried: generator_entries(tn.gen, m, k, carried, budget),
        lambda w: carrier_size(w, m.size, k),
        budget,
    )
    object.__setattr__(m, "_last_counts", (key, counts))
    return counts


def eval_diagram_rel(
    d: Diagram, m: Model, k: int = DEFAULT_K, budget: int = DEFAULT_CELL_BUDGET
) -> FinRel:
    """Compose all generator relations along the diagram.

    For a sentence diagram (no inputs, one S output) the result is a
    relation from the one-point carrier to itself; the sentence is true
    iff the relation is non-empty.
    """
    entries = _witness_counts(d, m, k, budget)
    return _entries_to_finrel(entries, d.input_types(), d.output_types())


def rel_true(r: FinRel) -> bool:
    return r.nonempty
