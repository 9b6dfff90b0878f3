"""Finite relational semantics over the powerset of the universe.

Wire types denote finite carriers (``NWire`` = P(U), ``SWire`` = a one-point
set, ``FockWire(w)`` = the disjoint union of powers 1..k of w's carrier),
words and generators denote finite relations, and a sentence diagram
evaluates to a relation from the one-point set to itself: the sentence is
true iff that relation is non-empty.  A diagram's relation is computed as the
support of its exact witness counts (:func:`_witness_counts`), the same
contraction whose sum is the vector semantics.
"""
from __future__ import annotations

import itertools
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
    formula_wires,
    typecheck_report,
)
from .formula import Atom, Bang, Formula, Nabla, Over, Under
from .model import Model, ModelError, SubsetId
from .planner import DEFAULT_CELL_BUDGET, contract_network, extract_network

STAR = "*"  # the unique inhabitant of the one-point carrier

DEFAULT_K = 2
MAX_K = 3


class SemanticsError(ValueError):
    pass


# ------------------------------------------------------------------- carriers


def carrier_size(w: WireType, m: Model, k: int) -> int:
    if isinstance(w, NWire):
        return 1 << m.size
    if isinstance(w, SWire):
        return 1
    if isinstance(w, ProductWire):
        n = 1
        for part in w.parts:
            n *= carrier_size(part, m, k)
        return n
    if isinstance(w, FockWire):
        base = carrier_size(w.inner, m, k)
        return sum(base**i for i in range(1, k + 1))
    raise SemanticsError(f"no carrier for wire type {w!r}")


def interp_object(
    w: WireType, m: Model, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> list:
    """The finite carrier denoted by a wire type, canonically ordered."""
    if k < 1:
        raise SemanticsError("copy bound k must be >= 1")
    size = carrier_size(w, m, k)
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
        base = list(_iter_carrier(w.inner, m, k))
        for n in range(1, k + 1):
            for items in itertools.product(base, repeat=n):
                yield (items, n)
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


def _strip_nabla(f: Formula) -> Formula:
    while isinstance(f, Nabla):
        f = f.inner
    return f


def word_entries(word: str, f: Formula, m: Model, k: int) -> set[tuple]:
    """The relation a word denotes, as flat tuples over its output wires.

    The word's semantic role (noun, verb phrase, transitive verb,
    determiner, pronoun) is recovered from the formula shape; ``@`` is
    transparent and ``!`` lifts the underlying relation to tuples of
    length 1..k.
    """
    f = _strip_nabla(f)
    if isinstance(f, Bang):
        inner = _strip_nabla(f.inner)
        base = word_entries(word, inner, m, k)
        elems = sorted({_group(t) for t in base}, key=repr)
        out: set[tuple] = set()
        for n in range(1, k + 1):
            for items in itertools.product(elems, repeat=n):
                out.add(((tuple(items), n),))
        return out
    if isinstance(f, Atom) and f.name in ("n", "np"):
        return {(m.unary_set(word),)}
    if isinstance(f, Under):
        left, right = _strip_nabla(f.left), _strip_nabla(f.right)
        if left == Atom("np") and right == Atom("s"):
            # verb phrase: {(A, *) | A = [[v]]}
            return {(m.unary_set(word), STAR)}
        if left == Atom("np") and right == Atom("np"):
            # pronoun: the identity pass-through
            return {(a, a) for a in m.subsets()}
    if isinstance(f, Over):
        left, right = _strip_nabla(f.left), _strip_nabla(f.right)
        if (
            isinstance(left, Under)
            and _strip_nabla(left.left) == Atom("np")
            and _strip_nabla(left.right) == Atom("s")
            and right == Atom("np")
        ):
            # transitive verb: {(A, *, B) | A = [[v]](B)}
            return {(m.forward_image(word, b), STAR, b) for b in m.subsets()}
        if right == Atom("n"):
            # determiner, result possibly Fock-lifted: np/n or !@np/n
            res = _strip_nabla(left)
            lifted = isinstance(res, Bang)
            if lifted:
                res = _strip_nabla(res.inner)
            if res == Atom("np"):
                out = set()
                for a in m.subsets():
                    xs = sorted(m.interp_determiner(word, a))
                    if lifted:
                        for n in range(1, k + 1):
                            for items in itertools.product(xs, repeat=n):
                                out.add(((tuple(items), n), a))
                    else:
                        out.update((x, a) for x in xs)
                return out
    raise SemanticsError(
        f"no interpretation for {word!r} at formula shape {f!r}"
    )


def interp_word_rel(word: str, f: Formula, m: Model, k: int = DEFAULT_K) -> FinRel:
    return _entries_to_finrel(word_entries(word, f, m, k), (), formula_wires(f))


# ---------------------------------------------------------------- generators


def generator_entries(g: Generator, m: Model, k: int) -> set[tuple]:
    """Flat relation tuples (ins then outs) of a single generator."""
    if isinstance(g, State):
        return word_entries(g.word, g.formula, m, k)
    if isinstance(g, DetBox):
        out: set[tuple] = set()
        lifted = isinstance(g.outs[0], FockWire)
        for a in m.subsets():
            xs = sorted(m.interp_determiner(g.word, a))
            if lifted:
                for n in range(1, k + 1):
                    for items in itertools.product(xs, repeat=n):
                        out.add((a, (tuple(items), n)))
            else:
                out.update((a, x) for x in xs)
        return out
    if isinstance(g, Mult):
        return {(a, b, a & b) for a in m.subsets() for b in m.subsets()}
    if isinstance(g, Unit):
        if g.wtype == SWire():
            return {(STAR,)}
        return {(m.full_set,)}
    if isinstance(g, Comult):
        return {(a, a, a) for a in _iter_carrier(g.wtype, m, k)}
    if isinstance(g, Counit):
        return {(a,) for a in _iter_carrier(g.wtype, m, k)}
    if isinstance(g, Cup):
        return {(a, a) for a in _iter_carrier(g.wtype, m, k)}
    if isinstance(g, Cap):
        return {(a, a) for a in _iter_carrier(g.wtype, m, k)}
    if isinstance(g, Id):
        return {(a, a) for a in _iter_carrier(g.wtype, m, k)}
    if isinstance(g, Swap):
        ins = list(itertools.product(*(_iter_carrier(w, m, k) for w in g.ins)))
        na = len(g.a)
        return {tuple(v) + tuple(v[na:] + v[:na]) for v in ins}
    if isinstance(g, Proj):
        inner = g.ins[0]
        assert isinstance(inner, FockWire)
        base = list(_iter_carrier(inner.inner, m, k))
        if g.n > k:
            return set()
        return {
            ((items, g.n),) + items
            for items in itertools.product(base, repeat=g.n)
        }
    if isinstance(g, FockLift):
        base = _witness_counts(g.inner, m, k)
        n_in = len(g.inner.input_types())
        graph = sorted(
            {(_group(t[:n_in]), _group(t[n_in:])) for t in base}, key=repr
        )
        out = set()
        for n in range(1, k + 1):
            for pairs in itertools.product(graph, repeat=n):
                src = (tuple(p[0] for p in pairs), n)
                dst = (tuple(p[1] for p in pairs), n)
                out.add((src, dst))
        return out
    raise SemanticsError(f"no relational interpretation for {g.label}")


def generator_rel(g: Generator, m: Model, k: int = DEFAULT_K) -> FinRel:
    return _entries_to_finrel(generator_entries(g, m, k), g.ins, g.outs)


# ---------------------------------------------------------------- evaluation


def _witness_counts(
    d: Diagram, m: Model, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> dict[tuple, int]:
    """Witness count of each boundary tuple (ins then outs) of a diagram.

    The one evaluation both backends share: the diagram's relation is the
    set of keys, its vector scalar (when closed) the sum of the values.
    """
    if k < 1 or k > MAX_K:
        raise SemanticsError(f"copy bound k must be in 1..{MAX_K}")
    report = typecheck_report(d)
    if report is not None:
        raise DiagramError(f"cannot evaluate an ill-typed diagram: {report}")
    result = contract_network(
        extract_network(d),
        lambda tn: generator_entries(tn.gen, m, k),
        lambda w: carrier_size(w, m, k),
        budget,
    )
    return result.entries


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
