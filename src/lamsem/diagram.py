"""Typed string diagrams: compilation from proofs, lexical wiring
substitution, and JSON/DOT export.

A diagram is a DAG of generator nodes with typed ports.  Every node input
port is fed by exactly one edge or by the diagram's input boundary; every
node output port feeds exactly one edge, one output boundary slot, or is
explicitly discarded (allowed only for the one-point sentence wire, where
discarding is semantically a no-op).

A proof compiles straight into one port graph: each rule wires up the wire
bundles of its premises, and a Perm only reorders bundles, so a compiled
diagram has no Swap.  :func:`substitute_wirings` is the one place where
tagged words are rewritten (determiner boxes, pronouns, relative pronouns)
and where wire crossings are drawn as Swaps.

Swaps are spliced out once, as a diagram is loaded into the mutable port
graph (``_Mut.from_diagram``).  Wiring substitution rewrites that swap-free
graph, and :func:`swap_erased_key` reads its key off it.  The union-find of
:func:`lamsem.planner.extract_network` is still the planner's own wire-alias
pass.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar, Optional, Sequence

from .formula import (
    Atom,
    Bang,
    DEFAULT_ATOMS,
    Formula,
    Nabla,
    Over,
    Tensor,
    Under,
    format_formula,
    parse_formula,
    strip_nabla,
)
from .lexicon import (
    Lexicon,
    WIRING_DETBOX,
    WIRING_PRONOUN,
    WIRING_RELPRO,
)
from .prover import (
    AXIOM,
    BANG_L,
    BANG_R,
    NABLA_L,
    NABLA_R,
    OVER_L,
    OVER_R,
    PERM,
    ProofTree,
    TENSOR_L,
    TENSOR_R,
    TRACE,
    UNDER_L,
    UNDER_R,
)

SCHEMA_VERSION = 1


class DiagramError(ValueError):
    pass


# ---------------------------------------------------------------- wire types


class WireType:
    __slots__ = ()


@dataclass(frozen=True)
class NWire(WireType):
    pass


@dataclass(frozen=True)
class SWire(WireType):
    pass


@dataclass(frozen=True)
class FockWire(WireType):
    inner: WireType


@dataclass(frozen=True)
class ProductWire(WireType):
    parts: tuple[WireType, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise DiagramError("ProductWire needs at least two parts")
        if any(isinstance(p, ProductWire) for p in self.parts):
            raise DiagramError("ProductWire parts must be flat")


def bundle(ws: Sequence[WireType]) -> WireType:
    if len(ws) == 1:
        return ws[0]
    return ProductWire(tuple(ws))


def flatten(w: WireType) -> tuple[WireType, ...]:
    if isinstance(w, ProductWire):
        return w.parts
    return (w,)


def formula_wires(f: Formula) -> tuple[WireType, ...]:
    """Flat wire list of a formula's interpretation."""
    if isinstance(f, Atom):
        return (SWire(),) if f.name == "s" else (NWire(),)
    if isinstance(f, Under):  # A \ B
        return tuple(reversed(formula_wires(f.left))) + formula_wires(f.right)
    if isinstance(f, Over):  # B / A
        return formula_wires(f.left) + tuple(reversed(formula_wires(f.right)))
    if isinstance(f, Tensor):
        return formula_wires(f.left) + formula_wires(f.right)
    if isinstance(f, Bang):
        return (FockWire(bundle(formula_wires(f.inner))),)
    if isinstance(f, Nabla):
        return formula_wires(f.inner)
    raise DiagramError(f"unknown formula node {f!r}")


def wtype_to_str(w: WireType) -> str:
    if isinstance(w, NWire):
        return "N"
    if isinstance(w, SWire):
        return "S"
    if isinstance(w, FockWire):
        return f"F({wtype_to_str(w.inner)})"
    if isinstance(w, ProductWire):
        return "P(" + ",".join(wtype_to_str(p) for p in w.parts) + ")"
    raise DiagramError(f"unknown wire type {w!r}")


def wtype_from_str(text: str) -> WireType:
    pos = 0

    def parse() -> WireType:
        nonlocal pos
        if text.startswith("N", pos):
            pos += 1
            return NWire()
        if text.startswith("S", pos):
            pos += 1
            return SWire()
        for head, cls in (("F(", FockWire), ("P(", ProductWire)):
            if text.startswith(head, pos):
                pos += 2
                parts = [parse()]
                while pos < len(text) and text[pos] == ",":
                    pos += 1
                    parts.append(parse())
                if pos >= len(text) or text[pos] != ")":
                    raise DiagramError(f"bad wire type string {text!r}")
                pos += 1
                if cls is FockWire:
                    if len(parts) != 1:
                        raise DiagramError(f"bad wire type string {text!r}")
                    return FockWire(parts[0])
                return ProductWire(tuple(parts))
        raise DiagramError(f"bad wire type string {text!r}")

    w = parse()
    if pos != len(text):
        raise DiagramError(f"bad wire type string {text!r}")
    return w


# ---------------------------------------------------------------- generators


class Generator:
    __slots__ = ()

    @property
    def ins(self) -> tuple[WireType, ...]:
        raise NotImplementedError

    @property
    def outs(self) -> tuple[WireType, ...]:
        raise NotImplementedError

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class State(Generator):
    word: str
    formula: Formula

    @property
    def ins(self) -> tuple[WireType, ...]:
        return ()

    @cached_property
    def outs(self) -> tuple[WireType, ...]:
        return formula_wires(self.formula)

    @property
    def label(self) -> str:
        return f"{self.word} : {format_formula(self.formula)}"


@dataclass(frozen=True)
class DetBox(Generator):
    """Determiner box: noun wire in, quantified noun-phrase wire out."""

    word: str
    formula: Formula  # un-banged determiner formula with matrix X / n

    def __post_init__(self) -> None:
        m = strip_nabla(self.formula)
        if not (isinstance(m, Over) and m.right == Atom("n")):
            raise DiagramError(f"DetBox formula must have matrix X/n: {m!r}")
        if len(formula_wires(m.left)) != 1:
            raise DiagramError("DetBox result must be a single wire")

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (NWire(),)

    @cached_property
    def outs(self) -> tuple[WireType, ...]:
        return formula_wires(strip_nabla(self.formula).left)

    @property
    def label(self) -> str:
        return f"{self.word} : det"


@dataclass(frozen=True)
class _Spider(Generator):
    """A generator whose ports all carry copies of one wire type; each kind
    gives only its (inputs, outputs) arity."""

    wtype: WireType = NWire()
    arity: ClassVar[tuple[int, int]]

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (self.wtype,) * self.arity[0]

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (self.wtype,) * self.arity[1]


class Cup(_Spider):
    arity = (2, 0)


class Cap(_Spider):
    arity = (0, 2)


class Id(_Spider):
    arity = (1, 1)


class Mult(_Spider):
    arity = (2, 1)


class Unit(_Spider):
    arity = (0, 1)


class Comult(_Spider):
    arity = (1, 2)


class Counit(_Spider):
    arity = (1, 0)


@dataclass(frozen=True)
class Swap(Generator):
    """Block swap: wires of block `a` cross over block `b`."""

    a: tuple[WireType, ...]
    b: tuple[WireType, ...]

    @property
    def ins(self) -> tuple[WireType, ...]:
        return self.a + self.b

    @property
    def outs(self) -> tuple[WireType, ...]:
        return self.b + self.a

    def through(self, in_port: int) -> int:
        """Output port carrying the wire entering at `in_port`."""
        if in_port < len(self.a):
            return len(self.b) + in_port
        return in_port - len(self.a)


@dataclass(frozen=True)
class Proj(Generator):
    """Fock projection onto the arity-`n` block, with flattened outputs."""

    n: int
    inner: WireType

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DiagramError("Proj arity must be at least 1")

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (FockWire(self.inner),)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return flatten(self.inner) * self.n

    @property
    def label(self) -> str:
        return f"Proj({self.n})"


@dataclass(frozen=True)
class FockLift(Generator):
    """Fock functor applied to the morphism denoted by an inner diagram."""

    inner: Diagram

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (FockWire(bundle(self.inner.input_types())),)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (FockWire(bundle(self.inner.output_types())),)


# ---------------------------------------------------------------- diagrams


@dataclass(frozen=True)
class Edge:
    src: int
    src_port: int
    dst: int
    dst_port: int


Port = tuple[int, int]


@dataclass(frozen=True)
class Diagram:
    nodes: tuple[Generator, ...]
    edges: tuple[Edge, ...]
    inputs: tuple[Port, ...] = ()  # node input ports fed by the boundary
    outputs: tuple[Port, ...] = ()  # node output ports on the boundary
    discarded: frozenset[Port] = frozenset()  # discarded node output ports

    def input_types(self) -> tuple[WireType, ...]:
        return tuple(self.nodes[n].ins[p] for n, p in self.inputs)

    def output_types(self) -> tuple[WireType, ...]:
        return tuple(self.nodes[n].outs[p] for n, p in self.outputs)

    def non_lexical_multiset(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.nodes:
            if isinstance(g, (State, DetBox)):
                continue
            key = g.label if isinstance(g, Proj) else type(g).__name__
            out[key] = out.get(key, 0) + 1
        return out


# ---------------------------------------------------------------- typecheck


def typecheck_report(d: Diagram) -> Optional[str]:
    """None if well-typed, else a description of the first offence."""
    n = len(d.nodes)
    fed: dict[Port, int] = {}
    used: dict[Port, int] = {}
    for e in d.edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            return f"edge {e} references a missing node"
        src_outs = d.nodes[e.src].outs
        dst_ins = d.nodes[e.dst].ins
        if e.src_port >= len(src_outs):
            return f"edge {e} uses a missing output port"
        if e.dst_port >= len(dst_ins):
            return f"edge {e} uses a missing input port"
        if src_outs[e.src_port] != dst_ins[e.dst_port]:
            return (
                f"edge {e} joins {wtype_to_str(src_outs[e.src_port])}"
                f" to {wtype_to_str(dst_ins[e.dst_port])}"
            )
        used[(e.src, e.src_port)] = used.get((e.src, e.src_port), 0) + 1
        fed[(e.dst, e.dst_port)] = fed.get((e.dst, e.dst_port), 0) + 1
    for nid, port in d.inputs:
        if not (0 <= nid < n and port < len(d.nodes[nid].ins)):
            return f"input boundary references missing port ({nid}, {port})"
        fed[(nid, port)] = fed.get((nid, port), 0) + 1
    for nid, port in d.outputs:
        if not (0 <= nid < n and port < len(d.nodes[nid].outs)):
            return f"output boundary references missing port ({nid}, {port})"
        used[(nid, port)] = used.get((nid, port), 0) + 1
    for nid, port in d.discarded:
        if not (0 <= nid < n and port < len(d.nodes[nid].outs)):
            return f"discard set references missing port ({nid}, {port})"
        if d.nodes[nid].outs[port] != SWire():
            return f"only sentence wires may be discarded: ({nid}, {port})"
        used[(nid, port)] = used.get((nid, port), 0) + 1
    for nid, g in enumerate(d.nodes):
        for port in range(len(g.ins)):
            if fed.get((nid, port), 0) != 1:
                return f"input port ({nid}, {port}) fed {fed.get((nid, port), 0)} times"
        for port in range(len(g.outs)):
            if used.get((nid, port), 0) != 1:
                return (
                    f"output port ({nid}, {port})"
                    f" consumed {used.get((nid, port), 0)} times"
                )
    # acyclicity
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for e in d.edges:
        if e.dst not in adj[e.src]:
            adj[e.src].add(e.dst)
            indeg[e.dst] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != n:
        return "diagram contains a cycle"
    return None


# ---------------------------------------------------------------- mutable form


class _Mut:
    """Mutable port-graph used during rewriting."""

    def __init__(self) -> None:
        self.gens: dict[int, Generator] = {}
        self._next = 0
        self.dst_of: dict[Port, Port] = {}  # out port -> in port
        self.src_of: dict[Port, Port] = {}  # in port -> out port
        self.inputs: list[Port] = []  # in ports fed by boundary
        self.outputs: list[Port] = []  # out ports on boundary
        self.discarded: set[Port] = set()

    def add(self, gen: Generator) -> int:
        nid = self._next
        self._next += 1
        self.gens[nid] = gen
        return nid

    def connect(self, out_port: Port, in_port: Port) -> None:
        self.dst_of[out_port] = in_port
        self.src_of[in_port] = out_port

    def disconnect(self, out_port: Port) -> None:
        in_port = self.dst_of.pop(out_port)
        del self.src_of[in_port]

    def remove_node(self, nid: int) -> None:
        gen = self.gens.pop(nid)
        for port in range(len(gen.ins)):
            src = self.src_of.pop((nid, port), None)
            if src is not None:
                self.dst_of.pop(src, None)
        for port in range(len(gen.outs)):
            p = (nid, port)
            if p in self.dst_of:
                in_port = self.dst_of.pop(p)
                self.src_of.pop(in_port, None)
            self.discarded.discard(p)

    def rewire_out(self, old: Port, new: Port) -> None:
        """Whatever consumed output `old` now consumes output `new`."""
        if old in self.dst_of:
            in_port = self.dst_of.pop(old)
            self.connect(new, in_port)
        elif old in self.discarded:
            self.discarded.discard(old)
            self.discarded.add(new)
        else:
            self.outputs = [new if p == old else p for p in self.outputs]

    def rewire_in(self, old: Port, new: Port) -> None:
        """Whatever fed input `old` now feeds input `new`."""
        if old in self.src_of:
            out_port = self.src_of.pop(old)
            self.connect(out_port, new)
        else:
            self.inputs = [new if p == old else p for p in self.inputs]

    @classmethod
    def from_diagram(cls, d: Diagram) -> "_Mut":
        """The port graph of `d`, with every Swap spliced out: each wire
        through a Swap connects its two ends straight (through an Id if
        both are on the boundary), and node ids are those of `d`."""
        m = cls()
        for gen in d.nodes:
            m.add(gen)
        for e in d.edges:
            m.connect((e.src, e.src_port), (e.dst, e.dst_port))
        m.inputs = list(d.inputs)
        m.outputs = list(d.outputs)
        m.discarded = set(d.discarded)
        for nid, gen in enumerate(d.nodes):
            if isinstance(gen, Swap):
                m._splice(nid, gen)
        return m

    def _splice(self, nid: int, gen: Swap) -> None:
        for p in range(len(gen.ins)):
            out = (nid, gen.through(p))
            src = self.src_of.get((nid, p))
            if src is not None:
                self.disconnect(src)
                self.rewire_out(out, src)
            elif out in self.dst_of:
                dst = self.dst_of[out]
                self.disconnect(out)
                self.rewire_in((nid, p), dst)
            else:  # from the input boundary to the output boundary or a discard
                keep = self.add(Id(gen.ins[p]))
                self.rewire_in((nid, p), (keep, 0))
                self.rewire_out(out, (keep, 0))
        del self.gens[nid]

    def freeze(self) -> Diagram:
        order = sorted(self.gens)
        remap = {nid: i for i, nid in enumerate(order)}
        nodes = tuple(self.gens[nid] for nid in order)
        edges = tuple(
            Edge(remap[s], sp, remap[t], tp)
            for (s, sp), (t, tp) in sorted(self.dst_of.items())
        )
        return Diagram(
            nodes=nodes,
            edges=edges,
            inputs=tuple((remap[nid], p) for nid, p in self.inputs),
            outputs=tuple((remap[nid], p) for nid, p in self.outputs),
            discarded=frozenset((remap[nid], p) for nid, p in self.discarded),
        )


# ---------------------------------------------------------------- compilation


class _Wire:
    """A wire of the graph being compiled: one producer and one consumer."""

    __slots__ = ("wtype", "src", "dst")

    def __init__(self, wtype: WireType):
        self.wtype = wtype
        self.src: Optional[Port] = None
        self.dst: Optional[Port] = None


_Slots = list[list[_Wire]]


def _perm_mapping(src: int, dst: int, n: int) -> list[int]:
    """conclusion position -> premise position for one Perm move."""
    rest = [i for i in range(n) if i != src]
    return rest[:dst] + [src] + rest[dst:]


def _expect(ws: list[_Wire], f: Formula, rule: str) -> None:
    """A premise's bundle of wires must have the wire types of formula `f`."""
    if tuple(w.wtype for w in ws) != formula_wires(f):
        raise DiagramError(f"{rule} puts other wires where {format_formula(f)} stands")


class _Compiler:
    """Compiles a proof straight into one port graph.

    Each rule returns the wire bundles of its conclusion's antecedent
    formulas (slots) and the wires of its succedent.  A Perm only reorders
    slots: the crossings are drawn by :func:`substitute_wirings`.
    """

    def __init__(self) -> None:
        self.nodes: list[Generator] = []
        self.wires: list[_Wire] = []

    def add(self, gen: Generator) -> int:
        self.nodes.append(gen)
        return len(self.nodes) - 1

    def wire(self, wtype: WireType) -> _Wire:
        w = _Wire(wtype)
        self.wires.append(w)
        return w

    def fresh(self, f: Formula) -> list[_Wire]:
        return [self.wire(w) for w in formula_wires(f)]

    @staticmethod
    def set_src(w: _Wire, nid: int, port: int) -> None:
        if w.src is not None:
            raise DiagramError("wire already has a producer")
        w.src = (nid, port)

    @staticmethod
    def set_dst(w: _Wire, nid: int, port: int) -> None:
        if w.dst is not None:
            raise DiagramError("wire already has a consumer")
        w.dst = (nid, port)

    def finalize(self, inputs: list[_Wire], outputs: list[_Wire]) -> Diagram:
        outputs = list(outputs)
        for w in inputs:
            if w.dst is None and w in outputs:  # straight through: realize with Id
                nid = self.add(Id(w.wtype))
                w.dst = (nid, 0)
                outputs[outputs.index(w)] = out = self.wire(w.wtype)
                out.src = (nid, 0)
        for w in self.wires:  # each end is a port or the boundary, never both
            if (w.src is None) != (w in inputs) or (w.dst is None) != (w in outputs):
                raise DiagramError("wire needs one producer and one consumer")
        edges = [Edge(*w.src, *w.dst) for w in self.wires if w.src and w.dst]
        return Diagram(
            nodes=tuple(self.nodes),
            edges=tuple(sorted(edges, key=lambda e: (e.src, e.src_port))),
            inputs=tuple(w.dst for w in inputs),
            outputs=tuple(w.src for w in outputs),
        )

    def compile(self, t: ProofTree) -> tuple[_Slots, list[_Wire]]:
        ant = t.conclusion.antecedent
        rule = t.rule
        if rule == AXIOM:
            ws = self.fresh(ant[0])
            return [ws], list(ws)
        if rule == PERM:
            return self._compile_perm(t)
        if rule == UNDER_L:
            pos, sl = t.get("pos"), t.get("sigma_len")
            f = ant[pos]
            assert isinstance(f, Under)
            s1, a_out = self.compile(t.premises[0])
            s2, c_out = self.compile(t.premises[1])
            _expect(s2[pos - sl], f.right, rule)
            arg = self.fresh(f.left)
            for a, w in zip(a_out, arg):
                cup = self.add(Cup(a.wtype))
                self.set_dst(a, cup, 0)
                self.set_dst(w, cup, 1)
            impl = arg[::-1] + s2[pos - sl]
            slots = s2[: pos - sl] + s1 + [impl] + s2[pos - sl + 1 :]
            return slots, c_out
        if rule == OVER_L:
            pos = t.get("pos")
            f = ant[pos]
            assert isinstance(f, Over)
            s1, a_out = self.compile(t.premises[0])
            s2, c_out = self.compile(t.premises[1])
            _expect(s2[pos], f.left, rule)
            arg = self.fresh(f.right)
            for a, w in reversed(list(zip(a_out, arg))):
                cup = self.add(Cup(a.wtype))
                self.set_dst(w, cup, 0)
                self.set_dst(a, cup, 1)
            impl = s2[pos] + arg[::-1]
            slots = s2[:pos] + [impl] + s1 + s2[pos + 1 :]
            return slots, c_out
        if rule == TENSOR_L:
            pos = t.get("pos")
            s, c_out = self.compile(t.premises[0])
            slots = s[:pos] + [s[pos] + s[pos + 1]] + s[pos + 2 :]
            return slots, c_out
        if rule == TENSOR_R:
            s1, a_out = self.compile(t.premises[0])
            s2, b_out = self.compile(t.premises[1])
            return s1 + s2, a_out + b_out
        if rule in (UNDER_R, OVER_R):  # each argument wire bends up on a Cap
            s, b_out = self.compile(t.premises[0])
            under = rule == UNDER_R
            caps = []
            for w in s[0] if under else s[-1]:
                cap = self.add(Cap(w.wtype))
                self.set_src(w, cap, int(under))
                caps.insert(0, self.wire(w.wtype))
                self.set_src(caps[0], cap, int(not under))
            return (s[1:], caps + b_out) if under else (s[:-1], b_out + caps)
        if rule == BANG_L:
            pos, copies = t.get("pos"), t.get("n")
            f = ant[pos]
            assert isinstance(f, Bang)
            s, c_out = self.compile(t.premises[0])
            if pos + copies > len(s):
                raise DiagramError(f"{rule} takes {copies} copies past the antecedent")
            for c in range(copies):
                _expect(s[pos + c], f.inner, rule)
            inner_ws = formula_wires(f.inner)
            proj = self.add(Proj(copies, bundle(inner_ws)))
            fock_w = self.wire(FockWire(bundle(inner_ws)))
            self.set_dst(fock_w, proj, 0)
            width = len(inner_ws)
            for c in range(copies):
                for i in range(width):
                    self.set_src(s[pos + c][i], proj, c * width + i)
            slots = s[:pos] + [[fock_w]] + s[pos + copies :]
            return slots, c_out
        if rule in (NABLA_L, NABLA_R):
            return self.compile(t.premises[0])
        if rule == BANG_R:
            lift = FockLift(_compile_open(t.premises[0]))
            nid = self.add(lift)
            win = self.wire(lift.ins[0])
            wout = self.wire(lift.outs[0])
            self.set_dst(win, nid, 0)
            self.set_src(wout, nid, 0)
            return [[win]], [wout]
        raise DiagramError(f"cannot compile rule {rule!r} (cut-free proofs only)")

    def _compile_perm(self, t: ProofTree) -> tuple[_Slots, list[_Wire]]:
        """A maximal chain of Perm nodes reorders the premise's bundles."""
        ant = t.conclusion.antecedent
        n = len(ant)
        mapping = list(range(n))  # conclusion position -> current position
        node = t
        while node.rule == PERM:
            src, dst = node.get("src"), node.get("dst")
            if not (0 <= src < n and 0 <= dst < n):
                raise DiagramError(f"Perm move {src} -> {dst} outside {n} formulas")
            step = _perm_mapping(src, dst, n)
            mapping = [step[m] for m in mapping]
            node = node.premises[0]
        slots, succ = self.compile(node)
        if len(slots) != n:
            raise DiagramError(f"Perm premise has {len(slots)} formulas, not {n}")
        bundles = [slots[mapping[q]] for q in range(n)]
        for ws, f in zip(bundles, ant):
            _expect(ws, f, PERM)
        return bundles, succ


def _compile_open(t: ProofTree) -> Diagram:
    """Compile a proof to an open morphism diagram (antecedent wires as inputs)."""
    c = _Compiler()
    slots, succ = c.compile(t)
    return c.finalize([w for slot in slots for w in slot], succ)


def proof_to_diagram(
    t: ProofTree, lex: Lexicon, words: Optional[Sequence[str]] = None
) -> Diagram:
    """Compile a cut-free proof into a string diagram.

    With `words`, one State per word is attached to the antecedent wires,
    giving a closed sentence diagram; the word count and lexicon formulas
    must match the proof's end-sequent.  Without `words`, the antecedent
    wires form the input boundary.  The diagram has no Swap: a Perm only
    reorders wires, and :func:`substitute_wirings` draws the crossings and
    turns tagged determiners into DetBoxes.
    """
    if words is None:
        return _compile_open(t)
    ant = t.conclusion.antecedent
    if len(words) != len(ant):
        raise DiagramError(
            f"{len(words)} words for {len(ant)} antecedent formulas"
        )
    for word, f in zip(words, ant):
        if f not in lex.formulas(word):
            raise DiagramError(
                f"word {word!r} has no lexicon entry {format_formula(f)}"
            )
    c = _Compiler()
    slots, succ = c.compile(t)
    for word, f, slot in zip(words, ant, slots):
        nid = c.add(State(word, f))
        for port, w in enumerate(slot):
            c.set_src(w, nid, port)
    return c.finalize([], succ)


# ---------------------------------------------------------------- rewriting
#
# Each rewrite is a node-local rule ``rule(mut, nid, gen, lex) -> bool`` that
# rewrites around node `nid` (a `gen` of the kind it is paired with in
# ``_RULES``) and says whether it fired.


def _rewrite_proj1_absorb(mut: _Mut, nid: int, gen: Proj, lex: Lexicon) -> bool:
    """pi_1 after a Fock-lifted word state is the un-lifted word state."""
    src = mut.src_of.get((nid, 0))
    if gen.n != 1 or src is None:
        return False
    st = mut.gens[src[0]]
    if not (isinstance(st, State) and isinstance(st.formula, Bang) and len(st.outs) == 1):
        return False
    new_state = State(st.word, st.formula.inner)
    new_nid = mut.add(new_state)
    for port in range(len(new_state.outs)):
        mut.rewire_out((nid, port), (new_nid, port))
    mut.remove_node(nid)
    mut.remove_node(src[0])
    return True


def _rewrite_detbox(mut: _Mut, nid: int, gen: State, lex: Lexicon) -> bool:
    """Determiner State whose noun-argument wire is cupped with the noun
    becomes a DetBox fed directly by the noun."""
    if lex.wiring(gen.word) != WIRING_DETBOX:
        return False
    m = strip_nabla(gen.formula)
    if not (isinstance(m, Over) and m.right == Atom("n")):
        return False
    if len(formula_wires(m.left)) != 1 or len(gen.outs) != 2:
        return False
    arg = mut.dst_of.get((nid, 1))
    if arg is None or not isinstance(mut.gens[arg[0]], Cup):
        return False
    cup_nid, cup_port = arg
    other = mut.src_of.get((cup_nid, 1 - cup_port))
    if other is None:
        return False
    db = mut.add(DetBox(gen.word, gen.formula))
    mut.disconnect((nid, 1))
    mut.disconnect(other)
    mut.connect(other, (db, 0))
    mut.rewire_out((nid, 0), (db, 0))
    mut.remove_node(cup_nid)
    mut.remove_node(nid)
    return True


def _rewrite_relpro(mut: _Mut, nid: int, gen: State, lex: Lexicon) -> bool:
    """Relative pronoun State -> Frobenius wiring (two caps feeding a Mult,
    sentence wire produced by a trivial unit)."""
    if lex.wiring(gen.word) != WIRING_RELPRO:
        return False
    if gen.outs != (NWire(), NWire(), SWire(), NWire()):
        return False
    cap1 = mut.add(Cap(NWire()))
    cap2 = mut.add(Cap(NWire()))
    mult = mut.add(Mult(NWire()))
    unit_s = mut.add(Unit(SWire()))
    mut.connect((cap1, 1), (mult, 0))
    mut.connect((cap2, 1), (mult, 1))
    mut.rewire_out((nid, 0), (cap1, 0))
    mut.rewire_out((nid, 1), (mult, 0))
    mut.rewire_out((nid, 2), (unit_s, 0))
    mut.rewire_out((nid, 3), (cap2, 0))
    mut.remove_node(nid)
    return True


def _rewrite_pronoun(mut: _Mut, nid: int, gen: State, lex: Lexicon) -> bool:
    """Pronoun State -> Cap passing the referent wire through."""
    if lex.wiring(gen.word) != WIRING_PRONOUN or gen.outs != (NWire(), NWire()):
        return False
    cap = mut.add(Cap(NWire()))
    mut.rewire_out((nid, 0), (cap, 0))
    mut.rewire_out((nid, 1), (cap, 1))
    mut.remove_node(nid)
    return True


def _rewrite_snake(mut: _Mut, nid: int, gen: Cup, lex: Lexicon) -> bool:
    """Cup fed by one leg of a Cap cancels: the remaining legs join up."""
    for port in (0, 1):
        src = mut.src_of.get((nid, port))
        if src is None:
            continue
        cap_nid, cap_port = src
        if not isinstance(mut.gens[cap_nid], Cap):
            continue
        other_in = mut.src_of.get((nid, 1 - port))
        if other_in is None or other_in[0] == cap_nid:
            continue  # closed loop: leave for the evaluator
        mut.disconnect(other_in)
        mut.rewire_out((cap_nid, 1 - cap_port), other_in)
        mut.remove_node(nid)
        mut.remove_node(cap_nid)
        return True
    return False


def _rewrite_s_erasure(mut: _Mut, nid: int, gen: Cup | Counit, lex: Lexicon) -> bool:
    """The sentence wire is the monoidal unit: closed S wires vanish.

    A Cup(S) or Counit(S) is removed; its feeders become discarded ports,
    or disappear entirely when the feeder is a trivial Unit(S).
    """
    feeders = [mut.src_of.get((nid, p)) for p in range(len(gen.ins))]
    if gen.wtype != SWire() or None in feeders:
        return False
    mut.remove_node(nid)
    for f in feeders:
        if mut.gens.get(f[0]) == Unit(SWire()):
            mut.remove_node(f[0])
        else:
            mut.discarded.add(f)
    return True


def _rewrite_id(mut: _Mut, nid: int, gen: Id, lex: Lexicon) -> bool:
    """An Id fed by a node is a bare wire."""
    feeder = mut.src_of.get((nid, 0))
    if feeder is None:
        return False
    mut.disconnect(feeder)
    mut.rewire_out((nid, 0), feeder)
    mut.remove_node(nid)
    return True


# the rewrites in priority order, each with the generator kind it matches
_RULES = (
    (Proj, _rewrite_proj1_absorb),
    (State, _rewrite_detbox),
    (State, _rewrite_relpro),
    (State, _rewrite_pronoun),
    (Cup, _rewrite_snake),
    ((Cup, Counit), _rewrite_s_erasure),
    (Id, _rewrite_id),
)
_ID_RULES = ((Id, _rewrite_id),)


def _rewrite_once(mut: _Mut, lex: Optional[Lexicon], rules=_RULES) -> Optional[Callable]:
    """Fire the first rule of `rules` that matches, at the lowest node id;
    return it, or None if none matches."""
    for kind, rule in rules:
        for nid, gen in mut.gens.items():
            if isinstance(gen, kind) and rule(mut, nid, gen, lex):
                return rule
    return None


# ------------------------------------------------------------ swap normal form

_EXCHANGEABLE_OUTS = (Proj, Cap)  # output legs are interchangeable


def _reinsert_swaps(mut: _Mut) -> None:
    """Rebuild the wire crossings of a swap-free graph as explicit Swaps.

    Nodes are laid out left to right starting from the source row (word
    states in sentence order) and scheduled greedily.  Every node placed
    after the source row has one or two inputs; when a node's two input
    wires are not adjacent, the right one is crossed leftwards over the
    wires between them with elementary Swap nodes.  Cup and Mult inputs
    commute, and the legs of a Proj or Cap are interchangeable, so the
    scheduler is free to rebind those edges instead of crossing wires.
    """
    if mut.inputs:
        raise DiagramError("cannot normalize a diagram with boundary inputs")
    orig_src = dict(mut.src_of)
    pending = set(mut.gens)
    frontier: list[Port] = []  # open wires (physical out ports), left to right
    origin: dict[Port, Port] = {}  # physical port -> pre-swap producer port

    def emit(nid: int, pos: int) -> None:
        outs = [(nid, op) for op in range(len(mut.gens[nid].outs))]
        # boundary wires run straight down, crossing nothing
        toks = [q for q in outs if q not in mut.discarded and q not in mut.outputs]
        origin.update(zip(toks, toks))
        frontier[pos:pos] = toks
        pending.discard(nid)

    def cross(i: int) -> None:
        """Cross frontier wires i and i+1 with a fresh Swap node."""
        u, v = frontier[i], frontier[i + 1]
        sw = mut.add(Swap((mut.gens[u[0]].outs[u[1]],), (mut.gens[v[0]].outs[v[1]],)))
        for tok, ip in ((u, 0), (v, 1)):
            out = (sw, 1 - ip)  # a 1x1 swap sends input p out at port 1-p
            if tok in mut.dst_of:
                mut.rewire_out(tok, out)
            mut.connect(tok, (sw, ip))
            origin[out] = origin[tok]
        frontier[i], frontier[i + 1] = (sw, 0), (sw, 1)

    def plan(n: int) -> Optional[tuple[int, int, int]]:
        """The cheapest placement of node n as (crossings, lo, hi), or None
        while an input wire is not on the frontier.

        Its inputs take distinct frontier positions lo <= hi.  Bringing them
        together costs hi - lo + 1 - m crossings; a reversed pair needs no
        uncrossing, since only Cup and Mult take two inputs and theirs
        commute.  Ties go to the leftmost positions.
        """
        gen = mut.gens[n]
        cands = []
        for ip in range(len(gen.ins)):
            req = orig_src[(n, ip)]
            if isinstance(mut.gens[req[0]], _EXCHANGEABLE_OUTS):
                cands.append([i for i, t in enumerate(frontier) if origin[t][0] == req[0]])
            else:
                cands.append([i for i, t in enumerate(frontier) if origin[t] == req])
        options = []
        for pos in itertools.product(*cands):
            if len(set(pos)) == len(pos):
                lo, hi = min(pos), max(pos)
                options.append((hi - lo + 1 - len(pos), lo, hi))
        return min(options, default=None)

    def place(n: int, lo: int, hi: int) -> None:
        """Cross the wire at hi leftwards to lo + 1 and bind input ip to the
        wire at lo + ip."""
        for i in range(hi - 1, lo, -1):
            cross(i)
        m = len(mut.gens[n].ins)
        for ip, t in enumerate(frontier[lo : lo + m]):
            old = mut.src_of.get((n, ip))
            if old is not None:
                mut.disconnect(old)
            if t in mut.dst_of:
                mut.disconnect(t)
            mut.connect(t, (n, ip))
        del frontier[lo : lo + m]
        emit(n, lo)

    for n in sorted(pending):
        if not mut.gens[n].ins:
            emit(n, len(frontier))
    while pending:
        # fewest crossings first, then the lowest node id
        options = [(p[0], n, p) for n in pending if (p := plan(n)) is not None]
        if not options:
            raise DiagramError("diagram contains a cycle")
        _, n, (_, lo, hi) = min(options)
        place(n, lo, hi)


def substitute_wirings(d: Diagram, lex: Lexicon) -> Diagram:
    """Replace tagged word States by their internal wirings and simplify.

    Relative pronouns become the Frobenius wiring (caps + Mult), pronouns
    become Caps, determiners turn into DetBoxes (a Fock-lifted one loses
    its trivial pi_1 first).  Swaps in `d` are spliced out as it is loaded.
    The result is then normalized: snakes cancel, closed sentence wires
    vanish, and the wire crossings are drawn as Swaps, so substituting a
    substituted diagram gives it back.
    """
    report = typecheck_report(d)
    if report is not None:
        raise DiagramError(f"ill-typed diagram: {report}")
    mut = _Mut.from_diagram(d)
    fired = dict.fromkeys((rule for _, rule in _RULES), 0)
    while (rule := _rewrite_once(mut, lex)) is not None:
        fired[rule] += 1
    _reinsert_swaps(mut)
    out = mut.freeze()
    report = typecheck_report(out)
    if report is not None:
        raise DiagramError(f"wiring substitution broke the diagram: {report}")
    trace = TRACE.get()
    if trace is not None:
        trace({
            "rewrites": {
                rule.__name__.removeprefix("_rewrite_"): n for rule, n in fired.items()
            }
        })
    return out


# ---------------------------------------------------------------- canonical key


def swap_erased_key(d: Diagram):
    """Structural key invariant under Swap/Id placement.

    The key is read off the port graph with every Swap spliced out and every
    Id fed by a node removed: its generators, numbered in the order of a
    traversal from the output boundary, then the discarded ports, the input
    boundary and the remaining nodes, with the edges and boundaries in that
    numbering.
    """
    mut = _Mut.from_diagram(d)
    while _rewrite_once(mut, None, _ID_RULES) is not None:
        pass
    order: dict[int, int] = {}

    def visit(nid: int) -> None:
        if nid in order:
            return
        order[nid] = len(order)
        gen = mut.gens[nid]
        for p in range(len(gen.ins)):
            src = mut.src_of.get((nid, p))
            if src is not None:
                visit(src[0])
        for p in range(len(gen.outs)):
            dst = mut.dst_of.get((nid, p))
            if dst is not None:
                visit(dst[0])

    ends = mut.outputs + sorted(mut.discarded) + mut.inputs
    for nid in [nid for nid, _ in ends] + sorted(mut.gens):
        visit(nid)
    edges = sorted((order[s], sp, order[t], tp) for (s, sp), (t, tp) in mut.dst_of.items())
    return (
        tuple(mut.gens[nid] for nid in order),
        tuple(edges),
        tuple((order[nid], p) for nid, p in mut.inputs),
        tuple((order[nid], p) for nid, p in mut.outputs),
        tuple(sorted((order[nid], p) for nid, p in mut.discarded)),
    )


def readings(
    proofs: Sequence[ProofTree], lex: Lexicon, words: Sequence[str]
) -> list[Diagram]:
    """The sentence's readings: the distinct substituted diagrams of `proofs`,
    by :func:`swap_erased_key`, in first-seen order."""
    # equal raw keys give equal substituted keys, so substitute one per class
    raw = {}
    for proof in proofs:
        d = proof_to_diagram(proof, lex, words=words)
        raw.setdefault(swap_erased_key(d), d)
    out = {}
    for d in raw.values():
        s = substitute_wirings(d, lex)
        out.setdefault(swap_erased_key(s), s)
    return list(out.values())


# ---------------------------------------------------------------- export


def _gen_to_dict(gen: Generator) -> dict:
    """The generator's kind and each of its fields, written by the codec of
    the field's annotation."""
    out = {"kind": type(gen).__name__}
    for f in fields(gen):
        out[f.name] = _CODECS[f.type][0](getattr(gen, f.name))
    return out


def _gen_from_dict(data: dict, atoms) -> Generator:
    if data["kind"] not in _KINDS:
        raise DiagramError(f"unknown generator kind {data['kind']!r}")
    cls, cls_fields = _KINDS[data["kind"]]
    return cls(*(_CODECS[f.type][1](data[f.name], atoms) for f in cls_fields))


def _checked(kind: type, *values) -> tuple:
    """`values`, each of exactly type `kind` (so no bool for an int)."""
    if set(map(type, values)) != {kind}:
        raise DiagramError(f"expected {kind.__name__} values, got {values!r}")
    return values


def _diagram_to_dict(d: Diagram) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": [
            {"id": i, "gen": _gen_to_dict(g)} for i, g in enumerate(d.nodes)
        ],
        "edges": [
            {"src": e.src, "src_port": e.src_port, "dst": e.dst, "dst_port": e.dst_port}
            for e in sorted(d.edges, key=lambda e: (e.src, e.src_port))
        ],
        "inputs": [list(p) for p in d.inputs],
        "outputs": [list(p) for p in d.outputs],
        "discarded": sorted(list(p) for p in d.discarded),
    }


def _diagram_from_dict(data: dict, atoms) -> Diagram:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DiagramError(f"unsupported schema version {data.get('schema_version')!r}")
    items = sorted(data["nodes"], key=lambda item: item["id"])
    if [item["id"] for item in items] != list(range(len(items))):
        raise DiagramError("node ids must be 0, 1, ... with each id once")
    edges = tuple(
        Edge(*_checked(int, e["src"], e["src_port"], e["dst"], e["dst_port"]))
        for e in data["edges"]
    )
    return Diagram(
        nodes=tuple(_gen_from_dict(item["gen"], atoms) for item in items),
        edges=edges,
        inputs=tuple(_checked(int, n, p) for n, p in data["inputs"]),
        outputs=tuple(_checked(int, n, p) for n, p in data["outputs"]),
        discarded=frozenset(_checked(int, n, p) for n, p in data["discarded"]),
    )


# kind name -> (class, its fields)
_KINDS = {
    cls.__name__: (cls, fields(cls))
    for cls in (State, DetBox, Cup, Cap, Id, Swap, Mult, Unit, Comult, Counit, Proj, FockLift)
}
# field annotation -> (to JSON, from JSON given the atoms)
_CODECS = {
    "str": (str, lambda value, atoms: _checked(str, value)[0]),
    "int": (int, lambda value, atoms: _checked(int, value)[0]),
    "Formula": (format_formula, parse_formula),
    "WireType": (wtype_to_str, lambda text, atoms: wtype_from_str(text)),
    "tuple[WireType, ...]": (
        lambda ws: [wtype_to_str(w) for w in ws],
        lambda texts, atoms: tuple(wtype_from_str(t) for t in _checked(list, texts)[0]),
    ),
    "Diagram": (_diagram_to_dict, _diagram_from_dict),
}


def export(d: Diagram, fmt: str) -> str:
    """Deterministic serialization: `json` (round-trippable) or `dot`."""
    if fmt == "json":
        return json.dumps(_diagram_to_dict(d), sort_keys=True, indent=2)
    if fmt == "dot":
        lines = ["digraph diagram {", "  rankdir=TB;", "  node [shape=box];"]
        for i, g in enumerate(d.nodes):
            label = g.label.replace('"', '\\"')
            shape = ""
            if isinstance(g, (Cup, Cap)):
                shape = ", shape=ellipse"
            elif isinstance(g, (Mult, Unit, Comult, Counit)):
                shape = ", shape=circle"
            lines.append(f'  n{i} [label="{label}"{shape}];')
        for e in sorted(d.edges, key=lambda e: (e.src, e.src_port)):
            wt = wtype_to_str(d.nodes[e.src].outs[e.src_port])
            lines.append(
                f'  n{e.src} -> n{e.dst} [label="{wt}",'
                f' taillabel="{e.src_port}", headlabel="{e.dst_port}"];'
            )
        for idx, (nid, port) in enumerate(d.outputs):
            lines.append(f'  out{idx} [shape=plaintext, label="out{idx}"];')
            wt = wtype_to_str(d.nodes[nid].outs[port])
            lines.append(f'  n{nid} -> out{idx} [label="{wt}"];')
        for idx, (nid, port) in enumerate(d.inputs):
            lines.append(f'  in{idx} [shape=plaintext, label="in{idx}"];')
            wt = wtype_to_str(d.nodes[nid].ins[port])
            lines.append(f'  in{idx} -> n{nid} [label="{wt}"];')
        lines.append("}")
        return "\n".join(lines)
    raise DiagramError(f"unknown export format {fmt!r}")


def diagram_from_json(text: str, atoms: frozenset[str] = DEFAULT_ATOMS) -> Diagram:
    """The diagram `export(d, "json")` wrote; DiagramError if `text` is not one."""
    try:
        return _diagram_from_dict(json.loads(text), atoms)
    except DiagramError:
        raise
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise DiagramError(f"malformed diagram JSON: {exc!r}") from exc
