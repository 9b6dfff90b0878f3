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
and where wire crossings are drawn as Swaps.  The one wire-alias pass is
the union-find of :func:`lamsem.planner.extract_network`.
"""
from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .formula import (
    Atom,
    Bang,
    DEFAULT_ATOMS,
    Formula,
    Nabla,
    Over,
    Sequent,
    Tensor,
    Under,
    format_formula,
    parse_formula,
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

    @property
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
        m = self.formula
        while isinstance(m, Nabla):
            m = m.inner
        if not (isinstance(m, Over) and m.right == Atom("n")):
            raise DiagramError(f"DetBox formula must have matrix X/n: {m!r}")
        if len(formula_wires(m.left)) != 1:
            raise DiagramError("DetBox result must be a single wire")

    @property
    def _matrix(self) -> Over:
        m = self.formula
        while isinstance(m, Nabla):
            m = m.inner
        return m  # type: ignore[return-value]

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (NWire(),)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return formula_wires(self._matrix.left)

    @property
    def label(self) -> str:
        return f"{self.word} : det"


@dataclass(frozen=True)
class Cup(Generator):
    wtype: WireType

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (self.wtype, self.wtype)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return ()


@dataclass(frozen=True)
class Cap(Generator):
    wtype: WireType

    @property
    def ins(self) -> tuple[WireType, ...]:
        return ()

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (self.wtype, self.wtype)


@dataclass(frozen=True)
class Id(Generator):
    wtype: WireType

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (self.wtype,)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (self.wtype,)


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

    def back(self, out_port: int) -> int:
        if out_port < len(self.b):
            return len(self.a) + out_port
        return out_port - len(self.b)


@dataclass(frozen=True)
class Mult(Generator):
    wtype: WireType = field(default_factory=NWire)

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (self.wtype, self.wtype)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (self.wtype,)


@dataclass(frozen=True)
class Unit(Generator):
    wtype: WireType = field(default_factory=NWire)

    @property
    def ins(self) -> tuple[WireType, ...]:
        return ()

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (self.wtype,)


@dataclass(frozen=True)
class Comult(Generator):
    wtype: WireType = field(default_factory=NWire)

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (self.wtype,)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return (self.wtype, self.wtype)


@dataclass(frozen=True)
class Counit(Generator):
    wtype: WireType = field(default_factory=NWire)

    @property
    def ins(self) -> tuple[WireType, ...]:
        return (self.wtype,)

    @property
    def outs(self) -> tuple[WireType, ...]:
        return ()


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

    inner: "Diagram"

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

    def generator_multiset(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.nodes:
            key = g.label if isinstance(g, (Proj,)) else type(g).__name__
            out[key] = out.get(key, 0) + 1
        return out

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


def typecheck(d: Diagram) -> bool:
    return typecheck_report(d) is None


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
        m = cls()
        for gen in d.nodes:
            m.add(gen)
        for e in d.edges:
            m.connect((e.src, e.src_port), (e.dst, e.dst_port))
        m.inputs = list(d.inputs)
        m.outputs = list(d.outputs)
        m.discarded = set(d.discarded)
        return m

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


def _strip_bang(f: Formula) -> Formula:
    assert isinstance(f, Bang)
    return f.inner


def _rewrite_proj1_absorb(mut: _Mut, lex: Lexicon) -> bool:
    """pi_1 after a Fock-lifted word state is the un-lifted word state."""
    for nid, gen in list(mut.gens.items()):
        if not (isinstance(gen, Proj) and gen.n == 1):
            continue
        src = mut.src_of.get((nid, 0))
        if src is None:
            continue
        st = mut.gens[src[0]]
        if not (isinstance(st, State) and isinstance(st.formula, Bang)):
            continue
        if len(st.outs) != 1:
            continue
        new_state = State(st.word, _strip_bang(st.formula))
        new_nid = mut.add(new_state)
        for port in range(len(new_state.outs)):
            mut.rewire_out((nid, port), (new_nid, port))
        mut.remove_node(nid)
        mut.remove_node(src[0])
        return True
    return False


def _rewrite_detbox(mut: _Mut, lex: Lexicon) -> bool:
    """Determiner State whose noun-argument wire is cupped with the noun
    becomes a DetBox fed directly by the noun."""
    for nid, gen in list(mut.gens.items()):
        if not isinstance(gen, State):
            continue
        if lex.wiring(gen.word) != WIRING_DETBOX:
            continue
        f = gen.formula
        m = f
        while isinstance(m, Nabla):
            m = m.inner
        if not (isinstance(m, Over) and m.right == Atom("n")):
            continue
        if len(formula_wires(m.left)) != 1 or len(gen.outs) != 2:
            continue
        arg = mut.dst_of.get((nid, 1))
        if arg is None:
            continue
        cup_nid, cup_port = arg
        cup = mut.gens[cup_nid]
        if not isinstance(cup, Cup):
            continue
        other = mut.src_of.get((cup_nid, 1 - cup_port))
        if other is None:
            continue
        db = mut.add(DetBox(gen.word, f))
        mut.disconnect((nid, 1))
        mut.disconnect(other)
        mut.connect(other, (db, 0))
        mut.rewire_out((nid, 0), (db, 0))
        mut.remove_node(cup_nid)
        mut.remove_node(nid)
        return True
    return False


def _rewrite_relpro(mut: _Mut, lex: Lexicon) -> bool:
    """Relative pronoun State -> Frobenius wiring (two caps feeding a Mult,
    sentence wire produced by a trivial unit)."""
    for nid, gen in list(mut.gens.items()):
        if not isinstance(gen, State):
            continue
        if lex.wiring(gen.word) != WIRING_RELPRO:
            continue
        if gen.outs != (NWire(), NWire(), SWire(), NWire()):
            continue
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
    return False


def _rewrite_pronoun(mut: _Mut, lex: Lexicon) -> bool:
    """Pronoun State -> Cap passing the referent wire through."""
    for nid, gen in list(mut.gens.items()):
        if not isinstance(gen, State):
            continue
        if lex.wiring(gen.word) != WIRING_PRONOUN:
            continue
        if gen.outs != (NWire(), NWire()):
            continue
        cap = mut.add(Cap(NWire()))
        mut.rewire_out((nid, 0), (cap, 0))
        mut.rewire_out((nid, 1), (cap, 1))
        mut.remove_node(nid)
        return True
    return False


def _rewrite_snake(mut: _Mut) -> bool:
    """Cup fed by one leg of a Cap cancels: the remaining legs join up."""
    for nid, gen in list(mut.gens.items()):
        if not isinstance(gen, Cup):
            continue
        for port in (0, 1):
            producer = mut.src_of.get((nid, port))
            if producer is None:
                continue
            cap_nid, cap_port = producer
            cap = mut.gens[cap_nid]
            if not isinstance(cap, Cap):
                continue
            other_in = mut.src_of.get((nid, 1 - port))
            if other_in is None or other_in[0] == cap_nid:
                continue  # closed loop: leave for the evaluator
            other_out = (cap_nid, 1 - cap_port)
            mut.disconnect(other_in)
            mut.rewire_out(other_out, other_in)
            mut.remove_node(nid)
            mut.remove_node(cap_nid)
            return True
    return False


def _rewrite_s_erasure(mut: _Mut) -> bool:
    """The sentence wire is the monoidal unit: closed S wires vanish.

    Cup(S)/Counit(S) are removed; their feeders become discarded ports, or
    disappear entirely when the feeder is a trivial Unit(S).
    """
    for nid, gen in list(mut.gens.items()):
        if isinstance(gen, Cup) and gen.wtype == SWire():
            producers = [mut.src_of.get((nid, p)) for p in (0, 1)]
            if any(p is None for p in producers):
                continue
            mut.remove_node(nid)
            for f in producers:
                src_gen = mut.gens.get(f[0])
                if isinstance(src_gen, Unit) and src_gen.wtype == SWire():
                    mut.remove_node(f[0])
                else:
                    mut.discarded.add(f)
            return True
        if isinstance(gen, Counit) and gen.wtype == SWire():
            producer = mut.src_of.get((nid, 0))
            if producer is None:
                continue
            mut.remove_node(nid)
            src_gen = mut.gens.get(producer[0])
            if isinstance(src_gen, Unit) and src_gen.wtype == SWire():
                mut.remove_node(producer[0])
            else:
                mut.discarded.add(producer)
            return True
    return False


def _rewrite_id(mut: _Mut) -> bool:
    for nid, gen in list(mut.gens.items()):
        if isinstance(gen, Id):
            feeder = mut.src_of.get((nid, 0))
            if feeder is None:
                continue
            mut.disconnect(feeder)
            mut.rewire_out((nid, 0), feeder)
            mut.remove_node(nid)
            return True
    return False


_LEX_REWRITES = (
    _rewrite_proj1_absorb,
    _rewrite_detbox,
    _rewrite_relpro,
    _rewrite_pronoun,
)
_REWRITES = (
    _rewrite_snake,
    _rewrite_s_erasure,
    _rewrite_id,
)

# Called with one dict of rewrite counts per ``substitute_wirings`` call while
# set (``lamsem … --trace`` prints them); None, the default, costs one lookup.
REWRITE_TRACE: ContextVar[Callable[[dict], None] | None] = ContextVar(
    "REWRITE_TRACE", default=None
)


def _rewrite_once(mut: _Mut, lex: Lexicon) -> Optional[Callable]:
    """Apply the first rewrite that matches; it, or None if none does."""
    for rw in _LEX_REWRITES:
        if rw(mut, lex):
            return rw
    for rw in _REWRITES:
        if rw(mut):
            return rw
    return None


# ------------------------------------------------------------ swap normal form

_SYMMETRIC_INS = (Cup, Mult)  # input legs commute
_EXCHANGEABLE_OUTS = (Proj, Cap)  # output legs are interchangeable


def _splice_all_swaps(mut: _Mut) -> None:
    """Remove every Swap node, connecting each wire straight through."""
    for nid in sorted(n for n, g in mut.gens.items() if isinstance(g, Swap)):
        gen = mut.gens[nid]
        for p in range(len(gen.ins)):
            q = (nid, gen.through(p))
            src = mut.src_of.pop((nid, p), None)
            if src is not None:
                mut.dst_of.pop(src, None)
            if q in mut.dst_of:
                dst = mut.dst_of.pop(q)
                mut.src_of.pop(dst, None)
                if src is not None:
                    mut.connect(src, dst)
                else:
                    mut.inputs = [dst if x == (nid, p) else x for x in mut.inputs]
            elif q in mut.discarded:
                mut.discarded.discard(q)
                if src is None:
                    raise DiagramError("boundary input wire is discarded")
                mut.discarded.add(src)
            elif q in mut.outputs:
                if src is None:
                    raise DiagramError("boundary-to-boundary wire through a swap")
                mut.outputs = [src if x == q else x for x in mut.outputs]
        del mut.gens[nid]


def _reinsert_swaps(mut: _Mut) -> None:
    """Rebuild the wire crossings of a swap-free graph as explicit Swaps.

    Nodes are laid out left to right starting from the source row (word
    states in sentence order) and scheduled greedily; whenever a node's
    input wires are not adjacent, the intervening wires are crossed over
    with elementary Swap nodes.  Cup and Mult inputs commute, and the legs
    of a Proj or Cap are interchangeable, so the scheduler is free to
    rebind those edges instead of crossing wires.
    """
    if mut.inputs:
        raise DiagramError("cannot normalize a diagram with boundary inputs")
    orig_src = dict(mut.src_of)
    pending = set(mut.gens)
    frontier: list[Port] = []  # open wires (physical out ports), left to right
    origin: dict[Port, Port] = {}  # physical port -> pre-swap producer port
    wtypes: dict[Port, WireType] = {}

    def emit(nid: int, pos: int) -> None:
        gen = mut.gens[nid]
        toks = []
        for op in range(len(gen.outs)):
            q = (nid, op)
            if q in mut.discarded or q in mut.outputs:
                continue  # boundary wires run straight down, crossing nothing
            toks.append(q)
            origin[q] = q
            wtypes[q] = gen.outs[op]
        frontier[pos:pos] = toks
        pending.discard(nid)

    def transpose_at(i: int, tracked: list[Port]) -> None:
        """Cross frontier wires i and i+1 with a fresh Swap node."""
        u, v = frontier[i], frontier[i + 1]
        sw = mut.add(Swap((wtypes[u],), (wtypes[v],)))
        for tok, ip in ((u, 0), (v, 1)):
            dst = mut.dst_of.get(tok)
            if dst is not None:
                mut.disconnect(tok)
            mut.connect(tok, (sw, ip))
            out = (sw, 1 - ip)  # a 1x1 swap sends input p out at port 1-p
            if dst is not None:
                mut.connect(out, dst)
            origin[out] = origin[tok]
            wtypes[out] = wtypes[tok]
        frontier[i], frontier[i + 1] = (sw, 0), (sw, 1)
        for k, t in enumerate(tracked):
            if t == u:
                tracked[k] = (sw, 1)
            elif t == v:
                tracked[k] = (sw, 0)

    def candidates(req: Port, taken: list[int]) -> list[int]:
        src_gen = mut.gens[req[0]]
        if isinstance(src_gen, _EXCHANGEABLE_OUTS):
            return [
                i
                for i, t in enumerate(frontier)
                if origin[t][0] == req[0] and i not in taken
            ]
        return [i for i, t in enumerate(frontier) if origin[t] == req and i not in taken]

    def plan(n: int) -> Optional[tuple[int, list[int]]]:
        """(cost in elementary swaps, chosen frontier position per in-port)."""
        gen = mut.gens[n]
        m = len(gen.ins)
        reqs = [orig_src[(n, ip)] for ip in range(m)]
        if m == 1:
            cands = candidates(reqs[0], [])
            return (0, [min(cands)]) if cands else None
        if m == 2:
            best = None
            for i in candidates(reqs[0], []):
                for j in candidates(reqs[1], [i]):
                    cost = abs(i - j) - 1
                    if i > j and not isinstance(gen, _SYMMETRIC_INS):
                        cost += 1
                    key = (cost, min(i, j), max(i, j))
                    if best is None or key < best[0]:
                        best = (key, [i, j])
            return (best[0][0], best[1]) if best else None
        chosen: list[int] = []
        for r in reqs:
            cands = candidates(r, chosen)
            if not cands:
                return None
            chosen.append(min(cands))
        return (max(chosen) - min(chosen) + 1 - m, chosen)

    def execute(n: int, pos: list[int]) -> None:
        gen = mut.gens[n]
        toks = [frontier[p] for p in pos]

        def idx(t: Port) -> int:
            return frontier.index(t)

        # bring the chosen wires together with elementary crossings
        while True:
            ids = sorted(idx(t) for t in toks)
            gap = next((j for j in range(len(ids) - 1) if ids[j + 1] != ids[j] + 1), None)
            if gap is None:
                break
            transpose_at(ids[gap + 1] - 1, toks)
        if isinstance(gen, _SYMMETRIC_INS):
            toks.sort(key=idx)  # commuting legs: bind in current wire order
        while True:
            block = sorted(idx(t) for t in toks)
            cur = [frontier[i] for i in block]
            if cur == toks:
                break
            j = next(j for j in range(len(toks)) if cur[j] != toks[j])
            transpose_at(block[cur.index(toks[j]) - 1], toks)
        start = min(idx(t) for t in toks)
        for ip, t in enumerate(toks):
            old = mut.src_of.get((n, ip))
            if old is not None:
                mut.disconnect(old)
            if t in mut.dst_of:
                mut.disconnect(t)
            mut.connect(t, (n, ip))
        for t in toks:
            frontier.remove(t)
        emit(n, start)

    for n in sorted(pending):
        if not mut.gens[n].ins:
            emit(n, len(frontier))
    while pending:
        best = None
        for n in sorted(pending):
            p = plan(n)
            if p is not None and (best is None or p[0] < best[0][0]):
                best = (p, n)
        if best is None:
            raise DiagramError("diagram contains a cycle")
        execute(best[1], best[0][1])


def substitute_wirings(d: Diagram, lex: Lexicon) -> Diagram:
    """Replace tagged word States by their internal wirings and simplify.

    Relative pronouns become the Frobenius wiring (caps + Mult), pronouns
    become Caps, determiners turn into DetBoxes (a Fock-lifted one loses
    its trivial pi_1 first).  Swaps in `d` are spliced out first.  The
    result is then normalized: snakes cancel, closed sentence wires vanish,
    and the wire crossings are drawn as Swaps, so substituting a
    substituted diagram gives it back.
    """
    report = typecheck_report(d)
    if report is not None:
        raise DiagramError(f"ill-typed diagram: {report}")
    mut = _Mut.from_diagram(d)
    _splice_all_swaps(mut)
    fired = dict.fromkeys(_LEX_REWRITES + _REWRITES, 0)
    while (rw := _rewrite_once(mut, lex)) is not None:
        fired[rw] += 1
    _reinsert_swaps(mut)
    out = mut.freeze()
    report = typecheck_report(out)
    if report is not None:
        raise DiagramError(f"wiring substitution broke the diagram: {report}")
    trace = REWRITE_TRACE.get()
    if trace is not None:
        trace({
            "rewrites": {
                rw.__name__.removeprefix("_rewrite_"): n for rw, n in fired.items()
            }
        })
    return out


# ---------------------------------------------------------------- canonical key


def swap_erased_key(d: Diagram):
    """Structural key invariant under Swap/Id placement.

    Swap and Id nodes are treated as bare wire crossings; the remaining DAG
    is canonically relabeled by a traversal from the output boundary.
    """

    d_dst = {(e.src, e.src_port): (e.dst, e.dst_port) for e in d.edges}
    d_src = {(e.dst, e.dst_port): (e.src, e.src_port) for e in d.edges}

    def consumer(out_port: Port) -> Optional[Port]:
        """Real consumer of an output port, seen through Swap/Id nodes."""
        while True:
            dst = d_dst.get(out_port)
            if dst is None:
                return None  # boundary or discarded
            nid, p = dst
            gen = d.nodes[nid]
            if isinstance(gen, Swap):
                out_port = (nid, gen.through(p))
            elif isinstance(gen, Id):
                out_port = (nid, 0)
            else:
                return dst

    def producer(out_port: Port) -> Optional[Port]:
        """Real producing port behind `out_port` if it sits on a Swap/Id."""
        while True:
            nid, p = out_port
            gen = d.nodes[nid]
            if isinstance(gen, Swap):
                src = d_src.get((nid, gen.back(p)))
            elif isinstance(gen, Id):
                src = d_src.get((nid, 0))
            else:
                return out_port
            if src is None:
                return None  # traces back to the input boundary
            out_port = src

    # canonical ids by traversal from outputs, then discarded, then inputs
    order: dict[int, int] = {}

    def visit(nid: int) -> None:
        if nid in order or isinstance(d.nodes[nid], (Swap, Id)):
            return
        order[nid] = len(order)
        gen = d.nodes[nid]
        for p in range(len(gen.ins)):
            src = d_src.get((nid, p))
            if src is not None:
                real = producer(src)
                if real is not None:
                    visit(real[0])
        for p in range(len(gen.outs)):
            dst = consumer((nid, p))
            if dst is not None:
                visit(dst[0])

    for port in d.outputs:
        real = producer(port)
        if real is not None:
            visit(real[0])
    for nid, _ in sorted(d.discarded):
        visit(nid)
    for port in d.inputs:
        nid, p = port
        if not isinstance(d.nodes[nid], (Swap, Id)):
            visit(nid)
    for nid in range(len(d.nodes)):
        visit(nid)

    def gen_key(gen: Generator):
        if isinstance(gen, State):
            return ("State", gen.word, format_formula(gen.formula))
        if isinstance(gen, DetBox):
            return ("DetBox", gen.word, format_formula(gen.formula))
        if isinstance(gen, Proj):
            return ("Proj", gen.n, wtype_to_str(gen.inner))
        if isinstance(gen, FockLift):
            return ("FockLift", export(gen.inner, "json"))
        if isinstance(gen, (Cup, Cap, Id, Mult, Unit, Comult, Counit)):
            return (type(gen).__name__, wtype_to_str(gen.wtype))
        raise DiagramError(f"unexpected generator {gen!r}")

    nodes = tuple(
        gen_key(d.nodes[nid])
        for nid in sorted(order, key=lambda nid: order[nid])
    )
    edges = []
    for nid in order:
        gen = d.nodes[nid]
        for p in range(len(gen.outs)):
            dst = consumer((nid, p))
            if dst is not None:
                edges.append((order[nid], p, order[dst[0]], dst[1]))
    out_b = []
    for port in d.outputs:
        real = producer(port)
        if real is None:
            out_b.append((-1, port[1]))
        else:
            out_b.append((order[real[0]], real[1]))
    in_b = []
    for port in d.inputs:
        nid, p = port
        if isinstance(d.nodes[nid], (Swap, Id)):
            gen = d.nodes[nid]
            out = (nid, gen.through(p)) if isinstance(gen, Swap) else (nid, 0)
            dst = consumer(out)
            in_b.append((order[dst[0]], dst[1]) if dst else (-1, p))
        else:
            in_b.append((order[nid], p))
    disc = tuple(sorted((order.get(nid, -1), p) for nid, p in d.discarded))
    return (nodes, tuple(sorted(edges)), tuple(in_b), tuple(out_b), disc)


# ---------------------------------------------------------------- export


def _gen_to_dict(gen: Generator) -> dict:
    if isinstance(gen, State):
        return {
            "kind": "State",
            "word": gen.word,
            "formula": format_formula(gen.formula),
        }
    if isinstance(gen, DetBox):
        return {
            "kind": "DetBox",
            "word": gen.word,
            "formula": format_formula(gen.formula),
        }
    if isinstance(gen, Swap):
        return {
            "kind": "Swap",
            "a": [wtype_to_str(w) for w in gen.a],
            "b": [wtype_to_str(w) for w in gen.b],
        }
    if isinstance(gen, Proj):
        return {"kind": "Proj", "n": gen.n, "inner": wtype_to_str(gen.inner)}
    if isinstance(gen, FockLift):
        return {"kind": "FockLift", "inner": _diagram_to_dict(gen.inner)}
    if isinstance(gen, (Cup, Cap, Id, Mult, Unit, Comult, Counit)):
        return {"kind": type(gen).__name__, "wtype": wtype_to_str(gen.wtype)}
    raise DiagramError(f"cannot serialize generator {gen!r}")


def _gen_from_dict(d: dict, atoms) -> Generator:
    kind = d["kind"]
    if kind == "State":
        return State(d["word"], parse_formula(d["formula"], atoms))
    if kind == "DetBox":
        return DetBox(d["word"], parse_formula(d["formula"], atoms))
    if kind == "Swap":
        return Swap(
            tuple(wtype_from_str(w) for w in d["a"]),
            tuple(wtype_from_str(w) for w in d["b"]),
        )
    if kind == "Proj":
        return Proj(d["n"], wtype_from_str(d["inner"]))
    if kind == "FockLift":
        return FockLift(_diagram_from_dict(d["inner"], atoms))
    simple = {
        "Cup": Cup,
        "Cap": Cap,
        "Id": Id,
        "Mult": Mult,
        "Unit": Unit,
        "Comult": Comult,
        "Counit": Counit,
    }
    if kind in simple:
        return simple[kind](wtype_from_str(d["wtype"]))
    raise DiagramError(f"unknown generator kind {kind!r}")


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
    nodes = [None] * len(data["nodes"])
    for item in data["nodes"]:
        nodes[item["id"]] = _gen_from_dict(item["gen"], atoms)
    edges = tuple(
        Edge(e["src"], e["src_port"], e["dst"], e["dst_port"]) for e in data["edges"]
    )
    return Diagram(
        nodes=tuple(nodes),
        edges=edges,
        inputs=tuple((n, p) for n, p in data["inputs"]),
        outputs=tuple((n, p) for n, p in data["outputs"]),
        discarded=frozenset((n, p) for n, p in data["discarded"]),
    )


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
    return _diagram_from_dict(json.loads(text), atoms)
