"""Tensor-network extraction and contraction planning for diagram evaluation.

A :class:`~lamsem.diagram.Diagram` is turned into a network of sparse tensors,
one per non-structural generator.  Structural generators (Cup, Cap, Swap, Id)
carry no data: they merely identify wires, so they are compiled away into a
wire aliasing (union-find) before evaluation.  Every tensor is the 0/1
indicator of its generator's relation, and the network is contracted once with
exact integers: each entry of the result counts the witnesses of its boundary
tuple.  Both backends read that one result: the relation is its support, the
vector scalar its sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .diagram import (
    Cap,
    Cup,
    Diagram,
    DiagramError,
    Generator,
    Id,
    Swap,
    WireType,
)

DEFAULT_CELL_BUDGET = 10**7


@dataclass
class TensorNode:
    """A generator occurrence with one wire id per port (ins then outs)."""

    nid: int
    gen: Generator
    axes: list[int]  # wire ids
    summed: list[int]  # positions of discarded-output axes (marginalized)


@dataclass
class Network:
    tensors: list[TensorNode]
    free: list[int]  # wire ids on the boundary (inputs then outputs), in order
    wire_types: dict[int, WireType]
    loops: list[WireType]  # closed wire cycles with no tensor endpoint


_STRUCTURAL = (Cup, Cap, Swap, Id)


def extract_network(d: Diagram) -> Network:
    """Alias wires through structural generators and list the tensor nodes."""
    # one provisional wire per port; union-find merges them
    parent: dict[tuple[int, int, int], tuple[int, int, int]] = {}

    def key(nid: int, port: int, is_out: bool):
        return (nid, port, 1 if is_out else 0)

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for e in d.edges:
        union(key(e.src, e.src_port, True), key(e.dst, e.dst_port, False))
    for nid, gen in enumerate(d.nodes):
        if isinstance(gen, Cup):
            union(key(nid, 0, False), key(nid, 1, False))
        elif isinstance(gen, Cap):
            union(key(nid, 0, True), key(nid, 1, True))
        elif isinstance(gen, Id):
            union(key(nid, 0, False), key(nid, 0, True))
        elif isinstance(gen, Swap):
            for p in range(len(gen.ins)):
                union(key(nid, p, False), key(nid, gen.through(p), True))

    wire_ids: dict[tuple[int, int, int], int] = {}
    wire_types: dict[int, WireType] = {}

    def wire(nid: int, port: int, is_out: bool, wtype: WireType) -> int:
        root = find(key(nid, port, is_out))
        if root not in wire_ids:
            wire_ids[root] = len(wire_ids)
            wire_types[wire_ids[root]] = wtype
        return wire_ids[root]

    tensors = []
    touched: set[int] = set()
    for nid, gen in enumerate(d.nodes):
        if isinstance(gen, _STRUCTURAL):
            continue
        axes = [wire(nid, p, False, w) for p, w in enumerate(gen.ins)]
        summed = []
        for p, w in enumerate(gen.outs):
            axes.append(wire(nid, p, True, w))
            if (nid, p) in d.discarded:
                summed.append(len(axes) - 1)
        tensors.append(TensorNode(nid, gen, axes, summed))
        touched.update(axes)
    free = [
        wire(nid, p, False, d.nodes[nid].ins[p]) for nid, p in d.inputs
    ] + [wire(nid, p, True, d.nodes[nid].outs[p]) for nid, p in d.outputs]
    # a boundary wire that meets only structural generators has no tensor
    # endpoint; give it an explicit identity tensor so its axis survives
    for w in sorted(set(free) - touched):
        tensors.append(TensorNode(-1 - w, Id(wire_types[w]), [w, w], []))
    touched.update(free)
    # wire classes seen only at structural ports are closed loops
    loops = []
    seen_roots = set()
    for nid, gen in enumerate(d.nodes):
        if not isinstance(gen, _STRUCTURAL):
            continue
        for p, w in enumerate(gen.ins):
            root = find(key(nid, p, False))
            if root in seen_roots:
                continue
            seen_roots.add(root)
            if wire_ids.get(root) is None or wire_ids[root] not in touched:
                loops.append(w)
    return Network(tensors, free, wire_types, loops)


@dataclass
class SparseTensor:
    """Sparse map from per-axis values to positive counts; axes name wires."""

    axes: list[int]
    entries: dict[tuple, int]

    def project(self, keep: list[int]) -> "SparseTensor":
        pos = [self.axes.index(a) for a in keep]
        out: dict[tuple, int] = {}
        for tup, v in self.entries.items():
            k = tuple(tup[i] for i in pos)
            out[k] = out.get(k, 0) + v
        return SparseTensor(list(keep), out)


def _trace_duplicates(t: SparseTensor) -> SparseTensor:
    """Merge repeated axes (a wire with both endpoints on one tensor)."""
    first: dict[int, int] = {}
    dup = False
    for i, a in enumerate(t.axes):
        if a in first:
            dup = True
        else:
            first[a] = i
    if not dup:
        return t
    keep_pos = []
    seen: set[int] = set()
    for i, a in enumerate(t.axes):
        if a not in seen:
            seen.add(a)
            keep_pos.append(i)
    out: dict[tuple, int] = {}
    for tup, v in t.entries.items():
        if any(tup[i] != tup[first[a]] for i, a in enumerate(t.axes)):
            continue
        k = tuple(tup[i] for i in keep_pos)
        out[k] = out.get(k, 0) + v
    return SparseTensor([t.axes[i] for i in keep_pos], out)


def _pair_contract(t1: SparseTensor, t2: SparseTensor, kill: set[int]) -> SparseTensor:
    """Contract two tensors, summing out the wires in `kill`."""
    shared = [a for a in t1.axes if a in t2.axes]
    out_axes = [a for a in t1.axes if a not in kill] + [
        a for a in t2.axes if a not in shared and a not in kill
    ]
    s_pos2 = [t2.axes.index(a) for a in shared]
    s_pos1 = [t1.axes.index(a) for a in shared]
    keep1 = [i for i, a in enumerate(t1.axes) if a not in kill]
    keep2 = [
        i for i, a in enumerate(t2.axes) if a not in shared and a not in kill
    ]
    index2: dict[tuple, list[tuple]] = {}
    for tup in t2.entries:
        index2.setdefault(tuple(tup[i] for i in s_pos2), []).append(tup)
    out: dict[tuple, int] = {}
    for tup1, v1 in t1.entries.items():
        skey = tuple(tup1[i] for i in s_pos1)
        for tup2 in index2.get(skey, ()):
            k = tuple(tup1[i] for i in keep1) + tuple(tup2[i] for i in keep2)
            out[k] = out.get(k, 0) + v1 * t2.entries[tup2]
    return SparseTensor(out_axes, out)


def contract_network(
    net: Network,
    relation_of: Callable[[TensorNode], Iterable[tuple]],
    size_of: Callable[[WireType], int],
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> SparseTensor:
    """Contract the whole network down to a tensor over the free wires.

    Each tensor node is the 0/1 indicator of ``relation_of(node)``, its
    generator's relation as flat tuples (ins then outs).  The result maps
    each boundary tuple to its witness count, a positive integer; tuples
    with no witness are absent.  The contraction order is greedy: each step
    merges the pair of tensors whose result has the smallest estimated
    dense size, with deterministic tie-breaking.
    """
    for w in net.wire_types.values():
        if size_of(w) > cell_budget:
            raise DiagramError(
                f"carrier for wire type {w} exceeds the {cell_budget} budget"
            )
    free = set(net.free)
    tensors: list[SparseTensor] = []
    for tn in net.tensors:
        t = SparseTensor(list(tn.axes), dict.fromkeys(relation_of(tn), 1))
        if tn.summed:
            # marginalize discarded outputs right away
            keep = [a for i, a in enumerate(t.axes) if i not in tn.summed]
            # a discarded wire may coincide with a kept one only via aliasing;
            # summing the axis out is still correct because the wire is open
            t = t.project(keep)
        tensors.append(_trace_duplicates(t))

    def degree() -> dict[int, int]:
        deg: dict[int, int] = {}
        for t in tensors:
            for a in t.axes:
                deg[a] = deg.get(a, 0) + 1
        return deg

    def est_size(axes: Sequence[int]) -> int:
        n = 1
        for a in axes:
            n *= size_of(net.wire_types[a])
        return n

    while len(tensors) > 1:
        deg = degree()
        best = None
        for i in range(len(tensors)):
            for j in range(i + 1, len(tensors)):
                shared = set(tensors[i].axes) & set(tensors[j].axes)
                if not shared:
                    continue
                kill = {a for a in shared if deg[a] == 2 and a not in free}
                axes = [a for a in tensors[i].axes + tensors[j].axes if a not in kill]
                key = (est_size(set(axes)), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j, kill)
        if best is None:  # disconnected components: outer product
            i, j = 0, 1
            kill: set[int] = set()
        else:
            _, i, j, kill = best
        merged = _pair_contract(tensors[i], tensors[j], kill)
        tensors = [t for p, t in enumerate(tensors) if p not in (i, j)]
        tensors.append(_trace_duplicates(merged))
    result = tensors[0] if tensors else SparseTensor([], {(): 1})
    # sum out any non-free leftover axes (open discarded wires)
    result = result.project([a for a in result.axes if a in free])
    loop_scalar = 1
    for w in net.loops:  # a closed wire loop traces to its carrier size
        loop_scalar *= size_of(w)
    # reorder axes to the boundary order
    order = [a for a in net.free if a in result.axes]
    pos = [result.axes.index(a) for a in order]
    entries = {
        tuple(tup[i] for i in pos): v * loop_scalar
        for tup, v in result.entries.items()
    }
    return SparseTensor(order, entries)
