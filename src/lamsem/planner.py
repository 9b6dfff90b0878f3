"""Tensor-network extraction and contraction planning for diagram evaluation.

A :class:`~lamsem.diagram.Diagram` is turned into a network of sparse tensors,
one per non-structural generator; structural generators (Cup, Cap, Swap, Id)
only identify wires and are compiled away by a union-find.  Every tensor is the
0/1 indicator of its generator's relation, contracted with exact integers: each
entry of the result counts the witnesses of its boundary tuple (the relation is
its support, the vector scalar its sum).  A :class:`Plan` holds the network,
each leaf's marginalize and trace positions, the pair order and the boundary
reorder, as index getters.  It reads the model only through carrier sizes, so
relsem caches one per (diagram, |U|, k) and runs it on every model.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import itemgetter
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


Getter = Callable[[tuple], tuple]


def _getter(pos: Sequence[int]) -> Getter:
    """``itemgetter`` over `pos` that returns a tuple for any length."""
    if len(pos) == 1:
        i = pos[0]
        return lambda tup: (tup[i],)
    return itemgetter(*pos) if pos else lambda tup: ()


@dataclass(frozen=True)
class Plan:
    """A fixed contraction of one network at fixed carrier sizes.

    Leaf ``i`` fills slot ``i``, step ``s`` slot ``len(leaves) + s``.  A leaf is
    ``None`` (kept as is) or (equality checks, key getter).  A step is
    ``(slot1, slot2, shared1, shared2, keep1, keep2)``: each side's getters of
    its shared-wire key and of the positions it keeps.
    """

    net: Network
    leaves: tuple[tuple[tuple[tuple[int, int], ...], Getter] | None, ...]
    steps: tuple[tuple[int, int, Getter, Getter, Getter, Getter], ...]
    reorder: Getter


def _leaf(tn: TensorNode):
    """A leaf's reduction and its axes after marginalizing and tracing."""
    keep = [a for i, a in enumerate(tn.axes) if i not in tn.summed]
    # a discarded wire may coincide with a kept one only via aliasing;
    # summing the axis out is still correct because the wire is open
    pos = [tn.axes.index(a) for a in keep] if tn.summed else range(len(keep))
    first: dict[int, int] = {}
    for i, a in enumerate(keep):
        first.setdefault(a, i)
    if not tn.summed and len(first) == len(keep):
        return None, keep
    checks = tuple(
        (pos[i], pos[first[a]]) for i, a in enumerate(keep) if first[a] != i
    )
    return (checks, _getter([pos[i] for i in first.values()])), list(first)


def _sum_by(
    entries: dict[tuple, int], key_of: Getter, checks: Sequence[tuple[int, int]] = ()
) -> dict[tuple, int]:
    """Sum the entries that pass the equality checks by their new keys."""
    out: dict[tuple, int] = {}
    for tup, v in entries.items():
        if all(tup[p] == tup[q] for p, q in checks):
            k = key_of(tup)
            out[k] = out.get(k, 0) + v
    return out


def plan_network(net: Network, size_of: Callable[[WireType], int]) -> Plan:
    """Fix the pair order and the index getters of a network's contraction.

    The order is greedy: each step merges the pair of tensors whose result
    has the smallest estimated dense size, ties broken by position.  It reads
    only axes and carrier sizes, so one plan serves every model of a size.
    """
    free = set(net.free)
    leaves = []
    live: list[tuple[int, list[int]]] = []  # (slot, axes) of unmerged tensors
    for tn in net.tensors:
        leaf, axes = _leaf(tn)
        leaves.append(leaf)
        live.append((len(live), axes))
    steps = []
    slot = len(live)
    while len(live) > 1:
        deg = Counter(a for _, axes in live for a in axes)
        best = None
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                shared = set(live[i][1]) & set(live[j][1])
                if not shared:
                    continue
                kill = {a for a in shared if deg[a] == 2 and a not in free}
                axes = {a for a in live[i][1] + live[j][1] if a not in kill}
                key = (prod(size_of(net.wire_types[a]) for a in axes), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j, kill)
        # no pair shares a wire (disconnected components): outer product
        _, i, j, kill = best or (None, 0, 1, set())
        (s1, axes1), (s2, axes2) = live[i], live[j]
        shared = [a for a in axes1 if a in axes2]
        keep1 = [p for p, a in enumerate(axes1) if a not in kill]
        keep2 = [p for p, a in enumerate(axes2) if a not in shared and a not in kill]
        pos1 = [axes1.index(a) for a in shared]
        pos2 = [axes2.index(a) for a in shared]
        steps.append((s1, s2, *map(_getter, (pos1, pos2, keep1, keep2))))
        live = [t for p, t in enumerate(live) if p not in (i, j)]
        live.append((slot, [axes1[p] for p in keep1] + [axes2[p] for p in keep2]))
        slot += 1
    last = live[0][1] if live else []
    reorder = _getter([last.index(a) for a in net.free if a in last])
    return Plan(net, tuple(leaves), tuple(steps), reorder)


def contract_network(
    plan: Plan,
    relation_of: Callable[[TensorNode], Iterable[tuple]],
    size_of: Callable[[WireType], int],
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> dict[tuple, int]:
    """Contract a planned network down to a tensor over the free wires.

    Each tensor node is the 0/1 indicator of ``relation_of(node)``, its
    generator's relation as flat tuples (ins then outs).  The result maps
    each boundary tuple (in boundary order) to its witness count, a positive
    integer; tuples with no witness are absent.
    """
    net = plan.net
    for w in net.wire_types.values():
        if size_of(w) > cell_budget:
            raise DiagramError(
                f"carrier for wire type {w} exceeds the {cell_budget} budget"
            )
    slots: list[dict[tuple, int]] = []
    for tn, leaf in zip(net.tensors, plan.leaves):
        entries = dict.fromkeys(relation_of(tn), 1)
        slots.append(entries if leaf is None else _sum_by(entries, leaf[1], leaf[0]))
    for s1, s2, shared1, shared2, keep1, keep2 in plan.steps:
        index2: dict[tuple, list[tuple[tuple, int]]] = {}
        for tup, v in slots[s2].items():
            index2.setdefault(shared2(tup), []).append((keep2(tup), v))
        t1 = slots[s1]
        slots[s1] = slots[s2] = {}  # free merged tensors as we go
        out: dict[tuple, int] = {}
        for tup, v1 in t1.items():
            matches = index2.get(shared1(tup))
            if matches:
                head = keep1(tup)
                for tail, v2 in matches:
                    k = head + tail
                    out[k] = out.get(k, 0) + v1 * v2
        slots.append(out)
    # a closed wire loop traces to its carrier size
    loop_scalar = prod(size_of(w) for w in net.loops)
    result = _sum_by(slots[-1] if slots else {(): 1}, plan.reorder)
    return {k: v * loop_scalar for k, v in result.items()}
