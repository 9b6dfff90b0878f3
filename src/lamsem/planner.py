"""Tensor-network extraction and contraction planning for diagram evaluation.

A :class:`~lamsem.diagram.Diagram` is turned into a network of sparse tensors,
one per non-structural generator; structural generators (Cup, Cap, Swap, Id)
only identify wires and are compiled away by a union-find.  Every tensor is the
0/1 indicator of its generator's relation, contracted with exact integers: each
entry of the result counts the witnesses of its boundary tuple (the relation is
its support, the vector scalar its sum).

A :class:`Plan` holds the network, each leaf's marginalize and trace
positions, the pair order and the boundary reorder, as index getters.  Leaves
are lazy: each is built at the first step that takes it, and one that maps
inputs to outputs only on the values its wires already take in another
operand, port by port: a semi-join, so counts stay exact.  The greedy pair
order ranks steps by upper bounds on the entries they build and output, given
per generator by the caller; their maximum is the plan's ``bound``, which
:func:`lamsem.relsem.evaluate` checks against the cell budget
:data:`lamsem.relsem.CELL_BUDGET` before anything is built.  A plan reads the
model only through carrier sizes and those bounds, so relsem caches one per
(diagram, |U|, k) and runs it on every model.  While the one trace channel
:data:`lamsem.prover.TRACE` holds a callable, each contraction step reports
its slots, how each side is built and its entry counts to it.
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
    Generator,
    Id,
    Swap,
    WireType,
)
from .prover import TRACE


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
    if len(pos) > 1:
        return itemgetter(*pos)
    # a slice of a tuple is a tuple: of one item, or of none
    return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


@dataclass(frozen=True)
class Plan:
    """A fixed contraction of one network at fixed carrier sizes.

    Leaf ``i`` fills slot ``i`` when it is first built, step ``s`` slot
    ``len(leaves) + s``.  A leaf is ``None`` (kept as is) or (equality
    checks, key getter).  A step is ``(slot1, slot2, shared1, shared2,
    keep1, keep2, groups1, groups2, builds)``: each side's getters of its
    shared-wire key and of the positions it keeps; each side's groups of
    (ports, source slot, getter), a leaf being built only on the distinct
    tuples each getter takes from its source at those ports; and how each
    side is built (see :func:`plan_network`).  ``bound`` bounds the entries
    of every tensor the plan builds or outputs; ``loop_scalar`` is the
    product of the carrier sizes of the network's closed wire loops.
    """

    net: Network
    leaves: tuple[tuple[tuple[tuple[int, int], ...], Getter] | None, ...]
    steps: tuple[tuple, ...]
    reorder: Getter
    bound: int
    loop_scalar: int


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


def plan_network(
    net: Network,
    size_of: Callable[[WireType], int],
    bound_of: Callable[[Generator], tuple[int, int | None, int | None]],
) -> Plan:
    """Fix the pair order and the index getters of a network's contraction.

    ``bound_of(gen)`` bounds the entries of a generator's relation and, for
    one that maps inputs to outputs, the outputs of one input tuple (its
    fanout) and, if its outputs determine its inputs, the inputs of one
    output tuple (its fanin); None where they do not apply.  A step that
    takes such a leaf builds it on, at each kept port, the values of the
    operand with the smallest bound that holds the port's wire by then: the
    merge partner (built first), an earlier result, or a leaf always built
    whole (a word or unit), built early and kept in its slot.  Ports with
    none range over their carriers.  Every operand is a factor of what is
    left, so a tuple no other factor agrees with adds nothing (a semi-join).
    Each step merges the pair with the smallest bound on the entries it
    builds plus those it outputs, ties broken by position; a result is
    bounded by the product of its operands' bounds and by its dense size.
    """
    free = set(net.free)
    n_leaves = len(net.tensors)
    leaves = []
    live: list[tuple[int, list[int], int]] = []  # (slot, axes, entry bound)
    bounds = [bound_of(tn.gen) for tn in net.tensors]

    def dense(axes) -> int:
        return prod(size_of(net.wire_types[a]) for a in axes)

    for tn, (entries, _, _) in zip(net.tensors, bounds):
        leaf, axes = _leaf(tn)
        leaves.append(leaf)
        live.append((len(live), axes, min(entries, dense(axes))))

    def side(op, partner, sources):
        """Bounds on the entries `op` builds, has and meets per `partner`
        tuple; how it is built; its groups of (ports, source, positions)."""
        slot, _, b = op
        entries, fanout, fanin = bounds[slot] if slot < n_leaves else (0, None, None)
        if fanout is None:
            return entries, b, b, "whole" if slot < n_leaves else "result", ()
        tn = net.tensors[slot]
        n_in, dropped = len(tn.gen.ins), {tn.axes[p] for p in tn.summed}
        groups: dict[tuple[int, bool], list[int]] = {}  # (source index, outputs?): ports
        for p, a in enumerate(tn.axes):
            held = [n for n, o in enumerate(sources) if a in o[1]]
            if held and a not in dropped:
                src = min(held, key=lambda n: sources[n][2])
                groups.setdefault((src, p >= n_in), []).append(p)
        carried = {p for ports in groups.values() for p in ports}

        def tuples(ports) -> int:
            n = dense(tn.axes[p] for p in ports if p not in carried)
            for (src, _), group in groups.items():
                n *= min(sources[src][2], dense({tn.axes[p] for p in group if p in ports}))
            return n

        ins, outs = range(n_in), range(n_in, len(tn.axes))
        n_ins = tuples(ins)
        built = min(entries, n_ins * fanout)
        if carried.issuperset(outs):
            built = min(built, tuples(outs) * min(n_ins, fanin or n_ins))
        per = fanout * dense(a for a in tn.axes[:n_in] if a not in partner[1])
        if fanin and set(tn.axes[n_in:]) <= set(partner[1]):
            per = min(per, fanin)
        how = " and ".join(
            name if carried.issuperset(r) else "some " + name
            for r, name in ((ins, "inputs"), (outs, "outputs")) if carried.intersection(r)
        )
        got = tuple((tuple(ports), sources[n][0], _getter(
            [sources[n][1].index(tn.axes[p]) for p in ports])) for (n, _), ports in groups.items())
        return built, min(b, built), min(per, built), how or "whole", got

    steps = []
    peak = bounds[0][0] if n_leaves == 1 else 0
    slot = n_leaves
    while len(live) > 1:
        deg = Counter(a for _, axes, _ in live for a in axes)
        pairs = [
            (i, j, set(live[i][1]) & set(live[j][1]))
            for i in range(len(live))
            for j in range(i + 1, len(live))
        ]
        # operands that exist before a step: results and leaves built whole
        ready = [o for o in live if o[0] >= n_leaves or bounds[o[0]][1] is None]
        best = None
        # no pair shares a wire (disconnected components): outer product
        for i, j, shared in [p for p in pairs if p[2]] or pairs[:1]:
            kill = {a for a in shared if deg[a] == 2 and a not in free}
            size = dense({a for a in live[i][1] + live[j][1] if a not in kill})
            others = [o for o in ready if o is not live[i] and o is not live[j]]
            for one, other in ((live[i], live[j]), (live[j], live[i])):
                built1, has1, per1, how1, got1 = side(one, other, others)
                built2, has2, per2, how2, got2 = side(other, one, [one] + others)
                out = min(has1 * per2, per1 * has2, size)
                key = (built1 + built2 + out, i, j, len(got1))
                if best is None or key < best[0]:
                    top = max(built1, built2, out)
                    best = (key, one, other, kill, top, out, (how1, how2), got1, got2)
        _, one, other, kill, top, bound, builds, got1, got2 = best
        peak = max(peak, top)
        (s1, axes1, _), (s2, axes2, _) = one, other
        shared = [a for a in axes1 if a in axes2]
        keep1 = [p for p, a in enumerate(axes1) if a not in kill]
        keep2 = [p for p, a in enumerate(axes2) if a not in shared and a not in kill]
        pos1 = [axes1.index(a) for a in shared]
        pos2 = [axes2.index(a) for a in shared]
        getters = map(_getter, (pos1, pos2, keep1, keep2))
        steps.append((s1, s2, *getters, got1, got2, builds))
        axes = [axes1[p] for p in keep1] + [axes2[p] for p in keep2]
        live = [t for t in live if t is not one and t is not other]
        live.append((slot, axes, min(bound, dense(axes))))
        slot += 1
    last = live[0][1] if live else []
    reorder = _getter([last.index(a) for a in net.free if a in last])
    # a closed wire loop traces to its carrier size
    loop_scalar = prod(size_of(w) for w in net.loops)
    return Plan(net, tuple(leaves), tuple(steps), reorder, peak, loop_scalar)


def contract_network(
    plan: Plan, relation_of: Callable[[TensorNode, Sequence], Iterable[tuple]]
) -> dict[tuple, int]:
    """Contract a planned network down to a tensor over the free wires.

    Each tensor node is the 0/1 indicator of ``relation_of(node, carried)``,
    its generator's relation as flat tuples (ins then outs), only those whose
    values at the ports of each (ports, values) pair in `carried` are among
    its values.  The result maps each boundary tuple (in boundary order) to
    its witness count, a positive integer; tuples with no witness are absent.
    """
    net = plan.net
    slots: list[dict[tuple, int] | None] = [None] * len(net.tensors)

    def operand(slot: int, groups=()) -> dict[tuple, int]:
        """The tensor in `slot`, a leaf built there first if it is not yet."""
        if slots[slot] is None:
            carried = groups and [(p, set(map(get, operand(s)))) for p, s, get in groups]
            leaf = plan.leaves[slot]
            entries = dict.fromkeys(relation_of(net.tensors[slot], carried), 1)
            slots[slot] = entries if leaf is None else _sum_by(entries, leaf[1], leaf[0])
        return slots[slot]

    trace = TRACE.get()
    for n, step in enumerate(plan.steps):
        s1, s2, shared1, shared2, keep1, keep2, groups1, groups2, builds = step
        t1, t2 = operand(s1, groups1), operand(s2, groups2)
        slots[s1] = slots[s2] = {}  # free merged tensors as we go
        index2: dict[tuple, list[tuple[tuple, int]]] = {}
        for tup, v in t2.items():
            index2.setdefault(shared2(tup), []).append((keep2(tup), v))
        out: dict[tuple, int] = {}
        for tup, v1 in t1.items():
            matches = index2.get(shared1(tup))
            if matches:
                head = keep1(tup)
                for tail, v2 in matches:
                    k = head + tail
                    out[k] = out.get(k, 0) + v1 * v2
        slots.append(out)
        if trace is not None:
            trace({
                "step": n,
                "slots": [s1, s2],
                "build": list(builds),
                "entries_in": [len(t1), len(t2)],
                "entries_out": len(out),
            })
    last = slots[-1] if plan.steps else operand(0) if slots else {(): 1}
    result = _sum_by(last, plan.reorder)
    return {k: v * plan.loop_scalar for k, v in result.items()}
