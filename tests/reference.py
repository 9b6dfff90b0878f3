"""Brute-force reference evaluator: an oracle for both semantic backends.

It reads a diagram straight from ``Diagram.nodes``, ``Diagram.edges`` and its
boundary lists, with no planner and no union-find.  Each
node is visited right after the nodes that feed it (a depth-first topological
order, which keeps the number of partial assignments small).  Every partial
assignment of values to ports is extended by each ``generator_entries`` tuple
of the node whose input values match those already on the ports feeding it.
The result maps each boundary tuple (input values then output values) to the
number of complete assignments that produce it: the witness count that
``eval_diagram_vec`` sums, and whose support ``eval_diagram_rel`` returns.

A ``FockLift`` node's entries come from ``generator_entries``, which evaluates
its inner diagram with the planner; the bundled sentences contain no
``FockLift``, so on them this evaluator shares nothing with the contraction.
"""
from __future__ import annotations

import itertools
from collections import Counter

from lamsem.relsem import generator_entries, interp_object


def reference_counts(d, m, k: int) -> dict[tuple, int]:
    feed = {(e.dst, e.dst_port): (e.src, e.src_port) for e in d.edges}
    feed.update({port: ("in", i) for i, port in enumerate(d.inputs)})
    order: list[int] = []

    def visit(n: int) -> None:
        if n not in order:
            srcs = {feed[(n, p)][0] for p in range(len(d.nodes[n].ins))}
            for src in sorted(srcs - {"in"}):
                visit(src)
            order.append(n)

    for n in range(len(d.nodes)):
        visit(n)
    carriers = [interp_object(w, m, k) for w in d.input_types()]
    states = [
        {("in", i): v for i, v in enumerate(vals)}
        for vals in itertools.product(*carriers)
    ]
    for n in order:
        n_in = len(d.nodes[n].ins)
        outs_of: dict[tuple, list[tuple]] = {}
        for t in generator_entries(d.nodes[n], m, k):
            outs_of.setdefault(t[:n_in], []).append(t[n_in:])
        states = [
            {**s, **{(n, p): v for p, v in enumerate(outs)}}
            for s in states
            for outs in outs_of.get(tuple(s[feed[(n, p)]] for p in range(n_in)), ())
        ]
    boundary = [("in", i) for i in range(len(d.inputs))] + list(d.outputs)
    return dict(Counter(tuple(s[b] for b in boundary) for s in states))
