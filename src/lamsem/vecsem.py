"""Vector-space semantics on the free subset-indexed basis.

Every word and generator denotes the indicator tensor of its finite
relation (entry 1 at each related tuple).  A sentence diagram contracts to
a single scalar that counts the relational witnesses.  It is read off the
same exact integer contraction that gives the relational semantics
(:func:`lamsem.relsem._witness_counts`), whose relation is the support of
the counts, so the scalar is non-zero exactly when the relation is
non-empty.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagram import Diagram, Generator, WireType
from .formula import Formula
from .model import Model

# contract_network is re-exported: bench/tracing.py wraps every module's
# binding of it, and bench/test_bench.py expects one here.
from .planner import DEFAULT_CELL_BUDGET, contract_network  # noqa: F401
from .relsem import (
    DEFAULT_K,
    SemanticsError,
    _witness_counts,
    eval_diagram_rel,
    generator_entries,
    word_entries,
)


@dataclass(frozen=True)
class SparseTensor:
    """Sparse indicator-style tensor: axis wire types plus non-zero entries."""

    shape: tuple[WireType, ...]
    entries: dict  # multi-index tuple -> scalar

    def __post_init__(self) -> None:
        for tup, v in self.entries.items():
            if v == 0:
                raise SemanticsError("sparse tensors must not store zeros")
            if len(tup) != len(self.shape):
                raise SemanticsError("entry index does not match tensor rank")


def _indicator(entries: set[tuple], shape: tuple[WireType, ...]) -> SparseTensor:
    return SparseTensor(shape, {tup: 1 for tup in entries})


def interp_word_vec(
    word: str, f: Formula, m: Model, k: int = DEFAULT_K
) -> SparseTensor:
    from .diagram import formula_wires

    return _indicator(word_entries(word, f, m, k), formula_wires(f))


def generator_vec(g: Generator, m: Model, k: int = DEFAULT_K) -> SparseTensor:
    return _indicator(generator_entries(g, m, k), g.ins + g.outs)


def eval_diagram_vec(
    d: Diagram,
    m: Model,
    k: int = DEFAULT_K,
    budget: int = DEFAULT_CELL_BUDGET,
    use_float: bool = False,
) -> int | float:
    """Contract the full tensor network of a closed sentence diagram.

    Returns the witness count as an exact non-negative integer (or that
    count as a float when `use_float` is set — the default is exact because
    the truth criterion is "non-zero").
    """
    if d.inputs:
        raise SemanticsError("scalar evaluation needs a closed diagram")
    # remaining free axes are output wires; sum them out to a scalar
    total = sum(_witness_counts(d, m, k, budget).values())
    return float(total) if use_float else total


def check_equivalence(
    d: Diagram, m: Model, k: int = DEFAULT_K, budget: int = DEFAULT_CELL_BUDGET
) -> bool:
    """True iff the vector scalar is non-zero exactly when Rel is true.

    Both sides are read off the same exact contraction, so this checks the
    two public readings of it, not the contraction itself.  The independent
    check is the brute-force evaluator in ``tests/reference.py``, which
    counts wire assignments without the planner.
    """
    scalar = eval_diagram_vec(d, m, k, budget)
    rel = eval_diagram_rel(d, m, k, budget)
    return (scalar != 0) == rel.nonempty
