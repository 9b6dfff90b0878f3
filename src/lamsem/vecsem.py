"""Vector-space semantics on the free subset-indexed basis.

Every word and generator denotes the indicator tensor of its finite
relation (entry 1 at each tuple of :func:`lamsem.relsem.word_entries` or
:func:`lamsem.relsem.generator_entries`).  A sentence diagram contracts to
a single scalar that counts the relational witnesses.  It is read off the
same exact integer contraction that gives the relational semantics
(:func:`lamsem.relsem._witness_counts`), whose relation is the support of
the counts, so the scalar is non-zero exactly when the relation is
non-empty.
"""
from __future__ import annotations

from .diagram import Diagram
from .model import Model

# contract_network is re-exported: bench/tracing.py wraps every module's
# binding of it, and bench/test_bench.py expects one here.
from .planner import DEFAULT_CELL_BUDGET, contract_network  # noqa: F401
from .relsem import DEFAULT_K, FinRel, SemanticsError, _witness_counts


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


def check_equivalence(rel: FinRel, scalar: int | float) -> bool:
    """True iff the vector scalar is non-zero exactly when Rel is true.

    Both readings come from the same exact contraction, so this checks the
    two public readings of it, not the contraction itself.  The independent
    check is the brute-force evaluator in ``tests/reference.py``, which
    counts wire assignments without the planner.
    """
    return (scalar != 0) == rel.nonempty
