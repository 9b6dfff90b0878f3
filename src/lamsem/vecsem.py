"""Vector-space semantics on the free subset-indexed basis.

Every word and generator denotes the indicator tensor of its finite
relation (entry 1 at each tuple of :func:`lamsem.relsem.word_entries` or
:func:`lamsem.relsem.generator_entries`).  A sentence diagram contracts to
one scalar, the sum of the witness counts of :func:`lamsem.relsem.evaluate`,
whose support is the relational semantics: the scalar is non-zero exactly
when the relation is non-empty.  The model keeps those counts, so reading the
scalar after the relation of a diagram does not contract again.
"""
from __future__ import annotations

from .diagram import Diagram
from .model import Model

# contract_network is re-exported: bench/tracing.py wraps every module's
# binding of it, and bench/test_bench.py expects one here.
from .planner import DEFAULT_CELL_BUDGET, contract_network  # noqa: F401
from .relsem import DEFAULT_K, FinRel, SemanticsError, evaluate


def eval_diagram_vec(
    d: Diagram, m: Model, k: int = DEFAULT_K, budget: int = DEFAULT_CELL_BUDGET
) -> int:
    """The witness count of a closed sentence diagram, an exact integer."""
    if d.inputs:
        raise SemanticsError("scalar evaluation needs a closed diagram")
    return sum(evaluate(d, m, k, budget).values())


def check_equivalence(rel: FinRel, scalar: int) -> bool:
    """True iff the vector scalar is non-zero exactly when Rel is true.

    Both readings come from the same exact contraction, so this checks the
    two public readings of it, not the contraction itself.  The independent
    check is the brute-force evaluator in ``tests/reference.py``, which
    counts wire assignments without the planner.
    """
    return (scalar != 0) == rel.nonempty
