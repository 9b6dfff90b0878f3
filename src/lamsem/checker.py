"""Independent proof checking against the rule schemas.

This module re-derives the premise/conclusion match of every node directly
from the rule schemas; it shares no code path with the search in
:mod:`lamsem.prover`.
"""
from __future__ import annotations

from .formula import (
    Bang,
    Nabla,
    Over,
    Sequent,
    Tensor,
    Under,
    format_sequent,
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


class ProofCheckError(ValueError):
    def __init__(self, node: ProofTree, condition: str):
        super().__init__(
            f"rule {node.rule} at {format_sequent(node.conclusion)}: {condition}"
        )
        self.node = node
        self.condition = condition


def verify_proof(t: ProofTree, k: int = 2) -> None:
    """Raise :class:`ProofCheckError` at the first offending node."""
    ant, succ = t.conclusion.antecedent, t.conclusion.succedent

    def fail(condition: str) -> ProofCheckError:
        return ProofCheckError(t, condition)

    def expect_premises(count: int) -> None:
        if len(t.premises) != count:
            raise fail(f"expected {count} premises, got {len(t.premises)}")

    if t.rule == AXIOM:
        expect_premises(0)
        if len(ant) != 1 or ant[0] != succ:
            raise fail("axiom must have shape A -> A")
    elif t.rule == UNDER_L:
        expect_premises(2)
        pos, sigma_len = t.get("pos"), t.get("sigma_len")
        if not (0 <= pos < len(ant)) or not isinstance(ant[pos], Under):
            raise fail("principal formula is not a left division")
        f: Under = ant[pos]
        if sigma_len < 1 or sigma_len > pos:
            raise fail("sigma must be a non-empty block left of the principal formula")
        sigma = ant[pos - sigma_len : pos]
        rest = ant[: pos - sigma_len] + (f.right,) + ant[pos + 1 :]
        if t.premises[0].conclusion != Sequent(sigma, f.left):
            raise fail("first premise does not match sigma -> argument")
        if t.premises[1].conclusion != Sequent(rest, succ):
            raise fail("second premise does not match the residual sequent")
    elif t.rule == OVER_L:
        expect_premises(2)
        pos, sigma_len = t.get("pos"), t.get("sigma_len")
        if not (0 <= pos < len(ant)) or not isinstance(ant[pos], Over):
            raise fail("principal formula is not a right division")
        f: Over = ant[pos]
        if sigma_len < 1 or pos + 1 + sigma_len > len(ant):
            raise fail("sigma must be a non-empty block right of the principal formula")
        sigma = ant[pos + 1 : pos + 1 + sigma_len]
        rest = ant[:pos] + (f.left,) + ant[pos + 1 + sigma_len :]
        if t.premises[0].conclusion != Sequent(sigma, f.right):
            raise fail("first premise does not match sigma -> argument")
        if t.premises[1].conclusion != Sequent(rest, succ):
            raise fail("second premise does not match the residual sequent")
    elif t.rule == TENSOR_L:
        expect_premises(1)
        pos = t.get("pos")
        if not (0 <= pos < len(ant)) or not isinstance(ant[pos], Tensor):
            raise fail("principal formula is not a product")
        f: Tensor = ant[pos]
        premise = ant[:pos] + (f.left, f.right) + ant[pos + 1 :]
        if t.premises[0].conclusion != Sequent(premise, succ):
            raise fail("premise does not split the product in place")
    elif t.rule == TENSOR_R:
        expect_premises(2)
        split = t.get("split")
        if not isinstance(succ, Tensor):
            raise fail("succedent is not a product")
        if not (1 <= split <= len(ant) - 1):
            raise fail("split must leave both sides non-empty")
        if t.premises[0].conclusion != Sequent(ant[:split], succ.left):
            raise fail("left premise mismatch")
        if t.premises[1].conclusion != Sequent(ant[split:], succ.right):
            raise fail("right premise mismatch")
    elif t.rule == UNDER_R:
        expect_premises(1)
        if not isinstance(succ, Under):
            raise fail("succedent is not a left division")
        if t.premises[0].conclusion != Sequent((succ.left,) + ant, succ.right):
            raise fail("premise must prepend the argument")
    elif t.rule == OVER_R:
        expect_premises(1)
        if not isinstance(succ, Over):
            raise fail("succedent is not a right division")
        if t.premises[0].conclusion != Sequent(ant + (succ.right,), succ.left):
            raise fail("premise must append the argument")
    elif t.rule == BANG_L:
        expect_premises(1)
        pos, copies = t.get("pos"), t.get("n")
        if not (0 <= pos < len(ant)) or not isinstance(ant[pos], Bang):
            raise fail("principal formula is not a !-formula")
        if not (1 <= copies <= k):
            raise fail(f"copy count n={copies} outside 1..k with k={k}")
        f: Bang = ant[pos]
        premise = ant[:pos] + (f.inner,) * copies + ant[pos + 1 :]
        if t.premises[0].conclusion != Sequent(premise, succ):
            raise fail("premise does not hold the right number of copies in place")
    elif t.rule == BANG_R:
        expect_premises(1)
        if len(ant) != 1 or not isinstance(ant[0], Bang) or not isinstance(succ, Bang):
            raise fail("!R requires a single !-formula on each side")
        if t.premises[0].conclusion != Sequent((ant[0].inner,), succ.inner):
            raise fail("premise must strip the modality on both sides")
    elif t.rule == NABLA_L:
        expect_premises(1)
        pos = t.get("pos")
        if not (0 <= pos < len(ant)) or not isinstance(ant[pos], Nabla):
            raise fail("principal formula is not a @-formula")
        f: Nabla = ant[pos]
        premise = ant[:pos] + (f.inner,) + ant[pos + 1 :]
        if t.premises[0].conclusion != Sequent(premise, succ):
            raise fail("premise does not strip the modality in place")
    elif t.rule == NABLA_R:
        expect_premises(1)
        if len(ant) != 1 or not isinstance(ant[0], Nabla) or not isinstance(succ, Nabla):
            raise fail("@R requires a single @-formula on each side")
        if t.premises[0].conclusion != Sequent((ant[0].inner,), succ.inner):
            raise fail("premise must strip the modality on both sides")
    elif t.rule == PERM:
        expect_premises(1)
        src, dst = t.get("src"), t.get("dst")
        p_ant = t.premises[0].conclusion.antecedent
        if t.premises[0].conclusion.succedent != succ:
            raise fail("permutation may not change the succedent")
        if not (0 <= src < len(p_ant)):
            raise fail("source position out of range")
        if not isinstance(p_ant[src], Nabla):
            raise fail("only @-formulas may be permuted")
        moved = list(p_ant)
        item = moved.pop(src)
        if not (0 <= dst <= len(moved)):
            raise fail("target position out of range")
        moved.insert(dst, item)
        if tuple(moved) != ant:
            raise fail("conclusion is not the premise with the formula moved")
    else:
        raise fail(f"unknown rule {t.rule!r}")

    for p in t.premises:
        verify_proof(p, k)


def check_proof_report(t: ProofTree, k: int = 2) -> str | None:
    """None if the proof checks; otherwise the first failure's diagnostic."""
    try:
        verify_proof(t, k)
    except ProofCheckError as e:
        return str(e)
    return None
