"""The checker must reject every structurally broken proof with a precise
diagnostic, independently of how the search produced the original tree."""
from __future__ import annotations

import dataclasses

import pytest

from lamsem import (
    Nabla,
    ProofCheckError,
    ProofTree,
    SearchConfig,
    Sequent,
    check_proof_report,
    parse_formula,
    parse_sequent,
    prove,
    verify_proof,
)

ATOMS = ("np", "n", "s")


def seq(text: str) -> Sequent:
    return parse_sequent(text, ATOMS)


def proof_of(text: str, k: int = 2) -> ProofTree:
    result = prove(seq(text), SearchConfig(k=k))
    assert result.proofs, f"expected {text} to be provable"
    return result.proofs[0]


def find_node(t: ProofTree, rule: str) -> ProofTree:
    stack = [t]
    while stack:
        node = stack.pop()
        if node.rule == rule:
            return node
        stack.extend(node.premises)
    raise AssertionError(f"no {rule} node in proof")


def replace_node(t: ProofTree, old: ProofTree, new: ProofTree) -> ProofTree:
    if t is old:
        return new
    return dataclasses.replace(
        t, premises=tuple(replace_node(p, old, new) for p in t.premises)
    )


def with_data(t: ProofTree, **overrides: int) -> ProofTree:
    data = tuple((k, overrides.get(k, v)) for k, v in t.data)
    return dataclasses.replace(t, data=data)


def expect_reject(t: ProofTree, fragment: str, k: int = 2) -> None:
    report = check_proof_report(t, k)
    assert report is not None and fragment in report, report
    with pytest.raises(ProofCheckError) as exc:
        verify_proof(t, k)
    assert fragment in str(exc.value)


@pytest.fixture(scope="module")
def eq1() -> ProofTree:
    # np, (np\s)/np, np -> s
    return proof_of("np, np\\s/np, np -> s")


@pytest.fixture(scope="module")
def modal() -> ProofTree:
    # exercises !L, @L, Perm and *R in one tree
    return proof_of("!@np, np\\s, @np\\np, np\\s -> s.s")


def test_valid_proofs_accepted(eq1, modal):
    assert check_proof_report(eq1) is None and check_proof_report(modal) is None


def test_mut01_broken_axiom():
    t = ProofTree("Axiom", seq("np -> s"))
    expect_reject(t, "axiom must have shape A -> A")


def test_mut02_axiom_two_antecedents():
    t = ProofTree("Axiom", seq("np, np -> np"))
    expect_reject(t, "axiom must have shape A -> A")


def test_mut03_axiom_with_premise():
    inner = ProofTree("Axiom", seq("np -> np"))
    t = ProofTree("Axiom", seq("np -> np"), (inner,))
    expect_reject(t, "expected 0 premises, got 1")


def test_mut04_underL_missing_premise(eq1):
    node = find_node(eq1, "\\L")
    broken = dataclasses.replace(node, premises=node.premises[:1])
    expect_reject(replace_node(eq1, node, broken), "expected 2 premises, got 1")


def test_mut05_underL_swapped_premises(eq1):
    node = find_node(eq1, "\\L")
    broken = dataclasses.replace(node, premises=node.premises[::-1])
    expect_reject(
        replace_node(eq1, node, broken), "first premise does not match sigma"
    )


def test_mut06_overL_swapped_premises(eq1):
    node = find_node(eq1, "/L")
    broken = dataclasses.replace(node, premises=node.premises[::-1])
    expect_reject(
        replace_node(eq1, node, broken), "first premise does not match sigma"
    )


def test_mut07_overL_wrong_position(eq1):
    node = find_node(eq1, "/L")
    broken = with_data(node, pos=node.get("pos") + 1)
    expect_reject(
        replace_node(eq1, node, broken), "principal formula is not a right division"
    )


def test_mut08_wrong_rule_label(eq1):
    node = find_node(eq1, "\\L")
    broken = dataclasses.replace(node, rule="/L")
    expect_reject(
        replace_node(eq1, node, broken), "principal formula is not a right division"
    )


def test_mut09_unknown_rule(eq1):
    node = find_node(eq1, "Axiom")
    broken = dataclasses.replace(node, rule="Cut")
    expect_reject(replace_node(eq1, node, broken), "unknown rule 'Cut'")


def test_mut10_tensorR_misplaced_split(modal):
    node = find_node(modal, "*R")
    broken = with_data(node, split=node.get("split") + 1)
    expect_reject(replace_node(modal, node, broken), "premise mismatch")


def test_mut11_tensorR_swapped_premises(modal):
    node = find_node(modal, "*R")
    broken = dataclasses.replace(node, premises=node.premises[::-1])
    expect_reject(replace_node(modal, node, broken), "premise mismatch")


def test_mut12_tensorR_degenerate_split(modal):
    node = find_node(modal, "*R")
    broken = with_data(node, split=0)
    expect_reject(
        replace_node(modal, node, broken), "split must leave both sides non-empty"
    )


def test_mut13_bangL_over_budget():
    # Needs three copies of the !-hypothesis: proves at k=3, must fail at k=2.
    t = proof_of("!@np, np\\s, @np\\np, np\\s, @np\\np, np\\s -> s.s.s", k=3)
    assert check_proof_report(t, k=3) is None
    expect_reject(t, "outside 1..k with k=2", k=2)


def test_mut14_bangL_zero_copies(modal):
    node = find_node(modal, "!L")
    broken = with_data(node, n=0)
    expect_reject(replace_node(modal, node, broken), "copy count n=0")


def test_mut15_bangL_wrong_copy_count(modal):
    node = find_node(modal, "!L")
    broken = with_data(node, n=node.get("n") % 2 + 1)
    expect_reject(
        replace_node(modal, node, broken),
        "right number of copies",
    )


def test_mut16_nablaL_on_plain_formula(modal):
    node = find_node(modal, "@L")
    # retarget the rule at a position holding a non-@ formula
    ant = node.conclusion.antecedent
    wrong = next(i for i, f in enumerate(ant) if not isinstance(f, Nabla))
    broken = with_data(node, pos=wrong)
    expect_reject(
        replace_node(modal, node, broken), "principal formula is not a @-formula"
    )


def test_mut17_perm_moves_plain_formula(modal):
    # Perm over np (not @-rooted): premise np, np\s -> s, conclusion reordered.
    inner = proof_of("np, np\\s -> s")
    t = ProofTree(
        "Perm",
        seq("np, np\\s -> s"),
        (inner,),
        (("src", 0), ("dst", 0)),
    )
    expect_reject(t, "only @-formulas may be permuted")


def test_mut18_perm_wrong_destination(modal):
    node = find_node(modal, "Perm")
    broken = with_data(node, dst=node.get("dst") + 1)
    expect_reject(
        replace_node(modal, node, broken),
        "conclusion is not the premise with the formula moved",
    )


def test_mut19_perm_changes_succedent():
    inner = proof_of("@np, @np\\s -> s")  # uses @L internally
    bad = ProofTree(
        "Perm",
        Sequent(inner.conclusion.antecedent, parse_formula("s.s", ATOMS)),
        (inner,),
        (("src", 0), ("dst", 0)),
    )
    expect_reject(bad, "permutation may not change the succedent")


def test_mut20_grafted_subproof(eq1):
    # splice in a checkable proof of the *wrong* sequent
    node = find_node(eq1, "\\L")
    alien = proof_of("np, np\\s -> s")
    broken = dataclasses.replace(node, premises=(node.premises[0], alien))
    expect_reject(
        replace_node(eq1, node, broken),
        "second premise does not match the residual sequent",
    )


def test_mut21_conclusion_succedent_mutated(eq1):
    bad = dataclasses.replace(
        eq1, conclusion=Sequent(eq1.conclusion.antecedent, parse_formula("np", ATOMS))
    )
    # the root \L premise no longer matches the altered conclusion
    assert check_proof_report(bad) is not None


def test_mut22_bangR_shape():
    inner = ProofTree("Axiom", seq("np -> np"))
    bad = ProofTree("!R", seq("np -> !np"), (inner,))
    expect_reject(bad, "!R requires a single !-formula on each side")


def test_report_mentions_rule_and_sequent():
    t = ProofTree("Axiom", seq("np -> s"))
    report = check_proof_report(t)
    assert report is not None
    assert "Axiom" in report and "np -> s" in report
