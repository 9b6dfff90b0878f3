"""End-to-end acceptance suite.

Each test covers one primary criterion and prints exactly one
`[PRIMARY] <criterion>: PASS|FAIL` line on the real stdout (pytest capture
is bypassed so the verdict is always visible in the run log).
"""
from __future__ import annotations

import random
import time

from conftest import DONKEY, donkey_oracle, find_proofs, sentence_diagram
from reference import reference_counts

from lamsem import (
    Model,
    SearchConfig,
    check_equivalence,
    check_proof_report,
    eval_diagram_rel,
    eval_diagram_vec,
    parse_sequent,
    prove,
)
from lamsem.relsem import rel_true

ATOMS = ("np", "n", "s")


def verdict(capsys, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[PRIMARY] {name}: {'PASS' if ok else 'FAIL'}")


def run_criterion(capsys, name: str, body) -> None:
    ok = False
    try:
        body()
        ok = True
    finally:
        verdict(capsys, name, ok)


# ---------------------------------------------------------------- criterion 1


def test_golden_derivations(capsys, lexicon):
    def body():
        start = time.monotonic()
        r1 = prove(parse_sequent("np, np\\s/np, np -> s", ATOMS), SearchConfig())
        assert r1.proofs
        assert r1.proofs[0].rule_multiset() == {"/L": 1, "\\L": 1, "Axiom": 3}

        r2 = prove(
            parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s", ATOMS),
            SearchConfig(),
        )
        assert r2.proofs
        ms2 = r2.proofs[0].rule_multiset()
        for rule in ("!L", "Perm", "@L", "*R"):
            assert ms2.get(rule, 0) >= 1, rule

        _, proofs = find_proofs(lexicon, DONKEY)
        assert proofs
        ms3 = proofs[0].rule_multiset()
        assert ms3.get("!L") == 2 and ms3.get("@L") == 2
        assert ms3.get("Perm", 0) >= 1
        assert time.monotonic() - start < 5.0

    run_criterion(capsys, "golden derivations", body)


# ---------------------------------------------------------------- criterion 2


def worked_model(eats_bc: bool) -> Model:
    pairs = {(0, 2)} | ({(1, 2)} if eats_bc else set())
    return Model(
        universe=("a", "b", "c"),
        unary={"dog": 0b011, "snacks": 0b100},
        binary={"eats": frozenset(pairs)},
        determiners={"every": "every"},
    )


def test_worked_example_truth(capsys, lexicon):
    def body():
        d = sentence_diagram(lexicon, "every dog eats snacks")
        for eats_bc in (True, False):
            m = worked_model(eats_bc)
            got = rel_true(eval_diagram_rel(d, m))
            # independent closed form: dog subset of eats-image of snacks
            dog, snacks = m.unary_set("dog"), m.unary_set("snacks")
            want = dog & ~m.forward_image("eats", snacks) == 0
            assert got == want == eats_bc

    run_criterion(capsys, "worked-example truth", body)


# ---------------------------------------------------------------- criterion 3


def random_donkey_model(rng: random.Random) -> Model:
    return Model(
        universe=("u0", "u1", "u2"),
        unary={"farmer": rng.randrange(8), "donkey": rng.randrange(8)},
        binary={
            name: frozenset(
                (x, y)
                for x in range(3)
                for y in range(3)
                if rng.random() < 0.4
            )
            for name in ("owns", "beats")
        },
        determiners={"every": "every", "a": "some"},
    )


def test_donkey_oracle_equivalence(capsys, lexicon):
    def body():
        d = sentence_diagram(lexicon, DONKEY)
        rng = random.Random(1318)
        start = time.monotonic()
        outcomes = set()
        for _ in range(500):
            m = random_donkey_model(rng)
            got = rel_true(eval_diagram_rel(d, m, k=2))
            assert got == donkey_oracle(m)
            outcomes.add(got)
        assert outcomes == {True, False}
        assert time.monotonic() - start < 60.0

    run_criterion(capsys, "donkey oracle equivalence", body)


# ---------------------------------------------------------------- criterion 4


SENTENCES = (
    ("dogs eat snacks", "s"),
    ("every dog eats snacks", "s"),
    ("john sleeps he snores", "s.s"),
    (DONKEY, "s"),
)


def random_model(rng: random.Random, size: int) -> Model:
    names = (
        "dog", "dogs", "snacks", "farmer", "donkey",
        "john", "sleeps", "snores",
    )
    rel_names = ("eat", "eats", "owns", "beats")
    return Model(
        universe=tuple(f"u{i}" for i in range(size)),
        unary={n: rng.randrange(1 << size) for n in names},
        binary={
            n: frozenset(
                (x, y)
                for x in range(size)
                for y in range(size)
                if rng.random() < 0.4
            )
            for n in rel_names
        },
        determiners={"every": "every", "a": "some", "some": "some"},
    )


def test_rel_vector_equivalence(capsys, lexicon):
    def body():
        diagrams = [sentence_diagram(lexicon, s, goal=g) for s, g in SENTENCES]
        rng = random.Random(8391)
        for i in range(200):
            m = random_model(rng, size=2 + (i % 2))
            for d in diagrams:
                assert check_equivalence(d, m, k=2)
                # against the brute-force evaluator, which shares no
                # contraction code with either backend
                ref = reference_counts(d, m, k=2)
                assert eval_diagram_vec(d, m, k=2) == sum(ref.values())
                assert eval_diagram_rel(d, m, k=2).nonempty == bool(ref)

    run_criterion(capsys, "rel/vector equivalence", body)


# ---------------------------------------------------------------- criterion 5


def test_algebraic_property_suites(capsys):
    def body():
        from test_relsem import (
            test_bialgebra_compatibility,
            test_compare_monoid,
            test_frobenius_law,
            test_projector_naturality,
            test_snake_law,
            test_special_law,
            test_unit_counit_laws,
        )
        from test_vecsem import (
            test_vector_bialgebra_compatibility,
            test_vector_frobenius_law,
        )

        for size in (1, 2, 3):
            test_unit_counit_laws(size)
            test_special_law(size)
            test_bialgebra_compatibility(size)
            test_compare_monoid(size)
            test_frobenius_law(size)
            test_snake_law(size)
            test_vector_bialgebra_compatibility(size)
            test_vector_frobenius_law(size)
        test_projector_naturality()

    run_criterion(capsys, "algebraic property suites", body)


# ---------------------------------------------------------------- criterion 6


def test_diagram_structure(capsys, lexicon):
    def body():
        d = sentence_diagram(lexicon, DONKEY)
        assert d.non_lexical_multiset() == {
            "Mult": 1,
            "Proj(2)": 1,
            "Swap": 1,
            "Cup": 3,
        }
        from lamsem.diagram import Mult, NWire

        rc = sentence_diagram(lexicon, "dogs who eat snacks", goal="np")
        assert sum(isinstance(g, Mult) for g in rc.nodes) == 1
        assert rc.output_types() == (NWire(),)

    run_criterion(capsys, "diagram structure", body)


# ---------------------------------------------------------------- criterion 7


def test_checker_independence(capsys, lexicon):
    def body():
        # every proof the search returns must pass the independent checker
        total = 0
        for sentence, goal in SENTENCES:
            _, proofs = find_proofs(lexicon, sentence, goal=goal)
            assert proofs
            for p in proofs:
                assert check_proof_report(p, k=2) is None
                total += 1
        assert total >= 10

        # and every hand-mutated tree must be rejected with a diagnostic
        import test_checker as tc

        eq1 = tc.proof_of("np, np\\s/np, np -> s")
        modal = tc.proof_of("!@np, np\\s, @np\\np, np\\s -> s.s")
        mutations = [
            tc.test_mut01_broken_axiom,
            tc.test_mut02_axiom_two_antecedents,
            tc.test_mut03_axiom_with_premise,
            lambda: tc.test_mut04_underL_missing_premise(eq1),
            lambda: tc.test_mut05_underL_swapped_premises(eq1),
            lambda: tc.test_mut06_overL_swapped_premises(eq1),
            lambda: tc.test_mut07_overL_wrong_position(eq1),
            lambda: tc.test_mut08_wrong_rule_label(eq1),
            lambda: tc.test_mut09_unknown_rule(eq1),
            lambda: tc.test_mut10_tensorR_misplaced_split(modal),
            lambda: tc.test_mut11_tensorR_swapped_premises(modal),
            lambda: tc.test_mut12_tensorR_degenerate_split(modal),
            tc.test_mut13_bangL_over_budget,
            lambda: tc.test_mut14_bangL_zero_copies(modal),
            lambda: tc.test_mut15_bangL_wrong_copy_count(modal),
            lambda: tc.test_mut16_nablaL_on_plain_formula(modal),
            lambda: tc.test_mut17_perm_moves_plain_formula(modal),
            lambda: tc.test_mut18_perm_wrong_destination(modal),
            tc.test_mut19_perm_changes_succedent,
            lambda: tc.test_mut20_grafted_subproof(eq1),
        ]
        assert len(mutations) == 20
        for mutate in mutations:
            mutate()

    run_criterion(capsys, "proof checker independence", body)
