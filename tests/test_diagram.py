"""Proof-to-diagram compilation, wiring substitution and serialization."""
from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest
from conftest import DONKEY, find_proofs, sentence_diagram

from lamsem import (
    Diagram,
    DiagramError,
    diagram_from_json,
    export,
    proof_to_diagram,
    substitute_wirings,
    swap_erased_key,
    typecheck,
    typecheck_report,
)
from lamsem.cli import main
from lamsem.diagram import (
    Cup,
    Edge,
    FockLift,
    Id,
    NWire,
    State,
    Swap,
    SWire,
    formula_wires,
    wtype_to_str,
)
from lamsem.formula import Atom, parse_formula, parse_sequent
from lamsem.prover import proof_from_json, proof_to_json, prove

ATOMS = ("np", "n", "s")
GOLDEN = Path(__file__).parent / "golden"


def non_lexical(d: Diagram) -> dict[str, int]:
    return d.non_lexical_multiset()


# ------------------------------------------------------------ wire algebra


def test_formula_wires_shapes():
    f = parse_formula("np\\s/np", ATOMS)
    assert formula_wires(f) == (NWire(), SWire(), NWire())
    assert formula_wires(parse_formula("np", ATOMS)) == (NWire(),)
    assert formula_wires(parse_formula("s.s", ATOMS)) == (SWire(), SWire())
    # modalities leave a single wire, with ! lifting to a Fock-space wire
    assert len(formula_wires(parse_formula("!@np/n", ATOMS))) == 2


# ------------------------------------------------------ basic compilation


def test_transitive_sentence_shape(lexicon):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    states = [g for g in d.nodes if isinstance(g, State)]
    cups = [g for g in d.nodes if isinstance(g, Cup)]
    assert len(states) == 3
    assert len(cups) == 2
    assert d.output_types() == (SWire(),)
    assert not d.inputs
    assert typecheck(d)


def test_relative_clause_shape(lexicon):
    d = sentence_diagram(lexicon, "dogs who eat snacks", goal="np")
    assert non_lexical(d) == {"Cup": 1, "Mult": 1}
    assert d.output_types() == (NWire(),)
    assert typecheck(d)


def test_pronoun_discourse_raw_and_substituted(lexicon):
    words, proofs = find_proofs(lexicon, "john sleeps he snores", goal="s.s")
    raw = proof_to_diagram(proofs[0], lexicon, words=words)
    raw_counts = non_lexical(raw)
    assert raw_counts.get("Proj(2)") == 1
    # a Perm only reorders wires; crossings are drawn by substitute_wirings
    assert "Swap" not in raw_counts
    assert typecheck(raw)
    sub = substitute_wirings(raw, lexicon)
    assert non_lexical(sub) == {"Cup": 2, "Proj(2)": 1}
    assert sub.output_types() == (SWire(), SWire())
    assert typecheck(sub)


def test_open_identity_proofs_compile_to_an_id():
    d = proof_to_diagram(prove(parse_sequent("np -> np", ATOMS)).proofs[0], None)
    assert d == Diagram(nodes=(Id(NWire()),), edges=(), inputs=((0, 0),), outputs=((0, 0),))
    # under !R the identity is the lifted diagram
    proofs = prove(parse_sequent("!np -> !np", ATOMS)).proofs
    lifted = [proof_to_diagram(p, None) for p in proofs if p.rule == "!R"]
    assert lifted and all(typecheck(d) for d in lifted)
    assert lifted[0].nodes == (FockLift(Diagram((Id(NWire()),), (), ((0, 0),), ((0, 0),))),)


def _rule_nodes(node: dict, rule: str):
    if node["rule"] == rule:
        yield node
    for p in node["premises"]:
        yield from _rule_nodes(p, rule)


def test_tampered_perm_data_is_a_diagram_error_or_well_typed(lexicon):
    """A Perm whose `dst` is shifted either puts bundles where formulas of
    other wire types stand, which raises DiagramError, or trades equal wire
    types, which compiles; nothing else is raised."""
    words, proofs = find_proofs(lexicon, DONKEY)
    outcomes = Counter()
    for proof in proofs:
        data = json.loads(proof_to_json(proof))
        for node in _rule_nodes(data, "Perm"):
            n, dst = len(node["sequent"]["antecedent"]), node["data"]["dst"]
            for shift in (1, 2, -1):
                node["data"]["dst"] = (dst + shift) % n
                tampered = proof_from_json(json.dumps(data), lexicon.atoms)
                try:
                    d = proof_to_diagram(tampered, lexicon, words=words)
                except DiagramError:
                    outcomes["DiagramError"] += 1
                else:
                    assert typecheck(d)
                    outcomes["well-typed"] += 1
            node["data"]["dst"] = n  # one past the last position
            with pytest.raises(DiagramError, match="outside"):
                proof_to_diagram(proof_from_json(json.dumps(data), lexicon.atoms), lexicon, words=words)
            node["data"]["dst"] = dst
    assert outcomes == {"DiagramError": 112, "well-typed": 32}


def test_bang_left_with_too_many_copies_is_a_diagram_error(lexicon):
    """A `!L` that claims one or two copies more than its premise holds is
    rejected, not an IndexError."""
    words, proofs = find_proofs(lexicon, DONKEY)
    tried = 0
    for proof in proofs:
        data = json.loads(proof_to_json(proof))
        for node in _rule_nodes(data, "!L"):
            n = node["data"]["n"]
            for shift in (1, 2):
                node["data"]["n"] = n + shift
                tampered = proof_from_json(json.dumps(data), lexicon.atoms)
                with pytest.raises(DiagramError):
                    proof_to_diagram(tampered, lexicon, words=words)
                tried += 1
            node["data"]["n"] = n
    assert tried == 32


@pytest.mark.parametrize("sequent", ["np, np\\s -> s", "s/np, np -> s"])
def test_result_premise_with_other_wires_is_a_diagram_error(sequent):
    """The premise of `\\L` or `/L` whose result formula is not the B of
    A\\B or B/A is rejected, not compiled to another morphism."""
    data = json.loads(proof_to_json(prove(parse_sequent(sequent, ATOMS)).proofs[0]))
    data["premises"][1]["sequent"] = {"antecedent": ["np"], "succedent": "np"}
    with pytest.raises(DiagramError):
        proof_to_diagram(proof_from_json(json.dumps(data)), None)


# --------------------------------------------------------- donkey diagram


def test_donkey_substituted_multiset(lexicon):
    d = sentence_diagram(lexicon, DONKEY)
    assert non_lexical(d) == {"Mult": 1, "Proj(2)": 1, "Swap": 1, "Cup": 3}
    assert d.output_types() == (SWire(),)
    assert typecheck(d)


def test_donkey_perm_placement_invariance(lexicon):
    """Every derivation of the donkey sentence yields the same diagram up
    to planar crossings: all readings collapse to one swap-erased key."""
    words, proofs = find_proofs(lexicon, DONKEY)
    assert len(proofs) == 8
    keys = set()
    for p in proofs:
        d = substitute_wirings(proof_to_diagram(p, lexicon, words=words), lexicon)
        keys.add(swap_erased_key(d))
    assert len(keys) == 1


def _wire_type(data: dict, edge: dict) -> str:
    return wtype_to_str(diagram_from_json(json.dumps(data)).nodes[edge["src"]].outs[edge["src_port"]])


def _with_id(data: dict, at: int) -> dict:
    """`data` with an Id on its edge number `at`."""
    data = json.loads(json.dumps(data))
    edge, n = data["edges"][at], len(data["nodes"])
    data["nodes"].append({"id": n, "gen": {"kind": "Id", "wtype": _wire_type(data, edge)}})
    data["edges"][at:at + 1] = [
        {"src": edge["src"], "src_port": edge["src_port"], "dst": n, "dst_port": 0},
        {"src": n, "src_port": 0, "dst": edge["dst"], "dst_port": edge["dst_port"]},
    ]
    return data


def _with_swap_pair(data: dict, i: int, j: int) -> dict:
    """`data` with edges `i` and `j` crossed by one Swap and uncrossed by
    another."""
    data = json.loads(json.dumps(data))
    e, f = data["edges"][i], data["edges"][j]
    a, b = _wire_type(data, e), _wire_type(data, f)
    cross, uncross = len(data["nodes"]), len(data["nodes"]) + 1
    data["nodes"] += [
        {"id": cross, "gen": {"kind": "Swap", "a": [a], "b": [b]}},
        {"id": uncross, "gen": {"kind": "Swap", "a": [b], "b": [a]}},
    ]
    data["edges"] = [g for g in data["edges"] if g not in (e, f)] + [
        {"src": e["src"], "src_port": e["src_port"], "dst": cross, "dst_port": 0},
        {"src": f["src"], "src_port": f["src_port"], "dst": cross, "dst_port": 1},
        {"src": cross, "src_port": 0, "dst": uncross, "dst_port": 0},
        {"src": cross, "src_port": 1, "dst": uncross, "dst_port": 1},
        {"src": uncross, "src_port": 0, "dst": e["dst"], "dst_port": e["dst_port"]},
        {"src": uncross, "src_port": 1, "dst": f["dst"], "dst_port": f["dst_port"]},
    ]
    return data


def test_swap_erased_key_ignores_ids_and_redundant_swaps(lexicon):
    """An Id on an edge, or a Swap pair that crosses two wires and uncrosses
    them, changes neither the key nor the substituted diagram."""
    d = sentence_diagram(lexicon, DONKEY)
    data = json.loads(export(d, "json"))
    edited = [_with_id(data, i) for i in range(len(data["edges"]))]
    # crossing two wires out of word states makes no cycle
    words = [i for i, e in enumerate(d.edges) if isinstance(d.nodes[e.src], State)]
    edited += [_with_swap_pair(data, i, j) for i in words for j in words if i < j]
    assert len(edited) > 20
    for e in edited:
        other = diagram_from_json(json.dumps(e))
        assert typecheck(other) and other != d
        assert swap_erased_key(other) == swap_erased_key(d)
        assert substitute_wirings(other, lexicon) == d
    assert swap_erased_key(sentence_diagram(lexicon, "dogs eat snacks")) != swap_erased_key(d)


def test_swap_erased_key_keeps_wires_from_boundary_to_boundary():
    """Open compiles that pass an N wire and an S wire from the input to the
    output boundary are different morphisms with different keys, and so are
    a Swap of two such wires and two Ids side by side."""
    n_through, s_through = (
        swap_erased_key(proof_to_diagram(prove(parse_sequent(t, ATOMS)).proofs[0], None))
        for t in ("np/n, n -> np", "s/np, np -> s")
    )
    assert n_through != s_through
    n = NWire()
    swap = Diagram((Swap((n,), (n,)),), (), ((0, 0), (0, 1)), ((0, 0), (0, 1)))
    ids = Diagram((Id(n), Id(n)), (), ((0, 0), (1, 0)), ((0, 0), (1, 0)))
    crossed = Diagram((Id(n), Id(n)), (), ((0, 0), (1, 0)), ((1, 0), (0, 0)))
    assert typecheck(swap)
    assert swap_erased_key(swap) == swap_erased_key(crossed) != swap_erased_key(ids)


@pytest.mark.parametrize(
    "sentence, goal",
    [
        ("dogs eat snacks", "s"),
        ("every dog eats snacks", "s"),
        ("john sleeps he snores", "s.s"),
        (DONKEY, "s"),
        ("dogs who eat snacks", "np"),
    ],
)
def test_substitute_wirings_is_idempotent(lexicon, sentence, goal):
    """A substituted diagram, Swaps and all, substitutes to itself."""
    d = sentence_diagram(lexicon, sentence, goal)
    again = substitute_wirings(d, lexicon)
    assert again == d
    assert export(again, "json") == export(d, "json")


# ---------------------------------------------------------- serialization


@pytest.mark.parametrize(
    "name, argv",
    [
        ("every-dog", ["every dog eats snacks"]),
        ("donkey", [DONKEY]),
        ("john", ["john sleeps. he snores."]),
        ("dogs", ["dogs eat snacks"]),
        ("dogs-who", ["dogs who eat snacks", "--goal", "np"]),
        ("a-farmer", ["a farmer owns a donkey"]),
        ("every-farmer", ["every farmer beats john"]),
    ],
)
def test_diagram_exports_match_the_goldens(tmp_path, capsys, name, argv):
    """`lamsem diagram` writes every distinct diagram's JSON and DOT byte for
    byte as in tests/golden (numbered `-2`, `-3`, ... past the first)."""
    json_path, dot_path = tmp_path / f"{name}.json", tmp_path / f"{name}.dot"
    assert main(["diagram", *argv, "--export-json", str(json_path), "--export-dot", str(dot_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    own = re.compile(rf"{re.escape(name)}(-\d+)?\.(json|dot)")
    assert written == sorted(p.name for p in GOLDEN.iterdir() if own.fullmatch(p.name))
    for file in written:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


def test_json_round_trip(lexicon):
    d = sentence_diagram(lexicon, DONKEY)
    text = export(d, "json")
    back = diagram_from_json(text)
    assert back == d
    assert export(back, "json") == text


def test_json_round_trip_preserves_discards(lexicon):
    words, proofs = find_proofs(lexicon, "john sleeps he snores", goal="s.s")
    raw = proof_to_diagram(proofs[0], lexicon, words=words)
    assert diagram_from_json(export(raw, "json")) == raw


def test_dot_export_mentions_words_and_wires(lexicon):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    dot = export(d, "dot")
    assert dot.startswith("digraph")
    for word in ("dogs", "eat", "snacks"):
        assert word in dot
    assert "N" in dot and "S" in dot


def test_export_rejects_unknown_format(lexicon):
    d = sentence_diagram(lexicon, "dogs eat snacks")
    with pytest.raises(ValueError):
        export(d, "svg")


def test_export_is_deterministic(lexicon):
    a = sentence_diagram(lexicon, DONKEY)
    b = sentence_diagram(lexicon, DONKEY)
    assert export(a, "json") == export(b, "json")
    assert export(a, "dot") == export(b, "dot")


# ------------------------------------------------------- typecheck errors


def test_typecheck_reports_type_clash():
    s = State("x", Atom("np"))
    cup = Cup(SWire())
    bad = Diagram(
        nodes=(s, cup, s),
        edges=(Edge(0, 0, 1, 0), Edge(2, 0, 1, 1)),
    )
    report = typecheck_report(bad)
    assert report is not None and "N" in report and "S" in report
    assert not typecheck(bad)


def test_typecheck_reports_dangling_port():
    s = State("x", Atom("np"))
    bad = Diagram(nodes=(s, Id(NWire())), edges=(Edge(0, 0, 1, 0),))
    report = typecheck_report(bad)
    assert report is not None
    assert not typecheck(bad)


def test_typecheck_reports_double_use():
    s = State("x", Atom("np"))
    bad = Diagram(
        nodes=(s, Id(NWire()), Id(NWire())),
        edges=(Edge(0, 0, 1, 0), Edge(0, 0, 2, 0)),
        outputs=((1, 0), (2, 0)),
    )
    assert typecheck_report(bad) is not None


def test_substitute_requires_well_typed_input(lexicon):
    s = State("x", Atom("np"))
    bad = Diagram(nodes=(s, Id(SWire())), edges=(Edge(0, 0, 1, 0),))
    with pytest.raises(DiagramError):
        substitute_wirings(bad, lexicon)
