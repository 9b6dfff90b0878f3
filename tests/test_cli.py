"""Command line interface: exit codes, output contract, determinism."""
from __future__ import annotations

import json

import pytest
from conftest import DONKEY, data_path

from lamsem import (
    SearchConfig,
    diagram_from_json,
    parse_formula,
    proof_from_json,
    proof_to_diagram,
    prove,
    sentence_to_sequents,
    swap_erased_key,
)
from lamsem.cli import EXIT_ERROR, EXIT_NO, EXIT_OK, main, tokenize
from lamsem.prover import TRACE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- tokenization


def test_tokenize_strips_punctuation_and_counts_sentences():
    words, n = tokenize("John sleeps. He snores.")
    assert words == ["john", "sleeps", "he", "snores"]
    assert n == 2
    assert tokenize("dogs eat snacks") == (["dogs", "eat", "snacks"], 1)


def test_tokenize_rejects_empty():
    from lamsem.cli import CliError

    with pytest.raises(CliError):
        tokenize(" . ")


# ------------------------------------------------------------------- prove


def test_prove_grammatical(capsys):
    code, out, err = run(capsys, "prove", "dogs eat snacks")
    assert code == EXIT_OK
    assert "proof 1" in out and "Axiom" in out
    assert "sequent:" in out


def test_prove_ungrammatical(capsys):
    code, out, err = run(capsys, "prove", "dogs dogs dogs")
    assert code == EXIT_NO
    assert "no proof" in out


def test_prove_unknown_word(capsys):
    code, out, err = run(capsys, "prove", "dogs eat xylophones")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_prove_discourse_goal_from_periods(capsys):
    code, out, err = run(capsys, "prove", "John sleeps. He snores.")
    assert code == EXIT_OK
    assert "s.s" in out


def test_prove_explicit_goal(capsys):
    code, out, err = run(capsys, "prove", "dogs who eat snacks", "--goal", "np")
    assert code == EXIT_OK


def test_prove_export_json(capsys, tmp_path):
    target = tmp_path / "proof.json"
    code, out, err = run(
        capsys, "prove", "dogs eat snacks", "--export-json", str(target)
    )
    assert code == EXIT_OK
    proof = proof_from_json(target.read_text())
    assert proof.rule_multiset()["Axiom"] >= 1


# ----------------------------------------------------------------- diagram


def test_diagram_prints_dot(capsys):
    code, out, err = run(capsys, "diagram", "dogs eat snacks")
    assert code == EXIT_OK
    assert "digraph" in out


def test_diagram_exports_files(capsys, tmp_path):
    dot = tmp_path / "d.dot"
    js = tmp_path / "d.json"
    code, out, err = run(
        capsys,
        "diagram",
        DONKEY,
        "--export-dot",
        str(dot),
        "--export-json",
        str(js),
    )
    assert code == EXIT_OK
    assert dot.exists() and js.exists()
    d = diagram_from_json(js.read_text())
    assert d.non_lexical_multiset()["Cup"] == 3
    # all eight derivations collapse to one diagram, so exactly one file set
    assert not (tmp_path / "d-2.json").exists()


def test_diagram_no_proof(capsys):
    code, out, err = run(capsys, "diagram", "dogs dogs dogs")
    assert code == EXIT_NO
    assert "nothing to draw" in err


# -------------------------------------------------------------------- eval


def test_eval_true_sentence(capsys):
    code, out, err = run(capsys, "eval", "dogs eat snacks", "--backend", "both")
    assert code == EXIT_OK
    assert "reading 1: rel: true, vec: 1, equivalent: True" in out
    assert "any-true: true" in out


def test_eval_false_sentence(capsys):
    code, out, err = run(
        capsys,
        "eval",
        DONKEY,
        "--model",
        str(data_path("model_donkey_false.json")),
        "--backend",
        "both",
    )
    assert code == EXIT_NO
    assert "rel: false" in out and "vec: 0" in out
    assert "any-true: false" in out


def test_eval_donkey_true_model(capsys):
    code, out, err = run(
        capsys,
        "eval",
        DONKEY,
        "--model",
        str(data_path("model_donkey_true.json")),
        "--backend",
        "both",
    )
    assert code == EXIT_OK
    assert "rel: true, vec: 32, equivalent: True" in out


def test_eval_float_backend(capsys):
    code, out, err = run(
        capsys,
        "eval",
        DONKEY,
        "--model",
        str(data_path("model_donkey_true.json")),
        "--backend",
        "vec",
        "--float",
    )
    assert code == EXIT_OK
    assert "vec: 32.0" in out


@pytest.mark.parametrize(
    "sentence, model",
    [
        (DONKEY, "model_donkey_true.json"),
        (DONKEY, "model_donkey_false.json"),
        ("dogs eat snacks", "model_dogs.json"),
    ],
)
def test_eval_trace_prints_json_steps_on_stderr_only(capsys, sentence, model):
    argv = ("eval", sentence, "--model", str(data_path(model)), "--backend", "both")
    code, out, err = run(capsys, *argv)
    traced_code, traced_out, traced_err = run(capsys, *argv, "--trace")
    assert (traced_code, traced_out) == (code, out) and err == ""
    assert TRACE.get() is None  # reset when main returns
    records = [json.loads(line) for line in traced_err.splitlines()]
    steps = [r for r in records if "step" in r]
    searches = [r for r in records if "search" in r]
    rewrites = [r for r in records if "rewrites" in r]
    assert len(steps) + len(searches) + len(rewrites) == len(records)
    assert searches and all(set(r) == SEARCH_KEYS for r in searches)
    assert rewrites and all(set(r["rewrites"]) == REWRITE_NAMES for r in rewrites)
    assert steps and all(
        set(s) == {"step", "slots", "build", "entries_in", "entries_out"}
        and s["build"][0] in ("result", "whole")
        and s["build"][1] in (
            "result", "whole", "inputs", "some inputs", "outputs", "inputs and outputs"
        )
        for s in steps
    )
    if sentence == DONKEY:  # its determiners are built from their nouns alone
        assert any(s["build"][1] == "inputs" and s["entries_in"][0] == 1 for s in steps)
        # Mult and the lifted `a` on every port, Proj(2) from its outputs
        assert {"inputs and outputs", "outputs"} <= {s["build"][1] for s in steps}


@pytest.mark.parametrize(
    "sentence, model",
    [
        (DONKEY, "model_donkey_true.json"),
        (DONKEY, "model_donkey_false.json"),
        ("dogs eat snacks", "model_dogs.json"),
    ],
)
def test_both_backends_trace_each_contraction_once(capsys, sentence, model):
    """Both readings come from one contraction, so `--backend both` traces
    the steps that `--backend rel` does."""
    steps = {}
    for backend in ("rel", "both"):
        argv = ("eval", sentence, "--model", str(data_path(model)), "--backend", backend)
        _, _, err = run(capsys, *argv, "--trace")
        steps[backend] = [r for r in map(json.loads, err.splitlines()) if "step" in r]
    assert steps["rel"] and steps["both"] == steps["rel"]


SEARCH_KEYS = {
    "search", "k", "nodes", "memo_hits", "memo_size", "pruned",
    "raw_proofs", "unique_proofs", "capped",
}
REWRITE_NAMES = {"proj1_absorb", "detbox", "relpro", "pronoun", "snake", "s_erasure", "id"}


@pytest.mark.parametrize("command", ["prove", "diagram"])
@pytest.mark.parametrize(
    "sentence", ["every farmer owns a donkey", "john sleeps. he snores.", "dogs dogs eat"]
)
def test_trace_prints_search_counters_on_stderr_only(capsys, command, sentence):
    code, out, err = run(capsys, command, sentence)
    traced_code, traced_out, traced_err = run(capsys, command, sentence, "--trace")
    assert (traced_code, traced_out) == (code, out)
    assert TRACE.get() is None  # reset when main returns
    # the traced stderr is the search lines, then (diagram) the rewrite
    # lines, then the plain run's stderr
    lines = traced_err.splitlines()
    n = len(lines) - len(err.splitlines())
    assert "\n".join(lines[n:]) == err.rstrip("\n")
    records = [json.loads(line) for line in lines[:n]]
    searches = [r for r in records if "search" in r]
    assert searches and all(set(r) == SEARCH_KEYS for r in searches)
    assert records[: len(searches)] == searches
    assert all(set(r) == {"rewrites"} for r in records[len(searches):])
    assert (len(records) > len(searches)) == (command == "diagram" and code == EXIT_OK)
    if command == "prove":  # one line per sequent tried, in the order prove lists them
        tried = [line.split("  [")[0] for line in out.splitlines() if line.startswith("sequent: ")]
        assert [f"sequent: {r['search']}" for r in searches] == tried
    assert all(r["raw_proofs"] >= r["unique_proofs"] for r in searches)
    if sentence == "every farmer owns a donkey":
        assert code == EXIT_OK and searches[-1]["pruned"] > 0
        assert searches[-1]["unique_proofs"] > 0


def raw_classes(lexicon, sentence: str) -> set:
    """The `swap_erased_key` classes of the raw diagrams of the proofs that
    `prove` returns for the first provable sequent of `sentence`."""
    words, n_sentences = tokenize(sentence)
    goal = parse_formula(".".join(["s"] * n_sentences), lexicon.atoms)
    for seq in sentence_to_sequents(words, lexicon, goal):
        proofs = prove(seq, SearchConfig()).proofs
        if proofs:
            return {swap_erased_key(proof_to_diagram(p, lexicon, words=words)) for p in proofs}
    return set()


@pytest.mark.parametrize(
    "sentence, fired",
    [
        ("dogs eat snacks", {}),
        ("john sleeps. he snores.", {"pronoun": 1, "snake": 1}),
        (
            DONKEY,
            {"proj1_absorb": 1, "detbox": 2, "relpro": 1, "pronoun": 1, "snake": 4, "s_erasure": 1},
        ),
        ("every dog eats snacks", {"detbox": 1}),
    ],
)
def test_diagram_trace_prints_rewrite_counts(capsys, lexicon, sentence, fired):
    code, out, err = run(capsys, "diagram", sentence)
    traced_code, traced_out, traced_err = run(capsys, "diagram", sentence, "--trace")
    assert (traced_code, traced_out, err) == (code, out, "")
    assert TRACE.get() is None  # reset when main returns
    records = [json.loads(line) for line in traced_err.splitlines()]
    rewrites = [r["rewrites"] for r in records if "rewrites" in r]
    # one line per wiring substitution: one per raw class of the proofs returned
    assert len(rewrites) == len(raw_classes(lexicon, sentence))
    want = dict.fromkeys(REWRITE_NAMES, 0) | fired
    assert all(r == want for r in rewrites)


def test_eval_ungrammatical_is_an_error(capsys):
    code, out, err = run(capsys, "eval", "dogs dogs dogs")
    assert code == EXIT_ERROR
    assert "ungrammatical: no derivation found" in err


def test_eval_missing_model_file(capsys):
    code, out, err = run(
        capsys, "eval", "dogs eat snacks", "--model", "/nonexistent/m.json"
    )
    assert code == EXIT_ERROR
    assert "error:" in err


@pytest.mark.parametrize(
    "goal", ["s//", "(" * 3000 + "s" + ")" * 3000], ids=["syntax", "nested"]
)
def test_bad_goal_formula(capsys, goal):
    code, out, err = run(capsys, "prove", "john sleeps", "--goal", goal)
    assert code == EXIT_ERROR


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--model", {"unary": {}}),
        ("--model", ["a", "b"]),
        ("--lexicon", {"atoms": ["n", "np", "s"]}),
        ("--lexicon", "words"),
        ("--model", {"universe": ["a"], "unary": []}),
        ("--model", {"universe": 5}),
        ("--model", {"universe": ["a"], "binary": {"eat": [["a"]]}}),
        ("--lexicon", {"words": []}),
        ("--lexicon", {"words": {"dogs": ["np"]}, "atoms": 5}),
        ("--lexicon", {"words": {"dogs": ["np"]}, "wirings": [1]}),
        ("--lexicon", {"words": {"dogs": ["np"]}, "wirings": {"dogs": []}}),
    ],
)
def test_malformed_data_file_is_an_error(capsys, tmp_path, flag, content):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "eval", "dogs eat snacks", flag, str(path))
    assert code == EXIT_ERROR
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["prove", "diagram", "eval"])
@pytest.mark.parametrize("k", ["0", "4"])
def test_copy_bound_range_is_checked_for_every_command(capsys, command, k):
    code, out, err = run(capsys, command, "dogs eat snacks", "--k", k)
    assert code == EXIT_ERROR
    assert "copy bound k must be in 1..3" in err


# ------------------------------------------------------------- determinism


def test_outputs_are_deterministic(capsys, tmp_path):
    outs = []
    for i in range(2):
        js = tmp_path / f"run{i}.json"
        code, out, err = run(
            capsys, "diagram", DONKEY, "--export-json", str(js)
        )
        assert code == EXIT_OK
        outs.append((out, js.read_text()))
    assert outs[0] == outs[1]

    evals = []
    for _ in range(2):
        code, out, err = run(
            capsys,
            "eval",
            DONKEY,
            "--model",
            str(data_path("model_donkey_true.json")),
            "--backend",
            "both",
        )
        evals.append(out)
    assert evals[0] == evals[1]
