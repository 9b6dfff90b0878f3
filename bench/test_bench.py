"""The benchmark's own tests: every output check can fail.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def lam():
    """The program as now imported: ``run.run`` imports it afresh."""
    return run.load_program()


def records_of(name: str, rounds: int = 1, seed: int = 1):
    wl = WORKLOADS[name]
    state = wl.setup(lam(), run.ROOT, random.Random(seed))
    rng = random.Random(seed)
    records = []
    for _ in range(rounds):
        for inp in wl.round_inputs(state, rng):
            records.append((inp, wl.run_op(state, inp), None))
    return wl, state, records


@pytest.fixture(scope="module")
def sweep():
    return records_of("sweep", rounds=2)


def test_sweep_outputs_pass(sweep):
    wl, state, records = sweep
    assert wl.check(state, records) == ({}, [])


def test_sweep_wrong_truth_fails_the_op(sweep):
    wl, state, records = sweep
    inp, out, _ = records[1]
    sentence, truth, count = out[0]
    records = list(records)
    records[1] = (inp, [(sentence, not truth, count)] + out[1:], None)
    bad, _ = wl.check(state, records)
    assert 1 in bad


def _with_last(record, truth, count):
    inp, out, _ = record
    sentence = out[-1][0]
    return (inp, out[:-1] + [(sentence, truth, count)], None)


def test_sweep_wrong_count_fails_the_op(sweep):
    wl, state, records = sweep
    yes = next(i for i, r in enumerate(records) if r[1][-1][1])
    no = next(i for i, r in enumerate(records) if not r[1][-1][1])
    records = list(records)
    records[yes] = _with_last(records[yes], True, 0)
    records[no] = _with_last(records[no], False, 1)
    bad, _ = wl.check(state, records)
    assert {yes, no} <= set(bad)


def test_sweep_count_changed_by_relabelling_fails_both_ops(sweep):
    wl, state, records = sweep
    i = next(i for i, r in enumerate(records) if r[1][-1][1])
    records = list(records)
    records[i] = _with_last(records[i], True, records[i][1][-1][2] * 2)
    pair = {j for j, r in enumerate(records) if r[0][0] == records[i][0][0]}
    bad, _ = wl.check(state, records)
    assert len(pair) == 2 and set(bad) == pair


def test_sweep_run_needs_both_truth_values(sweep):
    wl, state, records = sweep
    _, run_problems = wl.check(state, records[:2])
    assert run_problems  # one pair of models gives each sentence one value


def test_discourse_checks():
    wl = WORKLOADS["discourse"]
    state = wl.setup(lam(), run.ROOT, random.Random(1))
    ops = [op for op in state["ops"] if op[0] == "synthetic"][:4]
    records = [(op, wl.run_op(state, op), None) for op in ops]
    assert wl.check(state, records) == ({}, [])
    i = next(i for i, r in enumerate(records) if r[1][1])
    inp, (seq, proofs, reports), _ = records[i]

    mutated = dataclasses.replace(proofs[0], rule=lam().prover.UNDER_R)
    bad, _ = wl.check(state, [(inp, (seq, (mutated,) + proofs[1:], reports), None)])
    assert 0 in bad

    deep = proofs[0]
    premise = dataclasses.replace(deep.premises[0], data=(("pos", 99), ("n", 1)))
    grafted = dataclasses.replace(deep, premises=(premise,) + deep.premises[1:])
    bad, _ = wl.check(state, [(inp, (seq, (grafted,), [None]), None)])
    assert 0 in bad

    wrong_want = (inp[0], inp[1], inp[2], not inp[3])
    bad, _ = wl.check(state, [(wrong_want, (seq, proofs, reports), None)])
    assert 0 in bad


@pytest.fixture(scope="module")
def cli():
    wl, state, records = records_of("cli")
    yield wl, state, records
    wl.cleanup(state)


def test_cli_outputs_pass(cli):
    wl, state, records = cli
    assert wl.check(state, records) == ({}, [])


def test_cli_wrong_exit_code_fails_the_op(cli):
    wl, state, records = cli
    inp, out, _ = records[0]
    j = next(j for j, c in enumerate(inp[1]) if c[0][0] == "eval")
    code, stdout, stderr = out[j]
    tampered = out[:j] + [(1 - code, stdout, stderr)] + out[j + 1 :]
    assert 0 in wl.check(state, [(inp, tampered, None)])[0]


def test_cli_wrong_count_fails_the_op(cli):
    wl, state, records = cli
    inp, out, _ = records[0]
    j = next(j for j, c in enumerate(inp[1]) if c[3] is True)
    code, stdout, stderr = out[j]
    tampered = out[:j] + [(code, re.sub(r"vec: \d+", "vec: 0", stdout), stderr)] + out[j + 1 :]
    bad, _ = wl.check(state, [(inp, tampered, None)])
    tampered = out[:j] + [(code, stdout.replace("rel: true", "rel: false"), stderr)] + out[j + 1 :]
    bad2, _ = wl.check(state, [(inp, tampered, None)])
    assert 0 in bad and 0 in bad2


def test_cli_changed_export_fails_the_op(cli):
    wl, state, records = cli
    inp, out, _ = records[0]
    path = inp[0] / "donkey.json"
    text = path.read_text()
    try:
        path.write_text(text.replace('"nodes"', ' "nodes"', 1))
        assert 0 in wl.check(state, [(inp, out, None)])[0]
    finally:
        path.write_text(text)


def test_a_failing_op_is_counted(monkeypatch):
    def wrong(self, state, inp):
        return [(s, not t, c) for s, t, c in original(self, state, inp)]

    original = workloads.ModelSweep.run_op
    monkeypatch.setattr(workloads.ModelSweep, "run_op", wrong)
    args = argparse.Namespace(workload="sweep", seed=3, seconds=0.01, trace=1)
    result = run.run(args)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_donkey_truth_matches_the_test_suite_oracle():
    spec = importlib.util.spec_from_file_location("suite_conftest", run.ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    rng = random.Random(5)
    seen = set()
    for size in (2, 3, 4):
        for _ in range(100):
            pm = oracle.random_model(rng, size, {})
            m = lam().model.Model.from_dict(pm.to_dict())
            got = oracle.donkey_truth(pm)
            assert got == suite.donkey_oracle(m)
            seen.add(got)
    assert seen == {True, False}


def test_models_take_the_wanted_truth_values():
    rng = random.Random(9)
    for size in (3, 5):
        for _ in range(20):
            sentences = [s for s, _ in oracle.SWEEP_SENTENCES]
            for m in oracle.model_round(rng, size, sentences):
                assert oracle.from_json(m.to_dict()) == m
            first, _, second, _ = oracle.model_round(rng, size, sentences)
            assert all(oracle.truth(s, first) != oracle.truth(s, second) for s in sentences)


def test_discourse_resource_count():
    assert oracle.discourse_provable(1, 1, 2)
    assert not oracle.discourse_provable(1, 2, 2)
    assert oracle.discourse_provable(1, 2, 3)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [("a", 0.0, 10.0, -1, 0, None), ("b", 1.0, 4.0, 0, 0, None), ("c", 5.0, 6.0, 0, 0, None), ("d", 2.0, 3.0, 1, 0, None)]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_them():
    before = (lam().relsem.contract_network, lam().vecsem.contract_network, lam().lexicon.Lexicon.__dict__["from_path"])
    t = tracing.Tracer()
    t.install()
    try:
        assert lam().relsem.contract_network is not before[0]
        assert lam().vecsem.contract_network is not before[1]
        assert {"relsem.contract_network", "vecsem.contract_network", "lexicon.Lexicon.from_path"} <= set(t.metric_of)
    finally:
        t.uninstall()
    after = (lam().relsem.contract_network, lam().vecsem.contract_network, lam().lexicon.Lexicon.__dict__["from_path"])
    assert after == before


def test_traced_cli_reports_every_layer():
    wl = WORKLOADS["cli"]
    state = wl.setup(lam(), run.ROOT, random.Random(1))
    t = tracing.Tracer()
    t.install()
    try:
        for inp in wl.round_inputs(state, random.Random(1)):
            t.op = 0
            wl.run_op(state, inp)
            t.op = -1
    finally:
        t.uninstall()
        wl.cleanup(state)
    layers = t.layer_metrics(1)
    assert {name for name, _ in tracing.LAYER_METRICS} - {k for k, v in layers.items() if v > 0} == {"trace.ops_per_s"}
    assert 0 < layers["diagram.distinct_ratio"] <= 1


def test_each_set_up_imports_the_program_afresh():
    first = lam().prover
    took, state = run.set_up(WORKLOADS["discourse"], 1)
    assert took > 0 and state["lam"].prover is sys.modules["lamsem.prover"] is not first
    assert run.time_set_up(WORKLOADS["discourse"], 1) > 0
    assert state["lam"].prover is sys.modules["lamsem.prover"]


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    args = argparse.Namespace(workload="cli", seed=1, seconds=0.01, trace=0)
    result = run.run(args)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ]
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
