"""Proof search: golden derivations, soundness, and search behavior."""
import itertools
import runpy
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lamsem import (
    SearchConfig,
    check_proof_report,
    proof_to_diagram,
    prove,
    prove_sentence,
    prover,
    typecheck_report,
)
from lamsem.formula import (
    Atom,
    Bang,
    Nabla,
    Over,
    Sequent,
    Tensor,
    Under,
    count_excludes_zero,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
)
from lamsem.lexicon import Lexicon, sentence_to_sequents
from lamsem.prover import proof_from_json, proof_to_json, proof_to_text

from conftest import DONKEY, data_path, find_proofs


def discourse_provable(n: int, j: int, k: int) -> bool:
    """``bench/oracle.discourse_provable``: a resource count made without lamsem."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    return runpy.run_path(str(path))["discourse_provable"](n, j, k)


def prove_unpruned(seq, cfg):
    """`prove` with every count verdict switched off."""
    traced = []
    token = prover.TRACE.set(traced.append)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prover, "_excludes", lambda counts: False)
            result = prove(seq, cfg)
    finally:
        prover.TRACE.reset(token)
    assert traced[0]["pruned"] == 0
    return result


def assert_pruning_changes_nothing(seq, cfg):
    """Same proofs in the same order; `exhaustive` only False -> True."""
    pruned, unpruned = prove(seq, cfg), prove_unpruned(seq, cfg)
    assert [proof_to_text(p) for p in pruned.proofs] == [proof_to_text(p) for p in unpruned.proofs]
    assert pruned.exhaustive or not unpruned.exhaustive
    return pruned


def test_golden_transitive_sentence():
    seq = parse_sequent("np, np\\s/np, np -> s")
    t0 = time.monotonic()
    result = prove(seq, SearchConfig(k=2))
    assert time.monotonic() - t0 < 5.0
    assert result.proofs
    assert result.proofs[0].rule_multiset() == {"/L": 1, "\\L": 1, "Axiom": 3}


def test_golden_pronoun_discourse():
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s")
    t0 = time.monotonic()
    result = prove(seq, SearchConfig(k=2))
    assert time.monotonic() - t0 < 5.0
    assert result.proofs
    multisets = [p.rule_multiset() for p in result.proofs]
    assert any(
        m.get("!L", 0) >= 1 and m.get("Perm", 0) >= 1 and m.get("@L", 0) >= 1
        and m.get("*R", 0) >= 1
        for m in multisets
    )


def test_golden_donkey_sequent(lexicon):
    t0 = time.monotonic()
    _, proofs = find_proofs(lexicon, DONKEY, k=2)
    assert time.monotonic() - t0 < 5.0
    assert proofs
    m = proofs[0].rule_multiset()
    assert m.get("!L") == 2
    assert m.get("@L") == 2
    assert m.get("Perm", 0) >= 1


def test_all_search_outputs_pass_checker(lexicon):
    sentences = [
        ("dogs eat snacks", "s"),
        ("every dog eats snacks", "s"),
        ("dogs who eat snacks", "np"),
        ("john sleeps he snores", "s.s"),
        (DONKEY, "s"),
    ]
    for sentence, goal in sentences:
        _, proofs = find_proofs(lexicon, sentence, goal=goal, k=3)
        assert proofs, sentence
        for p in proofs:
            assert check_proof_report(p, k=3) is None, proof_to_text(p)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "sentence, goal",
    [
        ("dogs eat snacks", "s"),
        ("every dog eats snacks", "s"),
        ("dogs who eat snacks", "np"),
        ("john sleeps he snores", "s.s"),
        (DONKEY, "s"),
        ("a farmer owns a donkey", "s"),
    ],
)
def test_every_enumerated_proof_checks_and_compiles(lexicon, sentence, goal, k):
    words = sentence.split()
    goal_f = parse_formula(goal, lexicon.atoms)
    for seq in sentence_to_sequents(words, lexicon, goal_f):
        for p in prove(seq, SearchConfig(k=k, max_proofs=None)).proofs:
            assert check_proof_report(p, k=k) is None, proof_to_text(p)
            assert typecheck_report(proof_to_diagram(p, lexicon, words=words)) is None


@pytest.mark.parametrize("n", range(1, 6))
def test_move_chains_reach_their_arrangements(n):
    """Replaying a rearrangement's moves from the antecedent, each taking a
    movable formula, ends on the arrangement."""
    for ant in itertools.product(("@np", "@n", "np", "n"), repeat=n):
        ant = tuple(parse_formula(f) for f in ant)
        idx = [i for i, f in enumerate(ant) if isinstance(f, Nabla)]
        for arrangement, moves in prover._movable_arrangements(ant, idx):
            cur = list(ant)
            for src, dst, premise in moves:
                assert isinstance(cur[dst], Nabla)
                cur.insert(src, cur.pop(dst))
                assert tuple(cur) == premise
            assert tuple(cur) == arrangement


def test_unprovable_word_order():
    seq = parse_sequent("np, np, np\\s/np -> s")
    result = prove(seq, SearchConfig(k=2))
    assert not result.proofs
    assert result.exhaustive  # no proof was dropped: definitively unprovable


def test_deep_sequent_is_proved_without_a_depth_bound():
    n = 70
    goal = "np\\s"
    for _ in range(n - 1):
        goal = f"np\\({goal})"
    seq = parse_sequent(", ".join(["np"] * n + [goal]) + " -> s")
    result = prove(seq, SearchConfig(k=1))
    assert len(result.proofs) == 1 and result.exhaustive
    assert check_proof_report(result.proofs[0], k=1) is None


def test_proof_cap_is_reported_as_not_exhaustive(lexicon):
    cfg = SearchConfig(k=2, max_proofs=None)
    _, donkey = prove_sentence(DONKEY.split(), lexicon, Atom("s"), cfg)[-1]
    assert len(donkey.proofs) == 26
    assert donkey.exhaustive is False  # the per-sequent cap cut the search
    _, dogs = prove_sentence("dogs eat snacks".split(), lexicon, Atom("s"), cfg)[-1]
    assert dogs.exhaustive is True


def test_max_proofs_caps_the_result_unless_none(lexicon):
    assert len(find_proofs(lexicon, DONKEY, max_proofs=3)[1]) == 3
    for bad in (0, -1):
        with pytest.raises(ValueError):
            SearchConfig(max_proofs=bad)


def test_copy_bound_is_respected():
    for text, k in (
        # two pronouns referring back need three antecedent copies
        ("!@np, np\\s, @np\\np, np\\s, @np\\np, np\\s -> s.s.s", 2),
        # without copying, two names cannot feed three verbs
        ("!@np, np\\s, !@np, np\\s, @np\\np, np\\s -> s.s.s", 1),
    ):
        seq = parse_sequent(text)
        short = prove(seq, SearchConfig(k=k))
        assert not short.proofs
        assert short.exhaustive is True  # the counts exclude it: definitively unprovable
        assert prove(seq, SearchConfig(k=k + 1)).proofs


def test_k_monotonicity():
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s")
    assert not prove(seq, SearchConfig(k=1)).proofs
    for k in (2, 3):
        assert prove(seq, SearchConfig(k=k)).proofs


def _up_to_perm(t) -> tuple:
    """`t` with Perm nodes erased and each conclusion's @ formulas sorted leftmost."""
    while t.rule == prover.PERM:
        t = t.premises[0]
    ant = t.conclusion.antecedent
    moved = sorted((f for f in ant if isinstance(f, Nabla)), key=format_formula)
    rest = [f for f in ant if not isinstance(f, Nabla)]
    premises = tuple(_up_to_perm(p) for p in t.premises)
    return t.rule, tuple(moved + rest), t.conclusion.succedent, premises


@pytest.mark.parametrize(
    "text, k",
    [
        ("!@np, np\\s, @np\\np, np\\s -> s.s", 2),
        ("!@np, np\\s, @np\\np, np\\s -> s.s", 3),
        ("!@np, np\\s, !@np, np\\s, @np\\np, np\\s -> s.s.s", 2),
    ],
)
def test_proofs_are_distinct_and_canonically_ordered(text, k):
    result = prove(parse_sequent(text), SearchConfig(k=k, max_proofs=None))
    keys = [_up_to_perm(p) for p in result.proofs]
    assert len(keys) > 1 and len(set(keys)) == len(keys)
    texts = [proof_to_text(p) for p in result.proofs]
    assert texts == sorted(texts)


def test_proof_json_round_trip():
    seq = parse_sequent("np, np\\s/np, np -> s")
    proof = prove(seq, SearchConfig(k=2)).proofs[0]
    again = proof_from_json(proof_to_json(proof))
    assert again == proof
    assert check_proof_report(again, k=2) is None


def test_invalid_k_rejected():
    with pytest.raises(ValueError):
        SearchConfig(k=0)


# ------------------------------------------------------------ count pruning

NAME, PRONOUN, VERB = "!@np", "@np\\np", "np\\s"
LEXICON_SENTENCES = [
    ("dogs eat snacks", "s"),
    ("every dog eats snacks", "s"),
    ("some dog eats snacks", "s"),
    ("dogs who eat snacks", "np"),
    ("john sleeps he snores", "s.s"),
    (DONKEY, "s"),
    ("a farmer owns a donkey", "s"),
    ("every farmer owns a donkey", "s"),  # unpruned at k=3 it runs for minutes
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n, j", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)])
def test_pruning_keeps_the_proofs_of_synthetic_discourses(n, j, k):
    want = discourse_provable(n, j, k)
    rest = [NAME] * (n - 1) + [PRONOUN] * j
    for order in sorted({(NAME,) + p for p in itertools.permutations(rest)}):
        ant = ", ".join(f"{f}, {VERB}" for f in order)
        seq = parse_sequent(f"{ant} -> {'.'.join(['s'] * (n + j))}")
        result = assert_pruning_changes_nothing(seq, SearchConfig(k=k))
        assert bool(result.proofs) == want, order
        if not want:
            assert result.exhaustive


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sentence, goal", LEXICON_SENTENCES)
def test_pruning_keeps_the_proofs_of_lexicon_sentences(lexicon, sentence, goal, k):
    goal_f = parse_formula(goal, lexicon.atoms)
    for seq in sentence_to_sequents(sentence.split(), lexicon, goal_f):
        assert_pruning_changes_nothing(seq, SearchConfig(k=k))


def test_pruning_takes_the_cliff_off_every_farmer_owns_a_donkey():
    seq = parse_sequent("np/n, n, np\\s/np, !@(!@np/n), n -> s")
    for k, limit in ((2, 0.1), (3, 1.0)):
        t0 = time.monotonic()
        result = prove(seq, SearchConfig(k=k))
        assert time.monotonic() - t0 < limit
        assert result.proofs and result.exhaustive


# Sentences over the categories of the bundled lexicon: a clause is a noun
# phrase and a verb phrase, and a discourse one or two clauses.
_BUNDLED = Lexicon.from_path(data_path("lexicon.json"))
_CATEGORIES: dict[str, list[str]] = {}
for _word in sorted(_BUNDLED.entries):
    for _f in _BUNDLED.formulas(_word):
        _CATEGORIES.setdefault(format_formula(_f), []).append(_word)


def _words(*categories):
    return st.tuples(*(st.sampled_from(_CATEGORIES[c]) for c in categories)).map(list)


_simple_nps = st.one_of(
    _words("np"), _words("!@np"), _words("@np\\np"), _words("np/n", "n"), _words("!@(!@np/n)", "n")
)
_vps = st.one_of(_words("np\\s"), st.builds(list.__add__, _words("np\\s/np"), _simple_nps))
_relatives = st.builds(
    lambda head, who, vp: head + who + vp, _simple_nps, _words("np\\np/(np\\s)"), _vps
)
_nps = st.one_of(_simple_nps, _relatives)
_clauses = st.builds(list.__add__, _nps, _vps)
_NABLAS = {w: c.count("@") for c, ws in _CATEGORIES.items() for w in ws}
# few `@`: the unpruned search permutes every `@` formula at every node
_sentences = st.lists(_clauses, min_size=1, max_size=2).filter(
    lambda cs: sum(map(len, cs)) <= 7 and sum(_NABLAS[w] for c in cs for w in c) <= 2
).map(lambda cs: (sum(cs, []), ".".join("s" * len(cs))))


@settings(max_examples=100, deadline=None)
@given(_sentences, st.integers(1, 2))
def test_pruning_keeps_the_proofs_of_drawn_sentences(sentence, k):
    words, goal = sentence
    for seq in sentence_to_sequents(words, _BUNDLED, parse_formula(goal, _BUNDLED.atoms)):
        for p in assert_pruning_changes_nothing(seq, SearchConfig(k=k)).proofs:
            assert check_proof_report(p, k=k) is None, proof_to_text(p)


@pytest.mark.parametrize(
    "text, k, excluded",
    [
        ("np, np\\s -> s", 1, False),
        ("np, np, np\\s -> s", 3, True),  # no `!`: the plain balance test
        ("!np, np\\s -> s", 3, False),
        ("!np, np\\s, np\\s, np\\s -> s.s.s", 3, False),
        ("!np, np\\s, np\\s, np\\s -> s.s.s", 2, True),  # one copy short
        # nested: the body's [2, 3] copied once or twice gives [2, 6]
        ("!(!np.np), " + ", ".join(["np\\s"] * 6) + " -> " + ".".join("s" * 6), 2, False),
        ("!(!np.np), " + ", ".join(["np\\s"] * 7) + " -> " + ".".join("s" * 7), 2, True),
        ("np, np\\s -> !s", 3, False),
        ("np, np, np\\s -> !(np\\s)", 3, True),  # a goal `!` counts once
        ("np -> !np.!np", 3, True),
        ("!np -> !np.!np", 2, False),
    ],
)
def test_count_intervals(text, k, excluded):
    assert count_excludes_zero(parse_sequent(text), k) is excluded


def _movers(f, k: int) -> int:
    """The `@` formulas in `f` once each `!` is copied k times."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Bang, Nabla)):
        return (k if isinstance(f, Bang) else 1) * _movers(f.inner, k) + isinstance(f, Nabla)
    return _movers(f.left, k) + _movers(f.right, k)


def _modalities(f) -> int:
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Bang, Nabla)):
        return 1 + _modalities(f.inner)
    return _modalities(f.left) + _modalities(f.right)


_atoms = st.sampled_from([Atom("np"), Atom("s")])
_prefix = st.sampled_from([lambda f: f] * 3 + [Bang, Nabla, lambda f: Bang(Nabla(f))])


def _prefixed(formulas):
    return st.builds(lambda wrap, f: wrap(f), _prefix, formulas)


_formulas = st.recursive(
    _prefixed(_atoms),
    lambda inner: _prefixed(
        st.one_of(
            st.builds(Under, inner, inner),
            st.builds(Over, inner, inner),
            st.builds(Tensor, inner, inner),
        )
    ),
    max_leaves=3,
)
# few modalities: the unpruned search permutes every `@` copy that `!` makes
_sequents = st.builds(
    Sequent, st.lists(_formulas, min_size=1, max_size=3).map(tuple), _formulas
).filter(
    lambda s: 0 < sum(_modalities(f) for f in (*s.antecedent, s.succedent)) <= 3
)


@settings(max_examples=300, deadline=None)
@given(_sequents, st.integers(1, 3))
def test_count_check_holds_on_every_proved_sequent(seq, k):
    # `prove_unpruned` places each `@` copy at every node: factorial in the movers
    assume(sum(_movers(f, k) for f in (*seq.antecedent, seq.succedent)) <= 3)
    cfg = SearchConfig(k=k, max_proofs=None)
    stack = list(prove_unpruned(seq, cfg).proofs)
    while stack:
        node = stack.pop()
        assert not count_excludes_zero(node.conclusion, k), proof_to_text(node)
        stack.extend(node.premises)


# discourses of up to three clauses: a third or so of them are provable
_discourses = st.lists(
    st.sampled_from(["np", "!np", "@np", NAME, PRONOUN]), min_size=1, max_size=3
).map(
    lambda subjects: parse_sequent(
        ", ".join(f"{f}, {VERB}" for f in subjects) + " -> " + ".".join("s" * len(subjects))
    )
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_sequents, _discourses), st.integers(1, 3))
@example(parse_sequent("np/n, n, np\\s/np, !@(!@np/n), n -> s"), 2)
def test_proof_json_round_trips_on_drawn_sequents(seq, k):
    for p in prove(seq, SearchConfig(k=k, max_proofs=None)).proofs:
        text = proof_to_json(p)
        again = proof_from_json(text)
        assert again == p
        assert proof_to_json(again) == text


def test_each_sequent_is_count_checked_once():
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s, !@np, np\\s -> s.s.s")
    cfg = SearchConfig(k=2)
    totalled: Counter = Counter()
    verdicts: Counter = Counter()
    total, excludes = prover._Searcher.total, prover._excludes

    def counting_total(searcher, s):
        totalled[searcher.sequent(s)] += 1
        return total(searcher, s)

    def counting_excludes(counts):
        verdicts[excludes(counts)] += 1
        return excludes(counts)

    traced = []
    token = prover.TRACE.set(traced.append)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(prover._Searcher, "total", counting_total)
            mp.setattr(prover, "_excludes", counting_excludes)
            result = prove(seq, cfg)
    finally:
        prover.TRACE.reset(token)
    # the entry check sees each sequent the memo lacks, once
    assert max(totalled.values()) == 1 and len(totalled) == traced[0]["memo_size"]
    # those that cannot balance are cut there, without trying a rule
    unbalanced = [s for s in totalled if count_excludes_zero(s, cfg.k)]
    assert len(unbalanced) == traced[0]["memo_size"] - traced[0]["nodes"]
    # pruned counts every verdict that cut: those sequents and the dropped splits
    assert traced[0]["pruned"] == verdicts[True] > len(unbalanced) > 0
    again = prove(seq, cfg).proofs
    assert [proof_to_text(p) for p in result.proofs] == [proof_to_text(p) for p in again]


SPLITS = {prover.UNDER_L, prover.OVER_L, prover.TENSOR_R}


@settings(max_examples=200, deadline=None)
@given(st.one_of(_sequents, _discourses), st.integers(1, 3))
def test_split_check_is_exact(seq, k):
    """A split is dropped before its premises are built exactly when one of
    them cannot balance, in every arrangement of every sequent searched."""
    searcher = prover._Searcher(SearchConfig(k=k), seq)
    searcher.search(searcher.root)
    for ant, succ in searcher.memo:
        total = searcher.total((ant, succ))
        idx = [i for i, f in enumerate(ant) if searcher.kinds[f] is Nabla]
        for arrangement, _ in prover._movable_arrangements(ant, idx):
            vseq = (arrangement, succ)
            kept = {(rule, data) for rule, data, _ in searcher._applications(vseq, total)}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(prover, "_excludes", lambda counts: False)
                tried = list(searcher._applications(vseq, total))
            for rule, data, premises in tried:
                cut = rule in SPLITS and any(
                    count_excludes_zero(searcher.sequent(p), k) for p in premises
                )
                assert ((rule, data) in kept) != cut, (
                    format_sequent(searcher.sequent(vseq)), rule, data
                )


@pytest.mark.parametrize(
    "text, record",
    [
        (
            "!@np, np\\s, @np\\np, np\\s -> s.s",
            dict(nodes=34, memo_hits=114, memo_size=35, pruned=125, raw_proofs=64,
                 unique_proofs=22, capped=True),
        ),
        (
            "!@np, np\\s, @np\\np, np\\s, !@np, np\\s -> s.s.s",
            dict(nodes=70, memo_hits=326, memo_size=71, pruned=1432, raw_proofs=64,
                 unique_proofs=28, capped=True),
        ),
    ],
)
def test_search_work_on_synthetic_discourses(text, record):
    """The trace counters of two discourses that no corpus digest covers."""
    traced = []
    token = prover.TRACE.set(traced.append)
    try:
        prove(parse_sequent(text), SearchConfig(k=2))
    finally:
        prover.TRACE.reset(token)
    assert traced == [{"search": text, "k": 2, **record}]


def test_proof_trees_are_built_only_for_returned_proofs():
    """`prove` builds one `ProofTree` per distinct node of the proofs it returns."""
    seq = parse_sequent("!@np, np\\s, @np\\np, np\\s, !@np, np\\s -> s.s.s")
    built = 0
    init = prover.ProofTree.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover.ProofTree, "__init__", counting_init)
        result = prove(seq, SearchConfig(k=2, max_proofs=None))
    seen: set[int] = set()
    stack = list(result.proofs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.premises)
    assert built == len(seen)
