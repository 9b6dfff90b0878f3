"""Cut-free backward proof search with bounded copying.

The permutation rule is never taken as a free search step.  Instead, each
movable (``@``-rooted) antecedent formula is treated as relocatable: before
matching any other rule the searcher may move movable formulas to arbitrary
positions, and every such move is recorded as an explicit Perm node so the
emitted tree remains checkable against the rule schemas.

Every count verdict is :func:`_excludes` of a count vector: per atom of the
root, the low ends of the intervals of :func:`~lamsem.formula.count_excludes_zero`,
then their negated high ends, so that vectors add over formulas and a
sequent cannot balance exactly when an entry is positive.  ``\\L``, ``/L``
and ``*R`` give part of their conclusion and one subformula of the active
formula to each premise, so premise 1's vector is a slice of prefix sums
plus its goal's and premise 2's is the conclusion's minus premise 1's: a
split either premise of which cannot balance is dropped unbuilt.  A sequent
not in the memo that cannot balance is memoized with no proofs; this decides
only at the root and after ``!L`` and ``!R``, which change the counts, and
costs one ``max`` since the splits need the total.  The trace counter
``pruned`` counts each sequent cut before its rules once, and each split
dropped before its premises once per arrangement that tries it.

The search needs no depth bound.  Every premise of every rule is smaller
than its conclusion in the multiset order on formula occurrences: the rule
replaces formulas of the conclusion by their immediate subformulas (at most
k copies under ``!L``) and may drop others, and rearranging movable formulas
changes no multiset.  That order is well-founded and each sequent has
finitely many rule applications, so the search tree is finite, no sequent
recurs below itself, and the memo, keyed on the sequent alone, is exact.
Each premise is one nested call, so a search whose premise chains run
deeper than the interpreter's recursion limit raises ``RecursionError``
(``lamsem`` reports it as an error, exit 2).
"""
from __future__ import annotations

import itertools
import json
from contextvars import ContextVar
from dataclasses import dataclass
from operator import add, sub
from typing import Callable, Iterator

from .formula import (
    Bang,
    Formula,
    Nabla,
    Over,
    Sequent,
    Tensor,
    Under,
    _intervals,
    format_formula,
    format_sequent,
    parse_formula,
)

AXIOM = "Axiom"
UNDER_L = "\\L"
OVER_L = "/L"
TENSOR_L = "*L"
UNDER_R = "\\R"
OVER_R = "/R"
TENSOR_R = "*R"
BANG_L = "!L"
BANG_R = "!R"
NABLA_L = "@L"
NABLA_R = "@R"
PERM = "Perm"


@dataclass(frozen=True)
class ProofTree:
    """A proof node; `data` holds the rule's parameters in name order, as
    :func:`proof_from_json_dict` reads them back."""

    rule: str
    conclusion: Sequent
    premises: tuple["ProofTree", ...] = ()
    data: tuple[tuple[str, int], ...] = ()

    def get(self, key: str) -> int:
        for k, v in self.data:
            if k == key:
                return v
        raise KeyError(key)

    def rule_multiset(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            counts[node.rule] = counts.get(node.rule, 0) + 1
            stack.extend(node.premises)
        return counts


@dataclass(frozen=True)
class SearchConfig:
    k: int = 2
    max_proofs: int | None = 8  # None: every unique proof

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("copy bound k must be >= 1")
        if self.max_proofs is not None and self.max_proofs < 1:
            raise ValueError("max_proofs must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    """Found proofs, plus whether every proof was surely kept.

    ``exhaustive`` is False when some sequent's proofs reached the
    per-sequent proof cap, so proofs may have been dropped; an empty
    exhaustive result means the sequent is unprovable.
    """

    proofs: tuple[ProofTree, ...]
    exhaustive: bool


def perm_normalize(s: Sequent) -> Sequent:
    """Canonical placement: movable formulas sorted to the leftmost positions."""
    movable = [f for f in s.antecedent if isinstance(f, Nabla)]
    rest = [f for f in s.antecedent if not isinstance(f, Nabla)]
    movable.sort(key=format_formula)
    return Sequent(tuple(movable + rest), s.succedent)


def _movable_arrangements(
    ant: tuple[Formula, ...]
) -> Iterator[tuple[tuple[Formula, ...], list[tuple[int, int, tuple[Formula, ...]]]]]:
    """All antecedent rearrangements reachable by moving movable formulas.

    Yields (arrangement, moves); each move is (src, dst, resulting antecedent)
    where the formula at position dst in the previous arrangement is read as
    having been moved there from position src in the next one up the proof.
    """
    idx = [i for i, f in enumerate(ant) if isinstance(f, Nabla)]
    if not idx:
        yield ant, []
        return
    n = len(ant)
    movers = set(idx)
    base = [i for i in range(n) if i not in movers]
    seen: set[tuple[Formula, ...]] = set()
    for mperm in itertools.permutations(idx):
        for slots in itertools.combinations(range(n), len(idx)):
            target = list(base)  # indices into `ant`, in arrangement order
            for slot, i in zip(slots, mperm):
                target.insert(slot, i)
            formulas = tuple(ant[i] for i in target)
            if formulas in seen:
                continue
            seen.add(formulas)
            # Recover a chain of single-formula moves taking `ant` to
            # `formulas` where only movable formulas ever move.  Left of
            # `tpos` the chain already agrees with the target.  A mover due
            # at `tpos` moves left onto it; a mover standing where a fixed
            # formula is due moves right, past that formula.  Indices keep
            # equal formulas distinct.
            cur = list(range(n))
            moves: list[tuple[int, int, tuple[Formula, ...]]] = []
            tpos = 0
            while tpos < n:
                want = target[tpos]
                if cur[tpos] == want:
                    tpos += 1
                    continue
                cpos = cur.index(want, tpos)
                if want in movers:
                    frm, to = cpos, tpos
                else:
                    frm, to = tpos, max(cpos, target.index(cur[tpos]))
                cur.insert(to, cur.pop(frm))
                moves.append((to, frm, tuple(ant[i] for i in cur)))
            yield formulas, moves


def _wrap_perms(
    tree: ProofTree,
    conclusion_ant: tuple[Formula, ...],
    succ: Formula,
    moves: list[tuple[int, int, tuple[Formula, ...]]],
) -> ProofTree:
    """Wrap `tree` (proving the rearranged sequent) in explicit Perm nodes."""
    for i in range(len(moves) - 1, -1, -1):
        src, dst, _premise_ant = moves[i]
        ant = moves[i - 1][2] if i > 0 else conclusion_ant
        tree = ProofTree(
            rule=PERM,
            conclusion=Sequent(ant, succ),
            premises=(tree,),
            data=(("dst", dst), ("src", src)),
        )
    return tree


# The one trace channel: while set, it is called with one dict of search
# counters per ``prove`` call, one of rewrite counts per
# ``diagram.substitute_wirings`` call and one per ``planner`` contraction step
# (``lamsem … --trace`` prints them).  None, the default, costs one lookup.
TRACE: ContextVar[Callable[[dict], None] | None] = ContextVar("TRACE", default=None)


def _excludes(counts: tuple[int, ...]) -> bool:
    """Whether a count vector puts 0 outside some atom's interval."""
    return max(counts) > 0


class _Searcher:
    _NODE_CAP = 64

    def __init__(self, cfg: SearchConfig, root: Sequent):
        self.cfg = cfg
        # sequent -> (proof, class) pairs; proofs equal up to Perm-node
        # placement share a class
        self.memo: dict[Sequent, tuple[tuple[ProofTree, int], ...]] = {}
        # (rule, perm-normalized conclusion, !L copies, premise classes) -> class
        self.classes: dict[tuple, int] = {}
        self.truncated = False  # whether some sequent's proofs reached _NODE_CAP
        self.nodes = 0  # sequents whose rules were tried
        self.memo_hits = 0
        self.pruned = 0  # sequents and splits cut by _excludes
        # every formula the search meets is built from the root's atoms
        formulas = (*root.antecedent, root.succedent)
        self.atoms = sorted({a for f in formulas for a in _intervals(f, 1, cfg.k)})
        self.vectors: dict[tuple[Formula, int], tuple[int, ...]] = {}

    def counts(self, f: Formula, sign: int) -> tuple[int, ...]:
        """The count vector of `f` taken with `sign`."""
        v = self.vectors.get((f, sign))
        if v is None:
            ends = [_intervals(f, sign, self.cfg.k).get(a, (0, 0)) for a in self.atoms]
            v = self.vectors[f, sign] = tuple(lo for lo, _ in ends) + tuple(-hi for _, hi in ends)
        return v

    def total(self, seq: Sequent) -> tuple[int, ...]:
        """The count vector of `seq`, its succedent taken with sign -1."""
        total = self.counts(seq.succedent, -1)
        for f in seq.antecedent:
            total = tuple(map(add, total, self.counts(f, 1)))
        return total

    def search(self, seq: Sequent) -> tuple[tuple[ProofTree, int], ...]:
        hit = self.memo.get(seq)
        if hit is not None:
            self.memo_hits += 1
            return hit
        total = self.total(seq)
        # each sequent is checked once: one the counts exclude is unprovable
        if _excludes(total):
            self.pruned += 1
            self.memo[seq] = ()
            return ()
        self.nodes += 1
        # every arrangement normalizes alike: only movable formulas move
        norm = perm_normalize(seq)
        proofs: list[tuple[ProofTree, int]] = []
        for ant, moves in _movable_arrangements(seq.antecedent):
            vseq = Sequent(ant, seq.succedent)
            for rule, data, premise_seqs in self._applications(vseq, total):
                head = (rule, norm, tuple(v for k, v in data if k == "n"))
                sub: list[tuple[tuple[ProofTree, int], ...]] = []
                for p in premise_seqs:
                    found = self.search(p)
                    if not found:
                        break
                    sub.append(found)
                else:
                    for combo in itertools.product(*sub):
                        node = ProofTree(rule, vseq, tuple(p for p, _ in combo), data)
                        key = (head, tuple(c for _, c in combo))
                        proof = _wrap_perms(node, seq.antecedent, seq.succedent, moves)
                        proofs.append((proof, self.classes.setdefault(key, len(self.classes))))
                        if len(proofs) >= self._NODE_CAP:
                            self.truncated = True
                            break
                if len(proofs) >= self._NODE_CAP:
                    break
            if len(proofs) >= self._NODE_CAP:
                break
        result = tuple(proofs)
        self.memo[seq] = result
        return result

    def _applications(
        self, seq: Sequent, total: tuple[int, ...]
    ) -> Iterator[tuple[str, tuple[tuple[str, int], ...], list[Sequent]]]:
        """The rule applications to `seq`, of count vector `total`, less unbalanced splits."""
        ant, succ = seq.antecedent, seq.succedent
        n = len(ant)
        prefix = [(0,) * len(total)]
        for f in ant:
            prefix.append(tuple(map(add, prefix[-1], self.counts(f, 1))))

        def cut(first: tuple[int, ...]) -> bool:
            """Whether premise 1, of count vector `first`, or premise 2 cannot balance."""
            excluded = _excludes(first) or _excludes(tuple(map(sub, total, first)))
            self.pruned += excluded
            return excluded

        if n == 1 and ant[0] == succ:
            yield AXIOM, (), []
        for pos, f in enumerate(ant):
            if isinstance(f, Bang):
                for copies in range(1, self.cfg.k + 1):
                    premise = ant[:pos] + (f.inner,) * copies + ant[pos + 1 :]
                    yield BANG_L, (("n", copies), ("pos", pos)), [Sequent(premise, succ)]
            elif isinstance(f, Nabla):
                premise = ant[:pos] + (f.inner,) + ant[pos + 1 :]
                yield NABLA_L, (("pos", pos),), [Sequent(premise, succ)]
            elif isinstance(f, Tensor):
                premise = ant[:pos] + (f.left, f.right) + ant[pos + 1 :]
                yield TENSOR_L, (("pos", pos),), [Sequent(premise, succ)]
        for pos, f in enumerate(ant):
            if isinstance(f, Under):
                # premise 1 is ant[pos - sigma_len : pos] -> f.left
                end = tuple(map(add, prefix[pos], self.counts(f.left, -1)))
                for sigma_len in range(1, pos + 1):
                    if cut(tuple(map(sub, end, prefix[pos - sigma_len]))):
                        continue
                    sigma = ant[pos - sigma_len : pos]
                    rest = ant[: pos - sigma_len] + (f.right,) + ant[pos + 1 :]
                    yield UNDER_L, (("pos", pos), ("sigma_len", sigma_len)), [
                        Sequent(sigma, f.left),
                        Sequent(rest, succ),
                    ]
            elif isinstance(f, Over):
                # premise 1 is ant[pos + 1 : pos + 1 + sigma_len] -> f.right
                start = tuple(map(sub, self.counts(f.right, -1), prefix[pos + 1]))
                for sigma_len in range(1, n - pos):
                    if cut(tuple(map(add, prefix[pos + 1 + sigma_len], start))):
                        continue
                    sigma = ant[pos + 1 : pos + 1 + sigma_len]
                    rest = ant[:pos] + (f.left,) + ant[pos + 1 + sigma_len :]
                    yield OVER_L, (("pos", pos), ("sigma_len", sigma_len)), [
                        Sequent(sigma, f.right),
                        Sequent(rest, succ),
                    ]
        if isinstance(succ, Tensor):
            goal = self.counts(succ.left, -1)
            for split in range(1, n):
                if cut(tuple(map(add, prefix[split], goal))):
                    continue
                yield TENSOR_R, (("split", split),), [
                    Sequent(ant[:split], succ.left),
                    Sequent(ant[split:], succ.right),
                ]
        elif isinstance(succ, Under):
            yield UNDER_R, (), [Sequent((succ.left,) + ant, succ.right)]
        elif isinstance(succ, Over):
            yield OVER_R, (), [Sequent(ant + (succ.right,), succ.left)]
        elif isinstance(succ, Bang) and n == 1 and isinstance(ant[0], Bang):
            yield BANG_R, (), [Sequent((ant[0].inner,), succ.inner)]
        elif isinstance(succ, Nabla) and n == 1 and isinstance(ant[0], Nabla):
            yield NABLA_R, (), [Sequent((ant[0].inner,), succ.inner)]


def prove(seq: Sequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward search for cut-free proofs of `seq`.

    Returns up to ``cfg.max_proofs`` proofs (every one if it is None): the
    first found of each class up to Perm-node placement, sorted canonically.
    """
    searcher = _Searcher(cfg, seq)
    raw = searcher.search(seq)
    first: dict[int, ProofTree] = {}
    for t, c in raw:
        first.setdefault(c, t)
    unique = sorted(first.values(), key=proof_to_text)
    trace = TRACE.get()
    if trace is not None:
        trace({
            "search": format_sequent(seq),
            "k": cfg.k,
            "nodes": searcher.nodes,
            "memo_hits": searcher.memo_hits,
            "memo_size": len(searcher.memo),
            "pruned": searcher.pruned,
            "raw_proofs": len(raw),
            "unique_proofs": len(unique),
            "capped": searcher.truncated,
        })
    return SearchResult(tuple(unique[: cfg.max_proofs]), not searcher.truncated)


# -------------------------------------------------------------- rendering


def proof_to_text(t: ProofTree) -> str:
    lines: list[str] = []

    def walk(node: ProofTree, indent: int) -> None:
        lines.append("  " * indent + f"{node.rule}: {format_sequent(node.conclusion)}")
        for p in node.premises:
            walk(p, indent + 1)

    walk(t, 0)
    return "\n".join(lines)


# ------------------------------------------------------------ JSON export


def proof_to_json_dict(t: ProofTree) -> dict:
    return {
        "rule": t.rule,
        "sequent": {
            "antecedent": [format_formula(f) for f in t.conclusion.antecedent],
            "succedent": format_formula(t.conclusion.succedent),
        },
        "data": {k: v for k, v in t.data},
        "premises": [proof_to_json_dict(p) for p in t.premises],
    }


def proof_to_json(t: ProofTree) -> str:
    return json.dumps(proof_to_json_dict(t), sort_keys=True, indent=2)


def proof_from_json_dict(d: dict, atoms=None) -> ProofTree:
    from .formula import DEFAULT_ATOMS

    atoms = atoms or DEFAULT_ATOMS
    ant = tuple(parse_formula(t, atoms) for t in d["sequent"]["antecedent"])
    seq = Sequent(ant, parse_formula(d["sequent"]["succedent"], atoms))
    premises = tuple(proof_from_json_dict(p, atoms) for p in d["premises"])
    data = tuple(sorted(d["data"].items()))
    return ProofTree(d["rule"], seq, premises, data)


def proof_from_json(text: str, atoms=None) -> ProofTree:
    return proof_from_json_dict(json.loads(text), atoms)
