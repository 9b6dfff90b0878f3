"""Cut-free backward proof search with bounded copying.

The permutation rule is never taken as a free search step.  Instead, each
movable (``@``-rooted) antecedent formula is treated as relocatable: before
matching any other rule the searcher may move movable formulas to arbitrary
positions, and every such move is recorded as an explicit Perm node so the
emitted tree remains checkable against the rule schemas.

The searcher interns each formula it meets as an int, kept with its kind,
its children's ints and its count vectors, and searches and memoizes
sequents as tuples of ints.  The memo keeps raw proofs as nested tuples,
and ``prove`` builds ``ProofTree`` objects only for the proofs it keeps.

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
    Atom,
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
    """Found proofs, and whether the search surely found every proof.

    ``exhaustive`` speaks of the search only: it is False when some
    sequent's proofs reached the per-sequent cap.  ``max_proofs`` may still
    cut an exhaustive result; an empty one means the sequent is unprovable.
    """

    proofs: tuple[ProofTree, ...]
    exhaustive: bool


def _movable_arrangements(
    ant: tuple, idx: list[int]
) -> Iterator[tuple[tuple, list[tuple[int, int, tuple]]]]:
    """All rearrangements of `ant` reachable by moving the items at positions `idx`.

    Yields (arrangement, moves); each move is (src, dst, resulting antecedent)
    where the item at position dst in the previous arrangement is read as
    having been moved there from position src in the next one up the proof.
    """
    if not idx:
        yield ant, []
        return
    n = len(ant)
    movers = set(idx)
    base = [i for i in range(n) if i not in movers]
    seen: set[tuple] = set()
    for mperm in itertools.permutations(idx):
        for slots in itertools.combinations(range(n), len(idx)):
            target = list(base)  # indices into `ant`, in arrangement order
            for slot, i in zip(slots, mperm):
                target.insert(slot, i)
            items = tuple(ant[i] for i in target)
            if items in seen:
                continue
            seen.add(items)
            # Recover a chain of single-item moves taking `ant` to `items`
            # where only movable items ever move.  Left of `tpos` the chain
            # already agrees with the target.  A mover due at `tpos` moves
            # left onto it; a mover standing where a fixed item is due moves
            # right, past that item.  Indices keep equal items distinct.
            cur = list(range(n))
            moves: list[tuple[int, int, tuple]] = []
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
            yield items, moves


# The one trace channel: while set, it is called with one dict of search
# counters per ``prove`` call, one of rewrite counts per
# ``diagram.substitute_wirings`` call and one per ``planner`` contraction step
# (``lamsem … --trace`` prints them).  None, the default, costs one lookup.
TRACE: ContextVar[Callable[[dict], None] | None] = ContextVar("TRACE", default=None)


def _excludes(counts: tuple[int, ...]) -> bool:
    """Whether a count vector puts 0 outside some atom's interval."""
    return max(counts) > 0


_Key = tuple[tuple[int, ...], int]  # a sequent: its formulas' ints, antecedent then succedent


class _Searcher:
    _NODE_CAP = 64

    def __init__(self, cfg: SearchConfig, root: Sequent):
        self.cfg = cfg
        # every formula the search meets is built from the root's atoms
        formulas = (*root.antecedent, root.succedent)
        self.atoms = sorted({a for f in formulas for a in _intervals(f, 1, cfg.k)})
        # per interned formula: itself, its kind, its children's ints and its
        # count vectors taken with sign +1 and -1
        self.ids: dict[Formula, int] = {}
        self.formulas: list[Formula] = []
        self.kinds: list[type] = []
        self.kids: list[tuple[int, ...]] = []
        self.plus: list[tuple[int, ...]] = []
        self.minus: list[tuple[int, ...]] = []
        self.root: _Key = (tuple(map(self.intern, root.antecedent)), self.intern(root.succedent))
        # sequent -> (proof, class) pairs, each proof a (rule, conclusion,
        # premise proofs, data) tuple; proofs equal up to Perm-node
        # placement share a class
        self.memo: dict[_Key, tuple[tuple[tuple, int], ...]] = {}
        # (rule, perm-normalized conclusion, !L copies, premise classes) -> class
        self.classes: dict[tuple, int] = {}
        self.sequents: dict[_Key, Sequent] = {}
        self.trees: dict[int, ProofTree] = {}  # id of a memo proof -> its tree
        self.truncated = False  # whether some sequent's proofs reached _NODE_CAP
        self.nodes = 0  # sequents whose rules were tried
        self.memo_hits = 0
        self.pruned = 0  # sequents and splits cut by _excludes

    def intern(self, f: Formula) -> int:
        """The int of `f`, given (after its children's) the first time it is met."""
        i = self.ids.get(f)
        if i is None:
            unary = isinstance(f, (Bang, Nabla))
            parts = () if isinstance(f, Atom) else (f.inner,) if unary else (f.left, f.right)
            kids = tuple(map(self.intern, parts))
            i = self.ids[f] = len(self.formulas)
            self.formulas.append(f)
            self.kinds.append(type(f))
            self.kids.append(kids)
            for sign, vectors in ((1, self.plus), (-1, self.minus)):
                ends = [_intervals(f, sign, self.cfg.k).get(a, (0, 0)) for a in self.atoms]
                vectors.append(tuple(lo for lo, _ in ends) + tuple(-hi for _, hi in ends))
        return i

    def sequent(self, key: _Key) -> Sequent:
        """The `Sequent` of `key`, built once."""
        s = self.sequents.get(key)
        if s is None:
            ant = tuple(self.formulas[f] for f in key[0])
            s = self.sequents[key] = Sequent(ant, self.formulas[key[1]])
        return s

    def tree(self, proof: tuple) -> ProofTree:
        """The `ProofTree` of a memo proof, built once: shared proofs share trees."""
        t = self.trees.get(id(proof))
        if t is None:
            rule, key, premises, data = proof
            premises = tuple(map(self.tree, premises))
            t = self.trees[id(proof)] = ProofTree(rule, self.sequent(key), premises, data)
        return t

    def total(self, seq: _Key) -> tuple[int, ...]:
        """The count vector of `seq`, its succedent taken with sign -1."""
        ant, succ = seq
        total = self.minus[succ]
        for f in ant:
            total = tuple(map(add, total, self.plus[f]))
        return total

    def search(self, seq: _Key) -> tuple[tuple[tuple, int], ...]:
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
        ant, succ = seq
        idx = [i for i, f in enumerate(ant) if self.kinds[f] is Nabla]
        # every arrangement normalizes alike: only movable formulas move
        rest = tuple(f for f in ant if self.kinds[f] is not Nabla)
        norm = (tuple(sorted(ant[i] for i in idx)), rest, succ)
        proofs: list[tuple[tuple, int]] = []
        for vant, moves in _movable_arrangements(ant, idx):
            vseq = (vant, succ)
            for rule, data, premise_seqs in self._applications(vseq, total):
                sub: list[tuple[tuple[tuple, int], ...]] = []
                for p in premise_seqs:
                    found = self.search(p)
                    if not found:
                        break
                    sub.append(found)
                else:
                    head = (rule, norm, tuple(v for k, v in data if k == "n"))
                    for combo in itertools.product(*sub):
                        proof = (rule, vseq, tuple(p for p, _ in combo), data)
                        # one Perm node per move, the last move innermost
                        for i in range(len(moves) - 1, -1, -1):
                            src, dst, _ = moves[i]
                            concl = moves[i - 1][2] if i else ant
                            proof = (PERM, (concl, succ), (proof,), (("dst", dst), ("src", src)))
                        key = (head, tuple(c for _, c in combo))
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
        self, seq: _Key, total: tuple[int, ...]
    ) -> Iterator[tuple[str, tuple[tuple[str, int], ...], list[_Key]]]:
        """The rule applications to `seq`, of count vector `total`, less unbalanced splits."""
        ant, succ = seq
        kinds, kids, minus = self.kinds, self.kids, self.minus
        n = len(ant)
        prefix = [(0,) * len(total)]
        for f in ant:
            prefix.append(tuple(map(add, prefix[-1], self.plus[f])))

        def cut(first: tuple[int, ...]) -> bool:
            """Whether premise 1, of count vector `first`, or premise 2 cannot balance."""
            excluded = _excludes(first) or _excludes(tuple(map(sub, total, first)))
            self.pruned += excluded
            return excluded

        if n == 1 and ant[0] == succ:
            yield AXIOM, (), []
        for pos, f in enumerate(ant):
            kind = kinds[f]
            if kind is Bang:
                for copies in range(1, self.cfg.k + 1):
                    premise = ant[:pos] + kids[f] * copies + ant[pos + 1 :]
                    yield BANG_L, (("n", copies), ("pos", pos)), [(premise, succ)]
            elif kind is Nabla or kind is Tensor:
                premise = ant[:pos] + kids[f] + ant[pos + 1 :]
                yield NABLA_L if kind is Nabla else TENSOR_L, (("pos", pos),), [(premise, succ)]
        for pos, f in enumerate(ant):
            kind = kinds[f]
            if kind is Under:
                # premise 1 is ant[pos - sigma_len : pos] -> left
                left, right = kids[f]
                end = tuple(map(add, prefix[pos], minus[left]))
                for sigma_len in range(1, pos + 1):
                    if cut(tuple(map(sub, end, prefix[pos - sigma_len]))):
                        continue
                    yield UNDER_L, (("pos", pos), ("sigma_len", sigma_len)), [
                        (ant[pos - sigma_len : pos], left),
                        (ant[: pos - sigma_len] + (right,) + ant[pos + 1 :], succ),
                    ]
            elif kind is Over:
                # premise 1 is ant[pos + 1 : pos + 1 + sigma_len] -> right
                left, right = kids[f]
                start = tuple(map(sub, minus[right], prefix[pos + 1]))
                for sigma_len in range(1, n - pos):
                    if cut(tuple(map(add, prefix[pos + 1 + sigma_len], start))):
                        continue
                    yield OVER_L, (("pos", pos), ("sigma_len", sigma_len)), [
                        (ant[pos + 1 : pos + 1 + sigma_len], right),
                        (ant[:pos] + (left,) + ant[pos + 1 + sigma_len :], succ),
                    ]
        kind, parts = kinds[succ], kids[succ]
        if kind is Tensor:
            for split in range(1, n):
                if cut(tuple(map(add, prefix[split], minus[parts[0]]))):
                    continue
                halves = [(ant[:split], parts[0]), (ant[split:], parts[1])]
                yield TENSOR_R, (("split", split),), halves
        elif kind is Under:
            yield UNDER_R, (), [(parts[:1] + ant, parts[1])]
        elif kind is Over:
            yield OVER_R, (), [(ant + parts[1:], parts[0])]
        elif kind is Bang and n == 1 and kinds[ant[0]] is Bang:
            yield BANG_R, (), [(kids[ant[0]], parts[0])]
        elif kind is Nabla and n == 1 and kinds[ant[0]] is Nabla:
            yield NABLA_R, (), [(kids[ant[0]], parts[0])]


def prove(seq: Sequent, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Backward search for cut-free proofs of `seq`.

    Returns up to ``cfg.max_proofs`` proofs (every one if it is None): the
    first found of each class up to Perm-node placement, sorted canonically.
    """
    searcher = _Searcher(cfg, seq)
    raw = searcher.search(searcher.root)
    first: dict[int, tuple] = {}
    for proof, c in raw:
        first.setdefault(c, proof)
    unique = sorted(map(searcher.tree, first.values()), key=proof_to_text)
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
