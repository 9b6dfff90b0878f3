"""Layer timing from outside the program, by wrapping its public functions.

``Tracer.install`` replaces every module binding of each traced function
with a wrapper that records a span (name, start, end, parent, op, count).
A binding is the name a caller looks up, so ``relsem.contract_network`` and
``vecsem.contract_network`` are wrapped apart though they are one function.
Spans stay in memory; ``write`` saves them when the run ends.  Nothing is
installed in an untraced run.
"""
from __future__ import annotations

import importlib
import json
from time import perf_counter

MODULES = (
    "lamsem",
    "lamsem.checker",
    "lamsem.cli",
    "lamsem.diagram",
    "lamsem.lexicon",
    "lamsem.model",
    "lamsem.planner",
    "lamsem.prover",
    "lamsem.relsem",
    "lamsem.vecsem",
)


# (home module, attribute, layer metric of its self time, count of its result)
TRACED = (
    ("lamsem.prover", "prove", "prover.prove_ms", lambda r: len(r.proofs)),
    ("lamsem.checker", "check_proof_report", "checker.check_ms", None),
    ("lamsem.lexicon", "Lexicon.from_path", "lexicon.load_ms", None),
    ("lamsem.model", "Model.from_path", "model.load_ms", None),
    ("lamsem.diagram", "proof_to_diagram", "diagram.compile_ms", None),
    ("lamsem.diagram", "substitute_wirings", "diagram.substitute_ms", None),
    ("lamsem.diagram", "swap_erased_key", "diagram.dedupe_ms", hash),
    ("lamsem.diagram", "export", "diagram.export_ms", None),
    ("lamsem.diagram", "typecheck_report", "diagram.typecheck_ms", None),
    ("lamsem.planner", "extract_network", "planner.extract_ms", None),
    ("lamsem.planner", "contract_network", "planner.contract_ms", None),
    ("lamsem.relsem", "generator_entries", "relsem.entries_ms", len),
    ("lamsem.relsem", "eval_diagram_rel", "relsem.eval_ms", None),
    ("lamsem.vecsem", "eval_diagram_vec", "vecsem.eval_ms", None),
    ("lamsem.vecsem", "check_equivalence", "vecsem.equiv_ms", None),
    ("lamsem.cli", "main", "cli.self_ms", None),
)

# every per-layer metric, with its unit, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("prover.prove_ms", "ms"),
    ("prover.proofs", "count"),
    ("lexicon.sequents_tried", "count"),
    ("checker.check_ms", "ms"),
    ("lexicon.load_ms", "ms"),
    ("model.load_ms", "ms"),
    ("diagram.compile_ms", "ms"),
    ("diagram.substitute_ms", "ms"),
    ("diagram.dedupe_ms", "ms"),
    ("diagram.export_ms", "ms"),
    ("diagram.distinct_ratio", "ratio"),
    ("diagram.typecheck_ms", "ms"),
    ("planner.extract_ms", "ms"),
    ("planner.contract_ms", "ms"),
    ("planner.contractions", "count"),
    ("relsem.entries_ms", "ms"),
    ("relsem.entries", "count"),
    ("relsem.eval_ms", "ms"),
    ("vecsem.eval_ms", "ms"),
    ("vecsem.equiv_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.ops_per_s", "op/s"),
)


def _lookup(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        # span: (name, start, end, parent index, op index, count)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1  # index of the op running now; -1 between ops
        self.metric_of: dict[str, str] = {}  # span name -> layer metric
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, self.op, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            # tuples of plain values drop out of the garbage collector's view
            spans[idx] = (name, start, end, parent, self.op, count(result) if count else None)
            return result

        return traced

    def install(self) -> None:
        mods = {name: importlib.import_module(name) for name in MODULES}
        for home, attr, metric, count in TRACED:
            owner, name = _lookup(mods[home], attr)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                # a classmethod is looked up on its class only
                label = f"{home.rsplit('.', 1)[-1]}.{attr}"
                bound = self.span(label, raw.__func__, count)
                self._undo.append((owner, name, raw))
                setattr(owner, name, classmethod(bound))
                self.metric_of[label] = metric
                continue
            for modname, mod in mods.items():
                for binding, value in list(vars(mod).items()):
                    if value is not raw:
                        continue
                    label = f"{modname.rsplit('.', 1)[-1]}.{binding}"
                    self._undo.append((mod, binding, raw))
                    setattr(mod, binding, self.span(label, raw, count))
                    self.metric_of[label] = metric

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer figures over the spans recorded inside ops."""
        ops = max(n_ops, 1)
        selfs = self.self_times()
        ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        root: list[int] = []
        compiled: dict[int, int] = {}
        keys: dict[int, set] = {}
        for i, s in enumerate(self.spans):
            name, parent = s[0], s[3]
            root.append(i if parent < 0 else root[parent])
            if s[4] < 0:
                continue
            metric = self.metric_of.get(name)
            if metric is None:
                continue
            ms[metric] = ms.get(metric, 0.0) + selfs[i] * 1000
            calls[metric] = calls.get(metric, 0) + 1
            if metric == "diagram.dedupe_ms":  # the count is the key's hash
                keys.setdefault(root[i], set()).add(s[5])
            elif s[5] is not None:
                counts[metric] = counts.get(metric, 0) + s[5]
            if metric == "diagram.compile_ms":
                compiled[root[i]] = compiled.get(root[i], 0) + 1
        out = {name: 0.0 for name, _ in LAYER_METRICS}
        for metric, total in ms.items():
            out[metric] = total / ops
        proves = calls.get("prover.prove_ms", 0)
        out["prover.proofs"] = counts.get("prover.prove_ms", 0) / proves if proves else 0.0
        out["lexicon.sequents_tried"] = proves / ops
        out["planner.contractions"] = calls.get("planner.contract_ms", 0) / ops
        out["relsem.entries"] = counts.get("relsem.entries_ms", 0) / ops
        n_compiled = sum(compiled.values())
        distinct = sum(len(v) for v in keys.values())
        out["diagram.distinct_ratio"] = distinct / n_compiled if n_compiled else 0.0
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent", "op"]}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(f"{index[s[0]]} {s[1]:.9f} {s[2]:.9f} {s[3]} {s[4]}\n")
