"""Finite models: a universe, unary/binary predicates, and determiner maps.

Subsets of the universe are identified by bitmasks (``SubsetId``): bit ``i``
is set iff entity ``i`` (in declaration order) belongs to the subset.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from .formula import _fields_only

DEFAULT_UNIVERSE_CAP = 6

SubsetId = int

BUILTIN_DETERMINERS = frozenset({"every", "some", "a"})


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class Model:
    universe: tuple[str, ...]
    unary: Mapping[str, SubsetId] = field(default_factory=dict)
    binary: Mapping[str, frozenset[tuple[int, int]]] = field(default_factory=dict)
    # name -> builtin tag, or an explicit tuple of (A, B) SubsetId pairs
    determiners: Mapping[str, str | tuple[tuple[SubsetId, SubsetId], ...]] = field(
        default_factory=dict
    )
    universe_cap: int = DEFAULT_UNIVERSE_CAP

    # relsem.evaluate keeps the counts of the last evaluation on the model
    __getstate__ = _fields_only

    def __post_init__(self) -> None:
        if len(set(self.universe)) != len(self.universe):
            raise ModelError("universe entities must be distinct")
        if len(self.universe) > self.universe_cap:
            raise ModelError(
                f"universe size {len(self.universe)} exceeds cap {self.universe_cap}"
            )
        full = (1 << len(self.universe)) - 1
        for name, subset in self.unary.items():
            if subset & ~full:
                raise ModelError(f"unary {name!r} mentions entities outside universe")
        n = len(self.universe)
        for name, pairs in self.binary.items():
            for x, y in pairs:
                if not (0 <= x < n and 0 <= y < n):
                    raise ModelError(
                        f"binary {name!r} mentions entities outside universe"
                    )
        for name, det in self.determiners.items():
            if isinstance(det, str):
                if det not in BUILTIN_DETERMINERS:
                    raise ModelError(f"unknown builtin determiner {det!r} for {name!r}")
            else:
                for a, b in det:
                    if (a & ~full) or (b & ~full):
                        raise ModelError(
                            f"determiner {name!r} table mentions entities"
                            " outside universe"
                        )

    # ------------------------------------------------------------ subsets

    @property
    def size(self) -> int:
        return len(self.universe)

    @property
    def full_set(self) -> SubsetId:
        return (1 << len(self.universe)) - 1

    def subsets(self) -> Iterator[SubsetId]:
        return iter(range(1 << len(self.universe)))

    # -------------------------------------------------------- lexical data

    def unary_set(self, name: str) -> SubsetId:
        try:
            return self.unary[name]
        except KeyError:
            raise ModelError(f"no unary predicate {name!r} in model") from None

    def binary_rel(self, name: str) -> frozenset[tuple[int, int]]:
        try:
            return self.binary[name]
        except KeyError:
            raise ModelError(f"no binary relation {name!r} in model") from None

    def forward_image(self, name: str, subset: SubsetId) -> SubsetId:
        """``{x | exists b in subset with (x, b) in rel}`` as a SubsetId."""
        rel = self.binary_rel(name)
        out = 0
        for x, y in rel:
            if subset >> y & 1:
                out |= 1 << x
        return out

    def interp_determiner(self, name: str, a: SubsetId) -> frozenset[SubsetId]:
        try:
            det = self.determiners[name]
        except KeyError:
            raise ModelError(f"no determiner {name!r} in model") from None
        if det == "every":
            return frozenset(x for x in self.subsets() if a & ~x == 0)
        if det in ("some", "a"):
            return frozenset(x for x in self.subsets() if x & a)
        return frozenset(b for a2, b in det if a2 == a)

    # -------------------------------------------------------------- loading

    @classmethod
    def from_dict(cls, d: dict, universe_cap: int = DEFAULT_UNIVERSE_CAP) -> "Model":
        if not isinstance(d, dict) or "universe" not in d:
            raise ModelError('a model must be a JSON object with a "universe" list')
        if not isinstance(d["universe"], list) or not all(
            isinstance(e, str) for e in d["universe"]
        ):
            raise ModelError('"universe" must be a list of entity names')
        for section in ("unary", "binary", "determiners"):
            if not isinstance(d.get(section, {}), dict):
                raise ModelError(f'"{section}" must be a JSON object')
        universe = tuple(d["universe"])
        index = {e: i for i, e in enumerate(universe)}

        def entity(e) -> int:
            if not isinstance(e, str) or e not in index:
                raise ModelError(f"unknown entity {e!r}")
            return index[e]

        def mask(names: list[str]) -> SubsetId:
            if not isinstance(names, list):
                raise ModelError(f"expected a list of entity names, got {names!r}")
            m = 0
            for e in names:
                m |= 1 << entity(e)
            return m

        def pairs_of(value, what: str) -> list:
            if isinstance(value, list) and all(
                isinstance(p, list) and len(p) == 2 for p in value
            ):
                return value
            raise ModelError(f"{what} must be a list of pairs")

        unary = {name: mask(names) for name, names in d.get("unary", {}).items()}
        binary = {
            name: frozenset(
                (entity(x), entity(y)) for x, y in pairs_of(pairs, f"binary {name!r}")
            )
            for name, pairs in d.get("binary", {}).items()
        }
        determiners: dict[str, str | tuple[tuple[SubsetId, SubsetId], ...]] = {}
        for name, det in d.get("determiners", {}).items():
            if isinstance(det, str):
                determiners[name] = det
            else:
                pairs = pairs_of(det, f"determiner {name!r}")
                determiners[name] = tuple((mask(a), mask(b)) for a, b in pairs)
        return cls(
            universe=universe,
            unary=unary,
            binary=binary,
            determiners=determiners,
            universe_cap=universe_cap,
        )

    @classmethod
    def from_path(
        cls, path: str | Path, universe_cap: int = DEFAULT_UNIVERSE_CAP
    ) -> "Model":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), universe_cap=universe_cap)
