"""Formula AST, sequents, and the ASCII formula syntax.

Connectives: ``\\`` (left division), ``/`` (right division), ``.``
(concatenation), ``!`` (copyable modality) and ``@`` (movable modality).
Unary prefixes bind tightest, the two slashes share one precedence level
and associate left-to-right, ``.`` binds loosest.

Formulas and sequents are immutable, so what is derived from one is
computed on first use and kept on the object: its hash (the value the
dataclass gives, ``hash`` of the field tuple), a formula's text
(:func:`format_formula`) and its signed atom-count intervals
(:func:`count_excludes_zero`).  Pickling and copying drop them, since the
hash of a string differs between processes.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_ATOMS = frozenset({"n", "np", "s"})


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _fields_only(self) -> dict:
    """Pickle and copy state: the fields, without the values kept on first use."""
    return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def _hash_once(cls):
    """Keep the dataclass hash of each object of `cls` once it is computed,
    and pickle and copy its objects without what they keep."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    cls.__getstate__ = _fields_only
    return cls


class Formula:
    __slots__ = ()


@_hash_once
@dataclass(frozen=True)
class Atom(Formula):
    name: str


@_hash_once
@dataclass(frozen=True)
class Under(Formula):
    """left \\ right"""

    left: Formula
    right: Formula


@_hash_once
@dataclass(frozen=True)
class Over(Formula):
    """left / right"""

    left: Formula
    right: Formula


@_hash_once
@dataclass(frozen=True)
class Tensor(Formula):
    left: Formula
    right: Formula


@_hash_once
@dataclass(frozen=True)
class Bang(Formula):
    inner: Formula


@_hash_once
@dataclass(frozen=True)
class Nabla(Formula):
    inner: Formula


# ---------------------------------------------------------------- parsing

_UNARY = {"!": Bang, "@": Nabla}


class _Parser:
    def __init__(self, text: str, atoms: frozenset[str]):
        self.text = text
        self.atoms = atoms
        self.pos = 0

    def error(self, message: str) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def parse(self) -> Formula:
        f = self.tensor_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return f

    def tensor_expr(self) -> Formula:
        f = self.slash_expr()
        while self.peek() == ".":
            self.pos += 1
            f = Tensor(f, self.slash_expr())
        return f

    def slash_expr(self) -> Formula:
        f = self.unary_expr()
        while self.peek() in ("\\", "/"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.unary_expr()
            f = Under(f, rhs) if op == "\\" else Over(f, rhs)
        return f

    def unary_expr(self) -> Formula:
        c = self.peek()
        if c in _UNARY:
            self.pos += 1
            return _UNARY[c](self.unary_expr())
        return self.primary()

    def primary(self) -> Formula:
        c = self.peek()
        if c == "(":
            self.pos += 1
            f = self.tensor_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return f
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start : self.pos]
        if not name:
            raise self.error("expected an atom or '('")
        if name not in self.atoms:
            self.pos = start
            raise self.error(f"unknown atom {name!r}")
        return Atom(name)


def parse_formula(text: str, atoms: frozenset[str] = DEFAULT_ATOMS) -> Formula:
    """Parse the ASCII syntax into a formula AST."""
    return _Parser(text, frozenset(atoms)).parse()


# ------------------------------------------------------------- formatting

_PREC_TENSOR = 1
_PREC_SLASH = 2
_PREC_UNARY = 3
_PREC_ATOM = 4


def _prec(f: Formula) -> int:
    if isinstance(f, Atom):
        return _PREC_ATOM
    if isinstance(f, (Bang, Nabla)):
        return _PREC_UNARY
    if isinstance(f, (Under, Over)):
        return _PREC_SLASH
    return _PREC_TENSOR


def _operand(f: Formula, min_prec: int) -> str:
    """The text of `f` as an operand that binds at least `min_prec`."""
    text = format_formula(f)
    return text if _prec(f) >= min_prec else "(" + text + ")"


def format_formula(f: Formula) -> str:
    """Inverse of :func:`parse_formula`, with minimal parentheses."""
    try:
        return f._text
    except AttributeError:
        pass
    if isinstance(f, Atom):
        text = f.name
    elif isinstance(f, Bang):
        text = "!" + _operand(f.inner, _PREC_UNARY)
    elif isinstance(f, Nabla):
        text = "@" + _operand(f.inner, _PREC_UNARY)
    elif isinstance(f, (Under, Over)):
        op = "\\" if isinstance(f, Under) else "/"
        text = _operand(f.left, _PREC_SLASH) + op + _operand(f.right, _PREC_SLASH + 1)
    else:
        assert isinstance(f, Tensor)
        text = _operand(f.left, _PREC_TENSOR) + "." + _operand(f.right, _PREC_TENSOR + 1)
    object.__setattr__(f, "_text", text)
    return text


# --------------------------------------------------------------- sequents


@_hash_once
@dataclass(frozen=True)
class Sequent:
    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "antecedent", tuple(self.antecedent))
        if not self.antecedent:
            raise ValueError("sequent antecedent must be non-empty")


def format_sequent(s: Sequent) -> str:
    return ", ".join(format_formula(f) for f in s.antecedent) + " -> " + format_formula(
        s.succedent
    )


def parse_sequent(text: str, atoms: frozenset[str] = DEFAULT_ATOMS) -> Sequent:
    if "->" not in text:
        raise FormulaSyntaxError("expected '->'", len(text))
    left, right = text.rsplit("->", 1)
    ant = tuple(parse_formula(part.strip(), atoms) for part in left.split(","))
    return Sequent(ant, parse_formula(right.strip(), atoms))


# ---------------------------------------------------------------- helpers


def is_nabla_rooted(f: Formula) -> bool:
    return isinstance(f, Nabla)


def matrix(f: Formula) -> Formula:
    """Strip any outer modalities."""
    while isinstance(f, (Bang, Nabla)):
        f = f.inner
    return f


def strip_nabla(f: Formula) -> Formula:
    """Strip any outer ``@``."""
    while isinstance(f, Nabla):
        f = f.inner
    return f


def formula_size(f: Formula) -> int:
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Bang, Nabla)):
        return 1 + formula_size(f.inner)
    assert isinstance(f, (Under, Over, Tensor))
    return 1 + formula_size(f.left) + formula_size(f.right)


_Intervals = dict[str, tuple[int, int]]


def _sum(parts) -> _Intervals:
    acc: _Intervals = {}
    for part in parts:
        for name, (lo, hi) in part.items():
            a, b = acc.get(name, (0, 0))
            acc[name] = (a + lo, b + hi)
    return acc


def _intervals(f: Formula, sign: int, k: int) -> _Intervals:
    """The signed atom-count intervals of `f` taken with `sign`, kept on `f`."""
    try:
        kept = f._counts
    except AttributeError:
        kept = {}
        object.__setattr__(f, "_counts", kept)
    got = kept.get((sign, k))
    if got is not None:
        return got
    if isinstance(f, Atom):
        got = {f.name: (sign, sign)}
    elif isinstance(f, Bang) and sign > 0:
        got = {
            name: (min(lo, k * lo), max(hi, k * hi))
            for name, (lo, hi) in _intervals(f.inner, sign, k).items()
        }
    elif isinstance(f, (Bang, Nabla)):
        got = _intervals(f.inner, sign, k)
    elif isinstance(f, Under):
        got = _sum((_intervals(f.left, -sign, k), _intervals(f.right, sign, k)))
    elif isinstance(f, Over):
        got = _sum((_intervals(f.left, sign, k), _intervals(f.right, -sign, k)))
    else:
        assert isinstance(f, Tensor)
        got = _sum((_intervals(f.left, sign, k), _intervals(f.right, sign, k)))
    kept[(sign, k)] = got
    return got


def count_excludes_zero(s: Sequent, k: int) -> bool:
    """Whether some atom's signed count cannot balance: then `s` is unprovable.

    An atom occurrence counts +1 in antecedent polarity and -1 in goal
    polarity; a division flips the sign of its argument.  Each formula taken
    with a sign gives, per atom, an interval of counts: an atom [±1, ±1];
    ``@`` and the two sides of ``.`` pass their counts through; a ``!`` in
    antecedent polarity turns its body's [lo, hi] into
    [min(lo, k·lo), max(hi, k·hi)], the hull of n·[lo, hi] for n in 1..k,
    since ``!L`` makes n copies; a ``!`` in goal polarity counts its body
    once, since ``!R`` takes a single ``!`` antecedent.  Nested ``!``
    multiplies.  A sequent's interval is the sum over its antecedent with
    sign +1 and its succedent with sign -1.  Without ``!`` every interval is
    a point and this is the count invariant of the Lambek calculus (van
    Benthem, *Language in Action*, 1991); the ``!`` case adds the k-copy
    bound (after Moot & Retoré, *The Logic of Categorial Grammars*, 2012).

    Soundness: every sequent provable with copy bound k has 0 inside every
    atom's interval.  By induction on the last rule.  Axiom ``A -> A``: the
    counts with each ``!`` taken once lie in both intervals and cancel.
    ``@L``, ``@R``, ``*L``, ``\\R``, ``/R`` and Perm leave the sum
    unchanged.  ``*R``, ``\\L`` and ``/L`` add the sums of their premises,
    each of which contains 0.  ``!L`` replaces n·[lo, hi] in its premise by
    the hull, which contains it.  ``!R`` from ``A -> B`` widens [A] to
    [!A].  So this returns True only for unprovable sequents, and a search
    that prunes on it drops only subtrees that yield no proofs.
    """
    parts = [_intervals(f, 1, k) for f in s.antecedent]
    parts.append(_intervals(s.succedent, -1, k))
    return any(lo > 0 or hi < 0 for lo, hi in _sum(parts).values())
