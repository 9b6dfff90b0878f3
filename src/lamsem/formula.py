"""Formula AST, sequents, and the ASCII formula syntax.

Connectives: ``\\`` (left division), ``/`` (right division), ``.``
(concatenation), ``!`` (copyable modality) and ``@`` (movable modality).
Unary prefixes bind tightest, the two slashes share one precedence level
and associate left-to-right, ``.`` binds loosest.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_ATOMS = frozenset({"n", "np", "s"})


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Under(Formula):
    """left \\ right"""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Over(Formula):
    """left / right"""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Tensor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Bang(Formula):
    inner: Formula


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


def _fmt(f: Formula, min_prec: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bang):
        body = "!" + _fmt(f.inner, _PREC_UNARY)
    elif isinstance(f, Nabla):
        body = "@" + _fmt(f.inner, _PREC_UNARY)
    elif isinstance(f, (Under, Over)):
        op = "\\" if isinstance(f, Under) else "/"
        body = _fmt(f.left, _PREC_SLASH) + op + _fmt(f.right, _PREC_SLASH + 1)
    else:
        assert isinstance(f, Tensor)
        body = _fmt(f.left, _PREC_TENSOR) + "." + _fmt(f.right, _PREC_TENSOR + 1)
    if _prec(f) < min_prec:
        return "(" + body + ")"
    return body


def format_formula(f: Formula) -> str:
    """Inverse of :func:`parse_formula`, with minimal parentheses."""
    return _fmt(f, 0)


# --------------------------------------------------------------- sequents


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


def formula_size(f: Formula) -> int:
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Bang, Nabla)):
        return 1 + formula_size(f.inner)
    assert isinstance(f, (Under, Over, Tensor))
    return 1 + formula_size(f.left) + formula_size(f.right)


def _add_counts(
    f: Formula, sign: int, k: int, acc: dict[str, tuple[int, int]]
) -> None:
    """Add the signed atom-count interval of `f`, taken with `sign`, to acc."""
    if isinstance(f, Atom):
        lo, hi = acc.get(f.name, (0, 0))
        acc[f.name] = (lo + sign, hi + sign)
    elif isinstance(f, Bang) and sign > 0:
        body: dict[str, tuple[int, int]] = {}
        _add_counts(f.inner, sign, k, body)
        for name, (lo, hi) in body.items():
            a, b = acc.get(name, (0, 0))
            acc[name] = (a + min(lo, k * lo), b + max(hi, k * hi))
    elif isinstance(f, (Bang, Nabla)):
        _add_counts(f.inner, sign, k, acc)
    elif isinstance(f, Under):
        _add_counts(f.left, -sign, k, acc)
        _add_counts(f.right, sign, k, acc)
    elif isinstance(f, Over):
        _add_counts(f.left, sign, k, acc)
        _add_counts(f.right, -sign, k, acc)
    else:
        assert isinstance(f, Tensor)
        _add_counts(f.left, sign, k, acc)
        _add_counts(f.right, sign, k, acc)


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
    acc: dict[str, tuple[int, int]] = {}
    for f in s.antecedent:
        _add_counts(f, 1, k, acc)
    _add_counts(s.succedent, -1, k, acc)
    return any(lo > 0 or hi < 0 for lo, hi in acc.values())
