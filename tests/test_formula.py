"""Formula AST, ASCII syntax, and sequent round-trips."""
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lamsem

from lamsem.formula import (
    Atom,
    Bang,
    FormulaSyntaxError,
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


def test_parse_atoms():
    assert parse_formula("np") == Atom("np")
    assert parse_formula(" s ") == Atom("s")


def test_parse_slashes_left_associative():
    f = parse_formula("np\\s/np")
    assert f == Over(Under(Atom("np"), Atom("s")), Atom("np"))


def test_parse_modalities():
    f = parse_formula("!@np")
    assert f == Bang(Nabla(Atom("np")))


def test_parse_tensor_binds_loosest():
    f = parse_formula("s.s.np\\s")
    assert f == Tensor(Tensor(Atom("s"), Atom("s")), Under(Atom("np"), Atom("s")))


def test_parse_parens():
    f = parse_formula("!@((!@np)/n)")
    assert f == Bang(Nabla(Over(Bang(Nabla(Atom("np"))), Atom("n"))))


def test_unknown_atom_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("xyz")


@pytest.mark.parametrize("bad", ["", "(np", "np\\", "np s", "!", "np)"])
def test_syntax_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


@pytest.mark.parametrize(
    "text", ["!!np", "!@(!@np/n)", "np\\s/np", "np\\(s/np)", "s.s.np", "s.(s.np)", "!(np.s)\\s"]
)
def test_format_uses_minimal_parentheses(text):
    assert format_formula(parse_formula(text)) == text


def test_sequent_round_trip():
    s = parse_sequent("!@np, np\\s, @np\\np, np\\s -> s.s")
    assert isinstance(s, Sequent)
    assert parse_sequent(format_sequent(s)) == s


_atoms = st.sampled_from([Atom("n"), Atom("np"), Atom("s")])


def _formulas():
    return st.recursive(
        _atoms,
        lambda inner: st.one_of(
            st.builds(Under, inner, inner),
            st.builds(Over, inner, inner),
            st.builds(Tensor, inner, inner),
            st.builds(Bang, inner),
            st.builds(Nabla, inner),
        ),
        max_leaves=12,
    )


@given(_formulas())
def test_format_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


def rebuilt(f):
    """A copy of `f` that shares no formula object with it."""
    if isinstance(f, Atom):
        return Atom(f.name)
    return type(f)(*(rebuilt(getattr(f, x.name)) for x in dataclasses.fields(f)))


def field_hash(f) -> int:
    """The hash a frozen dataclass gives: that of its field tuple."""
    return hash(tuple(getattr(f, x.name) for x in dataclasses.fields(f)))


@given(_formulas(), st.data())
def test_text_and_hash_follow_equality(f, data):
    g = data.draw(st.one_of(_formulas(), st.just(rebuilt(f))))
    assert (format_formula(f) == format_formula(g)) == (f == g)
    assert hash(f) == field_hash(f) and hash(g) == field_hash(g)
    again = rebuilt(f)
    assert again is not f and again == f and hash(again) == hash(f)
    assert format_formula(again) == format_formula(f)


def kept_values(f) -> list[str]:
    """Names of the values kept on `f` or any of its subformulas."""
    kept = [k for k in vars(f) if k.startswith("_")]
    for x in dataclasses.fields(f):
        sub = getattr(f, x.name)
        if not isinstance(sub, str):
            kept += kept_values(sub)
    return kept


def test_pickles_and_copies_carry_no_kept_values():
    f = parse_formula("!@(!@np/n)\\(np.s)")
    seq = parse_sequent("!@(!@np/n), n -> np")
    hash(f), hash(seq), format_formula(f), count_excludes_zero(seq, 2)
    assert kept_values(f) and "_hash" in vars(seq)
    for again in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert kept_values(again) == [] and again == f and hash(again) == hash(f)
    again = copy.copy(f)  # shares its subformulas with `f`
    assert "_hash" not in vars(again) and again == f and hash(again) == hash(f)
    again = pickle.loads(pickle.dumps(seq))
    assert "_hash" not in vars(again) and kept_values(again.succedent) == []
    assert again == seq and hash(again) == hash(seq)


def test_unpickled_formula_hashes_as_built_in_another_process():
    # string hashes differ between processes, so a hash computed here is
    # wrong there; the unpickled formula must find its equal in a dict
    f = parse_formula("!@np\\(np.s)")
    hash(f)
    script = (
        "import pickle, sys\n"
        "from lamsem.formula import parse_formula\n"
        "f = pickle.loads(sys.stdin.buffer.read())\n"
        "print({parse_formula('!@np\\\\(np.s)'): 1}.get(f))\n"
    )
    src = str(Path(lamsem.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(f),
        capture_output=True, env=env, check=True,
    )
    assert out.stdout.decode().strip() == "1"
