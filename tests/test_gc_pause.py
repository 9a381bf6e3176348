"""The bulk tree builders (nat2term, parse_term, bitpars2term, and through it
code2term and inj_code2term) run with cyclic GC paused. These tests check
that GC is off while a build makes its compounds and exactly as the caller
left it after the build returns or raises, that a nested build leaves it off
until the outermost one returns, and that importing the CLI does not load gc."""

import gc
import random

import pytest

from termcodec import (
    CodecError,
    Compound,
    ParseError,
    Signature,
    bitpars2term,
    code2term,
    godel,
    inj_code2term,
    nat2term,
    parse_term,
    ranterm,
    skeleton,
    terms,
    term2bitpars,
    term2code,
    term2inj_code,
)
from termcodec.terms import _gc_paused

from conftest import SIG_FG_AB, loaded_by_import

TERM = parse_term("f(g(a,X),X,42)")
PS, ATOMS = term2bitpars(TERM)
CODE, _ = term2code(TERM)
INJ_CODE, _ = term2inj_code(TERM)

# builder -> (the module whose Compound it calls, a call that returns, the
# error type, a call that raises it: after building a compound, except in
# nat2term, which checks its code first)
BUILDS = {
    "nat2term": (godel, lambda: nat2term(SIG_FG_AB, 2012), CodecError,
                 lambda: nat2term(SIG_FG_AB, -1)),
    "parse_term": (terms, lambda: parse_term("f(a,g(X))"), ParseError,
                   lambda: parse_term("f(g(a),")),
    "bitpars2term": (skeleton, lambda: bitpars2term(PS, ATOMS), CodecError,
                     lambda: bitpars2term(PS, ATOMS + ["a"])),
    "code2term": (skeleton, lambda: code2term(CODE, ATOMS), CodecError,
                  lambda: code2term(CODE, ATOMS[:-1])),
    "inj_code2term": (skeleton, lambda: inj_code2term(INJ_CODE, ATOMS), CodecError,
                      lambda: inj_code2term(INJ_CODE, ATOMS + ["a"])),
}


@pytest.fixture
def gc_seen(monkeypatch):
    """A function that makes the named builder note the GC state, in the list
    it returns, at every compound it builds. GC is back on after the test."""

    def watch(name):
        seen = []

        def compound(functor, args):
            seen.append(gc.isenabled())
            return Compound(functor, args)

        monkeypatch.setattr(BUILDS[name][0], "Compound", compound)
        return seen

    yield watch
    gc.enable()


@pytest.mark.parametrize("caller_gc", [True, False], ids=["caller-gc-on", "caller-gc-off"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("name", BUILDS)
def test_gc_is_off_in_a_build_and_the_callers_after_it(gc_seen, name, raises, caller_gc):
    _, returns, error, fails = BUILDS[name]
    seen = gc_seen(name)
    gc.enable() if caller_gc else gc.disable()
    if raises:
        with pytest.raises(error):
            fails()
    else:
        returns()
    assert gc.isenabled() is caller_gc
    if name != "nat2term" or not raises:
        assert seen and not any(seen)


# the first decode under a signature: a leaf code, so every compound it
# builds is one of the signature's node table
FIRST_DECODES = {
    "nat2term": lambda sig: nat2term(sig, 0),
    "ranterm": lambda sig: ranterm(sig, 1, random.Random(0)),
}


@pytest.mark.parametrize("name", FIRST_DECODES)
def test_the_first_decode_builds_the_node_table_with_gc_off(gc_seen, name):
    sig = Signature(("X",), ("a",), ((f"first_{name}", 2), ("g", 1)))  # no other test uses it
    seen = gc_seen("nat2term")
    FIRST_DECODES[name](sig)
    assert len(seen) == len(godel._nodes(sig)) - sig.lvc > 0
    assert not any(seen)


def test_nested_builds_leave_gc_off_until_the_outermost_returns(gc_seen):
    @_gc_paused
    def outer(text):
        inner = parse_term(text)
        return inner, gc.isenabled()

    assert outer("f(X,a)") == (parse_term("f(X,a)"), False)
    assert gc.isenabled()
    with pytest.raises(ParseError):
        outer("f(X,")
    assert gc.isenabled()


def test_a_paused_builder_keeps_its_name_and_keywords():
    assert (nat2term.__module__, nat2term.__name__) == ("termcodec.godel", "nat2term")
    assert nat2term(sig=SIG_FG_AB, n=2012) == nat2term(SIG_FG_AB, 2012)


def test_cli_import_loads_no_gc():
    """gc is imported by the first build, not with the package."""
    assert loaded_by_import("termcodec.cli", ("gc",)) == []
