"""Differential tests of term2nat/nat2term against a plain recursive reference.

The reference is written from the definition, with nothing shared with the
library's godel or tuples modules:

- codes fall in three bands: [0, LV) are the variables, [LV, LV+LC) the
  constants, and every larger code c a compound whose functor index is
  (c - LV - LC) mod LF and whose payload is (c - LV - LC) div LF;
- a functor of arity k splits its payload through the base-2^k digit
  matrix: row i is digit i of the payload (least significant first), and
  argument j is column j, so bit i of argument j is bit j of digit i.
"""

import random
import sys

import pytest

from termcodec import Compound, Const, Signature, Var, nat2term, parse_term, term2nat

from conftest import SIG_FG_A, SIG_FG_AB, SIG_IMP

SIG_H3 = Signature(("X",), ("a",), (("h", 3), ("g", 1), ("f", 2)))  # a ternary functor too


def digits(n, base):
    """The digits of n in base, least significant first."""
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


def ref_split(k, payload):
    rows = digits(payload, 2**k)
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(k)]


def ref_merge(args):
    k = len(args)
    columns = [digits(a, 2) for a in args]
    width = max(len(column) for column in columns)
    rows = [
        sum(column[i] << j for j, column in enumerate(columns) if i < len(column))
        for i in range(width)
    ]
    return sum(row * 2 ** (k * i) for i, row in enumerate(rows))


def ref_nat2term(sig, n):
    lv, lc, lf = len(sig.vars), len(sig.consts), len(sig.funs)
    if n < lv:
        return Var(sig.vars[n])
    if n < lv + lc:
        return Const(sig.consts[n - lv])
    payload, label = divmod(n - lv - lc, lf)
    name, k = sig.funs[label]
    return Compound(name, tuple(ref_nat2term(sig, m) for m in ref_split(k, payload)))


def ref_term2nat(sig, t):
    lv, lc, lf = len(sig.vars), len(sig.consts), len(sig.funs)
    if isinstance(t, Var):
        return sig.vars.index(t.name)
    if isinstance(t, Const):
        return lv + sig.consts.index(t.symbol)
    label = sig.funs.index((t.functor, len(t.args)))
    return lv + lc + label + lf * ref_merge([ref_term2nat(sig, a) for a in t.args])


@pytest.fixture
def deep_recursion():
    """Room for the reference's recursion on long unary chains, for one test."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 20_000))
    yield
    sys.setrecursionlimit(old)


def test_reference_agrees_with_the_worked_examples():
    assert ref_split(2, 0b1101) == [0b11, 0b10]
    assert ref_split(3, 0b101_110) == [0b10, 0b01, 0b11]
    assert ref_merge([0b10, 0b01, 0b11]) == 0b101_110
    assert ref_term2nat(SIG_FG_A, parse_term("f(a,f(X,g(Y)))")) == 17439
    assert ref_nat2term(SIG_FG_AB, 2012) == parse_term("f(f(Y,b),f(b,a))")
    imp = "imp(imp(imp(B,A),imp(z,A)),imp(imp(z,A),B))"
    assert ref_nat2term(SIG_IMP, 2012) == parse_term(imp)


@pytest.mark.parametrize("sig", [SIG_FG_AB, SIG_IMP, SIG_H3], ids=["fg_ab", "imp", "h3"])
def test_every_code_below_2_pow_12(sig):
    for n in range(2**12):
        t = ref_nat2term(sig, n)
        assert nat2term(sig, n) == t
        assert term2nat(sig, t) == n
        assert ref_term2nat(sig, t) == n


@pytest.mark.parametrize("sig", [SIG_FG_AB, SIG_IMP, SIG_H3], ids=["fg_ab", "imp", "h3"])
def test_random_codes_up_to_4096_bits(sig, deep_recursion):
    rng = random.Random(47)
    for _ in range(40):
        n = rng.getrandbits(rng.randint(1, 4096))
        t = ref_nat2term(sig, n)
        assert nat2term(sig, n) == t
        assert term2nat(sig, t) == n
        assert ref_term2nat(sig, t) == n
