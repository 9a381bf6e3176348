"""Differential tests of print_term against the walk it replaced.

print_term now fills the skeleton of the shared structure/content walk with
its atoms. The printer below walked the term on its own; it is kept
unchanged as the oracle for the canonical text.
"""

import random
from collections import Counter

from termcodec import CodecError, Compound, Const, Var, parse_term, print_term
from termcodec.terms import Term, _leaf_atom


def reference_print_term(t: Term) -> str:
    """Canonical rendering: functor(arg,...,arg) with no extra whitespace.

    Iterative so that decoded terms of arbitrary nesting depth print without
    exhausting the call stack; t prints as the only argument of a virtual
    outer compound. Each distinct leaf object is checked once by _leaf_atom.
    """
    parts: list[str] = []
    texts: dict[int, str] = {}  # id of each leaf checked -> its text
    stack = [iter((t,))]  # the arguments still to print, per open compound
    while stack:
        for node in stack[-1]:
            if isinstance(node, Compound):
                if not node.args:
                    raise CodecError(f"print_term: compound {node.functor}() has no arguments")
                parts.append(node.functor + "(")
                stack.append(iter(node.args))
                break
            text = texts.get(id(node))
            if text is None:
                atom = _leaf_atom("print_term", node)
                try:
                    text = texts[id(node)] = str(atom)
                except ValueError as exc:  # past the interpreter's int digit limit
                    raise CodecError(f"print_term: {exc}") from None
            parts += (text, ",")
        else:
            stack.pop()
            parts[-1:] = (")", ",") if stack else ()  # in place of the last comma
    return "".join(parts)


FUNCTORS = ["f", "g", "h_1", "cons"]
# The same objects recur, as in decoded and parsed terms.
SHARED = [Var("X"), Const("a"), Const(0), Const(10**35)]


def _leaf(rng, seen):
    kind = rng.choice(("var", "symbol", "small", "big", "shared"))
    seen[kind] += 1
    if kind == "var":
        return Var(rng.choice(("X", "Y", "Zs_9", "A1")))
    if kind == "symbol":
        return Const(rng.choice(("a", "b", "nil", "c_2")))
    if kind == "small":
        return Const(rng.randrange(1000))
    if kind == "big":
        return Const(rng.randrange(10**30, 10**60))
    return rng.choice(SHARED)


def _term(rng, budget, seen):
    if budget <= 1 or rng.random() < 0.25:
        return _leaf(rng, seen)
    k = rng.randint(1, 4)
    seen[f"arity {k}"] += 1
    args = tuple(_term(rng, (budget - 1) // k, seen) for _ in range(k))
    return Compound(rng.choice(FUNCTORS), args)


def test_print_matches_reference_on_random_terms():
    rng = random.Random(20118)
    seen = Counter()
    for _ in range(20_000):
        t = _term(rng, rng.randint(1, 40), seen)
        seen["top leaf" if not isinstance(t, Compound) else "top compound"] += 1
        text = print_term(t)
        assert text == reference_print_term(t)
        assert parse_term(text) == t
    kinds = ["var", "symbol", "small", "big", "shared", "top leaf", "top compound"]
    kinds += [f"arity {k}" for k in range(1, 5)]
    assert min(seen[kind] for kind in kinds) > 1_000, seen


def test_print_matches_reference_on_a_deep_chain():
    t = Const(10**31)
    for i in range(100_000):
        t = Compound("g", (t,)) if i % 3 else Compound("f", (Var("X"), t, Const("a")))
    assert print_term(t) == reference_print_term(t)
