"""Differential tests of parse_term against the two-pass parser it replaced.

The reference below tokenizes with one regex match per token and then runs
the same frame loop; it is kept unchanged as the oracle for the one-pass
parser's terms, error messages and error positions.
"""

import random
import re

from termcodec import Compound, Const, ParseError, Var, parse_term, print_term
from termcodec.terms import Term

from conftest import SIG_FG_AB, random_terms

_TOKEN = re.compile(
    r"\s*(?:(?P<VAR>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<NAME>[a-z][a-z0-9_]*)"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<LPAR>\()|(?P<COMMA>,)|(?P<RPAR>\)))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.lastgroup is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r}", at)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


def reference_parse_term(text: str) -> Term:
    """Parse term text; raises ParseError with the offending position."""
    tokens = _tokenize(text)
    i = 0
    frames: list[tuple[str, list[Term]]] = []
    while True:
        kind, value, pos = tokens[i]
        if kind == "VAR":
            node: Term = Var(value)
            i += 1
        elif kind == "INT":
            node = Const(int(value))
            i += 1
        elif kind == "NAME":
            if tokens[i + 1][0] == "LPAR":
                frames.append((value, []))
                i += 2
                continue
            node = Const(value)
            i += 1
        else:
            what = "end of input" if kind == "END" else repr(value)
            raise ParseError(f"expected a term, found {what}", pos)
        while True:
            kind, value, pos = tokens[i]
            if not frames:
                if kind != "END":
                    raise ParseError(f"unexpected {value!r} after the term", pos)
                return node
            if kind == "COMMA":
                frames[-1][1].append(node)
                i += 1
                break
            if kind == "RPAR":
                functor, args = frames.pop()
                args.append(node)
                node = Compound(functor, tuple(args))
                i += 1
                continue
            what = "end of input" if kind == "END" else repr(value)
            raise ParseError(f"expected ',' or ')', found {what}", pos)



# Token-shaped pieces plus characters the grammar rejects: '_' at a token
# start, '-', a non-ASCII letter, '$', and ASCII and Unicode whitespace.
PIECES = [
    "f", "g", "h_1", "a", "b", "X", "Ys_2", "0", "42", "007", "aB", "Z9é",
    "(", "(", ")", ")", ",", ",", " ", "  ", "\t", "\n", "\u2003", "_", "_x", "-", "é", "$",
]


def _outcome(parse, text):
    try:
        return "term", print_term(parse(text))
    except ParseError as exc:
        return "error", str(exc), exc.position


def _random_text(rng, printed):
    if rng.random() < 0.5:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
    text = rng.choice(printed)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randint(0, len(text))
        if rng.random() < 0.3 and text:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at:]
    return text + rng.choice(("", "", " ", "\t\n", "\n "))


def test_parser_matches_reference_on_random_text():
    rng = random.Random(20111)
    printed = [print_term(t) for t in random_terms(SIG_FG_AB, 300, seed=3, max_bits=40)]
    kinds = {"term": 0, "error": 0}
    for _ in range(50_000):
        text = _random_text(rng, printed)
        expected = _outcome(reference_parse_term, text)
        assert _outcome(parse_term, text) == expected, text
        kinds[expected[0]] += 1
    assert min(kinds.values()) > 5_000, kinds


def test_unknown_character_wins_over_an_earlier_grammar_error():
    "The grammar error at ',' (position 2) comes first, yet '$' is reported."
    for parse in (reference_parse_term, parse_term):
        try:
            parse("f(,)$")
        except ParseError as exc:
            assert (str(exc), exc.position) == (
                "parse error at position 4: unexpected character '$'",
                4,
            )
        else:
            raise AssertionError("f(,)$ parsed")
