"""First-order terms, signatures, and their textual form.

Grammar for term text:

    term    := VAR | NAME | INT | NAME '(' term (',' term)* ')'
    VAR     := [A-Z][A-Za-z0-9_]*
    NAME    := [a-z][a-z0-9_]*
    INT     := [0-9]+

Whitespace between tokens is insignificant. Two occurrences of the same
variable name denote the same variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CodecError, ParseError, SignatureError


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    symbol: str | int


@dataclass(frozen=True)
class Compound:
    functor: str
    args: tuple["Term", ...]


Term = Var | Const | Compound

VAR_NAME = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
SYMBOL_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

# One token per match; the last alternative takes any other non-space
# character, which is never a valid token.
_TOKEN = re.compile(r"[A-Z][A-Za-z0-9_]*|[a-z][a-z0-9_]*|[0-9]+|[(),]|\S")
_TOKEN_STARTS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789(),")


def _parse_error(text: str, index: int, message: str) -> ParseError:
    """The error at token index of text (its end when index is past the
    last token), unless text holds an unknown character: the first of those
    is reported instead, wherever it is."""
    position = len(text)
    for j, m in enumerate(_TOKEN.finditer(text)):
        if m.group()[0] not in _TOKEN_STARTS:
            return ParseError(f"unexpected character {m.group()!r}", m.start())
        if j == index:
            position = m.start()
    return ParseError(message, position)


def _found(token: str) -> str:
    return repr(token) if token else "end of input"


def parse_term(text: str) -> Term:
    """Parse term text; raises ParseError with the offending position.

    Equal leaves of the result are one shared node.
    """
    tokens = _TOKEN.findall(text)
    tokens += ("", "")  # end of input, and one more to look ahead from it
    leaves: dict[str, Term] = {}
    frames: list[tuple[str, list[Term]]] = []
    i = 0
    while True:
        token = tokens[i]
        i += 1
        if tokens[i] == "(" and "a" <= token[:1] <= "z":
            frames.append((token, []))
            i += 1
            continue
        node = leaves.get(token)
        if node is None:
            first = token[:1]
            if "A" <= first <= "Z":
                node = Var(token)
            elif "a" <= first <= "z":
                node = Const(token)
            elif "0" <= first <= "9":
                try:
                    node = Const(int(token))
                except ValueError as exc:  # past the interpreter's int digit limit
                    raise _parse_error(text, i - 1, str(exc)) from None
            else:
                raise _parse_error(text, i - 1, f"expected a term, found {_found(token)}")
            leaves[token] = node
        while True:
            token = tokens[i]
            if frames:
                if token == ",":
                    frames[-1][1].append(node)
                    i += 1
                    break
                if token == ")":
                    functor, args = frames.pop()
                    args.append(node)
                    node = Compound(functor, tuple(args))
                    i += 1
                    continue
                raise _parse_error(text, i, f"expected ',' or ')', found {_found(token)}")
            if token:
                raise _parse_error(text, i, f"unexpected {token!r} after the term")
            return node


def print_term(t: Term) -> str:
    """Canonical rendering: functor(arg,...,arg) with no extra whitespace.

    Iterative so that decoded terms of arbitrary nesting depth print without
    exhausting the call stack.
    """
    parts: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Var):
            parts.append(item.name)
        elif isinstance(item, Const):
            try:
                parts.append(str(item.symbol))
            except ValueError as exc:  # past the interpreter's int digit limit
                raise CodecError(f"print_term: {exc}") from None
        elif isinstance(item, Compound):
            if not item.args:
                raise CodecError(f"print_term: compound {item.functor}() has no arguments")
            parts.append(item.functor + "(")
            stack.append(")")
            for j in range(len(item.args) - 1, -1, -1):
                stack.append(item.args[j])
                if j:
                    stack.append(",")
        else:
            raise CodecError(f"print_term: not a term: {item!r}")
    return "".join(parts)


@dataclass(frozen=True)
class Signature:
    """Ordered inventories of variables, constants, and functor/arity pairs.

    Order is significant: it defines the numeric index of every symbol.
    """

    vars: tuple[str, ...] = ()
    consts: tuple[str, ...] = ()
    funs: tuple[tuple[str, int], ...] = ()

    @property
    def lv(self) -> int:
        return len(self.vars)

    @property
    def lc(self) -> int:
        return len(self.consts)

    @property
    def lf(self) -> int:
        return len(self.funs)

    @property
    def lvc(self) -> int:
        return len(self.vars) + len(self.consts)


def validate_signature(sig: Signature) -> None:
    """Check every Signature invariant; raises SignatureError naming the
    violated one."""
    if len(sig.vars) + len(sig.consts) == 0:
        raise SignatureError(
            "signature must declare at least one variable or constant"
        )
    for v in sig.vars:
        if not isinstance(v, str) or not VAR_NAME.match(v):
            raise SignatureError(f"invalid variable name {v!r} (expected [A-Z][A-Za-z0-9_]*)")
    if len(set(sig.vars)) != len(sig.vars):
        raise SignatureError("duplicate variable names")
    for c in sig.consts:
        if not isinstance(c, str) or not SYMBOL_NAME.match(c):
            raise SignatureError(f"invalid constant name {c!r} (expected [a-z][a-z0-9_]*)")
    if len(set(sig.consts)) != len(sig.consts):
        raise SignatureError("duplicate constant names")
    for entry in sig.funs:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise SignatureError(f"invalid functor entry {entry!r}")
        name, arity = entry
        if not isinstance(name, str) or not SYMBOL_NAME.match(name):
            raise SignatureError(f"invalid functor name {name!r} (expected [a-z][a-z0-9_]*)")
        if not isinstance(arity, int) or arity < 1:
            raise SignatureError(f"functor {name} has arity {arity}; arity must be >= 1")
    if len(set(sig.funs)) != len(sig.funs):
        raise SignatureError("duplicate functor/arity pairs")


def parse_signature(text: str) -> Signature:
    """Parse signature text: one 'vars:'/'consts:'/'funs:' declaration per
    line, '#' comments, order significant. Repeated lines extend a section."""
    vars_: list[str] = []
    consts: list[str] = []
    funs: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in ("vars", "consts", "funs"):
            raise SignatureError(
                f"line {lineno}: expected 'vars:', 'consts:' or 'funs:' (got {raw.strip()!r})"
            )
        tokens = rest.split()
        if key == "vars":
            vars_.extend(tokens)
        elif key == "consts":
            consts.extend(tokens)
        else:
            for tok in tokens:
                name, sep, arity = tok.partition("/")
                if not sep or not arity.isdigit():
                    raise SignatureError(
                        f"line {lineno}: functor {tok!r} must be written name/arity"
                    )
                funs.append((name, int(arity)))
    sig = Signature(tuple(vars_), tuple(consts), tuple(funs))
    validate_signature(sig)
    return sig


def load_signature(path: str) -> Signature:
    with open(path, encoding="utf-8") as fh:
        return parse_signature(fh.read())
