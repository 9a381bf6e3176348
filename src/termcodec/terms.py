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
Atom = str | int  # what a leaf holds: a variable name, a symbol or an integer

VAR_NAME = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
SYMBOL_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")
MAX_ARITY = 65_536  # a larger declared arity would let one small code build huge terms


def _leaf(op: str, atom: Atom) -> Term:
    """The leaf atom names by the one leaf rule of term text: [A-Z]... is a
    variable, [a-z]... a symbol, an int >= 0 a constant; else CodecError.
    A bool is not an int here: True would print as the variable True."""
    if type(atom) is int:
        if atom < 0:
            raise CodecError(f"{op}: negative integer leaf {atom}")
        return Const(atom)
    if isinstance(atom, str):
        if VAR_NAME.match(atom):
            return Var(atom)
        if SYMBOL_NAME.match(atom):
            return Const(atom)
    raise CodecError(f"{op}: {atom!r} is not a variable, symbol, or integer")


def _leaf_atom(op: str, t: Term) -> Atom:
    """The atom of leaf t; raises CodecError unless _leaf maps it back to t."""
    if not isinstance(t, (Var, Const)):
        raise CodecError(f"{op}: not a term: {t!r}")
    atom = t.name if isinstance(t, Var) else t.symbol
    if (back := _leaf(op, atom)) != t:
        raise CodecError(f"{op}: {t!r} reads back as {back!r}")
    return atom


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
    if not isinstance(text, str):
        raise CodecError(f"parse_term: text must be a string (got {text!r})")
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
            try:
                atom = int(token) if "0" <= token[:1] <= "9" else token
                node = leaves[token] = _leaf("parse_term", atom)
            except CodecError:  # not a leaf token
                message = f"expected a term, found {_found(token)}"
                raise _parse_error(text, i - 1, message) from None
            except ValueError as exc:  # past the interpreter's int digit limit
                raise _parse_error(text, i - 1, str(exc)) from None
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


def _bitpars(op: str, t: Term, marks: tuple) -> tuple[list, list[Atom]]:
    """The one checked walk, iterative: splits t into its skeleton, one of
    marks (compound open with its functor, leaf, close) per step, and its
    atoms, functors and leaves left to right. Raises CodecError naming op at
    any node that would not read back as itself."""
    open_, leaf, close = marks
    ps: list = []
    atoms: list[Atom] = []
    seen: dict[int, Atom] = {}  # id of each leaf checked -> its atom
    symbols: set[str] = set()  # functors checked, so each distinct one is matched once
    stack = [iter((t,))]  # the arguments still to walk, per open compound
    while stack:
        for arg in stack[-1]:
            if isinstance(arg, Compound):
                functor, args = arg.functor, arg.args
                if type(functor) is not str or functor not in symbols:
                    if not (isinstance(functor, str) and SYMBOL_NAME.match(functor)):
                        raise CodecError(f"{op}: functor {functor!r} is not a symbol")
                    symbols.add(functor)
                if not isinstance(args, tuple):
                    raise CodecError(f"{op}: arguments of {functor} are not a tuple")
                if not args:
                    raise CodecError(f"{op}: compound {functor}() has no arguments")
                ps.append(open_)
                atoms.append(functor)
                stack.append(iter(args))
                break
            atom = seen.get(id(arg))
            if atom is None:
                atom = seen[id(arg)] = _leaf_atom(op, arg)
            atoms.append(atom)
            ps.append(leaf)
        else:
            stack.pop()
            if stack:  # t is the only argument of a virtual compound that never closes
                ps.append(close)
    return ps, atoms


def print_term(t: Term) -> str:
    """Canonical rendering: functor(arg,...,arg) with no extra whitespace.

    The skeleton is the template: a compound's open is "%s(", a leaf "%s,"
    and a close "),", and the atoms fill the "%s" slots.
    """
    ps, atoms = _bitpars("print_term", t, ("%s(", "%s,", "),"))
    try:
        return "".join(ps).replace(",)", ")")[:-1] % tuple(atoms)
    except ValueError as exc:  # past the interpreter's int digit limit
        raise CodecError(f"print_term: {exc}") from None


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
    if not (isinstance(sig, Signature)
            and all(isinstance(field, tuple) for field in vars(sig).values())):
        raise SignatureError(f"expected a Signature of tuples (got {sig!r})")
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
        if arity > MAX_ARITY:
            raise SignatureError(f"functor {name} has arity {arity}; arity must be <= {MAX_ARITY}")
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
                if not sep or not (arity.isascii() and arity.isdigit()):
                    raise SignatureError(
                        f"line {lineno}: functor {tok!r} must be written name/arity"
                    )
                digits = arity.lstrip("0") or "0"
                # bound before int(), which refuses a digit string past the interpreter's limit
                if len(digits) > len(str(MAX_ARITY)):
                    raise SignatureError(
                        f"functor {name} has arity {digits}; arity must be <= {MAX_ARITY}"
                    )
                funs.append((name, int(digits)))
    sig = Signature(tuple(vars_), tuple(consts), tuple(funs))
    validate_signature(sig)
    return sig


def load_signature(path: str) -> Signature:
    with open(path, encoding="utf-8") as fh:
        return parse_signature(fh.read())
