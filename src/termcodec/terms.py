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

import os
import re
from functools import wraps

from .errors import CodecError, ParseError, SignatureError

__all__ = [
    "Compound", "Const", "Signature", "Term", "Var",
    "load_signature", "parse_signature", "parse_term", "print_term", "validate_signature",
]


class _Fields:
    """What frozen dataclasses gave the term classes and Signature, without
    importing dataclasses (which loads inspect, ast, dis and tokenize):
    field-wise == and hash, a Class(field=value, ...) repr, copying and
    pickling through the constructor, and no assignment or deletion.

    A subclass lists its fields in __slots__ and __match_args__ and sets them
    in __init__ through the slots' own setters, which never reach the refused
    __setattr__ and cost half of object.__setattr__. The term classes write
    __eq__ and __hash__ out over their fields: the generic ones below cost
    about twice as much per call.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = []
        for name in self.__match_args__:  # not a comprehension, whose frame would nest too
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Var(_Fields):
    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        _set_var_name(self, name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


class Const(_Fields):
    __slots__ = __match_args__ = ("symbol",)
    symbol: str | int

    def __init__(self, symbol: str | int):
        _set_const_symbol(self, symbol)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.symbol == other.symbol
        return NotImplemented

    def __hash__(self):
        return hash((self.symbol,))


class Compound(_Fields):
    __slots__ = __match_args__ = ("functor", "args")
    functor: str
    args: tuple[Term, ...]

    def __init__(self, functor: str, args: tuple[Term, ...]):
        _set_compound_functor(self, functor)
        _set_compound_args(self, args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.functor == other.functor and self.args == other.args
        return NotImplemented

    def __hash__(self):
        return hash((self.functor, self.args))


_set_var_name = Var.name.__set__
_set_const_symbol = Const.symbol.__set__
_set_compound_functor = Compound.functor.__set__
_set_compound_args = Compound.args.__set__

Term = Var | Const | Compound
Atom = str | int  # what a leaf holds: a variable name, a symbol or an integer

# The two name rules of term text; each rule, less its \Z, is the token of
# _TOKEN and the "expected" part of the invalid-name messages.
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
_TOKEN = re.compile(rf"{VAR_NAME.pattern[:-2]}|{SYMBOL_NAME.pattern[:-2]}|[0-9]+|[(),]|\S")
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


def _gc_paused(build):
    """Wrap the bulk tree builder build so that cyclic GC is off while it
    runs: its nodes are all live, so collections during a build would
    traverse them again and again and find nothing to free. GC is turned off
    only if it is on, and back on when build returns or raises; a nested
    call, or a caller that turned GC off, leaves it as it was."""

    @wraps(build)
    def paused(*args, **kwargs):
        import gc  # here, not at the top: importing termcodec loads no gc

        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@_gc_paused
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


class Signature(_Fields):
    """Ordered inventories of variables, constants, and functor/arity pairs.

    Order is significant: it defines the numeric index of every symbol.
    """

    __slots__ = __match_args__ = ("vars", "consts", "funs")
    vars: tuple[str, ...]
    consts: tuple[str, ...]
    funs: tuple[tuple[str, int], ...]

    def __init__(
        self,
        vars: tuple[str, ...] = (),
        consts: tuple[str, ...] = (),
        funs: tuple[tuple[str, int], ...] = (),
    ):
        _set_sig_vars(self, vars)
        _set_sig_consts(self, consts)
        _set_sig_funs(self, funs)

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


_set_sig_vars = Signature.vars.__set__
_set_sig_consts = Signature.consts.__set__
_set_sig_funs = Signature.funs.__set__


def validate_signature(sig: Signature) -> None:
    """Check every Signature invariant; raises SignatureError naming the
    violated one."""
    if not (isinstance(sig, Signature)
            and all(isinstance(field, tuple) for field in sig._values())):
        raise SignatureError(f"expected a Signature of tuples (got {sig!r})")
    if len(sig.vars) + len(sig.consts) == 0:
        raise SignatureError(
            "signature must declare at least one variable or constant"
        )
    leaves = (sig.vars, "variable", VAR_NAME), (sig.consts, "constant", SYMBOL_NAME)
    for names, kind, rule in leaves:
        for name in names:
            if not isinstance(name, str) or not rule.match(name):
                raise SignatureError(
                    f"invalid {kind} name {name!r} (expected {rule.pattern[:-2]})"
                )
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate {kind} names")
    for entry in sig.funs:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise SignatureError(f"invalid functor entry {entry!r}")
        name, arity = entry
        if not isinstance(name, str) or not SYMBOL_NAME.match(name):
            raise SignatureError(
                f"invalid functor name {name!r} (expected {SYMBOL_NAME.pattern[:-2]})"
            )
        if not isinstance(arity, int) or arity < 1:
            raise SignatureError(f"functor {name} has arity {arity}; arity must be >= 1")
        if arity > MAX_ARITY:
            raise SignatureError(f"functor {name} has arity {arity}; arity must be <= {MAX_ARITY}")
    if len(set(sig.funs)) != len(sig.funs):
        raise SignatureError("duplicate functor/arity pairs")


def parse_signature(text: str) -> Signature:
    """Parse signature text: one 'vars:'/'consts:'/'funs:' declaration per
    line, '#' comments, order significant. Repeated lines extend a section."""
    if not isinstance(text, str):
        raise SignatureError(f"parse_signature: text must be a string (got {text!r})")
    # Signature's fields in order; a key outside them is an unknown section
    sections: dict[str, list] = {"vars": [], "consts": [], "funs": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or key not in sections:
            raise SignatureError(
                f"line {lineno}: expected 'vars:', 'consts:' or 'funs:' (got {raw.strip()!r})"
            )
        if key != "funs":
            sections[key].extend(rest.split())
            continue
        for tok in rest.split():
            name, sep, arity = tok.partition("/")
            if not sep or not (arity.isascii() and arity.isdigit()):
                raise SignatureError(f"line {lineno}: functor {tok!r} must be written name/arity")
            digits = arity.lstrip("0") or "0"
            # bound before int(), which refuses a digit string past the interpreter's limit
            if len(digits) > len(str(MAX_ARITY)):
                raise SignatureError(
                    f"functor {name} has arity {digits}; arity must be <= {MAX_ARITY}"
                )
            sections["funs"].append((name, int(digits)))
    sig = Signature(*map(tuple, sections.values()))
    validate_signature(sig)
    return sig


def load_signature(path: str | bytes | os.PathLike) -> Signature:
    """Read and parse a UTF-8 signature file, less a leading byte-order mark;
    a byte that is not UTF-8 is a SignatureError naming the file and the
    byte's offset in the file. path is a file name, never a descriptor."""
    try:
        path = os.fspath(path)
    except TypeError:  # an int would be opened, read and closed as a descriptor
        raise SignatureError(
            f"load_signature: path must be a string or path (got {path!r})"
        ) from None
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")  # not utf-8-sig, whose offsets skip the mark
    except UnicodeDecodeError as exc:
        raise SignatureError(
            f"{path}: invalid UTF-8 at byte offset {exc.start} ({data[exc.start]:#04x})"
        ) from None
    return parse_signature(text.removeprefix("\ufeff"))
