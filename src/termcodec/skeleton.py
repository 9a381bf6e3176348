"""Structure/content split for terms, and the codecs built on top of it.

term2bitpars separates a term into a balanced-parenthesis skeleton (a list
over {0, 1}, 0 = open, 1 = close) and the list of atoms stripped from it:
functor names and leaves, in left-to-right emission order. Two number codecs
aggregate the skeleton: inj_code reads it as bijective base-2 digits
(injective only: most naturals are not balanced), while term2code goes
through the Nat <-> balanced-sequence bijection nat2pars/pars2nat, itself
built on the Nat <-> [Nat] bijection nat2nats/nats2nat.

Skeleton decoding is partial: it accepts exactly the image of term2bitpars,
which a compound's skeleton spells in two-symbol steps inside its top group
0 ... 1: 0 1 is a leaf, 0 0 opens a member and its group, and 1 1 closes a
group and its member. Every inner group holds a functor leaf and at least one
argument (accepting [0,0,1,1] would collide with the leaf skeleton [0,1]), and
the atom filling a functor slot must be a lowercase symbol.

All tree walks use explicit stacks; skeleton depth can reach len(ps) // 2.
"""

from __future__ import annotations

from .bbase import _as_bits, from_bbase, to_bbase
from .errors import CodecError, check_iterable, check_min
from .terms import Atom, Compound, Const, Term, Var, _bitpars, _gc_paused, _leaf
from .tuples import _merge, _split

__all__ = [
    "bitpars2term", "code2term", "inj_code2term", "nat2nats", "nat2pars",
    "nats2nat", "pars2nat", "term2bitpars", "term2code", "term2inj_code",
]


def _functor_name(t: Term) -> str:
    if isinstance(t, Const) and isinstance(t.symbol, str):
        return t.symbol
    if isinstance(t, Var):
        raise CodecError(f"bitpars2term: variable {t.name} cannot fill a functor slot")
    if isinstance(t, Const):
        raise CodecError(f"bitpars2term: integer {t.symbol} cannot fill a functor slot")
    raise CodecError("bitpars2term: a nested group cannot fill a functor slot")


def _bit_bytes(what: str, ps) -> bytes:
    """The list or tuple ps as bytes; raises CodecError naming the first symbol
    that is not an int 0 or 1, bool counting (what is the message's prefix)."""
    raw = _as_bits(ps)
    if raw is None:
        for s in ps:
            if not isinstance(s, int) or s not in (0, 1):
                raise CodecError(f"{what} {s!r} is not 0 or 1")
    return raw


def term2bitpars(t: Term) -> tuple[list[int], list[Atom]]:
    """Split a term into its skeleton and its atom list: a leaf is
    ([0, 1], [leaf]), and a compound one group holding a group per member of
    [functor, arg1, ..., argK], leaf members with an empty body."""
    ps, atoms = _bitpars("term2bitpars", t, (b"\0\0\0\1", b"\0\1", b"\1\1"))
    bits = list(b"".join(ps))  # a compound opens its member, its group and its functor's 0 1
    return (bits[1:-1] if isinstance(t, Compound) else bits), atoms  # less t's member 0 ... 1


@_gc_paused
def bitpars2term(ps, atoms) -> Term:
    """Rebuild a term from its skeleton and atom list; inverse of term2bitpars.

    Accepts exactly the image of term2bitpars: one balanced group spanning
    the whole sequence, every inner group holding at least two children, and
    exactly one atom per leaf slot. Equal leaves of the result are one
    shared node.
    """
    ps = check_iterable("bitpars2term", "skeleton", ps)
    ps = _bit_bytes("bitpars2term: skeleton symbol", ps)
    atoms = check_iterable("bitpars2term", "atoms", atoms)
    if ps == b"\x00\x01":
        if len(atoms) != 1:
            raise CodecError(
                f"bitpars2term: leaf skeleton names 1 atom but {len(atoms)} were given"
            )
        return _leaf("bitpars2term", atoms[0])
    if not ps or ps[0] != 0:
        raise CodecError("bitpars2term: skeleton must be a single group opened by 0")
    na = len(atoms)
    # One node per distinct atom; only exact str and int atoms are shared, so
    # that True and 1 stay distinct and unhashable atoms reach _leaf.
    leaves: dict[Atom, Term] = {}
    ai = 0
    stack: list[list[Term]] = [[]]
    # The steps after the top group's 0, paired in C; 2 marks the end of input.
    for j, (s, t) in enumerate(zip(ps[1::2], ps[2::2] + b"\2")):
        if s == 0:
            if t == 1:
                if ai >= na:
                    raise CodecError(
                        f"bitpars2term: skeleton holds more leaves than the "
                        f"{na} atoms given"
                    )
                a = atoms[ai]
                ai += 1
                if type(a) is str or type(a) is int:
                    node = leaves.get(a)
                    if node is None:
                        node = leaves[a] = _leaf("bitpars2term", a)
                else:
                    node = _leaf("bitpars2term", a)
                stack[-1].append(node)
            elif t == 0:
                stack.append([])
            else:
                break
            continue
        kids = stack.pop()
        if len(kids) < 2:
            raise CodecError(
                "bitpars2term: a group must hold a functor and at least one argument"
            )
        node = Compound(_functor_name(kids[0]), tuple(kids[1:]))
        if not stack:  # the top group's close
            if len(ps) - 2 * j - 2:
                raise CodecError(
                    f"bitpars2term: {len(ps) - 2 * j - 2} trailing symbols after the skeleton"
                )
            if ai != na:
                raise CodecError(
                    f"bitpars2term: skeleton holds {ai} leaves but {na} atoms were given"
                )
            return node
        if t != 1:
            raise CodecError("bitpars2term: unbalanced skeleton")
        stack[-1].append(node)
    raise CodecError("bitpars2term: skeleton ends inside an open group")


def term2inj_code(t: Term) -> tuple[int, list[Atom]]:
    """Aggregate a term's skeleton into one natural, bijective-base-2 style.

    Injective only: naturals whose bijective-base-2 digits are unbalanced
    decode to nothing.
    """
    ps, atoms = term2bitpars(t)
    return from_bbase(2, ps), atoms


def inj_code2term(n: int, atoms) -> Term:
    """Partial inverse of term2inj_code; rejects codes with unbalanced digits."""
    return bitpars2term(to_bbase(2, n), atoms)


def _nats(x: int) -> list[int]:
    """nat2nats without its checks: x >= 1 must hold."""
    k = (x & -x).bit_length()  # the list's length, one more than the exponent of 2
    return _split(k, x >> k)


def _nat(ns: list[int]) -> int:
    """nats2nat without its checks: ns must be a non-empty list of naturals."""
    return ((_merge(ns) << 1) | 1) << (len(ns) - 1)


def nat2nats(n: int) -> list[int]:
    """Map a natural to a list of naturals, bijectively.

    0 is the empty list; otherwise the exponent of 2 in n is the length less
    one, and the tuple codec splits the rest of n into the items.
    """
    check_min("nat2nats", "argument", n, 0)
    return _nats(n) if n else []


def nats2nat(ns) -> int:
    """Inverse of nat2nats."""
    ns = check_iterable("nats2nat", "list", ns)
    for x in ns:
        check_min("nats2nat", "item", x, 0)
    return _nat(ns) if ns else 0


def nat2pars(n: int) -> list[int]:
    """Map a natural to a balanced parenthesis sequence, bijectively.

    The group for n wraps the groups for nat2nats(n), recursively. Every
    child value is strictly smaller than its parent, so this terminates;
    the walk is iterative because depth is only bounded by that descent.
    """
    check_min("nat2pars", "argument", n, 0)
    out: list[int] = []  # written last symbol first
    work = [n]  # -1 stands for the open of a group
    while work:
        x = work.pop()
        if x < 0:
            out.append(0)
            continue
        out.append(1)
        work.append(-1)
        if x:
            work += _nats(x)
    out.reverse()
    return out


def pars2nat(ps) -> int:
    """Inverse of nat2pars on single balanced groups."""
    ps = _bit_bytes("pars2nat: symbol", check_iterable("pars2nat", "sequence", ps))
    if not ps:
        raise CodecError("pars2nat: empty sequence")
    if ps[0] != 0:
        raise CodecError("pars2nat: sequence must open with 0")
    stack: list[list[int]] = [[]]
    for i, s in enumerate(ps[1:], 2):  # i: the symbols read, s included
        if s == 0:
            stack.append([])
            continue
        kids = stack.pop()
        value = _nat(kids) if kids else 0
        if not stack:
            if len(ps) - i:
                raise CodecError(f"pars2nat: {len(ps) - i} trailing symbols after the closing 1")
            return value
        stack[-1].append(value)
    raise CodecError("pars2nat: unbalanced sequence, a group is never closed")


def term2code(t: Term) -> tuple[int, list[Atom]]:
    """Encode a term as (skeleton code, atom list).

    The skeleton code side is a bijection between naturals and balanced
    sequences; the composite decode is partial in (code, atoms) because not
    every skeleton is a term skeleton.
    """
    ps, atoms = term2bitpars(t)
    return pars2nat(ps), atoms


def code2term(n: int, atoms) -> Term:
    """Partial inverse of term2code."""
    return bitpars2term(nat2pars(n), atoms)
