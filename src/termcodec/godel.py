"""Bijective numbering of the terms over a finite signature.

Codes are laid out in three bands: variables map to [0, LV), constants to
[LV, LV+LC), and every larger code c encodes a compound term. For compounds,
c - (LV+LC) splits by divmod into a functor index (mod the functor count)
and a payload, and the payload splits into one code per argument via the
tuple codec at the functor's arity. Decoding is total on the naturals
whenever at least one functor is declared, and every argument code is
strictly smaller than its parent's, so decoding always terminates.

The small codes that recur at the bottom of every decoded term are decoded
once per signature, into a table of shared nodes (_nodes, kept for the
CACHED_SIGNATURES signatures used last): nat2term takes each code below the
table's bound from it and builds only the compounds above them.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CodecError, check_min
from .terms import (
    Compound, Const, Signature, Term, Var, _bitpars, _gc_paused, _leaf, validate_signature,
)
from .tuples import _merge, _split

__all__ = ["nat2term", "ranterm", "term2nat"]

TABLE_SLOTS = 1 << 10  # argument slots that the compounds of one node table hold in all
CACHED_SIGNATURES = 32  # signatures whose index and node table stay cached, least recent dropped first


def _table(sig: Signature):
    """The cached _index of sig, or the SignatureError of a sig it cannot hash."""
    try:
        return _index(sig)
    except TypeError:
        validate_signature(sig)
        raise


@lru_cache(maxsize=CACHED_SIGNATURES)
def _index(sig: Signature):
    """Validate sig once, then index it: the code of every leaf atom and the
    functor indexes. One index serves variables and constants because the
    leaf rule (terms._leaf) never gives a variable and a constant one name."""
    validate_signature(sig)
    leaf_ix = {a: i for i, a in enumerate(sig.vars + sig.consts)}
    fun_ix = {fk: i for i, fk in enumerate(sig.funs)}
    return leaf_ix, fun_ix


@lru_cache(maxsize=CACHED_SIGNATURES)
def _nodes(sig: Signature) -> tuple[Term, ...]:
    """The one shared node of every code below the table's length, for a sig
    that _table has validated: the leaves, then the compounds in code order,
    each built from earlier entries (an argument's code is below its
    parent's). Building stops before the compounds' argument tuples would
    hold more than TABLE_SLOTS slots in all, so the table has at most
    lv + lc + TABLE_SLOTS entries; a functor of arity above TABLE_SLOTS
    leaves the leaves alone."""
    table = [Var(v) for v in sig.vars] + [Const(c) for c in sig.consts]
    lvc, lf, funs = sig.lvc, sig.lf, sig.funs
    slots = TABLE_SLOTS
    while lf:
        payload, label = divmod(len(table) - lvc, lf)
        name, arity = funs[label]
        slots -= arity
        if slots < 0:
            break
        table.append(Compound(name, tuple([table[c] for c in _split(arity, payload)])))
    return tuple(table)


def term2nat(sig: Signature, t: Term) -> int:
    """Encode a term whose symbols all occur in the signature.

    Folds the checked walk: a leaf pushes its code, and a close replaces the
    codes pushed since its compound opened with the compound's code.
    """
    leaf_ix, fun_ix = _table(sig)
    lvc, lf = sig.lvc, sig.lf
    ps, atoms = _bitpars("term2nat", t, (0, 1, 2))
    atom_at = iter(atoms).__next__
    codes: list[int] = []
    frames: list[tuple[str, int]] = []  # functor and first code index per open compound
    for mark in ps:
        if mark == 1:
            atom = atom_at()
            i = leaf_ix.get(atom)
            if i is None:
                if isinstance(_leaf("term2nat", atom), Var):
                    raise CodecError(f"term2nat: variable {atom} is not in the signature")
                raise CodecError(f"term2nat: constant {atom!r} is not in the signature")
            codes.append(i)
        elif mark == 0:
            frames.append((atom_at(), len(codes)))
        else:
            functor, start = frames.pop()
            k = len(codes) - start
            label = fun_ix.get((functor, k))
            if label is None:
                raise CodecError(f"term2nat: functor {functor}/{k} is not in the signature")
            if k == 1:
                codes[-1] = lvc + lf * codes[-1] + label
            else:
                payload = _merge(codes[start:])
                del codes[start:]
                codes.append(lvc + lf * payload + label)
    return codes[0]


@_gc_paused
def nat2term(sig: Signature, n: int) -> Term:
    """Decode any natural to a term; inverse of term2nat.

    Every subterm whose code is below the length of sig's node table
    (_nodes, built by the first call under sig) is that table's shared
    node, so equal small subterms are one object. Uses explicit work lists:
    a signature with a unary functor yields nesting depth proportional to
    the code's bitsize.
    """
    _table(sig)
    check_min("nat2term", "code", n, 0)
    lvc, lf = sig.lvc, sig.lf
    if lf == 0 and n >= lvc:
        raise CodecError(
            f"nat2term: code {n} requires a function symbol but the "
            f"signature declares none (codes beyond {lvc - 1} are undecodable)"
        )
    funs = sig.funs
    table = _nodes(sig)
    small = len(table)
    # Preorder that visits the last argument first: reversed, it lists every
    # compound right after its arguments. A table code is kept as itself and
    # a compound above the table as ~(its functor index), so every entry is
    # a small int and the sign tells them apart.
    order: list[int] = []
    work = [n]
    while work:
        c = work.pop()
        if c < small:
            order.append(c)
            continue
        payload, label = divmod(c - lvc, lf)
        order.append(~label)
        arity = funs[label][1]
        if arity == 1:
            work.append(payload)
        else:
            work.extend(_split(arity, payload))
    nodes: list[Term] = []
    for x in reversed(order):
        if x >= 0:
            nodes.append(table[x])
            continue
        name, arity = funs[~x]
        if arity == 1:
            nodes[-1] = Compound(name, (nodes[-1],))
        else:
            args = tuple(nodes[-arity:])
            del nodes[-arity:]
            nodes.append(Compound(name, args))
    return nodes[0]


def ranterm(sig: Signature, bits: int, rng) -> Term:
    """Decode a code drawn uniformly from [0, 2^bits).

    The draw is uniform over codes, not over term shapes. Deterministic for
    a given rng state (rng is a random.Random, i.e. seeded Mersenne Twister).
    """
    check_min("ranterm", "bits", bits, 1)
    _table(sig)
    if sig.lf == 0:
        raise CodecError("ranterm: signature declares no function symbols")
    getrandbits = getattr(rng, "getrandbits", None)
    if not callable(getrandbits):
        raise CodecError(f"ranterm: rng must have a getrandbits method (got {rng!r})")
    return nat2term(sig, getrandbits(bits))
