"""Differential tests of bitpars2term against the reader it replaced.

bitpars2term now reads the skeleton in two-symbol steps, paired by strided
slices. The reader below walked it one index at a time, with a lookahead
and bounds checks; it is kept unchanged as the oracle for the decoded term,
the sharing of its equal leaves and the exact message of every rejection.
"""

import itertools

from termcodec import CodecError, Compound, bitpars2term, term2bitpars
from termcodec.errors import check_iterable
from termcodec.skeleton import _bit_bytes, _functor_name
from termcodec.terms import Atom, Term, _leaf

from conftest import SIG_FG_AB, random_terms, subterms


def reference_bitpars2term(ps, atoms) -> Term:
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
    n = len(ps)
    na = len(atoms)
    # One node per distinct atom; only exact str and int atoms are shared, so
    # that True and 1 stay distinct and unhashable atoms reach _leaf.
    leaves: dict[Atom, Term] = {}
    ai = 0
    i = 1
    stack: list[list[Term]] = [[]]
    while True:
        if i >= n:
            raise CodecError("bitpars2term: skeleton ends inside an open group")
        if ps[i] == 0:
            if i + 1 >= n:
                raise CodecError("bitpars2term: skeleton ends inside an open group")
            if ps[i + 1]:
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
            else:
                stack.append([])
            i += 2  # member open plus either its close or the nested group open
            continue
        kids = stack.pop()
        if len(kids) < 2:
            raise CodecError(
                "bitpars2term: a group must hold a functor and at least one argument"
            )
        node = Compound(_functor_name(kids[0]), tuple(kids[1:]))
        i += 1
        if not stack:
            break
        if i >= n or ps[i] != 1:
            raise CodecError("bitpars2term: unbalanced skeleton")
        i += 1  # close of the member wrapping this group
        stack[-1].append(node)
    if i != n:
        raise CodecError(f"bitpars2term: {n - i} trailing symbols after the skeleton")
    if ai != na:
        raise CodecError(
            f"bitpars2term: skeleton holds {ai} leaves but {na} atoms were given"
        )
    return node


# Functor, variable, integer, malformed and repeated atoms, and too few or too many.
ATOM_LISTS = [
    [], ["f"], ["f", "a"], ["f", "a", "b"], ["f", "g", "a", "b"], ["X", "a", "b"],
    ["f", 3, "a"], ["f", "a b", "c"], ["f", "g", "a", "b", "c", "d", "e"], ["f", 3, 3, "a", "a"],
]


def _leaf_sharing(t):
    """The leaves of t in order, each numbered by the first occurrence of its node."""
    first: dict[int, int] = {}
    return [first.setdefault(id(x), len(first)) for x in subterms(t) if not isinstance(x, Compound)]


def _outcome(decode, ps, atoms):
    try:
        t = decode(ps, atoms)
    except CodecError as exc:
        return "error", str(exc)
    return t, _leaf_sharing(t)


def test_bitpars2term_matches_reference_on_every_short_skeleton():
    messages = set()
    for length in range(15):
        for ps in itertools.product((0, 1), repeat=length):
            for atoms in ATOM_LISTS:
                got = _outcome(bitpars2term, ps, atoms)
                assert got == _outcome(reference_bitpars2term, ps, atoms), (ps, atoms)
                messages.add(got[1] if got[0] == "error" else "decoded")
    reached = [
        "decoded", "opened by 0", "ends inside an open group", "at least one argument",
        "unbalanced", "trailing symbols", "more leaves than", "leaves but", "leaf skeleton",
        "variable X cannot", "integer 3 cannot", "nested group cannot", "is not a variable",
    ]
    assert [r for r in reached if not any(r in m for m in messages)] == []


def test_bitpars2term_matches_reference_on_random_terms():
    for t in random_terms(SIG_FG_AB, 300, seed=1414, max_bits=400):
        ps, atoms = term2bitpars(t)
        got, want = bitpars2term(ps, atoms), reference_bitpars2term(ps, atoms)
        assert got == want == t
        assert _leaf_sharing(got) == _leaf_sharing(want)
