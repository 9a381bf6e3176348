"""Command-line front end for the codecs.

Naturals cross this boundary as decimal strings only. Parenthesis sequences
cross as strings over '(' and ')'. Atom lists and number lists cross as
comma-separated tokens; the empty string is the empty list. Results go to
stdout, diagnostics to stderr, exit status 0 on success and 1 on any domain
error.
"""

from __future__ import annotations

import argparse
import random
import re
import statistics
import sys

from .bbase import from_bbase, nat2string, string2nat, to_bbase
from .errors import CodecError
from .godel import nat2term, ranterm, term2nat
from .skeleton import (
    code2term,
    inj_code2term,
    nat2nats,
    nat2pars,
    nats2nat,
    pars2nat,
    term2bitpars,
    term2code,
    term2inj_code,
)
from .terms import load_signature, parse_term, print_term
from .tuples import from_tuple, to_tuple

_NAT = re.compile(r"[0-9]+\Z")


def _nat(text: str) -> int:
    text = text.strip()
    if not _NAT.match(text):
        raise CodecError(f"expected a decimal natural, got {text!r}")
    return int(text)


def _nat_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [_nat(tok) for tok in text.split(",")]


def _atom_list(text: str) -> list[str | int]:
    text = text.strip()
    if not text:
        return []
    out: list[str | int] = []
    for tok in text.split(","):
        tok = tok.strip()
        out.append(int(tok) if _NAT.match(tok) else tok)
    return out


def _join(items) -> str:
    return ",".join(str(x) for x in items)


def _cmd_encode_term(args) -> int:
    sig = load_signature(args.sig)
    print(term2nat(sig, parse_term(args.term)))
    return 0


def _cmd_decode_term(args) -> int:
    sig = load_signature(args.sig)
    print(print_term(nat2term(sig, _nat(args.nat))))
    return 0


def _cmd_skeleton_encode(args) -> int:
    code, atoms = term2code(parse_term(args.term))
    print(code)
    print(_join(atoms))
    return 0


def _cmd_skeleton_decode(args) -> int:
    print(print_term(code2term(_nat(args.nat), _atom_list(args.atoms))))
    return 0


def _cmd_inj_encode(args) -> int:
    code, atoms = term2inj_code(parse_term(args.term))
    print(code)
    print(_join(atoms))
    return 0


def _cmd_inj_decode(args) -> int:
    print(print_term(inj_code2term(_nat(args.nat), _atom_list(args.atoms))))
    return 0


def _cmd_pars(args) -> int:
    print("".join("(" if s == 0 else ")" for s in nat2pars(_nat(args.nat))))
    return 0


def _cmd_unpars(args) -> int:
    seq = []
    for ch in args.pstring.strip():
        if ch == "(":
            seq.append(0)
        elif ch == ")":
            seq.append(1)
        else:
            raise CodecError(f"unpars: {ch!r} is not '(' or ')'")
    print(pars2nat(seq))
    return 0


def _cmd_listnat(args) -> int:
    print(nats2nat(_nat_list(args.list)))
    return 0


def _cmd_natlist(args) -> int:
    print(_join(nat2nats(_nat(args.nat))))
    return 0


def _cmd_tuple(args) -> int:
    print(_join(to_tuple(args.k, _nat(args.nat))))
    return 0


def _cmd_untuple(args) -> int:
    print(from_tuple(_nat_list(args.list)))
    return 0


def _cmd_bbase(args) -> int:
    print(_join(to_bbase(args.base, _nat(args.nat))))
    return 0


def _cmd_unbbase(args) -> int:
    print(from_bbase(args.base, _nat_list(args.list)))
    return 0


def _cmd_atom_encode(args) -> int:
    print(string2nat(args.word))
    return 0


def _cmd_atom_decode(args) -> int:
    print(nat2string(_nat(args.nat)))
    return 0


def _cmd_random_term(args) -> int:
    if args.count < 1:
        raise CodecError(f"random-term: count must be >= 1 (got {args.count})")
    sig = load_signature(args.sig)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(print_term(ranterm(sig, args.bits, rng)))
    return 0


def _cmd_roundtrip(args) -> int:
    if args.max < 0:
        raise CodecError(f"roundtrip: max must be >= 0 (got {args.max})")
    sig = load_signature(args.sig)
    for n in range(args.max + 1):
        t = nat2term(sig, n)
        m = term2nat(sig, t)
        if m != n:
            print(f"mismatch at {n}: decoded {print_term(t)}, re-encoded {m}")
            return 1
    print(f"ok {args.max + 1} checked")
    return 0


def _cmd_stats(args) -> int:
    if args.count < 1:
        raise CodecError(f"stats: count must be >= 1 (got {args.count})")
    if args.bits < 1:
        raise CodecError(f"stats: bits must be >= 1 (got {args.bits})")
    sig = load_signature(args.sig)
    rng = random.Random(args.seed)
    ratios = []
    for _ in range(args.count):
        code = rng.getrandbits(args.bits)
        t = nat2term(sig, code)
        text = print_term(t)
        ps, _ = term2bitpars(t)
        ratio = code.bit_length() / len(text)
        ratios.append(ratio)
        print(
            f"bits={code.bit_length()} chars={len(text)} "
            f"skeleton={len(ps)} ratio={ratio:.4f}"
        )
    print(
        f"ratio min={min(ratios):.4f} max={max(ratios):.4f} "
        f"mean={statistics.mean(ratios):.4f}"
    )
    return 0


def _add_sig(sub) -> None:
    sub.add_argument("--sig", required=True, metavar="FILE", help="signature file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termcodec",
        description="bijective codecs between terms, lists, strings, and naturals",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("encode-term", help="term text to its code under a signature")
    _add_sig(sub)
    sub.add_argument("term")
    sub.set_defaults(handler=_cmd_encode_term)

    sub = subs.add_parser("decode-term", help="code to term text under a signature")
    _add_sig(sub)
    sub.add_argument("nat")
    sub.set_defaults(handler=_cmd_decode_term)

    sub = subs.add_parser(
        "skeleton-encode", help="term to skeleton code plus atom list (two lines)"
    )
    sub.add_argument("term")
    sub.set_defaults(handler=_cmd_skeleton_encode)

    sub = subs.add_parser("skeleton-decode", help="skeleton code plus atoms to a term")
    sub.add_argument("nat")
    sub.add_argument("--atoms", required=True, help="comma-separated leaf tokens")
    sub.set_defaults(handler=_cmd_skeleton_decode)

    sub = subs.add_parser(
        "inj-encode", help="term to injective structure code plus atom list"
    )
    sub.add_argument("term")
    sub.set_defaults(handler=_cmd_inj_encode)

    sub = subs.add_parser("inj-decode", help="injective structure code plus atoms to a term")
    sub.add_argument("nat")
    sub.add_argument("--atoms", required=True, help="comma-separated leaf tokens")
    sub.set_defaults(handler=_cmd_inj_decode)

    sub = subs.add_parser("pars", help="natural to balanced parenthesis string")
    sub.add_argument("nat")
    sub.set_defaults(handler=_cmd_pars)

    sub = subs.add_parser("unpars", help="balanced parenthesis string to natural")
    sub.add_argument("pstring")
    sub.set_defaults(handler=_cmd_unpars)

    sub = subs.add_parser("listnat", help="comma list of naturals to one natural")
    sub.add_argument("list")
    sub.set_defaults(handler=_cmd_listnat)

    sub = subs.add_parser("natlist", help="natural to comma list of naturals")
    sub.add_argument("nat")
    sub.set_defaults(handler=_cmd_natlist)

    sub = subs.add_parser("tuple", help="natural to a k-tuple by bit deinterleaving")
    sub.add_argument("-k", type=int, required=True, help="tuple width")
    sub.add_argument("nat")
    sub.set_defaults(handler=_cmd_tuple)

    sub = subs.add_parser("untuple", help="comma tuple to a natural by bit interleaving")
    sub.add_argument("list")
    sub.set_defaults(handler=_cmd_untuple)

    sub = subs.add_parser("bbase", help="natural to bijective base-b digits")
    sub.add_argument("-b", "--base", type=int, required=True)
    sub.add_argument("nat")
    sub.set_defaults(handler=_cmd_bbase)

    sub = subs.add_parser("unbbase", help="bijective base-b digits to a natural")
    sub.add_argument("-b", "--base", type=int, required=True)
    sub.add_argument("list")
    sub.set_defaults(handler=_cmd_unbbase)

    sub = subs.add_parser("atom-encode", help="lowercase word to a natural")
    sub.add_argument("word")
    sub.set_defaults(handler=_cmd_atom_encode)

    sub = subs.add_parser("atom-decode", help="natural to a lowercase word")
    sub.add_argument("nat")
    sub.set_defaults(handler=_cmd_atom_decode)

    sub = subs.add_parser("random-term", help="decode uniform random codes to terms")
    _add_sig(sub)
    sub.add_argument("--bits", type=int, required=True, help="code size in bits")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--count", type=int, default=1)
    sub.set_defaults(handler=_cmd_random_term)

    sub = subs.add_parser(
        "roundtrip", help="check decode/encode identity for all codes up to a bound"
    )
    _add_sig(sub)
    sub.add_argument("--max", type=int, required=True, help="largest code to check")
    sub.set_defaults(handler=_cmd_roundtrip)

    sub = subs.add_parser("stats", help="code size against printed size on random terms")
    _add_sig(sub)
    sub.add_argument("--bits", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--count", type=int, required=True)
    sub.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. The interpreter's int<->str digit limit is lifted
    while it runs and restored afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
