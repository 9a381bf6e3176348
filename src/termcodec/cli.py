"""Command-line front end for the codecs.

Naturals cross this boundary as decimal strings only. Parenthesis sequences
cross as strings over '(' and ')'. Atom lists and number lists cross as
comma-separated tokens; the empty string is the empty list. Results go to
stdout, diagnostics to stderr, exit status 0 on success and 1 on any domain
error or roundtrip mismatch, each reported as one CodecError line.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

from .bbase import from_bbase, nat2string, string2nat, to_bbase
from .errors import CodecError, check_min
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


def _tokens(text: str) -> list[str]:
    """Comma-separated tokens, each stripped; the empty string is no tokens."""
    text = text.strip()
    return [tok.strip() for tok in text.split(",")] if text else []


def _nat_list(text: str) -> list[int]:
    return [_nat(tok) for tok in _tokens(text)]


def _atom_list(text: str) -> list[str | int]:
    return [int(tok) if _NAT.match(tok) else tok for tok in _tokens(text)]


def _join(items) -> str:
    return ",".join(str(x) for x in items)


def _coded(pair) -> list:
    """A (code, atoms) pair as its two output lines."""
    code, atoms = pair
    return [code, _join(atoms)]


def _par(ch: str) -> int:
    if ch not in ("(", ")"):
        raise CodecError(f"unpars: {ch!r} is not '(' or ')'")
    return 0 if ch == "(" else 1


def _random_term(args):
    check_min("random-term", "count", args.count, 1)
    sig = load_signature(args.sig)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        yield print_term(ranterm(sig, args.bits, rng))


def _roundtrip(args):
    check_min("roundtrip", "max", args.max, 0)
    sig = load_signature(args.sig)
    for n in range(args.max + 1):
        t = nat2term(sig, n)
        m = term2nat(sig, t)
        if m != n:
            raise CodecError(
                f"roundtrip: mismatch at {n}: decoded {print_term(t)}, re-encoded {m}"
            )
    yield f"ok {args.max + 1} checked"


def _stats(args):
    check_min("stats", "count", args.count, 1)
    check_min("stats", "bits", args.bits, 1)
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
        yield (
            f"bits={code.bit_length()} chars={len(text)} "
            f"skeleton={len(ps)} ratio={ratio:.4f}"
        )
    yield (
        f"ratio min={min(ratios):.4f} max={max(ratios):.4f} "
        f"mean={sum(ratios) / len(ratios):.4f}"
    )


_SIG = ("--sig", {"required": True, "metavar": "FILE", "help": "signature file"})
_ATOMS = ("--atoms", {"required": True, "help": "comma-separated leaf tokens"})
_INT = {"type": int, "required": True}
_BASE = ("-b", "--base", _INT)
_SEED = ("--seed", _INT)

# One row per subcommand: name, help, arguments in declaration order (a bare
# name is a positional; otherwise flags then add_argument keywords), and a
# function from the parsed arguments to the output lines. The functions look
# the codecs up at call time, so that wrappers set on this module apply.
# NAT, list and atom arguments are parsed by the functions, not by argparse
# type=: a CodecError there would become a usage error with exit status 2.
_SUBCOMMANDS = (
    ("encode-term", "term text to its code under a signature", (_SIG, "term"),
     lambda a: [term2nat(load_signature(a.sig), parse_term(a.term))]),
    ("decode-term", "code to term text under a signature", (_SIG, "nat"),
     lambda a: [print_term(nat2term(load_signature(a.sig), _nat(a.nat)))]),
    ("skeleton-encode", "term to skeleton code plus atom list (two lines)", ("term",),
     lambda a: _coded(term2code(parse_term(a.term)))),
    ("skeleton-decode", "skeleton code plus atoms to a term", ("nat", _ATOMS),
     lambda a: [print_term(code2term(_nat(a.nat), _atom_list(a.atoms)))]),
    ("inj-encode", "term to injective structure code plus atom list", ("term",),
     lambda a: _coded(term2inj_code(parse_term(a.term)))),
    ("inj-decode", "injective structure code plus atoms to a term", ("nat", _ATOMS),
     lambda a: [print_term(inj_code2term(_nat(a.nat), _atom_list(a.atoms)))]),
    ("pars", "natural to balanced parenthesis string", ("nat",),
     lambda a: ["".join("(" if s == 0 else ")" for s in nat2pars(_nat(a.nat)))]),
    ("unpars", "balanced parenthesis string to natural", ("pstring",),
     lambda a: [pars2nat([_par(ch) for ch in a.pstring.strip()])]),
    ("listnat", "comma list of naturals to one natural", ("list",),
     lambda a: [nats2nat(_nat_list(a.list))]),
    ("natlist", "natural to comma list of naturals", ("nat",),
     lambda a: [_join(nat2nats(_nat(a.nat)))]),
    ("tuple", "natural to a k-tuple by bit deinterleaving",
     (("-k", _INT | {"help": "tuple width"}), "nat"),
     lambda a: [_join(to_tuple(a.k, _nat(a.nat)))]),
    ("untuple", "comma tuple to a natural by bit interleaving", ("list",),
     lambda a: [from_tuple(_nat_list(a.list))]),
    ("bbase", "natural to bijective base-b digits", (_BASE, "nat"),
     lambda a: [_join(to_bbase(a.base, _nat(a.nat)))]),
    ("unbbase", "bijective base-b digits to a natural", (_BASE, "list"),
     lambda a: [from_bbase(a.base, _nat_list(a.list))]),
    ("atom-encode", "lowercase word to a natural", ("word",),
     lambda a: [string2nat(a.word)]),
    ("atom-decode", "natural to a lowercase word", ("nat",),
     lambda a: [nat2string(_nat(a.nat))]),
    ("random-term", "decode uniform random codes to terms",
     (_SIG, ("--bits", _INT | {"help": "code size in bits"}), _SEED,
      ("--count", {"type": int, "default": 1})),
     _random_term),
    ("roundtrip", "check decode/encode identity for all codes up to a bound",
     (_SIG, ("--max", _INT | {"help": "largest code to check"})),
     _roundtrip),
    ("stats", "code size against printed size on random terms",
     (_SIG, ("--bits", _INT), _SEED, ("--count", _INT)),
     _stats),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termcodec",
        description="bijective codecs between terms, lists, strings, and naturals",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, arguments, run in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for arg in arguments:
            if isinstance(arg, str):
                sub.add_argument(arg)
            else:
                sub.add_argument(*arg[:-1], **arg[-1])
        sub.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. The interpreter's int<->str digit limit is lifted
    while it runs and restored afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        for line in args.run(args):
            print(line)
        return 0
    except (CodecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
