"""Bijective codecs between first-order terms, lists, strings, and naturals."""

from .bbase import from_bbase, nat2string, string2nat, to_bbase
from .errors import CodecError, ParseError, SignatureError
from .godel import nat2term, ranterm, term2nat
from .natbits import cons, decons
from .skeleton import (
    bitpars2term,
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
from .terms import (
    Compound,
    Const,
    Signature,
    Term,
    Var,
    load_signature,
    parse_signature,
    parse_term,
    print_term,
    validate_signature,
)
from .tuples import from_pair, from_tuple, k_deflate, k_inflate, to_pair, to_tuple

__all__ = [
    "CodecError",
    "Compound",
    "Const",
    "ParseError",
    "Signature",
    "SignatureError",
    "Term",
    "Var",
    "bitpars2term",
    "code2term",
    "cons",
    "decons",
    "from_bbase",
    "from_pair",
    "from_tuple",
    "inj_code2term",
    "k_deflate",
    "k_inflate",
    "load_signature",
    "nat2nats",
    "nat2pars",
    "nat2string",
    "nat2term",
    "nats2nat",
    "pars2nat",
    "parse_signature",
    "parse_term",
    "print_term",
    "ranterm",
    "string2nat",
    "term2bitpars",
    "term2code",
    "term2inj_code",
    "term2nat",
    "to_bbase",
    "to_pair",
    "to_tuple",
    "validate_signature",
]
