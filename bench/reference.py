"""Reference codecs written from the paper's definitions, and the checks
that compare them with termcodec.

They are plain and recursive on purpose: digit-by-digit arithmetic on the
base-2^k digit matrix, cons as 2^x * (2y + 1), the list and balanced-sequence
bijections built from those, bijective base b as sum((d_i + 1) * b^i), and the
Gödel decoder as three code bands. Terms are handled as canonical text, so
nothing here shares code with the program. The benchmark runs them only on
small inputs and never inside a timed region.
"""

from __future__ import annotations

SIG_FG_A = (("X", "Y"), ("a",), (("f", 2), ("g", 1)))
SIG_FG_AB = (("X", "Y"), ("a", "b"), (("f", 2), ("g", 1)))


def to_tuple(k: int, n: int) -> list[int]:
    """Member j collects bit j of every base-2^k digit of n."""
    digits = []
    while n:
        digits.append(n % 2**k)
        n //= 2**k
    return [sum(((d >> j) & 1) << i for i, d in enumerate(digits)) for j in range(k)]


def from_tuple(ns: list[int]) -> int:
    """Digit i of the result in base 2^k holds bit i of every member."""
    k = len(ns)
    n = 0
    i = 0
    while any(x >> i for x in ns):
        digit = sum(((x >> i) & 1) << j for j, x in enumerate(ns))
        n += digit * 2 ** (k * i)
        i += 1
    return n


def cons(x: int, y: int) -> int:
    return 2**x * (2 * y + 1)


def decons(z: int) -> tuple[int, int]:
    x = 0
    while z % 2 == 0:
        z //= 2
        x += 1
    return x, (z - 1) // 2


def nat2nats(n: int) -> list[int]:
    if n == 0:
        return []
    x, y = decons(n)
    return to_tuple(x + 1, y)


def nats2nat(ns: list[int]) -> int:
    return cons(len(ns) - 1, from_tuple(ns)) if ns else 0


def nat2pars(n: int) -> list[int]:
    """The group for n wraps the groups of the members of nat2nats(n)."""
    return [0] + [s for m in nat2nats(n) for s in nat2pars(m)] + [1]


def pars2nat(ps: list[int]) -> int:
    def group(i: int) -> tuple[int, int]:
        members = []
        i += 1
        while ps[i] == 0:
            value, i = group(i)
            members.append(value)
        return nats2nat(members), i + 1

    value, end = group(0)
    if end != len(ps):
        raise ValueError("trailing symbols after the first group")
    return value


def from_bbase(base: int, digits: list[int]) -> int:
    return sum((d + 1) * base**i for i, d in enumerate(digits))


def to_bbase(base: int, n: int) -> list[int]:
    digits = []
    while n:
        d = (n - 1) % base
        digits.append(d)
        n = (n - 1 - d) // base
    return digits


def parse(text: str):
    """Canonical term text to a leaf string or a (functor, [args]) pair."""

    def term(i: int):
        j = i
        while j < len(text) and text[j] not in "(),":
            j += 1
        name = text[i:j]
        if j == len(text) or text[j] != "(":
            return name, j
        args = []
        while True:
            arg, j = term(j + 1)
            args.append(arg)
            if text[j] == ")":
                return (name, args), j + 1

    t, end = term(0)
    if end != len(text):
        raise ValueError(f"trailing text at {end}")
    return t


def nat2term(sig, n: int) -> str:
    """Gödel decoder: codes below lv are variables, below lv + lc constants,
    and the rest split into a functor label and one code per argument."""
    vars_, consts, funs = sig
    lv, lvc = len(vars_), len(vars_) + len(consts)
    if n < lv:
        return vars_[n]
    if n < lvc:
        return consts[n - lv]
    name, k = funs[(n - lvc) % len(funs)]
    args = to_tuple(k, (n - lvc) // len(funs))
    return name + "(" + ",".join(nat2term(sig, m) for m in args) + ")"


def term2nat(sig, text: str) -> int:
    vars_, consts, funs = sig
    lv, lvc = len(vars_), len(vars_) + len(consts)

    def code(t) -> int:
        if isinstance(t, str):
            return vars_.index(t) if t in vars_ else lv + consts.index(t)
        name, args = t
        label = funs.index((name, len(args)))
        return lvc + len(funs) * from_tuple([code(a) for a in args]) + label

    return code(parse(text))


def _atom(leaf: str):
    return int(leaf) if leaf.isdigit() else leaf


def term2bitpars(text: str) -> tuple[list[int], list]:
    """A compound is a group holding one member per functor and argument;
    a leaf member is empty, a compound member wraps the compound's group."""
    atoms: list = []

    def group(t) -> list[int]:
        name, args = t
        atoms.append(name)
        out = [0, 0, 1]
        for a in args:
            if isinstance(a, str):
                atoms.append(_atom(a))
                out += [0, 1]
            else:
                out += [0] + group(a) + [1]
        return out + [1]

    t = parse(text)
    if isinstance(t, str):
        return [0, 1], [_atom(t)]
    return group(t), atoms


def term2code(text: str) -> tuple[int, list]:
    ps, atoms = term2bitpars(text)
    return pars2nat(ps), atoms


def term2inj_code(text: str) -> tuple[int, list]:
    ps, atoms = term2bitpars(text)
    return from_bbase(2, ps), atoms


def pars_text(ps: list[int]) -> str:
    return "".join("()"[s] for s in ps)


def worked_values(tc) -> list[str]:
    """The paper's worked values, through both the references and termcodec.

    tc is a namespace holding the program's modules (godel, terms, skeleton,
    tuples). Returns one message per disagreement; empty means all agree.
    """
    errors = []

    def expect(what, compute, want):
        try:
            got = compute()
        except Exception as exc:  # a worked value the program cannot compute
            errors.append(f"{what}: raised {exc!r}")
            return
        if got != want:
            errors.append(f"{what}: got {got!r}, want {want!r}")

    G, T, S = tc.godel, tc.terms, tc.skeleton
    sig_a = T.Signature(*SIG_FG_A)
    sig_ab = T.Signature(*SIG_FG_AB)
    text = "f(a,f(X,g(Y)))"
    expect("ref term2nat", lambda: term2nat(SIG_FG_A, text), 17439)
    expect("ref nat2term", lambda: nat2term(SIG_FG_A, 17439), text)
    expect("term2nat", lambda: G.term2nat(sig_a, T.parse_term(text)), 17439)
    expect("nat2term", lambda: T.print_term(G.nat2term(sig_a, 17439)), text)

    text2 = "f(f(Y,b),f(b,a))"
    expect("ref nat2term", lambda: nat2term(SIG_FG_AB, 2012), text2)
    expect("ref term2nat", lambda: term2nat(SIG_FG_AB, text2), 2012)
    expect("nat2term", lambda: T.print_term(G.nat2term(sig_ab, 2012)), text2)
    expect("term2nat", lambda: G.term2nat(sig_ab, T.parse_term(text2)), 2012)

    text3 = "f(a,g(X,Y),g(Y,X))"
    atoms = ["f", "a", "g", "X", "Y", "g", "Y", "X"]
    expect("ref term2code", lambda: term2code(text3), (786632, atoms))
    expect("ref term2inj_code", lambda: term2inj_code(text3), (131364115, atoms))
    expect("term2code", lambda: S.term2code(T.parse_term(text3)), (786632, atoms))
    expect("term2inj_code", lambda: S.term2inj_code(T.parse_term(text3)), (131364115, atoms))
    expect("code2term", lambda: T.print_term(S.code2term(786632, atoms)), text3)
    expect("inj_code2term", lambda: T.print_term(S.inj_code2term(131364115, atoms)), text3)

    pars = "((((())))(((())))(()()))"
    expect("ref nat2pars", lambda: pars_text(nat2pars(2012)), pars)
    expect("ref nat2nats", lambda: nat2nats(2012), [7, 7, 2])
    expect("nat2pars", lambda: pars_text(S.nat2pars(2012)), pars)
    expect("ref to_tuple", lambda: to_tuple(3, 42), [2, 1, 2])
    expect("to_tuple", lambda: tc.tuples.to_tuple(3, 42), [2, 1, 2])
    return errors


def godel_differential(tc, sig, samples: list[tuple[int, str]]) -> list[str]:
    """Compare termcodec's outputs with the references on (code, text) pairs.

    sig is a (vars, consts, funs) triple; text is what the program decoded
    code to. Returns one message per disagreement.
    """
    errors = []
    for i, (code, text) in enumerate(samples):
        if nat2term(sig, code) != text:
            errors.append(f"sample {i}: the reference decodes {code} differently")
        if term2nat(sig, text) != code:
            errors.append(f"sample {i}: the reference encodes {text[:40]!r} differently")
        errors += _primitives(tc, i, code)
    return errors


def skeleton_differential(tc, samples: list[tuple[str, int, int]]) -> list[str]:
    """Compare termcodec's outputs with the references on (text, code,
    inj_code) triples, where the codes are what the program encoded text to."""
    errors = []
    for i, (text, code, inj_code) in enumerate(samples):
        if term2code(text)[0] != code:
            errors.append(f"sample {i}: the reference term2code differs")
        if term2inj_code(text)[0] != inj_code:
            errors.append(f"sample {i}: the reference term2inj_code differs")
        ps = nat2pars(code)
        if pars2nat(ps) != code or not _agrees(tc.skeleton.nat2pars, (code,), ps):
            errors.append(f"sample {i}: nat2pars differs from the reference")
        if not _agrees(tc.bbase.to_bbase, (2, inj_code), to_bbase(2, inj_code)):
            errors.append(f"sample {i}: to_bbase differs from the reference")
        errors += _primitives(tc, i, code)
    return errors


def _agrees(fn, args, want) -> bool:
    """Whether the program's fn(*args) returns want; raising disagrees."""
    try:
        return fn(*args) == want
    except Exception:  # any exception from the program is a disagreement
        return False


def _primitives(tc, i: int, n: int) -> list[str]:
    errors = []
    for k in (2, 3, 4):
        members = to_tuple(k, n)
        if not (_agrees(tc.tuples.to_tuple, (k, n), members)
                and _agrees(tc.tuples.from_tuple, (members,), n)):
            errors.append(f"sample {i}: the tuple split k={k} differs from the reference")
    x, y = decons(n + 1)
    if not (_agrees(tc.natbits.decons, (n + 1,), (x, y))
            and _agrees(tc.natbits.cons, (x, y), n + 1)):
        errors.append(f"sample {i}: cons/decons differ from the reference")
    if not _agrees(tc.skeleton.nat2nats, (n,), nat2nats(n)):
        errors.append(f"sample {i}: nat2nats differs from the reference")
    return errors
