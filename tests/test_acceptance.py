"""Acceptance gate: every pinned value and claim, one test per criterion.

Each test prints one PASS line on success (visible with pytest -rA or -s);
a failed assertion marks the criterion failed. Timing bounds are pinned in
the tests themselves.
"""

import random
import time

from termcodec import (
    bitpars2term,
    code2term,
    from_bbase,
    from_tuple,
    inj_code2term,
    k_deflate,
    k_inflate,
    nat2nats,
    nat2pars,
    nat2string,
    nat2term,
    nats2nat,
    parse_term,
    pars2nat,
    print_term,
    string2nat,
    term2bitpars,
    term2code,
    term2inj_code,
    term2nat,
    to_bbase,
    to_tuple,
)
from termcodec.cli import main

from conftest import SIG_FG_A, SIG_FG_AB, SIG_IMP, ref, subterms


def test_c01_inflate_deflate_value_and_speed():
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        inflated = k_inflate(3, 42)
        deflated = k_deflate(3, 33288)
        timings.append(time.perf_counter() - t0)
    assert inflated == 33288
    assert deflated == 42
    best = min(timings)
    assert best < 1e-3, f"k_inflate/k_deflate took {best:.6f}s, bound is 1ms"
    print(f"C1 PASS: k_inflate(3,42)=33288, k_deflate inverts, {best * 1e6:.1f}us")


def test_c02_tuple_worked_example():
    assert to_tuple(3, 42) == [2, 1, 2]
    assert from_tuple([2, 1, 2]) == 42
    print("C2 PASS: to_tuple(3,42)=[2,1,2], from_tuple inverts")


def test_c03_term_encoding_worked_example():
    t = parse_term("f(a,f(X,g(Y)))")
    assert term2nat(SIG_FG_A, t) == 17439
    assert nat2term(SIG_FG_A, 17439) == t
    print("C3 PASS: term2nat(f(a,f(X,g(Y))))=17439 and back")


def test_c04_decode_worked_example_two_constants():
    t = nat2term(SIG_FG_AB, 2012)
    assert print_term(t) == "f(f(Y,b),f(b,a))"
    assert term2nat(SIG_FG_AB, t) == 2012
    print("C4 PASS: nat2term(2012)=f(f(Y,b),f(b,a)), re-encodes to 2012")


def test_c05_decode_worked_example_implication():
    t = nat2term(SIG_IMP, 2012)
    assert print_term(t) == "imp(imp(imp(B,A),imp(z,A)),imp(imp(z,A),B))"
    assert term2nat(SIG_IMP, t) == 2012
    print("C5 PASS: nat2term(2012) over imp/2 matches the pinned formula, re-encodes to 2012")


def test_c06_bijective_base_worked_example():
    assert to_bbase(7, 2012) == [2, 6, 4, 4]
    assert from_bbase(7, [2, 6, 4, 4]) == 2012
    print("C6 PASS: to_bbase(7,2012)=[2,6,4,4], from_bbase inverts")


def test_c07_string_worked_examples():
    assert string2nat("hello") == 7073802
    assert nat2string(7073802) == "hello"
    assert nat2string(2012) == "jyb"
    print("C7 PASS: string2nat('hello')=7073802 and back, nat2string(2012)='jyb'")


def test_c08_bitpars_worked_example():
    t = parse_term("f(g(a,X),X,42)")
    ps, atoms = term2bitpars(t)
    assert ps == [0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1]
    assert atoms == ["f", "g", "a", "X", "X", 42]
    assert bitpars2term(ps, atoms) == t
    print("C8 PASS: term2bitpars gives the pinned 18-symbol skeleton and atoms, bitpars2term inverts")


def test_c09_inj_code_worked_example():
    t = parse_term("f(a,g(X,Y),g(Y,X))")
    code, atoms = term2inj_code(t)
    assert code == 131364115
    assert atoms == ["f", "a", "g", "X", "Y", "g", "Y", "X"]
    assert inj_code2term(code, atoms) == t
    print("C9 PASS: term2inj_code=131364115, inj_code2term inverts")


def test_c10_nats_worked_example():
    assert nat2nats(2012) == [7, 7, 2]
    assert nats2nat([7, 7, 2]) == 2012
    print("C10 PASS: nat2nats(2012)=[7,7,2], nats2nat inverts")


def test_c11_pars_worked_example():
    seq = [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1]
    assert nat2pars(2012) == seq
    assert pars2nat(seq) == 2012
    print("C11 PASS: nat2pars(2012) is the pinned 24-symbol sequence")


def test_c12_term_code_worked_example():
    t = parse_term("f(a,g(X,Y),g(Y,X))")
    code, atoms = term2code(t)
    assert code == 786632
    assert atoms == ["f", "a", "g", "X", "Y", "g", "Y", "X"]
    assert code2term(code, atoms) == t
    print("C12 PASS: term2code=786632 with the pinned atoms, code2term inverts")


def test_c13_bijectivity_suites():
    t0 = time.perf_counter()
    for sig in (SIG_FG_A, SIG_FG_AB, SIG_IMP):
        for n in range(10_001):
            assert term2nat(sig, nat2term(sig, n)) == n
    for n in range(10_001):
        assert nats2nat(nat2nats(n)) == n
    for n in range(10_001):
        assert pars2nat(nat2pars(n)) == n
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"bijectivity suites took {elapsed:.1f}s, bound is 60s"
    print(f"C13 PASS: decode/encode identity on [0,10^4] x 5 codecs in {elapsed:.1f}s")


def test_c14_tuple_oracle_equivalence():
    for k in range(1, 5):
        for n in range(2**12):
            members = ref.to_tuple(k, n)
            assert to_tuple(k, n) == members
            assert from_tuple(members) == n
    print("C14 PASS: tuple codec matches the base-2^k digit-matrix oracle")


def test_c15_performance_and_size():
    code = random.Random(0).getrandbits(20_000)
    t0 = time.perf_counter()
    t = nat2term(SIG_FG_AB, code)
    recoded = term2nat(SIG_FG_AB, t)
    elapsed = time.perf_counter() - t0
    nodes = sum(1 for _ in subterms(t))
    assert nodes >= 10_000, f"random term has {nodes} nodes, need >= 10^4"
    assert recoded == code
    assert elapsed < 5, f"encode+decode of a {nodes}-node term took {elapsed:.2f}s"

    rng = random.Random(1)
    ratios = []
    for _ in range(1000):
        sample = rng.getrandbits(128)
        ratio = sample.bit_length() / len(print_term(nat2term(SIG_FG_AB, sample)))
        ratios.append(ratio)
        assert 1 / 16 <= ratio <= 16, f"size ratio {ratio} outside [1/16, 16]"
    print(
        f"C15 PASS: {nodes}-node roundtrip in {elapsed:.2f}s; "
        f"1000 size ratios within [{min(ratios):.3f}, {max(ratios):.3f}]"
    )


def test_c16_cli_skeleton_roundtrip(capsys):
    # source codes capped at 64 bits: the skeleton code is printed in
    # decimal, and int-to-decimal conversion is quadratic in the bitsize
    rng = random.Random(2)
    for _ in range(100):
        sample = rng.getrandbits(rng.randint(1, 64))
        text = print_term(nat2term(SIG_FG_AB, sample))
        assert main(["skeleton-encode", text]) == 0
        nat, atoms = capsys.readouterr().out.splitlines()
        assert main(["skeleton-decode", nat, "--atoms", atoms]) == 0
        assert capsys.readouterr().out.strip() == text
    print("C16 PASS: 100 random terms survive skeleton-encode | skeleton-decode")
