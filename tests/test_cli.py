import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import termcodec
from termcodec import cli, print_term, ranterm
from termcodec.cli import main

from conftest import SIG_FG_AB

SIG_TEXT = "vars: X Y\nconsts: a\nfuns: f/2 g/1\n"


@pytest.fixture
def sig_file(tmp_path):
    path = tmp_path / "ex.sig"
    path.write_text(SIG_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_encode_term(capsys, sig_file):
    code, out, err = run(capsys, "encode-term", "--sig", sig_file, "f(a,f(X,g(Y)))")
    assert (code, err) == (0, "")
    assert out == "17439\n"


def test_decode_term(capsys, sig_file):
    code, out, _ = run(capsys, "decode-term", "--sig", sig_file, "17439")
    assert code == 0
    assert out == "f(a,f(X,g(Y)))\n"


def test_encode_decode_pipe(capsys, sig_file):
    for text in ("X", "a", "g(a)", "f(g(X),f(Y,a))"):
        _, encoded, _ = run(capsys, "encode-term", "--sig", sig_file, text)
        _, decoded, _ = run(capsys, "decode-term", "--sig", sig_file, encoded.strip())
        assert decoded.strip() == text


def test_skeleton_encode_decode(capsys):
    code, out, _ = run(capsys, "skeleton-encode", "f(a,g(X,Y),g(Y,X))")
    assert code == 0
    nat, atoms = out.splitlines()
    assert nat == "786632"
    assert atoms == "f,a,g,X,Y,g,Y,X"
    code, out, _ = run(capsys, "skeleton-decode", nat, "--atoms", atoms)
    assert code == 0
    assert out == "f(a,g(X,Y),g(Y,X))\n"


def test_skeleton_handles_integer_leaves(capsys):
    _, out, _ = run(capsys, "skeleton-encode", "f(g(a,X),X,42)")
    nat, atoms = out.splitlines()
    assert atoms == "f,g,a,X,X,42"
    _, out, _ = run(capsys, "skeleton-decode", nat, "--atoms", atoms)
    assert out == "f(g(a,X),X,42)\n"


def test_inj_encode_decode(capsys):
    code, out, _ = run(capsys, "inj-encode", "f(a,g(X,Y),g(Y,X))")
    assert code == 0
    nat, atoms = out.splitlines()
    assert nat == "131364115"
    code, out, _ = run(capsys, "inj-decode", nat, "--atoms", atoms)
    assert code == 0
    assert out == "f(a,g(X,Y),g(Y,X))\n"


def test_pars_unpars(capsys):
    code, out, _ = run(capsys, "pars", "2012")
    assert code == 0
    pstring = out.strip()
    assert len(pstring) == 24
    assert set(pstring) <= {"(", ")"}
    code, out, _ = run(capsys, "unpars", pstring)
    assert code == 0
    assert out == "2012\n"
    _, out, _ = run(capsys, "pars", "0")
    assert out == "()\n"


def test_listnat_natlist(capsys):
    code, out, _ = run(capsys, "listnat", "7,7,2")
    assert (code, out) == (0, "2012\n")
    code, out, _ = run(capsys, "natlist", "2012")
    assert (code, out) == (0, "7,7,2\n")
    _, out, _ = run(capsys, "natlist", "0")
    assert out == "\n"
    _, out, _ = run(capsys, "listnat", "")
    assert out == "0\n"


def test_tuple_untuple(capsys):
    code, out, _ = run(capsys, "tuple", "-k", "3", "42")
    assert (code, out) == (0, "2,1,2\n")
    code, out, _ = run(capsys, "untuple", "2,1,2")
    assert (code, out) == (0, "42\n")


def test_bbase_unbbase(capsys):
    code, out, _ = run(capsys, "bbase", "-b", "7", "2012")
    assert (code, out) == (0, "2,6,4,4\n")
    code, out, _ = run(capsys, "unbbase", "-b", "7", "2,6,4,4")
    assert (code, out) == (0, "2012\n")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int digit limit"
)
def test_main_restores_the_int_digit_limit(capsys):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        code, out, _ = run(capsys, "bbase", "-b", "2", "5")
        assert (code, out) == (0, "0,1\n")
        assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            main(["no-such-subcommand"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def test_atom_encode_decode(capsys):
    code, out, _ = run(capsys, "atom-encode", "hello")
    assert (code, out) == (0, "7073802\n")
    code, out, _ = run(capsys, "atom-decode", "2012")
    assert (code, out) == (0, "jyb\n")


def test_random_term_deterministic(capsys, sig_file):
    code, first, _ = run(
        capsys, "random-term", "--sig", sig_file, "--bits", "48", "--seed", "7", "--count", "4"
    )
    assert code == 0
    assert len(first.splitlines()) == 4
    _, second, _ = run(
        capsys, "random-term", "--sig", sig_file, "--bits", "48", "--seed", "7", "--count", "4"
    )
    assert first == second
    _, third, _ = run(
        capsys, "random-term", "--sig", sig_file, "--bits", "48", "--seed", "8", "--count", "4"
    )
    assert first != third


def test_roundtrip_subcommand(capsys, sig_file):
    code, out, _ = run(capsys, "roundtrip", "--sig", sig_file, "--max", "0")
    assert (code, out) == (0, "ok 1 checked\n")
    code, out, _ = run(capsys, "roundtrip", "--sig", sig_file, "--max", "500")
    assert (code, out) == (0, "ok 501 checked\n")


def test_roundtrip_mismatch_is_one_error_line(capsys, monkeypatch, sig_file):
    encode = cli.term2nat
    monkeypatch.setattr(cli, "term2nat", lambda sig, t: encode(sig, t) + 1)
    code, out, err = run(capsys, "roundtrip", "--sig", sig_file, "--max", "3")
    assert (code, out) == (1, "")
    assert err == "error: roundtrip: mismatch at 0: decoded X, re-encoded 1\n"


def test_stats_reports_ratios(capsys, sig_file):
    code, out, _ = run(
        capsys, "stats", "--sig", sig_file, "--bits", "64", "--seed", "1", "--count", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("bits=") for line in lines[:5])
    assert all("skeleton=" in line for line in lines[:5])
    assert lines[5].startswith("ratio min=")


def test_stats_output_is_pinned(capsys, sig_file):
    code, out, err = run(
        capsys, "stats", "--sig", sig_file, "--bits", "64", "--seed", "1", "--count", "5"
    )
    assert (code, err) == (0, "")
    assert out == (
        "bits=64 chars=137 skeleton=232 ratio=0.4672\n"
        "bits=64 chars=140 skeleton=238 ratio=0.4571\n"
        "bits=61 chars=114 skeleton=194 ratio=0.5351\n"
        "bits=61 chars=142 skeleton=246 ratio=0.4296\n"
        "bits=64 chars=118 skeleton=204 ratio=0.5424\n"
        "ratio min=0.4296 max=0.5424 mean=0.4863\n"
    )


def test_cli_roundtrip_random_terms(capsys):
    """skeleton-encode piped into skeleton-decode is the identity on term text.

    Source codes are capped at 64 bits: the skeleton code crossing the CLI
    boundary is printed in decimal, and int-to-decimal is quadratic, so the
    occasional deep term would turn a hundred-kilobit code into tens of
    seconds of string conversion.
    """
    rng = random.Random(99)
    for _ in range(100):
        text = print_term(ranterm(SIG_FG_AB, rng.randint(1, 64), rng))
        code, out, _ = run(capsys, "skeleton-encode", text)
        assert code == 0
        nat, atoms = out.splitlines()
        code, out, _ = run(capsys, "skeleton-decode", nat, "--atoms", atoms)
        assert code == 0
        assert out.strip() == text


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["decode-term", "--sig", "no_such.sig", "5"], "no_such.sig"),
        (["decode-term", "--sig", "SIGFILE", "12x"], "decimal natural"),
        (["encode-term", "--sig", "SIGFILE", "f(a"], "parse error"),
        (["encode-term", "--sig", "SIGFILE", "h(a)"], "functor h/1"),
        (["unpars", "(()"], "never closed"),
        (["unpars", "(x)"], "is not"),
        (["tuple", "-k", "0", "5"], "stride"),
        (["untuple", ""], "at least one member"),
        (["bbase", "-b", "1", "5"], "base"),
        (["atom-encode", "Hello"], "outside"),
        (["skeleton-decode", "1", "--atoms", "a"], "functor"),
        (["random-term", "--sig", "SIGFILE", "--bits", "0", "--seed", "1"], "bits"),
        (["random-term", "--sig", "SIGFILE", "--bits", "8", "--seed", "1", "--count", "0"], "count"),
        (["roundtrip", "--sig", "SIGFILE", "--max", "-1"], "max"),
        (["skeleton-decode", "12x", "--atoms", "a"], "decimal natural"),
        (["inj-decode", "12x", "--atoms", "a"], "decimal natural"),
        (["pars", "12x"], "decimal natural"),
        (["natlist", "12x"], "decimal natural"),
        (["tuple", "-k", "3", "12x"], "decimal natural"),
        (["bbase", "-b", "2", "12x"], "decimal natural"),
        (["atom-decode", "12x"], "decimal natural"),
        (["listnat", "1,x"], "decimal natural"),
        (["untuple", "1,x"], "decimal natural"),
        (["unbbase", "-b", "2", "0,x"], "decimal natural"),
    ],
)
def test_domain_errors_exit_nonzero(capsys, sig_file, argv, fragment):
    argv = [sig_file if a == "SIGFILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err
    assert len(err.strip().splitlines()) == 1


USAGES = {
    "encode-term": "[-h] --sig FILE term",
    "decode-term": "[-h] --sig FILE nat",
    "skeleton-encode": "[-h] term",
    "skeleton-decode": "[-h] --atoms ATOMS nat",
    "inj-encode": "[-h] term",
    "inj-decode": "[-h] --atoms ATOMS nat",
    "pars": "[-h] nat",
    "unpars": "[-h] pstring",
    "listnat": "[-h] list",
    "natlist": "[-h] nat",
    "tuple": "[-h] -k K nat",
    "untuple": "[-h] list",
    "bbase": "[-h] -b BASE nat",
    "unbbase": "[-h] -b BASE list",
    "atom-encode": "[-h] word",
    "atom-decode": "[-h] nat",
    "random-term": "[-h] --sig FILE --bits BITS --seed SEED\n"
    + " " * 29 + "[--count COUNT]",
    "roundtrip": "[-h] --sig FILE --max MAX",
    "stats": "[-h] --sig FILE --bits BITS --seed SEED --count COUNT",
}


def test_usage_lines(capsys, monkeypatch):
    """The subcommands, their order and each one's usage line at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    indent = "\n" + " " * 17
    assert capsys.readouterr().out.startswith(
        "usage: termcodec [-h]" + indent + "{" + ",".join(USAGES) + "}" + indent + "...\n"
    )
    for name, usage in USAGES.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: termcodec {name} {usage}\n\n")


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "1"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["pars", "--frob", "1"])
    assert exc.value.code == 2


def test_module_invocation_subprocess():
    # the child imports the same package as this test, installed or not
    root = str(Path(termcodec.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "termcodec", "tuple", "-k", "3", "42"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "2,1,2\n"


def test_console_script_subprocess():
    import shutil

    exe = shutil.which("termcodec")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "unpars", "(()())"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().isdigit()
