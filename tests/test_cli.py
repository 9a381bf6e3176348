import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import termcodec
from termcodec import cli
from termcodec.cli import main

from conftest import BOM_SIG, NOT_UTF8_SIG

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


# One row per subcommand run, in _SUBCOMMANDS order: argv, where SIGFILE
# stands for a file holding SIG_TEXT, and the exact stdout. Each run exits 0
# and writes nothing to stderr.
OUTPUTS = [
    (["encode-term", "--sig", "SIGFILE", "f(a,f(X,g(Y)))"], "17439\n"),
    (["encode-term", "--sig", "SIGFILE", "f(g(X),f(Y,a))"], "1127\n"),
    (["decode-term", "--sig", "SIGFILE", "17439"], "f(a,f(X,g(Y)))\n"),
    (["decode-term", "--sig", "SIGFILE", "1127"], "f(g(X),f(Y,a))\n"),
    (["skeleton-encode", "f(a,g(X,Y),g(Y,X))"], "786632\nf,a,g,X,Y,g,Y,X\n"),
    (["skeleton-encode", "f(g(a,X),X,42)"], "131112\nf,g,a,X,X,42\n"),
    (["skeleton-decode", "786632", "--atoms", "f,a,g,X,Y,g,Y,X"], "f(a,g(X,Y),g(Y,X))\n"),
    (["skeleton-decode", "131112", "--atoms", "f,g,a,X,X,42"], "f(g(a,X),X,42)\n"),
    (["inj-encode", "f(a,g(X,Y),g(Y,X))"], "131364115\nf,a,g,X,Y,g,Y,X\n"),
    (["inj-decode", "131364115", "--atoms", "f,a,g,X,Y,g,Y,X"], "f(a,g(X,Y),g(Y,X))\n"),
    (["pars", "2012"], "((((())))(((())))(()()))\n"),
    (["pars", "0"], "()\n"),
    (["unpars", "((((())))(((())))(()()))"], "2012\n"),
    (["listnat", "7,7,2"], "2012\n"),
    (["listnat", ""], "0\n"),
    (["natlist", "2012"], "7,7,2\n"),
    (["natlist", "0"], "\n"),
    (["tuple", "-k", "3", "42"], "2,1,2\n"),
    (["untuple", "2,1,2"], "42\n"),
    (["bbase", "-b", "7", "2012"], "2,6,4,4\n"),
    (["unbbase", "-b", "7", "2,6,4,4"], "2012\n"),
    (["atom-encode", "hello"], "7073802\n"),
    (["atom-decode", "2012"], "jyb\n"),
    (["random-term", "--sig", "SIGFILE", "--bits", "48", "--seed", "7", "--count", "4"],
     "g(g(f(g(f(g(f(f(Y,f(X,X)),Y)),f(f(a,a),g(f(Y,X))))),g(g(f(g(g(g(g(f(g(X),X))))),g(g(f(Y,f(Y,X))))))))))\n"
     "f(g(g(g(f(f(g(g(a)),g(Y)),f(a,Y))))),f(g(f(g(a),f(f(X,X),X))),g(f(g(g(Y)),g(f(X,X))))))\n"
     "g(g(f(f(g(g(g(g(g(X))))),g(g(g(f(X,f(X,Y)))))),f(f(f(a,a),f(a,X)),f(f(Y,Y),X)))))\n"
     "f(g(g(g(f(g(f(f(f(X,X),X),f(Y,X))),g(g(g(g(f(f(X,X),f(X,X)))))))))),g(f(g(f(g(f(Y,Y)),f(X,X))),g(g(g(f(Y,f(X,Y))))))))\n"),
    (["random-term", "--sig", "SIGFILE", "--bits", "48", "--seed", "8", "--count", "4"],
     "f(g(g(g(f(f(f(X,Y),f(f(X,X),X)),g(g(g(f(g(Y),Y)))))))),g(f(g(f(f(X,f(X,X)),f(a,Y))),g(g(g(f(Y,f(X,Y))))))))\n"
     "f(g(g(g(g(g(f(g(g(f(X,g(X)))),g(f(X,f(X,X))))))))),f(f(Y,g(f(Y,X))),f(g(X),f(X,f(X,X)))))\n"
     "f(f(g(Y),g(g(g(g(f(f(X,X),f(Y,X))))))),f(f(f(X,a),g(f(a,X))),g(g(f(X,g(X))))))\n"
     "g(f(g(f(f(f(a,Y),a),g(g(f(f(Y,X),g(Y)))))),g(g(g(f(f(f(Y,X),g(a)),f(g(a),f(X,Y))))))))\n"),
    (["roundtrip", "--sig", "SIGFILE", "--max", "0"], "ok 1 checked\n"),
    (["roundtrip", "--sig", "SIGFILE", "--max", "500"], "ok 501 checked\n"),
    (["stats", "--sig", "SIGFILE", "--bits", "64", "--seed", "1", "--count", "5"],
     "bits=64 chars=137 skeleton=232 ratio=0.4672\n"
     "bits=64 chars=140 skeleton=238 ratio=0.4571\n"
     "bits=61 chars=114 skeleton=194 ratio=0.5351\n"
     "bits=61 chars=142 skeleton=246 ratio=0.4296\n"
     "bits=64 chars=118 skeleton=204 ratio=0.5424\n"
     "ratio min=0.4296 max=0.5424 mean=0.4863\n"),
]


@pytest.mark.parametrize("argv,stdout", OUTPUTS, ids=[" ".join(argv) for argv, _ in OUTPUTS])
def test_subcommand_output(capsys, sig_file, argv, stdout):
    argv = [sig_file if a == "SIGFILE" else a for a in argv]
    assert run(capsys, *argv) == (0, stdout, "")


def test_readme_examples(capsys, monkeypatch, tmp_path):
    """Each `$ termcodec ...` line of README, run from a directory whose
    sig.txt is README's signature block, prints the lines under it (up to a
    blank or `$` line); the quick start's commented values hold too."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sig_block = re.search(r"^```\n(# tiny example signature.*?)^```", readme, re.S | re.M)[1]
    (tmp_path / "sig.txt").write_text(sig_block)
    monkeypatch.chdir(tmp_path)
    transcripts = re.findall(r"^\$ termcodec (.*)\n((?:(?!\$ |```).+\n)*)", readme, re.M)
    assert len(transcripts) == 12
    for command, stdout in transcripts:
        assert run(capsys, *shlex.split(command)) == (0, stdout, ""), command
    quick_start = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M)[1]
    namespace = {}
    exec(quick_start, namespace)
    commented = re.findall(r"^(.*?)\s+# (\d+)\b", quick_start, re.M)
    assert [int(value) for _, value in commented] == [17439, 53, 7073802]
    assert [eval(code.split(" = ")[-1], namespace) for code, _ in commented] == [17439, 53, 7073802]


def test_output_table_runs_every_subcommand_in_order():
    assert list(dict.fromkeys(argv[0] for argv, _ in OUTPUTS)) == [row[0] for row in cli._SUBCOMMANDS]


def test_signature_file_with_a_byte_order_mark(capsys, tmp_path):
    plain = tmp_path / "plain.sig"
    plain.write_bytes(Path(BOM_SIG).read_bytes().removeprefix(b"\xef\xbb\xbf"))
    assert run(capsys, "decode-term", "--sig", BOM_SIG, "3") == (0, "f(a,X)\n", "")
    assert run(capsys, "decode-term", "--sig", BOM_SIG, "2012") == run(
        capsys, "decode-term", "--sig", str(plain), "2012"
    )


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


def test_roundtrip_mismatch_is_one_error_line(capsys, monkeypatch, sig_file):
    encode = cli.term2nat
    monkeypatch.setattr(cli, "term2nat", lambda sig, t: encode(sig, t) + 1)
    code, out, err = run(capsys, "roundtrip", "--sig", sig_file, "--max", "3")
    assert (code, out) == (1, "")
    assert err == "error: roundtrip: mismatch at 0: decoded X, re-encoded 1\n"


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["decode-term", "--sig", "no_such.sig", "5"], "no_such.sig"),
        (["decode-term", "--sig", NOT_UTF8_SIG, "3"], "invalid UTF-8 at byte offset 7"),
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
    # 3.13's argparse keeps the trailing ... on the line of the choices
    dots = indent + "...\n" if sys.version_info < (3, 13) else " ...\n"
    assert capsys.readouterr().out.startswith(
        "usage: termcodec [-h]" + indent + "{" + ",".join(USAGES) + "}" + dots
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
