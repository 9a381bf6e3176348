"""The benchmark's workloads: inputs made from a seed, and timed operations.

Each operation is one encode (text in, code out) or one decode (code in,
text out). A round is one pass over a fixed list of input sizes with fresh
random content, in shuffled order; a run repeats whole rounds. Inputs are
held as int or str, which the cyclic GC does not traverse, so the harness's
own heap does not change the program's GC pauses.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys
import time

import reference

SIG_TEXT = "vars: X Y\nconsts: a b\nfuns: f/2 g/1\n"
SIG = (("X", "Y"), ("a", "b"), (("f", 2), ("g", 1)))

_NODE = re.compile(r"[A-Za-z0-9_]+")

# Linux caps one argv entry at 128 KiB including its terminating NUL.
ARG_MAX_STRLEN = 128 * 1024 - 1


def count_nodes(text: str) -> int:
    """Term nodes in printed text: one per variable, constant or functor."""
    return len(_NODE.findall(text))


def skeleton_symbols(text: str) -> int:
    """Length of the term's balanced skeleton: 4 per compound plus 2 per
    argument, or 2 for a lone leaf."""
    compounds = text.count("(")
    return 4 * compounds + 2 * (count_nodes(text) - 1) if compounds else 2


def log_grid(lo: float, hi: float, n: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


# Input sizes per round. Latencies cluster by size, so a percentile p is
# steady only if p * GRID falls inside a cluster, away from its edges: with
# 15 sizes the median (7.5), p75 (11.25), p90 (13.5) and p95 (14.25) all do.
GRID = 15


def child_env(src) -> dict:
    """The fixed environment of every child interpreter: the sources on the
    path, bytecode caching on, no user site-packages, one hash seed."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": str(src),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }


class Direction:
    """Latencies and node totals of one direction (decode or encode)."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.nodes = 0

    def add(self, seconds: float, nodes: int) -> None:
        self.seconds.append(seconds)
        self.nodes += nodes


class Record:
    """Everything the operations of one pass record and check."""

    def __init__(self) -> None:
        self.decode = Direction()
        self.encode = Direction()
        self.code_bits = 0
        self.chars = 0
        self.skeleton_symbols = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failed checks: correct is false
        self.failures: list[str] = []  # operations that did not complete
        self.sample: list = []  # outputs on small inputs, for the references

    def op_seconds(self) -> float:
        return sum(self.decode.seconds) + sum(self.encode.seconds)

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


def _timed(tracer, label, fn, arg):
    """fn(arg), its wall time, and the root span index (None untraced).

    A full collection first gives every operation the same collector state,
    so the pauses inside it depend on its own allocations only.
    """
    clock = time.perf_counter
    gc.collect()
    if tracer is None:
        t0 = clock()
        out = fn(arg)
        return out, clock() - t0, None
    i = tracer.open(label)
    try:
        t0 = clock()
        out = fn(arg)
        return out, clock() - t0, i
    finally:
        tracer.close(i)


def _sized(tracer, i, text: str) -> int:
    nodes = count_nodes(text)
    if tracer is not None:
        tracer.sizes[i] = (nodes, len(text))
    return nodes


def _term_nodes(term, compound) -> int:
    count = 0
    work = [term]
    while work:
        x = work.pop()
        count += 1
        if isinstance(x, compound):
            work.extend(x.args)
    return count


class Godel:
    """Library round trips under the signature X Y / a b / f/2 g/1.

    Decode is nat2term + print_term; encode is parse_term + term2nat on the
    decoded text. Codes have exactly the bit lengths of a 15-point log grid
    from 10^3 to 10^5 bits, where time per node grows with size.
    """

    name = "godel"
    sizes = log_grid(1_000, 100_000, GRID)
    min_rounds = 7
    trace_rounds = 3
    tail = 90
    sample_bits = 2_000
    setup = (
        "from termcodec.godel import nat2term, term2nat\n"
        "from termcodec.terms import load_signature, parse_term, print_term\n"
        "t1 = time.perf_counter()\n"
        "load_signature(SIG)\n"
    )

    def __init__(self, tc, sig_path, seed: int) -> None:
        self.tc = tc
        self.seed = seed
        self.sig = tc.terms.Signature(*SIG)

    def inputs(self, r: int) -> list[int]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        codes = [rng.getrandbits(b - 1) | 1 << (b - 1) for b in self.sizes]
        rng.shuffle(codes)
        return codes

    def _decode(self, code):
        return self.tc.terms.print_term(self.tc.godel.nat2term(self.sig, code))

    def _encode(self, text):
        return self.tc.godel.term2nat(self.sig, self.tc.terms.parse_term(text))

    def pair(self, code: int, rec: Record, tracer, sample: bool) -> None:
        rec.attempted += 2
        try:
            text, dt, i = _timed(tracer, "op.decode", self._decode, code)
        except Exception as exc:  # an operation that raises counts as failed
            rec.fail(2, f"decode of a {code.bit_length()}-bit code raised {exc!r}")
            return
        nodes = _sized(tracer, i, text)
        rec.decode.add(dt, nodes)
        try:
            back, dt, i = _timed(tracer, "op.encode", self._encode, text)
        except Exception as exc:
            rec.fail(1, f"encode of a {len(text)}-char term raised {exc!r}")
            return
        _sized(tracer, i, text)
        rec.encode.add(dt, nodes)
        rec.check(back == code, f"encode(decode(c)) != c for a {code.bit_length()}-bit code")
        rec.code_bits += code.bit_length()
        rec.chars += len(text)
        if sample:
            rec.sample.append((code, text))

    def differential(self, rec: Record) -> list[str]:
        """Node counts of the terms behind round 0's texts, decoded and
        parsed again untimed, then the references on its smaller codes."""
        compound = self.tc.terms.Compound
        errors = []
        for code, text in rec.sample:
            nodes = count_nodes(text)
            if _term_nodes(self.tc.godel.nat2term(self.sig, code), compound) != nodes:
                errors.append(f"a {code.bit_length()}-bit code decodes to a term of other than {nodes} nodes")
            if _term_nodes(self.tc.terms.parse_term(text), compound) != nodes:
                errors.append(f"a {len(text)}-char text parses to a term of other than {nodes} nodes")
        small = [(c, t) for c, t in rec.sample if c.bit_length() <= self.sample_bits]
        return errors + reference.godel_differential(self.tc, SIG, small)


# Leaves and functors of the skeleton workload's terms.
LEAVES = ("X", "Y", "Z", "a", "b", "c", "0", "7", "42")
FUNCTORS = ("f", "g", "h")


def skeleton_term(rng: random.Random, size: int) -> str:
    """Text of a term of about size nodes with arities 2 to 4.

    Arity cycles 2, 3, 4 with depth, and the nodes below a compound are
    split among its arguments near evenly, each share moved by up to a
    fifth, so depth grows with log(size) and there are no unary chains. A
    share below 3 becomes a leaf. Leaves and functors are drawn at random.
    Keeping the shape this regular keeps the code size of a term of a given
    size within a few percent, where free random arities spread it by half.
    """
    out: list[str] = []
    work: list[tuple[int, int] | str] = [(size, 0)]
    while work:
        x = work.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        n, depth = x
        if n < 3:
            out.append(rng.choice(LEAVES))
            continue
        k = min(2 + depth % 3, n - 1)
        rest = n - 1
        parts = [rest // k + (j < rest % k) for j in range(k)]
        for _ in range(k):
            a, b = rng.randrange(k), rng.randrange(k)
            d = rng.randint(0, parts[a] // 5)
            parts[a] -= d
            parts[b] += d
        items: list[tuple[int, int] | str] = [rng.choice(FUNCTORS) + "("]
        for j, p in enumerate(parts):
            if j:
                items.append(",")
            items.append((p, depth + 1))
        items.append(")")
        work.extend(reversed(items))
    return "".join(out)


class Skeleton:
    """The signature-free structure/content codecs on generated terms.

    Encode is parse_term + term2code + term2inj_code; decode is code2term +
    inj_code2term + print_term of both. Term sizes follow a 15-point log
    grid from 100 to 5000 nodes.
    """

    name = "skeleton"
    sizes = log_grid(100, 5_000, GRID)
    min_rounds = 14
    trace_rounds = 8
    tail = 95
    sample_nodes = 300
    setup = (
        "from termcodec.skeleton import code2term, inj_code2term, term2code, term2inj_code\n"
        "from termcodec.terms import parse_term, print_term\n"
        "t1 = time.perf_counter()\n"
    )

    def __init__(self, tc, sig_path, seed: int) -> None:
        self.tc = tc
        self.seed = seed

    def inputs(self, r: int) -> list[str]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        texts = [skeleton_term(rng, n) for n in self.sizes]
        rng.shuffle(texts)
        return texts

    def _encode(self, text):
        S = self.tc.skeleton
        term = self.tc.terms.parse_term(text)
        code, atoms = S.term2code(term)
        inj_code, inj_atoms = S.term2inj_code(term)
        return code, atoms, inj_code, inj_atoms

    def _decode(self, codes):
        S, T = self.tc.skeleton, self.tc.terms
        code, inj_code, atoms = codes
        return T.print_term(S.code2term(code, atoms)), T.print_term(S.inj_code2term(inj_code, atoms))

    def pair(self, text: str, rec: Record, tracer, sample: bool) -> None:
        rec.attempted += 2
        try:
            (code, atoms, inj_code, inj_atoms), dt, i = _timed(tracer, "op.encode", self._encode, text)
        except Exception as exc:  # an operation that raises counts as failed
            rec.fail(2, f"encode of a {len(text)}-char term raised {exc!r}")
            return
        nodes = _sized(tracer, i, text)
        rec.encode.add(dt, nodes)
        rec.check(len(atoms) == nodes, "the atom list and the text differ in nodes")
        rec.check(inj_atoms == atoms, "term2code and term2inj_code give different atoms")
        try:
            (back, inj_back), dt, i = _timed(tracer, "op.decode", self._decode, (code, inj_code, atoms))
        except Exception as exc:
            rec.fail(1, f"decode of a {code.bit_length()}-bit code raised {exc!r}")
            return
        _sized(tracer, i, text)
        rec.decode.add(dt, nodes)
        rec.check(back == text, "code2term(term2code(t)) does not re-print to t")
        rec.check(inj_back == text, "inj_code2term(term2inj_code(t)) does not re-print to t")
        rec.code_bits += code.bit_length()
        rec.chars += len(text)
        rec.skeleton_symbols += skeleton_symbols(text)
        if sample and nodes <= self.sample_nodes:
            rec.sample.append((text, code, inj_code))

    def differential(self, rec: Record) -> list[str]:
        return reference.skeleton_differential(self.tc, rec.sample)


class Cli:
    """One termcodec process per operation: decode-term, then encode-term of
    its output, with a signature file; one child at a time.

    Codes have the bit lengths of a 15-point log grid from 10^2 to 6*10^4
    bits; the printed decode of the largest is about 113k characters, below
    the 128 KiB limit of one argv entry.
    """

    name = "cli"
    sizes = log_grid(100, 60_000, GRID)
    min_rounds = 3
    trace_rounds = 3
    tail = 75
    sample_bits = 2_000
    setup = (
        "import termcodec.cli\n"
        "t1 = time.perf_counter()\n"
        "termcodec.cli.load_signature(SIG)\n"
    )

    def __init__(self, tc, sig_path, seed: int) -> None:
        self.tc = tc
        self.seed = seed
        self.sig = tc.terms.Signature(*SIG)
        self.sig_path = str(sig_path)
        self.env = child_env(tc.src)

    inputs = Godel.inputs

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "termcodec", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            check=False,
        )

    def pair(self, code: int, rec: Record, tracer, sample: bool) -> None:
        rec.attempted += 2
        digits = str(code)
        clock = time.perf_counter
        t0 = clock()
        proc = self._run(["decode-term", "--sig", self.sig_path, digits])
        dt = clock() - t0
        if proc.returncode != 0:
            rec.fail(2, f"decode-term exited with {proc.returncode}: {proc.stderr[:200]!r}")
            return
        rec.check(proc.stderr == "", f"decode-term wrote to stderr: {proc.stderr[:200]!r}")
        text = proc.stdout.rstrip("\n")
        nodes = count_nodes(text)
        rec.decode.add(dt, nodes)
        if len(text) > ARG_MAX_STRLEN:  # exec would fail with E2BIG
            rec.fail(1, f"a {len(text)}-char decoded term does not fit one argv entry")
            return
        t0 = clock()
        proc = self._run(["encode-term", "--sig", self.sig_path, text])
        dt = clock() - t0
        if proc.returncode != 0:
            rec.fail(1, f"encode-term exited with {proc.returncode}: {proc.stderr[:200]!r}")
            return
        rec.check(proc.stderr == "", f"encode-term wrote to stderr: {proc.stderr[:200]!r}")
        rec.encode.add(dt, nodes)
        rec.check(proc.stdout.strip() == digits, "encode-term(decode-term(c)) != c")
        rec.code_bits += code.bit_length()
        rec.chars += len(text)
        if sample:
            rec.sample.append((code, text))

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.tc.cli.main(argv)
        return status, out.getvalue(), err.getvalue()

    def inproc_pair(self, code: int, rec: Record, tracer, sample: bool) -> None:
        """The same operations through an in-process cli.main."""
        rec.attempted += 2
        digits = str(code)
        argv = ["decode-term", "--sig", self.sig_path, digits]
        try:
            (status, out, err), dt, i = _timed(tracer, "op.decode", self._main, argv)
        except (Exception, SystemExit) as exc:  # argparse exits through SystemExit
            rec.fail(2, f"cli.main decode-term of a {code.bit_length()}-bit code raised {exc!r}")
            return
        rec.check(status == 0 and err == "", f"cli.main decode-term gave {status} {err!r}")
        text = out.rstrip("\n")
        nodes = _sized(tracer, i, text)
        rec.decode.add(dt, nodes)
        argv = ["encode-term", "--sig", self.sig_path, text]
        try:
            (status, out, err), dt, i = _timed(tracer, "op.encode", self._main, argv)
        except (Exception, SystemExit) as exc:
            rec.fail(1, f"cli.main encode-term of a {len(text)}-char term raised {exc!r}")
            return
        rec.check(status == 0 and err == "", f"cli.main encode-term gave {status} {err!r}")
        _sized(tracer, i, text)
        rec.encode.add(dt, nodes)
        rec.check(out.strip() == digits, "cli.main encode-term(decode-term(c)) != c")
        rec.code_bits += code.bit_length()
        rec.chars += len(text)
        if sample:
            rec.sample.append((code, text))

    differential = Godel.differential


WORKLOADS = {w.name: w for w in (Godel, Skeleton, Cli)}
