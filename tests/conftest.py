import importlib.util
import random
import subprocess
import sys
from pathlib import Path

from termcodec import Compound, Signature, nat2term


# The one plain reference per codec, written from the paper's definitions;
# it keeps terms as canonical text and signatures as (vars, consts, funs).
_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py"
)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

# the three signatures used across the worked examples, and one with a ternary functor too
SIG_FG_A = Signature(("X", "Y"), ("a",), (("f", 2), ("g", 1)))
SIG_FG_AB = Signature(("X", "Y"), ("a", "b"), (("f", 2), ("g", 1)))
SIG_IMP = Signature(("A", "B"), ("z",), (("imp", 2),))
SIG_H3 = Signature(("X",), ("a",), (("h", 3), ("g", 1), ("f", 2)))
NOT_UTF8_SIG = str(Path(__file__).with_name("not_utf8.sig"))  # "vars: X", then the byte 0xff
BOM_SIG = str(Path(__file__).with_name("bom.sig"))  # a byte-order mark, then X / a / f/2


def plain(sig):
    """sig as the reference takes it: a (vars, consts, funs) triple."""
    return sig.vars, sig.consts, sig.funs


def random_codes(seed: int, count: int, max_bits: int = 4096) -> list[int]:
    """Uniform codes of uniformly drawn bitsize in [1, max_bits]; deterministic."""
    rng = random.Random(seed)
    return [rng.getrandbits(rng.randint(1, max_bits)) for _ in range(count)]


def random_terms(sig: Signature, count: int, seed: int, max_bits: int = 120):
    """The terms that random_codes decode to under sig."""
    return (nat2term(sig, n) for n in random_codes(seed, count, max_bits))


def subterms(t):
    """Every node of t, once per occurrence, in preorder from the left; a
    work list, not recursion, so any depth will do."""
    work = [t]
    while work:
        node = work.pop()
        yield node
        if isinstance(node, Compound):
            work += reversed(node.args)


def loaded_by_import(module: str, names) -> list[str]:
    """Which of names a fresh interpreter without site has loaded once it
    imports module from src: a footprint counted in modules, not seconds."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"import {module}\n"
        f"for name in {tuple(names)!r}:\n"
        "    if name in sys.modules:\n"
        "        print(name)\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    return run.stdout.split()
