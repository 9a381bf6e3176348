import importlib.util
import random
from pathlib import Path

import pytest

from termcodec import Signature, ranterm


# The one plain reference per codec, written from the paper's definitions;
# it keeps terms as canonical text and signatures as (vars, consts, funs).
_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py"
)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

# the three signatures used across the worked examples
SIG_FG_A = Signature(("X", "Y"), ("a",), (("f", 2), ("g", 1)))
SIG_FG_AB = Signature(("X", "Y"), ("a", "b"), (("f", 2), ("g", 1)))
SIG_IMP = Signature(("A", "B"), ("z",), (("imp", 2),))


@pytest.fixture
def sig_fg_a() -> Signature:
    return SIG_FG_A


@pytest.fixture
def sig_fg_ab() -> Signature:
    return SIG_FG_AB


@pytest.fixture
def sig_imp() -> Signature:
    return SIG_IMP


def random_terms(sig: Signature, count: int, seed: int, max_bits: int = 120):
    """Terms decoded from uniform codes of varying bitsize; deterministic."""
    rng = random.Random(seed)
    for _ in range(count):
        yield ranterm(sig, rng.randint(1, max_bits), rng)
