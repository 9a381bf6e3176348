"""Gödel decode and encode time per node by code size, outside the workloads.

    python3 bench/bands.py

For each size from 10^3 to 10^6 bits it decodes REPEAT random codes of exactly
that many bits (nat2term + print_term), encodes the text back (parse_term +
term2nat), and prints the median microseconds per node of each direction.
The 10^6-bit band runs once: one decode takes seconds. These are the
reference figures in README.md; the benchmark's metrics do not use them.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time

from run import load_program
from workloads import SIG, count_nodes

SEED = 1
REPEAT = 5

def main() -> int:
    tc = load_program()
    sys.set_int_max_str_digits(0)
    sig = tc.terms.Signature(*SIG)
    rng = random.Random(f"bands:{SEED}")
    print("bits      nodes   decode us/node  encode us/node")
    for bits in (10**3, 10**4, 10**5, 10**6):
        rows = []
        for _ in range(1 if bits >= 10**6 else REPEAT):
            code = rng.getrandbits(bits - 1) | 1 << (bits - 1)
            gc.collect()
            t0 = time.perf_counter()
            text = tc.terms.print_term(tc.godel.nat2term(sig, code))
            t1 = time.perf_counter()
            gc.collect()
            t2 = time.perf_counter()
            back = tc.godel.term2nat(sig, tc.terms.parse_term(text))
            t3 = time.perf_counter()
            if back != code:
                raise SystemExit(f"error: a {bits}-bit code does not round-trip")
            nodes = count_nodes(text)
            rows.append((nodes, 1e6 * (t1 - t0) / nodes, 1e6 * (t3 - t2) / nodes))
        nodes = statistics.median(r[0] for r in rows)
        dec = statistics.median(r[1] for r in rows)
        enc = statistics.median(r[2] for r in rows)
        print(f"{bits:<9d} {nodes:<7.0f} {dec:14.2f}  {enc:14.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
