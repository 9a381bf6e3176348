"""termcodec benchmark: one workload per process, end to end or layer by layer.

    python3 bench/run.py --workload godel|skeleton|cli [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout of the repository; it imports the
sources under src/ and nothing installed. With --trace 0 it times whole
rounds of operations for at least --seconds and reports the end-to-end
metrics. With --trace 1 it times a fixed number of rounds untraced, then
the same rounds with every public termcodec function wrapped in spans, and
reports the per-layer metrics; the fixed number makes their totals
comparable between commits, and --seconds does not apply. Every run
checks its outputs (see README.md). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a summary
goes to standard error, and result and trace files to .bench_out/ at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import reference
import workloads
from spans import Tracer, scaling_exponent

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("natbits", "tuples", "bbase", "terms", "godel", "skeleton", "cli")
SETUP_CHILDREN = 11
PROBE_CHILDREN = 5
SIZERS = {
    "bbase.from_bbase": lambda args, result: len(args[1]),
    "bbase.to_bbase": lambda args, result: len(result),
}


def load_program():
    """Import termcodec from SRC; refuse any other copy."""
    if not (SRC / "termcodec" / "__init__.py").is_file():
        raise SystemExit(f"error: no termcodec sources under {SRC}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("termcodec")
    if Path(package.__file__).resolve().parent != SRC / "termcodec":
        raise SystemExit(f"error: imported termcodec from {package.__file__}, not {SRC}")
    tc = SimpleNamespace(src=SRC, package=package)
    for name in MODULES:
        setattr(tc, name, importlib.import_module(f"termcodec.{name}"))
    return tc


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def child_setup(setup: str, sig_path, env, count: int) -> list[tuple[float, float]]:
    """(import seconds, signature seconds) in count fresh interpreters,
    after one untimed interpreter that fills the bytecode cache."""
    script = (
        f"import time\nSIG = {str(sig_path)!r}\nt0 = time.perf_counter()\n"
        f"{setup}t2 = time.perf_counter()\nprint(t1 - t0, t2 - t1)\n"
    )
    times = []
    for _ in range(count + 1):
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        a, b = proc.stdout.split()
        times.append((float(a), float(b)))
    return times[1:]


def run_rounds(wl, pair, rec, tracer, min_rounds: int, seconds: float = 0.0) -> int:
    """Whole rounds, at least min_rounds and until seconds have passed.
    Round 0 feeds the reference sample."""
    deadline = time.perf_counter() + seconds
    r = 0
    while r < min_rounds or time.perf_counter() < deadline:
        for x in wl.inputs(r):
            pair(x, rec, tracer, r == 0)
        r += 1
    return r


def end_to_end(wl, tc, sig_path, seconds: float):
    env = workloads.child_env(SRC)
    setup = child_setup(wl.setup, sig_path, env, SETUP_CHILDREN)
    rec = workloads.Record()
    rec.errors += reference.worked_values(tc)
    rounds = run_rounds(wl, wl.pair, rec, None, wl.min_rounds, seconds)
    rec.errors += wl.differential(rec)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {"setup_s": (statistics.median(a + b for a, b in setup), "s")}
    for name, d in (("decode", rec.decode), ("encode", rec.encode)):
        metrics[f"{name}_nodes_per_s"] = (d.nodes / sum(d.seconds), "nodes/s")
        metrics[f"{name}_ms_p50"] = (1e3 * percentile(d.seconds, 50), "ms")
        metrics[f"{name}_ms_tail"] = (1e3 * percentile(d.seconds, wl.tail), "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    metrics["code_bits_per_char"] = (rec.code_bits / rec.chars, "bit/char")
    n = len(rec.decode.seconds)
    note = f"{rounds} rounds, {n} samples per direction, tail = p{wl.tail} ({n - math.ceil(wl.tail / 100 * n)} beyond)"
    return rec, metrics, note


def cli_probe(tc, sig_path, seed: int):
    """The CLI's fixed costs and its in-process and decimal I/O times, on
    round 0 of the cli workload's inputs for this seed."""
    cli = workloads.Cli(tc, sig_path, seed)
    bare = []
    for _ in range(PROBE_CHILDREN):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=cli.env, check=True)
        bare.append(time.perf_counter() - t0)
    setup = child_setup(cli.setup, sig_path, cli.env, PROBE_CHILDREN)
    rec = workloads.Record()
    codes = cli.inputs(0)
    for code in codes:
        cli.inproc_pair(code, rec, None, False)
    out_s = in_s = 0.0
    for code in codes:
        t0 = time.perf_counter()
        digits = str(code)
        t1 = time.perf_counter()
        back = int(digits)
        in_s += time.perf_counter() - t1
        out_s += t1 - t0
        rec.check(back == code, "int(str(c)) != c")
    metrics = {
        "cli.interpreter_ms": (1e3 * statistics.median(bare), "ms"),
        "cli.import_ms": (1e3 * statistics.median(a for a, _ in setup), "ms"),
        "cli.load_signature_ms": (1e3 * statistics.median(b for _, b in setup), "ms"),
        "cli.main_ms": (1e3 * statistics.median(rec.decode.seconds + rec.encode.seconds), "ms"),
        "cli.decimal_in_ms": (1e3 * in_s / len(codes), "ms"),
        "cli.decimal_out_ms": (1e3 * out_s / len(codes), "ms"),
    }
    return rec, metrics


def per_layer(wl, tc, sig_path, seed: int):
    probe, metrics = cli_probe(tc, sig_path, seed)
    pair = wl.inproc_pair if wl.name == "cli" else wl.pair
    rounds = wl.trace_rounds
    untraced = workloads.Record()
    run_rounds(wl, pair, untraced, None, rounds)

    tracer = Tracer()
    rec = workloads.Record()
    tracer.install([tc.package] + [getattr(tc, m) for m in MODULES], SIZERS)
    try:
        i = tracer.open("check.worked_values")
        rec.errors += reference.worked_values(tc)
        tracer.close(i)
        run_rounds(wl, pair, rec, tracer, rounds)
    finally:
        tracer.uninstall()
    rec.errors += wl.differential(rec)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.bin")

    s = tracer.summary()
    calls, self_s, incl = s["calls"], s["self_s"], s["incl_s"]

    def rate(name, per, scale=1e6):
        return scale * incl.get(name, 0.0) / per[name] if per.get(name) else 0.0

    ops = [name for name in s["root_s"] if name.startswith("op.")]
    busy = sum(s["root_s"][name] for name in ops)
    harness = sum(s["root_self_s"][name] for name in ops)
    metrics.update({
        "gc.pause_s": (incl.get("gc", 0.0), "s"),
        "gc.gen2_collections": (tracer.gen2, "count"),
        "terms.parse_term.self_s": (self_s.get("terms.parse_term", 0.0), "s"),
        "terms.parse_term.us_per_char": (rate("terms.parse_term", s["chars"]), "us/char"),
        "terms.print_term.self_s": (self_s.get("terms.print_term", 0.0), "s"),
        "godel.nat2term.self_s": (self_s.get("godel.nat2term", 0.0), "s"),
        "godel.nat2term.us_per_node": (rate("godel.nat2term", s["nodes"]), "us/node"),
        "godel.decode.scaling_exp": (scaling_exponent(s["points"].get("godel.nat2term", [])), "1"),
        "godel.term2nat.self_s": (self_s.get("godel.term2nat", 0.0), "s"),
        "godel.term2nat.us_per_node": (rate("godel.term2nat", s["nodes"]), "us/node"),
    })
    for name in ("tuples.to_tuple", "tuples.from_tuple"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics.update({
        "natbits.cons.calls": (calls.get("natbits.cons", 0), "count"),
        "natbits.decons.calls": (calls.get("natbits.decons", 0), "count"),
        "natbits.self_s": (sum(t for n, t in self_s.items() if n.startswith("natbits.")), "s"),
        "bbase.from_bbase.self_s": (self_s.get("bbase.from_bbase", 0.0), "s"),
        "bbase.to_bbase.self_s": (self_s.get("bbase.to_bbase", 0.0), "s"),
        "bbase.digits": (sum(v for n, v in tracer.work.items() if n.startswith("bbase.")), "count"),
    })
    for name in ("term2bitpars", "pars2nat", "bitpars2term", "nat2pars"):
        metrics[f"skeleton.{name}.self_s"] = (self_s.get(f"skeleton.{name}", 0.0), "s")
    for name in ("nats2nat", "nat2nats"):
        metrics[f"skeleton.{name}.calls"] = (calls.get(f"skeleton.{name}", 0), "count")
    metrics["skeleton.code_bits_per_symbol"] = (
        rec.code_bits / rec.skeleton_symbols if rec.skeleton_symbols else 0.0,
        "bit/symbol",
    )
    metrics.update({
        "trace.overhead_ratio": (rec.op_seconds() / untraced.op_seconds(), "ratio"),
        "trace.busy_s": (busy, "s"),
        "trace.layer_share": (1 - harness / busy, "ratio"),
    })
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:12]
    table = "\n".join(
        f"  {name:28s} {calls[name]:9d} calls {t:9.4f} s self {100 * t / busy:5.1f}%"
        for name, t in top
    )
    note = f"{rounds} rounds traced; self time by layer:\n{table}"
    rec.errors += untraced.errors + probe.errors
    rec.failures += untraced.failures + probe.failures
    rec.attempted += untraced.attempted + probe.attempted
    rec.failed += untraced.failed + probe.failed
    return rec, metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tc = load_program()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    OUT.mkdir(exist_ok=True)
    sig_path = OUT / "sig.txt"
    sig_path.write_text(workloads.SIG_TEXT)
    wl = workloads.WORKLOADS[args.workload](tc, sig_path, args.seed)
    if args.trace:
        rec, metrics, note = per_layer(wl, tc, sig_path, args.seed)
    else:
        rec, metrics, note = end_to_end(wl, tc, sig_path, args.seconds)
    result = {
        "correct": not rec.errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    for message in rec.failures:
        print(f"  OPERATION FAILED: {message}", file=sys.stderr)
    for message in rec.errors:
        print(f"  CHECK FAILED: {message}", file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
