"""Span tracing of termcodec from outside the program.

Tracer.install replaces every public function that a termcodec module
defines or imports with a wrapper that records one span (name, start, end,
parent) per call, so a call made through another module's import, such as
godel.to_tuple, is traced under the name of the module that defines it
(tuples.to_tuple). Garbage-collector pauses become "gc" spans through
gc.callbacks. The benchmark opens one root span around each operation or
check it makes, and gives each operation's span the term nodes and printed
characters it handles.

Spans are kept in flat arrays, which the cyclic GC does not traverse, so the
tracer does not change the program's GC pauses by more than the calls it
adds. A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import time
import types
from array import array

GC = "gc"


def span_name(fn) -> str:
    """Defining module without the package, then the function: tuples.to_tuple."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.roots: list[int] = []
        self.sizes: dict[int, tuple[int, int]] = {}  # root span -> (nodes, chars)
        self.work: dict[str, int] = {}  # name -> items counted by a sizer
        self.gen2 = 0
        self._gc_span: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _push(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _pop(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def open(self, name: str) -> int:
        """Open a root span; pass its index to close."""
        i = self._push(self._id(name))
        self.roots.append(i)
        return i

    def close(self, i: int) -> None:
        self._pop(i)

    def _wrap(self, fn, sizer=None):
        nid = self._id(span_name(fn))
        push, pop, work, name = self._push, self._pop, self.work, self.names[nid]

        if sizer is None:
            def traced(*args, **kwargs):
                i = push(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    pop(i)
        else:
            def traced(*args, **kwargs):
                i = push(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    pop(i)
                work[name] = work.get(name, 0) + sizer(args, result)
                return result

        return functools.update_wrapper(traced, fn)

    def install(self, modules, sizers=None) -> None:
        """Wrap the public functions of modules; sizers maps a span name to
        sizer(args, result), whose values add up under that name in work."""
        sizers = sizers or {}
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if not fn.__module__.startswith("termcodec"):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, sizers.get(span_name(fn)))
                self._undo.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        """Time collections that interrupt a root span; the benchmark's own
        collections between operations are not the program's pauses."""
        if phase == "start":
            self._gc_span = self._push(self._id(GC)) if len(self.stack) > 1 else None
            if self._gc_span is not None and info["generation"] == 2:
                self.gen2 += 1
        elif self._gc_span is not None:
            self._pop(self._gc_span)
            self._gc_span = None

    def summary(self) -> dict:
        """Per-name calls, self and inclusive time, and term size handled.

        nodes[name] and chars[name] sum the sizes of the root spans in which
        name was called; points[name] lists (root nodes, inclusive time of
        name in that root) for fitting how time grows with size.
        """
        n = len(self.start)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        root = array("i", bytes(4 * n))
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                root[i] = i
            else:
                child[p] += dur[i]
                root[i] = root[p]
        k = len(self.names)
        calls, self_s, incl = [0] * k, [0.0] * k, [0.0] * k
        per_root: dict[tuple[int, int], float] = {}
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            incl[nid] += dur[i]
            key = (nid, root[i])
            per_root[key] = per_root.get(key, 0.0) + dur[i]
        nodes, chars = [0] * k, [0] * k
        points: dict[str, list[tuple[int, float]]] = {}
        for (nid, r), t in per_root.items():
            if r in self.sizes:
                x, c = self.sizes[r]
                nodes[nid] += x
                chars[nid] += c
                points.setdefault(self.names[nid], []).append((x, t))
        root_self: dict[str, float] = {}
        root_dur: dict[str, float] = {}
        for i in self.roots:
            name = self.names[self.name[i]]
            root_self[name] = root_self.get(name, 0.0) + dur[i] - child[i]
            root_dur[name] = root_dur.get(name, 0.0) + dur[i]
        return {
            "root_self_s": root_self,
            "root_s": root_dur,
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
            "incl_s": dict(zip(self.names, incl)),
            "nodes": dict(zip(self.names, nodes)),
            "chars": dict(zip(self.names, chars)),
            "points": points,
        }

    def write(self, path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name int32", "parent int32", "start float64 s", "end float64 s"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in (self.name, self.parent, self.start, self.end):
                a.tofile(fh)


def scaling_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(nodes)."""
    pts = [(math.log(x), math.log(t)) for x, t in points if x > 0 and t > 0]
    if len(pts) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
