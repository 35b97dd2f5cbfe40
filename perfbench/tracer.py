"""Span tracer that wraps codlab's public functions from the outside.

Installing a Tracer replaces every public module-level function of the six
codlab modules with a timing wrapper, in every namespace that holds a
reference to it (the defining module, each module that imported the name,
and the ``codlab`` package).  A wrapper installed in namespace ``search``
around ``exactnum.factorial`` records spans named ``exactnum.factorial`` with
``via = "search"``, so calls can be attributed to the calling module.
Uninstalling puts back the original objects.  No library source changes.

Each span is (name, kind, start, end, parent).  Spans are appended to
per-thread buffers, each with its own span stack, because the sweep runs a
thread pool.  A generator function gets one ``iter`` span from its first
resume to exhaustion and one ``resume`` span per ``next``; only the resume
spans take part in nesting, so a generator's self time is the time spent
inside its own frames, not the consumer's work between yields.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("partitions", "alt_codegrees", "exactnum", "catalog", "search", "cli")

CALL, RESUME, ITER = 0, 1, 2


class _Buffer:
    """Spans of one thread, in flat arrays to keep millions of spans small."""

    __slots__ = ("name", "kind", "parent", "t0", "t1", "stack", "argsum", "argset",
                 "yields", "extra", "thread")

    def __init__(self, thread: str) -> None:
        self.name = array("i")
        self.kind = array("b")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        # Counters fed by argument and result hooks.  They live in the
        # buffer so that each is only ever touched by its own thread.
        self.argsum: dict[int, int] = defaultdict(int)
        self.argset: dict[int, set] = defaultdict(set)
        self.yields: dict[int, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self.thread = thread

    def open(self, nid: int, kind: int) -> int:
        i = len(self.t0)
        st = self.stack
        self.name.append(nid)
        self.kind.append(kind)
        self.parent.append(st[-1] if st else -1)
        self.t1.append(0.0)
        self.t0.append(perf_counter())
        return i


def _sum_arg(buf: _Buffer, nid: int, args: tuple) -> None:
    buf.argsum[nid] += args[0]


def _distinct_arg(buf: _Buffer, nid: int, args: tuple) -> None:
    buf.argset[nid].add(args[0])


def _sweep_result(buf: _Buffer, result) -> None:
    buf.extra["search.points"] += result.points_examined
    buf.extra["search.rows"] += len(result.rows)


def _sporadic_result(buf: _Buffer, result) -> None:
    buf.extra["search.rows"] += len(result)


def _empty_stats() -> dict:
    return {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "iter_s": 0.0, "yields": 0,
            "argsum": 0, "args": set()}


# Hooks that turn arguments or results into exact work counters.
ARG_HOOKS = {"exactnum.factorial": _sum_arg, "alt_codegrees.alt_irr_entries": _distinct_arg}
RESULT_HOOKS = {"search.sweep_family": _sweep_result, "search.sweep_sporadic": _sporadic_result}


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # nid -> (home name, via namespace)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @staticmethod
    def namespaces() -> list[tuple[str, object]]:
        out = [("codlab", importlib.import_module("codlab"))]
        out += [(layer, importlib.import_module(f"codlab.{layer}")) for layer in LAYERS]
        return out

    @staticmethod
    def public_functions() -> dict[int, tuple[str, object]]:
        """id(function) -> (home name, function) for every public function."""
        found = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"codlab.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[id(obj)] = (f"{layer}.{attr}", obj)
        return found

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self.public_functions()
        for via, ns in self.namespaces():
            for attr, obj in list(vars(ns).items()):
                hit = targets.get(id(obj))
                if hit is None or hit[1] is not obj:
                    continue
                home, func = hit
                nid = len(self.names)
                self.names.append((home, via))
                setattr(ns, attr, self._wrap(func, nid, home))
                self._saved.append((ns, attr, func))

    def uninstall(self) -> None:
        for ns, attr, func in reversed(self._saved):
            setattr(ns, attr, func)
        self._saved.clear()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _wrap(self, func, nid: int, home: str):
        get_buf = self._buffer
        on_args = ARG_HOOKS.get(home)
        on_result = RESULT_HOOKS.get(home)

        if inspect.isgeneratorfunction(func):
            def gen_wrapper(*args, **kwargs):
                it = func(*args, **kwargs)
                owner = get_buf()
                if on_args is not None:
                    on_args(owner, nid, args)
                whole = owner.open(nid, ITER)
                try:
                    while True:
                        buf = get_buf()  # the thread that resumes may differ
                        seg = buf.open(nid, RESUME)
                        buf.stack.append(seg)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            buf.t1[seg] = perf_counter()
                            buf.stack.pop()
                        buf.yields[nid] += 1
                        yield item
                finally:
                    it.close()
                    owner.t1[whole] = perf_counter()
            wrapper = gen_wrapper
        else:
            def call_wrapper(*args, **kwargs):
                buf = get_buf()
                if on_args is not None:
                    on_args(buf, nid, args)
                i = buf.open(nid, CALL)
                buf.stack.append(i)
                try:
                    result = func(*args, **kwargs)
                finally:
                    buf.t1[i] = perf_counter()
                    buf.stack.pop()
                if on_result is not None:
                    on_result(buf, result)
                return result
            wrapper = call_wrapper
        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        return wrapper

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(b.t0) for b in self._buffers)

    def summary(self) -> dict:
        """Aggregate spans per home name (all namespaces) and per namespace.

        Returns {"by_home": {home: stats}, "by_name": {(home, via): stats},
        "under": {(home, parent_home): inclusive seconds}, "extra": {...}}.
        stats holds calls, incl_s (busy time for generators), self_s,
        iter_s (whole-iteration wall for generators), yields, argsum and
        the distinct argument set.
        """
        by_name: dict[tuple[str, str], dict] = {}
        under: dict[tuple[str, str], float] = defaultdict(float)
        extra: dict[str, int] = defaultdict(int)

        def stats(nid: int) -> dict:
            key = self.names[nid]
            if key not in by_name:
                by_name[key] = _empty_stats()
            return by_name[key]

        homes = [home for home, _ in self.names]
        for buf in self._buffers:
            name, kind, parent, t0, t1 = buf.name, buf.kind, buf.parent, buf.t0, buf.t1
            covered = [0.0] * len(t0)
            for i in range(len(t0)):
                if kind[i] != ITER and parent[i] >= 0:
                    covered[parent[i]] += t1[i] - t0[i]
            for i in range(len(t0)):
                s = stats(name[i])
                dur = t1[i] - t0[i]
                if kind[i] == ITER:
                    s["calls"] += 1
                    s["iter_s"] += dur
                    continue
                if kind[i] == CALL:
                    s["calls"] += 1
                s["incl_s"] += dur
                s["self_s"] += dur - covered[i]
                if parent[i] >= 0:
                    under[(homes[name[i]], homes[name[parent[i]]])] += dur
            for nid, total in buf.argsum.items():
                stats(nid)["argsum"] += total
            for nid, seen in buf.argset.items():
                stats(nid)["args"] |= seen
            for nid, count in buf.yields.items():
                stats(nid)["yields"] += count
            for key, count in buf.extra.items():
                extra[key] += count

        by_home: dict[str, dict] = {}
        for (home, _), s in by_name.items():
            h = by_home.setdefault(home, _empty_stats())
            for k, v in s.items():
                h[k] = h[k] | v if k == "args" else h[k] + v
        return {"by_home": by_home, "by_name": by_name, "under": dict(under),
                "extra": dict(extra)}

    def write_spans(self, path) -> None:
        """Dump every span: one JSON header line, then raw arrays in native byte order.

        Per buffer, in header order: name int32, kind int8, parent int32,
        start float64, end float64 (perf_counter seconds), each of length
        ``records``.  A parent is an index into the same buffer, -1 for none.
        """
        header = {
            "format": "perfbench-spans",
            "kinds": {"call": CALL, "resume": RESUME, "iter": ITER},
            "names": [list(n) for n in self.names],
            "buffers": [{"thread": b.thread, "records": len(b.t0)} for b in self._buffers],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for b in self._buffers:
                for arr in (b.name, b.kind, b.parent, b.t0, b.t1):
                    arr.tofile(fh)


def namespace_snapshot() -> dict:
    """(namespace, attribute) -> object for every codlab namespace a Tracer patches."""
    return {(via, attr): obj for via, ns in Tracer.namespaces() for attr, obj in vars(ns).items()}
