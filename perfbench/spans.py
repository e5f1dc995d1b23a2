"""Span tracer for the traced run: wraps layer entry points from outside.

Nothing in ``src/`` knows about this module.  :class:`Tracer.install`
replaces each listed entry point with a wrapper that records one span
per call — (name, start, end, parent span, op id) — into flat arrays,
and keeps per-name call counts and self time (the span's duration minus
the time covered by its child spans).  :meth:`Tracer.restore` puts the
originals back.

Functions that other modules import by name (``encode_record``,
``decode_record``, ``iter_messages``, ``write_snapshot``,
``encode_stream_message``, ``encode_mutation``) are patched in every
``repro.*`` module namespace that holds them, because a caller reads
the name from its own module: patching only the defining module would
miss ``espresso.storage``'s and ``databus.relay``'s calls.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from dataclasses import dataclass
from typing import Callable

#: spans kept for the span file; aggregates keep counting past it
MAX_RECORDED_SPANS = 200_000


@dataclass(frozen=True)
class EntryPoint:
    """One traced entry point: a span name and where the callable lives.

    ``target`` is ``"Class.method"``, ``"stdlib_module.function"`` for a
    module the layer imports whole (patched in that layer's namespace
    only), or a plain function name inside ``module``.  ``eager`` marks
    a generator function whose iteration is the work
    (``iter_messages``): the wrapper materialises it inside the span so
    the decoding is charged to it.  ``hook`` sees
    ``(tracer, args, kwargs, result)`` after every call, to count work
    the return value describes (bytes, versions, hop latency).
    """

    span: str
    module: str
    target: str
    eager: bool = False
    hook: Callable | None = None


class Tracer:
    """In-memory span recorder with per-name self-time aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # one row per recorded span
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("q")
        self.spans_dropped = 0
        #: the workload sets this to the id of the op being executed
        self.op = 0
        #: hook-maintained counters (bytes written, versions read, ...)
        self.counters: dict[str, float] = {}
        # open frames: [name id, start, child seconds, span index]
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- bookkeeping ------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def peak(self, counter: str, value: float) -> None:
        if value > self.counters.get(counter, 0.0):
            self.counters[counter] = value

    def calls_of(self, prefix: str) -> int:
        """Calls of every span named ``prefix`` or ``prefix.*``."""
        return sum(self.calls[i] for i, name in enumerate(self.names)
                   if name == prefix or name.startswith(prefix + "."))

    def self_seconds_of(self, prefix: str) -> float:
        return sum(self.self_s[i] for i, name in enumerate(self.names)
                   if name == prefix or name.startswith(prefix + "."))

    def total_self_seconds(self) -> float:
        return sum(self.self_s)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, entry: EntryPoint, fn):
        nid = self._intern(entry.span)
        stack = self._stack
        clock = time.perf_counter
        hook = entry.hook
        eager = entry.eager
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.span_start)
            if index < MAX_RECORDED_SPANS:
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1][3] if stack else -1)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                index = -1
                tracer.spans_dropped += 1
            frame = [nid, 0.0, 0.0, index]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.self_s[nid] += elapsed - frame[2]
                tracer.calls[nid] += 1
                if stack:
                    stack[-1][2] += elapsed
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, entries: list[EntryPoint]) -> None:
        for entry in entries:
            module = sys.modules.get(entry.module)
            if module is None:
                __import__(entry.module)
                module = sys.modules[entry.module]
            if "." in entry.target:
                owner_name, attr = entry.target.split(".", 1)
                owner = getattr(module, owner_name)
                if isinstance(owner, types.ModuleType):
                    # a stdlib module imported whole (``json.loads``):
                    # give this namespace its own copy to patch
                    proxy = types.SimpleNamespace(**vars(owner))
                    self._set(module, owner_name, owner, proxy)
                    owner = proxy
                original = vars(owner)[attr]
                self._set(owner, attr, original, self._wrap(entry, original))
                continue
            original = getattr(module, entry.target)
            wrapped = self._wrap(entry, original)
            for name, other in sorted(sys.modules.items()):
                if not name.startswith("repro") or other is None:
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._set(other, attr, original, wrapped)

    def _set(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as TSV; returns the rows written."""
        rows = len(self.span_start)
        with open(path, "w", encoding="utf-8") as out:
            out.write("# spans_dropped=%d\n" % self.spans_dropped)
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for i in range(rows):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_op[i]))
        return rows
