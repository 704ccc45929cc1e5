"""Spans of the real envylab call, taken with a profile hook.

A `Tracer` installs `sys.setprofile` (and `threading.setprofile`, for the
worker threads the call starts) around one `envylab.cli.main` call. It
opens a span for every call of a function defined in envylab's own source
files, named `<module>.<qualname>` (for example `experiments._replicate`,
`market.MarketInstance.__post_init__`), and closes it on return. Nested
helpers, lambdas and comprehensions get no span of their own: their time
is the self time of the enclosing span. A generator gets one span per
resumption. Nothing is patched; the hook only observes.

Each span has an id, a parent, a name, a thread, a start and an end. The
first span of a worker thread takes as parent the span open in the thread
that started tracing, so the calls a pool runs sit under the function that
runs the pool. A span's self time is its length minus the union of its
children's intervals, so children that overlap in two threads are not
counted twice. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from array import array

import envylab

PACKAGE_DIR = os.path.dirname(os.path.abspath(envylab.__file__))
SPAN_CSV_HEADER = "pass,span,parent,name,thread,start_ns,end_ns\n"


def span_name(code) -> str | None:
    """`<module>.<qualname>` of an envylab function, None for any other code."""
    if os.path.dirname(code.co_filename) != PACKAGE_DIR or "<" in code.co_qualname:
        return None
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{'envylab' if module == '__init__' else module}.{code.co_qualname}"


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by a list of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class Tracer:
    """Spans of one traced call.

    Each thread keeps its own spans, so no two threads append to one list:
    a flat int64 array of (id, parent id, start ns, end ns) per span and a
    list of span names. Span ids come from one counter, whose next() the
    GIL keeps atomic.
    """

    def __init__(self):
        self.threads: list[tuple[array, list[str]]] = []

    def _make_hook(self):
        # One closure with everything bound locally: the hook runs on every
        # Python and C call of every thread, so each lookup it saves counts.
        names: dict = {}
        per_thread: dict[int, tuple[array, list[str], list[int]]] = {}
        root = per_thread[threading.get_ident()] = (array("q"), [], [])
        self.threads.append(root[:2])
        ids, clock, ident, missing = itertools.count(), time.perf_counter_ns, threading.get_ident, object()

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                name = names.get(code, missing)
                if name is missing:
                    name = names[code] = span_name(code)
                if name is None:
                    return
                mine = per_thread.get(ident())
                if mine is None:  # only this thread adds its own entry
                    mine = per_thread[ident()] = (array("q"), [], [])
                    self.threads.append(mine[:2])
                flat, labels, stack = mine
                if stack:
                    parent = flat[stack[-1]]
                else:
                    parent = root[0][root[2][-1]] if root[2] else -1
                stack.append(len(flat))
                labels.append(name)
                flat.extend((next(ids), parent, clock(), 0))
            elif event == "return" and names.get(frame.f_code) is not None:
                mine = per_thread.get(ident())
                if mine and mine[2]:  # a frame entered before start() has no span
                    mine[0][mine[2].pop() + 3] = clock()

        return hook

    def start(self) -> None:
        hook = self._make_hook()
        threading.setprofile(hook)
        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def spans(self):
        """(id, parent id, name, thread index, start ns, end ns) of every span."""
        for thread, (flat, labels) in enumerate(self.threads):
            for k, name in enumerate(labels):
                sid, parent, start, end = flat[4 * k:4 * k + 4]
                yield sid, parent, name, thread, start, end

    def _self_ns(self) -> list[array]:
        """Per thread, the self time of each of its spans in ns.

        Within a thread, spans nest and come in start order, so a stack
        finds each span's parent. The first spans of a worker thread have a
        parent in the first thread; that parent's children can overlap, so
        its self time is its length minus the union of all its children.
        """
        foreign: dict[int, list[tuple[int, int]]] = {}  # parent id -> child intervals
        out: list[array] = [array("q") for _ in self.threads]
        for thread in [*range(1, len(self.threads)), 0]:
            flat, labels = self.threads[thread]
            own = out[thread] = array("q", bytes(8 * len(labels)))
            stack: list[int] = []
            for k in range(len(labels)):
                sid, parent, start, end = flat[4 * k:4 * k + 4]
                while stack and flat[4 * stack[-1] + 3] <= start:
                    stack.pop()
                own[k] = end - start
                if stack:
                    own[stack[-1]] -= end - start
                    if thread == 0 and flat[4 * stack[-1]] in foreign:
                        foreign[flat[4 * stack[-1]]].append((start, end))
                elif parent >= 0 and thread != 0:
                    foreign.setdefault(parent, []).append((start, end))
                stack.append(k)
        flat, labels = self.threads[0] if self.threads else (array("q"), [])
        for k in range(len(labels)):
            sid, _, start, end = flat[4 * k:4 * k + 4]
            if sid in foreign:
                inside = [(max(s, start), min(e, end)) for s, e in foreign[sid]]
                out[0][k] = end - start - _union_ns([iv for iv in inside if iv[0] < iv[1]])
        return out

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name and per module: calls, total seconds and self seconds.

        A module's row sums the self time of its functions; its total_s is
        that same sum, since nested spans of one module would count twice.
        """
        table: dict[str, dict[str, float]] = {}
        for (flat, labels), self_ns in zip(self.threads, self._self_ns()):
            for k, name in enumerate(labels):
                length, own = (flat[4 * k + 3] - flat[4 * k + 2]) / 1e9, self_ns[k] / 1e9
                for key, total in ((name, length), (name.split(".", 1)[0], own)):
                    row = table.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                    row["calls"] += 1
                    row["total_s"] += total
                    row["self_s"] += own
        return table

    def write_csv(self, fh, traced_pass: int) -> None:
        """Append the spans as CSV rows, times in ns from the first span's start."""
        origin = min((flat[2] for flat, _ in self.threads if flat), default=0)
        for sid, parent, name, thread, start, end in self.spans():
            fh.write(f"{traced_pass},{sid},{parent},{name},{thread},{start - origin},{end - origin}\n")
