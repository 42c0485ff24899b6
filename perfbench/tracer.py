"""Spans and allocation peaks around hybridseq functions, recorded from
outside the package.

Every call site in hybridseq looks its callees up through the module
(`ssm_mod.mamba_block_forward`, `ng.backward`, ...), so replacing a module
attribute with a wrapper intercepts every call without editing the
package.  `Patches.restore` puts the originals back.

A span is one call: its name, start and end (perf_counter_ns), the span
that was open when it started, the operation it belongs to and any counts
a probe attached.  Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from harness import percentile

# Span layout: a list, so the wrapper can fill in the end time in place.
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records one span per call of each wrapped function while active.

    Timed regions run inside `operation(op_id, kind)`; `ops` keeps each
    operation's window so that shares of time can be taken against it.
    While inactive the wrappers only forward the call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[str, str, int, int]] = []
        self.active = False
        self.patches = Patches()
        self._stack: list[int] = []
        self._op: int | None = None

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Wrap `owner.attr`, recording spans under `name`.

        `probe(args, kwargs)` runs before the call and returns a function
        of the result that gives a dict of counts for the span.
        """
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack = tracer._stack
                span = [name, time.perf_counter_ns(), 0,
                        stack[-1] if stack else None, tracer._op, None]
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
                finish = probe(args, kwargs) if probe is not None else None
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = time.perf_counter_ns()
                    stack.pop()
                if finish is not None:
                    span[EXTRA] = finish(result)
                return result

            return traced

        self.patches.replace(owner, attr, make)

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        """Calls inside (output checks) leave no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextmanager
    def operation(self, op_id: str, kind: str):
        """A timed window; one opened inside another belongs to the outer."""
        if not self.active or self._op is not None:
            yield
            return
        prev = self._op
        self._op = len(self.ops)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.ops.append((op_id, kind, start, time.perf_counter_ns()))
            self._op = prev

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"ops": self.ops, "spans": self.spans}, f)


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        clipped = sorted(
            (max(spans[c][START], lo), min(spans[c][END], hi)) for c in children.get(i, ())
        )
        covered = 0
        cur_lo = cur_hi = None
        for a, b in clipped:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def summarize(tracer: Tracer, kinds) -> dict[str, dict]:
    """Per span name, over spans inside operations of the given kinds:
    call count, p50 duration and p50 self time in ms, total ms, and each
    probe count as a list with one entry per span."""
    kinds = set(kinds)
    selves = self_times_ns(tracer.spans)
    rows: dict[str, dict] = {}
    for s, self_ns in zip(tracer.spans, selves):
        if s[OP] is None or tracer.ops[s[OP]][1] not in kinds:
            continue
        r = rows.setdefault(s[NAME], {"dur": [], "self": [], "extra": defaultdict(list)})
        r["dur"].append((s[END] - s[START]) / 1e6)
        r["self"].append(self_ns / 1e6)
        for k, v in (s[EXTRA] or {}).items():
            r["extra"][k].append(v)
    return {
        name: {
            "calls": len(r["dur"]),
            "ms": percentile(r["dur"], 50),
            "self_ms": percentile(r["self"], 50),
            "total_ms": sum(r["dur"]),
            "extra": dict(r["extra"]),
        }
        for name, r in rows.items()
    }


def op_total_ms(tracer: Tracer, kinds) -> float:
    kinds = set(kinds)
    return sum((end - start) / 1e6 for _, kind, start, end in tracer.ops if kind in kinds)


def op_count(tracer: Tracer, kinds) -> int:
    kinds = set(kinds)
    return sum(1 for op in tracer.ops if op[1] in kinds)


class PeakProbe:
    """tracemalloc peaks of chosen calls and of the whole measured block.

    Each wrapped call resets the peak on entry and reports its own peak
    above the memory in use when it started.  Before each reset the running
    peak is folded into `high`, so the block's overall peak survives the
    resets and one pass yields both.  Run only outside timed regions:
    tracemalloc slows every allocation.
    """

    def __init__(self):
        self.patches = Patches()
        self.peaks: dict[str, int] = {}
        self.high = 0
        self.base = 0

    def wrap(self, owner, attr: str, name: str) -> None:
        probe = self

        def make(fn):
            def measured(*args, **kwargs):
                probe._fold()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    probe.high = max(probe.high, peak)
                    probe.peaks[name] = max(probe.peaks.get(name, 0), peak - start)

            return measured

        self.patches.replace(owner, attr, make)

    def _fold(self) -> None:
        self.high = max(self.high, tracemalloc.get_traced_memory()[1])

    @contextmanager
    def measuring(self):
        """Trace allocations inside the block; afterwards `overall_bytes`
        is its peak above the memory in use at entry."""
        tracemalloc.start()
        try:
            self.base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self.high = 0
            yield self
            self._fold()
        finally:
            tracemalloc.stop()

    @property
    def overall_bytes(self) -> int:
        return self.high - self.base
