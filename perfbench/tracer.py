"""Spans and counts around every public siqrng function, installed from outside.

`Tracer.install` rebinds each public function defined in a siqrng module at
every module attribute that holds it, so names that cli, optimizer and
detector import from their siblings are covered too.  Private helpers are not
wrapped: their time is the self time of the public function that calls them.
A function that a refactor removes simply yields no span.

Spans are recorded only inside an op (between `begin` and `end`), as
[name, start, end, parent] with parent an index into the op's span list.  At
the end of each op they are folded into per-name totals; the raw spans of the
first KEEP_OPS ops are kept for the trace file, written once when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

KEEP_OPS = 50


def _count_extract(counts, args, result) -> None:
    n, m = np.size(args[0]), np.size(result)
    counts["extractor.raw_bits"] += n
    counts["extractor.out_bits"] += m
    counts["extractor.matrix_ops"] += n * m


def _count_file(counts, args, result) -> None:
    counts["extractor.io_bytes"] += os.path.getsize(args[0])


def _count_pulses(counts, args, result) -> None:
    counts["detector.pulses"] += result.pulses_x + result.pulses_y + result.pulses_z


def _count_cells(counts, args, result) -> None:
    counts["optimizer.cells"] += np.size(result)


# Counts are taken at the same boundaries as the spans.
COUNTERS = {
    "extractor.toeplitz_extract": _count_extract,
    "extractor.read_bits": _count_file,
    "extractor.write_bits": _count_file,
    "detector.mc_sample": _count_pulses,
    "optimizer.rate_surface": _count_cells,
}


class Tracer:
    def __init__(self) -> None:
        self.op_id = None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [inclusive s, self s, calls]
        self.counts = defaultdict(float)
        self.kept: list[dict] = []
        self.ops = 0
        self.op_wall = 0.0
        self.traced_wall = 0.0  # part of op wall inside top-level spans
        self.wrappers: dict = {}
        self.bindings: list[tuple] = []

    def install(self) -> None:
        """Wrap every public siqrng function at every module attribute bound to it."""
        if not self.wrappers:
            for mod_name, module in list(sys.modules.items()):
                if module is None or mod_name.split(".")[0] != "siqrng":
                    continue
                for attr, obj in list(vars(module).items()):
                    if (
                        inspect.isfunction(obj)
                        and (obj.__module__ or "").split(".")[0] == "siqrng"
                        and not obj.__name__.startswith("_")
                    ):
                        if obj not in self.wrappers:
                            self.wrappers[obj] = self._wrap(obj)
                        self.bindings.append((module, attr, obj))
        for module, attr, obj in self.bindings:
            setattr(module, attr, self.wrappers[obj])

    def uninstall(self) -> None:
        """Restore the original functions."""
        for module, attr, obj in self.bindings:
            setattr(module, attr, obj)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # a changed signature loses the count, not the run
            return result

        return traced

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = []

    def end(self, op_wall: float) -> None:
        """Fold the op's spans into the totals: self time is a span minus its children."""
        spans, op_id, self.op_id = self.spans, self.op_id, None
        durations = [s[2] - s[1] for s in spans]
        children = [0.0] * len(spans)
        top = 0.0
        for span, dur in zip(spans, durations):
            if span[3] >= 0:
                children[span[3]] += dur
            else:
                top += dur
        for span, dur, child in zip(spans, durations, children):
            total = self.totals[span[0]]
            total[0] += dur
            total[1] += dur - child
            total[2] += 1
        self.ops += 1
        self.op_wall += op_wall
        self.traced_wall += top
        if len(self.kept) < KEEP_OPS:
            self.kept.append({"op": op_id, "spans": spans})

    # --- summaries, per traced op ---

    def _per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def time(self, name: str) -> float:
        return self._per_op(self.totals[name][0]) if name in self.totals else 0.0

    def calls(self, name: str) -> float:
        return self._per_op(self.totals[name][2]) if name in self.totals else 0.0

    def self_time(self, prefix: str) -> float:
        """Self time per op of one span name, or of a whole module when prefix ends with '.'."""
        return self._per_op(
            sum(t[1] for name, t in self.totals.items() if name == prefix or (prefix.endswith(".") and name.startswith(prefix)))
        )

    def count(self, name: str) -> float:
        return self._per_op(self.counts.get(name, 0.0))

    def self_shares(self) -> dict[str, float]:
        """Share of op wall time that is self time of each module, plus time outside any span."""
        shares = defaultdict(float)
        for name, (_, self_s, _) in self.totals.items():
            shares[name.split(".")[0]] += self_s / self.op_wall
        shares["outside"] = (self.op_wall - self.traced_wall) / self.op_wall if self.op_wall else 0.0
        return dict(shares)

    def top_self(self) -> list[tuple[str, float]]:
        """Span names by self time, largest first, as shares of op wall time."""
        ranked = sorted(((t[1], name) for name, t in self.totals.items()), reverse=True)
        return [(name, s / self.op_wall) for s, name in ranked]

    def record(self) -> dict:
        return {
            "ops": self.ops,
            "op_wall_s": self.op_wall,
            "totals": {name: {"inclusive_s": t[0], "self_s": t[1], "calls": t[2]} for name, t in self.totals.items()},
            "counts": dict(self.counts),
            "spans": self.kept,
        }
