"""In-memory spans and counters recorded at the benchmark's own call sites.

A span is (name, start, end, parent index, job id).  Spans are kept in a list
while the workload runs and written out when the run ends; nothing inside the
library is patched, so a span around a public call includes every library
function that call runs.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

JOB_SPAN = "bench.job"


class Tracer:
    """Records nested spans and input-size counters for one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.counting = True
        self._stack: list[int] = []
        self._job_id: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._job_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def job(self, job_id: int):
        self._job_id = job_id
        try:
            with self.span(JOB_SPAN):
                yield
        finally:
            self._job_id = None

    def count(self, name: str, value: int) -> None:
        if self.counting:
            self.counts[name] += int(value)


class NullTracer:
    """Tracer stand-in for untraced runs: every call is a no-op."""

    counting = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def job(self, job_id: int):
        return self._null

    def count(self, name: str, value: int) -> None:
        pass


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, span_names) -> dict[str, float]:
    """Per-span calls, busy (self) seconds and share of total job time.

    `bench.unattributed_s` is the job time outside every named span.
    """
    own = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    total = 0.0
    for (name, start, end, _, _), self_s in zip(spans, own):
        if name == JOB_SPAN:
            total += end - start
            busy[JOB_SPAN] += self_s
        else:
            calls[name] += 1
            busy[name] += self_s
    unknown = set(calls) - set(span_names)
    if unknown:
        raise ValueError(f"spans not declared in the metric list: {sorted(unknown)}")
    out: dict[str, float] = {}
    for name in span_names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.share"] = busy[name] / total if total > 0 else 0.0
    out["bench.unattributed_s"] = busy[JOB_SPAN]
    return out
