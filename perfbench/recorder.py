"""Timing samples, trace spans and output checks of one benchmark run.

Every call the benchmark makes into a winoconv module runs inside
``Recorder.span``.  The span always measures wall time (the end-to-end
metrics need it); when tracing is on it is also kept as (name, start, end,
parent) so per-layer self times can be derived after the run.  Spans stay in
memory until ``write_spans`` at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


class Span:
    """Wall time of one call; ``seconds`` is set when the block exits."""

    __slots__ = ("seconds",)

    def __init__(self):
        self.seconds = 0.0


class Recorder:
    """Samples keyed by metric name, plus spans when ``trace`` is true."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._best: dict[str, dict] = defaultdict(dict)  # name -> key -> [seconds, work, n]

    @contextmanager
    def span(self, name: str):
        s = Span()
        idx = None
        if self.trace:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else None])
            self._open.append(idx)
        start = perf_counter()
        try:
            yield s
        finally:
            end = perf_counter()
            s.seconds = end - start
            if idx is not None:
                self.spans[idx][1:3] = start, end
                self._open.pop()

    def add(self, name: str, value: float):
        self.samples[name].append(float(value))

    def timed(self, name: str, key, work: float, seconds: float):
        """One repeat of the call ``key`` that did ``work`` units in ``seconds``."""
        entry = self._best[name].setdefault(key, [seconds, work, 0])
        entry[0] = min(entry[0], seconds)
        entry[2] += 1

    def rates(self) -> dict[str, tuple[float, int]]:
        """Per name: work per second over all keys, each at its fastest
        repeat, and the number of timed calls behind it."""
        out = {}
        for name, calls in self._best.items():
            seconds = sum(s for s, _, _ in calls.values())
            work = sum(w for _, w, _ in calls.values())
            out[name] = (work / seconds, sum(n for _, _, n in calls.values()))
        return out

    def self_seconds(self, roots: set[int]) -> dict[str, float]:
        """Self time per layer (the span name's first dotted part), summed
        over every span that descends from one of ``roots``.

        A span's self time is its duration minus that of its direct children;
        children of one span run one after another, so they never overlap.
        """
        child_time = defaultdict(float)
        inside = set(roots)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += end - start
                if parent in inside:
                    inside.add(i)
        totals: dict[str, float] = defaultdict(float)
        for i in sorted(inside):
            name, start, end, _ = self.spans[i]
            totals[name.split(".", 1)[0]] += end - start - child_time[i]
        return dict(totals)

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows) + "\n")


@dataclass
class Checks:
    """Pass/fail tally of output checks.

    ``known_defects`` names checks that fail because of a defect already
    recorded in ROADMAP.md.  Their outcome is reported on its own line and
    never hidden, but it does not count toward ``failed``; when such a check
    starts passing, the name should be removed from the set so a regression
    counts again.
    """

    known_defects: frozenset[str] = frozenset()
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    known: dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if name in self.known_defects:
            self.known[name] = "fails" + (f" ({detail})" if detail else "") if not ok else "passes"
            return ok
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def equal(self, name: str, got, want) -> bool:
        return self.check(name, got == want, f"got {got!r}, want {want!r}")

    def close(self, name: str, got: np.ndarray, want: np.ndarray, rel_tol: float) -> float:
        """Max abs error over the reference's max magnitude; checked <= rel_tol."""
        if got.shape != want.shape:
            self.check(name, False, f"shape {got.shape} != {want.shape}")
            return float("inf")
        err = float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))))
        rel = err / (float(np.max(np.abs(want))) or 1.0)
        self.check(name, rel <= rel_tol, f"rel err {rel:.3g} > {rel_tol:g}")
        return rel
