"""In-memory spans recorded at the harness's call boundaries.

The harness never instruments the program itself: every span wraps a call
the benchmark makes into a public function of one layer (a session run, an
optimizer ``suggest``, an objective call, ...).  A span's *self time* is its
duration minus the part of its interval that its direct children cover, so
the self times along the blocking path add up to the wall time of the root.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Sequence


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    study: str
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing.

    Probes test :attr:`enabled` before calling :meth:`open`, so an
    untraced run pays one attribute read per boundary crossing.
    ``study`` labels every span opened until it is changed.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.study = ""
        self._stack: list[int] = []

    def open(self, name: str, start: float) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, start, parent, self.study))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float, **attrs: Any) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = end
        if attrs:
            span.attrs = attrs

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record one coarse span around a ``with`` block (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        idx = self.open(name, time.perf_counter())
        try:
            yield
        finally:
            self.close(idx, time.perf_counter(), **attrs)

    def write(self, path: str, meta: dict[str, Any]) -> None:
        payload = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "study", "attrs"],
            "spans": [[s.name, s.start, s.end, s.parent, s.study, s.attrs] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def descendants(spans: Sequence[Span], root: int) -> list[int]:
    """Indices of every span nested (at any depth) under ``root``."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out
