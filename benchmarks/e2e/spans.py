"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer; nothing inside the program is touched.  They stay in memory
and are written out once, when the worker exits.  A layer's self time
is its span's duration minus what its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Recorder:
    """Nested wall-clock spans of one worker process (one run id).

    Clock: ``time.time()``, because the root span starts in the harness
    process (subprocess launch) and ends in the worker.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        self.spans.append({
            "id": index,
            "run": self.run_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.time() if start is None else start,
            "end": None,
            "calls": 1,
        })
        self._stack.append(index)
        return index

    def close(self, index: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index]['name']!r} closed out of order")
        self._stack.pop()
        self.spans[index]["end"] = time.time() if end is None else end

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add(self, name: str, seconds: float, calls: int = 1,
            end: float | None = None, parent: int | None = None) -> None:
        """A finished span under ``parent`` (default: the open span).

        For time that is only known after the fact: a ``Profiler`` section
        (``end`` = now) or the sum over many calls of one callback
        (``calls`` > 1; the interval then carries the total, not a
        position on the time line).
        """
        end = time.time() if end is None else end
        self.spans.append({
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": parent if parent is not None else (
                self._stack[-1] if self._stack else None
            ),
            "start": end - seconds,
            "end": end,
            "calls": calls,
        })

    # -- reading ---------------------------------------------------------

    @staticmethod
    def _duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, name: str, parent: int) -> float:
        """Summed duration of the spans called ``name`` directly under
        span ``parent``."""
        return sum(
            self._duration(s) for s in self.spans
            if s["name"] == name and s["parent"] == parent
        )

    def self_time(self, index: int) -> float:
        children = sum(
            self._duration(s) for s in self.spans if s["parent"] == index
        )
        return self._duration(self.spans[index]) - children
