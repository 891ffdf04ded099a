"""What every workload shares: the pass loop's contract and small helpers."""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from spans import Recorder


class Workload:
    """One workload inside one worker process.

    ``setup`` builds the program's inputs through public constructors
    (it is the tail of ``setup_s``); ``run_pass`` executes the timed
    region once; ``verify`` is the correctness gate; ``layers`` adds the
    per-layer numbers that need work beyond the passes (traced runs
    only).  Nothing here knows the seed: ``params`` are generated inputs.
    """

    def __init__(self, params: dict, scratch: Path, rec: Recorder) -> None:
        self.params = params
        self.scratch = scratch
        self.rec = rec
        self.n_passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> dict:
        """Run the timed region once.

        Returns ``wall_s``, ``span`` (the pass's root span), ``input``
        (which of the run's inputs it worked on), ``units``,
        ``attempted``, ``failed`` and, when ``traced``, ``layers`` (name
        -> value) of this pass.
        """
        raise NotImplementedError

    def verify(self, golden: dict | None) -> list[str]:
        """Problems found by the correctness gate (empty = pass)."""
        raise NotImplementedError

    def outcome(self) -> dict:
        """The values ``goldens.json`` pins for the default seed."""
        raise NotImplementedError

    def layers(self, untraced_wall_s: float) -> dict:
        """Per-layer numbers measured outside the passes."""
        return {}

    def close(self) -> None:
        """Stop whatever ``setup`` started."""

    # -- helpers ------------------------------------------------------------

    def timed(
        self, traced: bool, job: Callable[[], Any], input: int = 0
    ) -> tuple[Any, dict]:
        """Run ``job`` as one pass: collected heap, one root span, one
        perf_counter pair.  Returns (job's result, the pass result with
        ``wall_s``, ``span`` and ``input`` filled in)."""
        self.n_passes += 1
        gc.collect()
        index = self.rec.open("pass.traced" if traced else "pass")
        start = time.perf_counter()
        try:
            result = job()
        finally:
            wall = time.perf_counter() - start
            self.rec.close(index)
        return result, {"wall_s": wall, "span": index, "input": input}


def median_wall(job: Callable[[], Any], repeats: int = 3) -> tuple[Any, float]:
    """(last result, median wall) of ``repeats`` untraced calls of ``job``."""
    walls = []
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = job()
        walls.append(time.perf_counter() - start)
    return result, statistics.median(walls)


def compare(found: dict, pinned: dict, what: str) -> list[str]:
    """Differences between an outcome and its pin, one line each."""
    return [
        f"{what}.{key}: got {found.get(key)!r}, pinned {value!r}"
        for key, value in pinned.items()
        if found.get(key) != value
    ]
