"""results_ingest and results_reduce: the two directions of the store layer.

Both read inputs written by ``gen.py`` moments earlier, so the files are
page-cache warm: these workloads measure parse/pack/reduce CPU, not disk.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from repro.maxdo.resultfile import read_results
from repro.store import (
    ColumnarSegment,
    check_store,
    energy_matrix,
    merge_couple_store,
    pack_records,
    read_store,
    segment_to_text,
    store_to_text,
    text_to_store,
    write_store,
)

from wl_base import Workload, median_wall


def verdict_problems(report, flagged: dict) -> tuple[list[str], int]:
    """Compare a ``CheckReport`` with the planted truth.

    Returns (problems, number of chunks whose verdict is wrong).
    """
    found = {
        "bad_values": sorted(report.files_with_bad_values),
        "bad_line_count": sorted(report.files_with_bad_line_count),
    }
    wrong = set()
    problems = []
    for rule, planted in flagged.items():
        if found[rule] != sorted(planted):
            problems.append(f"check {rule}: flagged {found[rule]}, planted {planted}")
            wrong |= set(found[rule]) ^ set(planted)
    return problems, len(wrong)


class _Results(Workload):
    """The program's input is a path; what the generator planted in the
    dataset is the benchmark's own bookkeeping, read once outside every
    timed region (the dataset may not even exist yet during set-up)."""

    def setup(self) -> None:
        self._dir = Path(self.params["dataset"])
        self._problems: list[str] = []

    @functools.cached_property
    def _expected(self) -> dict:
        return json.loads((self._dir / "expected.json").read_text())

    def outcome(self) -> dict:
        return {"rows": self._expected["rows"]}


class ResultsIngest(_Results):
    """text parse -> ``pack_records`` -> CRC-framed ``write_store``."""

    def setup(self) -> None:
        super().setup()
        self._out = self.scratch / "ingested.rcs"

    @functools.cached_property
    def _files(self) -> list[Path]:
        return [self._dir / "chunks" / f for f in self._expected["files"]]

    def _split_ingest(self) -> int:
        """``text_to_store`` rebuilt from its public pieces, one span per
        stage (all segments are held until the single write)."""
        rec = self.rec
        segments = []
        for path in self._files:
            with rec.span("store.parse"):
                table = read_results(path)
            with rec.span("store.pack"):
                packed = pack_records(table.records)
            segments.append(ColumnarSegment(
                header=table.header, packed=packed, source=path.name
            ))
        with rec.span("store.write"):
            return write_store(self._out, segments)

    def run_pass(self, traced: bool) -> dict:
        files = self._files
        if traced:
            _, out = self.timed(True, self._split_ingest)
        else:
            _, out = self.timed(False, lambda: text_to_store(files, self._out))
        store = read_store(self._out)
        problems, wrong = verdict_problems(
            check_store(store), self._expected["flagged"]
        )
        if store.n_rows != self._expected["rows"]:
            problems.append(
                f"ingested {store.n_rows} rows, generated {self._expected['rows']}"
            )
            wrong = len(self._files)
        self._problems = problems
        self._store = store
        out.update(units=store.n_rows, attempted=len(self._files), failed=wrong)
        if traced:
            rec, index = self.rec, out["span"]
            columnar = self._out.stat().st_size
            out["layers"] = {
                "store.parse_s": rec.total("store.parse", index),
                "store.pack_s": rec.total("store.pack", index),
                "store.write_s": rec.total("store.write", index),
                "store.bytes_per_row": columnar / store.n_rows,
                "store.text_mb": self._expected["text_bytes"] / 1e6,
                "store.columnar_mb": columnar / 1e6,
                "store.flagged_chunks": sum(
                    len(v) for v in self._expected["flagged"].values()
                ) - wrong,
            }
        return out

    def verify(self, golden: dict | None) -> list[str]:
        problems = list(self._problems)
        by_source = {s.source: s for s in self._store.segments}
        for name in self._expected["samples"]:
            back = self.scratch / f"roundtrip-{name}"
            segment_to_text(by_source[name], back)
            if back.read_bytes() != (self._dir / "chunks" / name).read_bytes():
                problems.append(f"{name}: store -> text is not byte-identical")
            back.unlink()
        return problems


class ResultsReduce(_Results):
    """``read_store`` -> ``check_store`` -> ``merge_couple_store`` ->
    ``energy_matrix``, each pass from a fresh read."""

    def setup(self) -> None:
        super().setup()
        self._store_path = self._dir / "chunks.rcs"
        self._merged = self.scratch / "merged.rcs"

    @functools.cached_property
    def _reference(self) -> np.ndarray:
        return np.load(self._dir / "matrix.npy")

    def _reduce(self, names: list[str]):
        rec = self.rec
        with rec.span("store.read"):
            store = read_store(self._store_path)
        with rec.span("store.check"):
            report = check_store(store)
        with rec.span("store.merge"):
            rows = merge_couple_store(store, self._merged)
        with rec.span("store.matrix"):
            matrix, _ = energy_matrix(store, names)
        return report, rows, matrix, len(store)

    def run_pass(self, traced: bool) -> dict:
        names = self._expected["names"]
        (report, rows, matrix, chunks), out = self.timed(
            traced, lambda: self._reduce(names)
        )
        problems, wrong = verdict_problems(report, self._expected["flagged"])
        if rows != self._expected["rows"]:
            problems.append(f"merged {rows} rows, generated {self._expected['rows']}")
            wrong = chunks
        if not np.array_equal(matrix, self._reference, equal_nan=True):
            problems.append("energy matrix differs from the generator's reference")
            wrong = chunks
        self._problems = problems
        out.update(units=rows, attempted=chunks, failed=wrong)
        if traced:
            rec, index = self.rec, out["span"]
            flagged = len(report.files_with_bad_values) + len(
                report.files_with_bad_line_count
            )
            columnar = self._store_path.stat().st_size
            out["layers"] = {
                "store.read_s": rec.total("store.read", index),
                "store.check_s": rec.total("store.check", index),
                "store.merge_s": rec.total("store.merge", index),
                "store.matrix_s": rec.total("store.matrix", index),
                "store.flagged_chunks": flagged,
                "store.bytes_per_row": columnar / rows,
                "store.columnar_mb": columnar / 1e6,
            }
        return out

    def verify(self, golden: dict | None) -> list[str]:
        return list(self._problems)

    def layers(self, untraced_wall_s: float) -> dict:
        out_dir = self.scratch / "export"
        _, export_s = median_wall(
            lambda: store_to_text(self._store_path, out_dir), repeats=1
        )
        return {"store.export_text_s": export_s}


WORKLOADS = {
    "results_ingest": ResultsIngest,
    "results_reduce": ResultsReduce,
}
