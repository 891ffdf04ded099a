"""Per-couple result merging and the dataset volume model (Section 5.2).

Workunits slice a couple's starting positions, so a couple's results arrive
in several files; "when the files were checked, we merged result files in
order to have one result file for one couple of proteins.  All these result
files represents 123 Gb of text files (45 Gb compressed) and there are
168^2 files."

:class:`DatasetVolume` models that dataset in **both** result formats: the
line-oriented text files the paper shipped (118 bytes/line) and the packed
columnar store (:mod:`repro.store`, 56 bytes/row plus per-file framing)
that this reproduction uses as its canonical format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .. import constants
from ..maxdo.resultfile import ResultHeader
from ..proteins.library import ProteinLibrary

__all__ = ["DatasetVolume", "dataset_volume"]


def merged_header(chunks: Sequence[tuple[ResultHeader, str]]) -> ResultHeader:
    """Validate one couple's chunks and build the merged file's header.

    ``chunks`` pairs each chunk's header with the name errors should call
    it by.  The chunks must belong to one couple, agree on ``n_couples`` /
    ``n_gamma`` (the merged header promises ``nsep * n_couples`` rows) and
    tile ``[1..Nsep]`` exactly — no gap, no overlap, no duplicate slice.
    Every ``ValueError`` names the offending chunk.
    """
    if not chunks:
        raise ValueError("nothing to merge")
    first, first_name = chunks[0]
    for h, name in chunks:
        if (h.receptor, h.ligand) != (first.receptor, first.ligand):
            raise ValueError(
                f"cannot merge couples {h.receptor}-{h.ligand} ({name}) "
                f"and {first.receptor}-{first.ligand} ({first_name})"
            )
        if (h.n_couples, h.n_gamma) != (first.n_couples, first.n_gamma):
            raise ValueError(
                f"n_couples/n_gamma {h.n_couples}/{h.n_gamma} in {name} "
                f"disagree with {first.n_couples}/{first.n_gamma} in "
                f"{first_name}"
            )
    cursor = 1
    for start, nsep, name in sorted(
        (h.isep_start, h.nsep, name) for h, name in chunks
    ):
        if start != cursor:
            kind = "overlap" if start < cursor else "gap"
            raise ValueError(
                f"isep {kind} at {start} (expected {cursor}) in {name}"
            )
        cursor = start + nsep
    return ResultHeader(
        receptor=first.receptor,
        ligand=first.ligand,
        isep_start=1,
        nsep=cursor - 1,
        n_couples=first.n_couples,
        n_gamma=first.n_gamma,
    )


class KeyOrder(NamedTuple):
    """Concatenate the chunks in ``chunks`` order, then take ``rows``."""

    chunks: list[int]
    rows: np.ndarray | None  #: None: already in order

    def apply(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """One array per chunk (rows, or one column) in merged order."""
        merged = np.concatenate([parts[k] for k in self.chunks])
        return merged if self.rows is None else merged[self.rows]

    def pieces(self, parts: Sequence[np.ndarray]) -> list[np.ndarray]:
        """:meth:`apply`'s array in pieces: the chunks' own when in order."""
        return [parts[k] for k in self.chunks] if self.rows is None else [self.apply(parts)]


def key_order(chunks: Sequence) -> KeyOrder:
    """The merged-file order, ``(isep, irot, igamma)`` ascending, of one
    couple's chunks — each a record array or a segment's columns, read by
    key name: the one rule :func:`repro.store.merge_segments` applies.

    A workunit writes its rows in key order and slices ``isep``, so the
    chunks taken by their first ``isep`` usually concatenate into merged
    order; if the keys then strictly increase, that is the order.  If
    not — ties, disorder, NaN keys — it is the stable ``lexsort`` of the
    chunks as given, so ties and NaN keys come out as they always did.
    """
    def keys(order):
        return [np.concatenate([chunks[k][n] for k in order])
                for n in ("isep", "irot", "igamma")]

    given = list(range(len(chunks)))
    by_start = sorted(
        given, key=lambda k: chunks[k]["isep"][0] if len(chunks[k]["isep"]) else 0
    )
    i, r, g = keys(by_start)
    ascending = (i[:-1] < i[1:]) | (
        (i[:-1] == i[1:])
        & ((r[:-1] < r[1:]) | ((r[:-1] == r[1:]) & (g[:-1] < g[1:])))
    )
    if ascending.all():
        return KeyOrder(by_start, None)
    i, r, g = keys(given)
    return KeyOrder(given, np.lexsort((g, r, i)))


@dataclass(frozen=True)
class DatasetVolume:
    """Projected size of the merged result dataset, in both formats."""

    n_files: int
    total_lines: int
    raw_bytes: int  #: line-oriented text (the paper's 123 GB)
    columnar_bytes: int = 0  #: packed columnar store (repro.store)
    #: text compresses roughly 2.7:1 (paper: 123 GB -> 45 GB)
    compression_ratio: float = 123.0 / 45.0

    @property
    def compressed_bytes(self) -> int:
        return int(self.raw_bytes / self.compression_ratio)

    @property
    def columnar_ratio(self) -> float:
        """Text bytes per columnar byte (>1 = the store is smaller)."""
        if not self.columnar_bytes:
            return float("nan")
        return self.raw_bytes / self.columnar_bytes


def dataset_volume(library: ProteinLibrary) -> DatasetVolume:
    """Volume of the full phase-style dataset for ``library``.

    One merged file per ordered couple; one line per
    (starting position, orientation couple) optimum, priced in both
    formats by :func:`repro.store.format.result_bytes` — the store's lazy
    import keeps this module import-light.
    """
    from ..store.format import result_bytes

    n = len(library)
    lines = int(library.nsep.sum()) * n * constants.N_ROT_COUPLES
    n_files = n * n
    return DatasetVolume(
        n_files=n_files,
        total_lines=lines,
        raw_bytes=result_bytes(lines, n_files),
        columnar_bytes=result_bytes(lines, n_files, "columnar"),
    )
