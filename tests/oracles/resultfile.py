"""Result-file oracles: the per-row formatter and the per-line parser."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.maxdo.resultfile import (
    RESULT_DTYPE as _DTYPE,
    ResultTable,
    _parse_header,
    _records_from_columns,
)

__all__ = ["format_record", "read_results_reference"]


def format_record(
    isep: int,
    irot: int,
    igamma: int,
    position: np.ndarray,
    euler: np.ndarray,
    e_lj: float,
    e_elec: float,
) -> str:
    """Format one evaluation as a result-file data line (no newline)."""
    x, y, z = position
    a, b, g = euler
    return (
        f"{isep:7d} {irot:3d} {igamma:3d} "
        f"{x:10.3f} {y:10.3f} {z:10.3f} "
        f"{a:8.4f} {b:8.4f} {g:8.4f} "
        f"{e_lj:13.4f} {e_elec:13.4f} {e_lj + e_elec:13.4f}"
    )


def read_results_reference(path: Path | str) -> ResultTable:
    """The original per-line ``np.loadtxt`` parser, kept as the equivalence
    oracle for :func:`read_results` (and for honesty in parser benchmarks)."""
    path = Path(path)
    header_lines: list[str] = []
    data = io.StringIO()
    n_data = 0
    with path.open("r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                header_lines.append(line.rstrip("\n"))
            elif line.strip():
                data.write(line)
                n_data += 1
    header = _parse_header(header_lines)
    if n_data:
        data.seek(0)
        raw = np.loadtxt(data, ndmin=2)
        if raw.shape[1] != len(_DTYPE.names):
            raise ValueError(
                f"expected {len(_DTYPE.names)} columns, got {raw.shape[1]}"
            )
        records = _records_from_columns(raw)
    else:
        records = np.zeros(0, dtype=_DTYPE)
    return ResultTable(header=header, records=records)
