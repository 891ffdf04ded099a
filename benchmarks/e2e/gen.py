"""Input generator for the two ``results_*`` workloads.

Called outside every timed region and outside ``setup_s`` (by the first
set-up-only worker of a run, once its set-up has been timed): the
measuring worker receives only the files written here.
One seeded synthetic chunked upload set, shaped like Section 5.2's:
``couples`` x ``chunks`` result files of ``positions`` starting positions
each, with one NaN-corrupted chunk and one short chunk planted (check
verdicts must survive any format change).  ``results_ingest`` gets the
text files, ``results_reduce`` the same rows as a columnar store plus the
reference matrix computed here from the generator's own arrays.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.maxdo.resultfile import RESULT_DTYPE, ResultHeader, write_results
from repro.rng import stream
from repro.store import ColumnarSegment, render_lines, write_store

from catalog import ROWS_PER_POSITION

N_GAMMA = 10


def synth_chunk(rng, positions: int, isep_start: int) -> np.ndarray:
    """``positions`` x 210 text-representable result rows."""
    n = positions * ROWS_PER_POSITION
    rec = np.zeros(n, dtype=RESULT_DTYPE)
    rec["isep"] = np.repeat(
        np.arange(isep_start, isep_start + positions), ROWS_PER_POSITION
    )
    rec["irot"] = np.tile(np.arange(1, ROWS_PER_POSITION + 1), positions)
    rec["igamma"] = rng.integers(1, N_GAMMA + 1, size=n)
    # "+ 0.0" turns a rounded -0.0 into 0.0: the text format prints the
    # sign of a negative zero and the packed fixed-point columns drop it,
    # so such a row would not round-trip byte for byte
    for f in ("x", "y", "z"):
        rec[f] = np.round(rng.normal(0.0, 40.0, n), 3) + 0.0
    for f in ("alpha", "beta", "gamma"):
        rec[f] = np.round(rng.uniform(0.0, 6.2831, n), 4)
    rec["e_lj"] = np.round(rng.normal(-30.0, 12.0, n), 4) + 0.0
    rec["e_elec"] = np.round(rng.normal(-8.0, 4.0, n), 4) + 0.0
    rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4) + 0.0
    return rec


def generate(workload: str, params: dict, seed: int, out: str) -> dict:
    out = Path(out)
    out.mkdir()
    rng = stream(seed, "bench-e2e-results")
    couples, chunks, positions = (
        params["couples"], params["chunks"], params["positions"]
    )
    names = [f"p{i:03d}" for i in range(couples + 1)]
    as_text = workload == "results_ingest"
    text_dir = out / "chunks"
    if as_text:
        text_dir.mkdir(parents=True)
    files: list[str] = []
    segments: list[ColumnarSegment] = []
    flagged = {"bad_values": [], "bad_line_count": []}
    matrix = np.full((couples + 1, couples + 1), np.inf)
    rows = 0
    for c in range(couples):
        receptor, ligand = names[c], names[c + 1]
        for k in range(chunks):
            isep_start = 1 + k * positions
            rec = synth_chunk(rng, positions, isep_start)
            name = f"{receptor}_{ligand}_{isep_start}.result"
            if c == 0 and k == 0:
                # a corrupted upload: NaN energies on a few rows
                rec["e_lj"][:3] = np.nan
                rec["e_tot"][:3] = np.nan
                flagged["bad_values"].append(name)
            if c == 1 and k == 0:
                # a short upload: one line missing vs the header's claim
                rec = rec[:-1]
                flagged["bad_line_count"].append(name)
            header = ResultHeader(
                receptor=receptor, ligand=ligand, isep_start=isep_start,
                nsep=positions, n_couples=ROWS_PER_POSITION, n_gamma=N_GAMMA,
            )
            matrix[c, c + 1] = np.minimum(matrix[c, c + 1], rec["e_tot"].min())
            rows += len(rec)
            files.append(name)
            if as_text:
                write_results(text_dir / name, header, render_lines(rec))
            else:
                segments.append(
                    ColumnarSegment.from_records(header, rec, source=name)
                )
    expected = {
        "rows": rows, "files": files, "names": names, "flagged": flagged,
        # four chunks to round-trip back to text, the planted ones included
        "samples": sorted({files[0], files[chunks], files[len(files) // 2],
                           files[-1]}),
    }
    if as_text:
        expected["text_bytes"] = sum(
            (text_dir / f).stat().st_size for f in files
        )
    else:
        write_store(out / "chunks.rcs", segments)
        np.save(out / "matrix.npy", matrix)
    (out / "expected.json").write_text(json.dumps(expected))
    return expected
