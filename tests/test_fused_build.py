"""The native library is built, kept and used, or a test says why not.

* Where a C compiler is found and ``REPRO_NO_FUSED`` is unset, ``load()``
  returns a library with every symbol ``_bind`` binds: a ``_fused.c``
  that stops compiling fails here instead of silently running every
  kernel on its numpy or zlib fallback.
* A build, once loaded, removes the cache's libraries of other sources
  except those built in the last ``_PRUNE_AGE_S`` (another checkout may be
  loading one) and keeps this source's, for both flag sets; the next
  process loads without building.
* The reduce (read -> check -> merge -> matrix) gives the same report,
  merged bytes and matrix with the library as without it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.maxdo import _fused
from repro.maxdo.resultfile import RESULT_DTYPE, ResultHeader
from repro.store import (
    ColumnarSegment,
    check_store,
    energy_matrix,
    merge_couple_store,
    read_store,
    write_store,
)

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}

needs_library = pytest.mark.skipif(
    bool(os.environ.get("REPRO_NO_FUSED")) or _fused._find_compiler() is None,
    reason="no C compiler, or the native library is switched off",
)


def run_child(code: str, **env: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code], env={**ENV, **env}, cwd=REPO,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@needs_library
def test_the_library_loads_with_every_symbol_bind_binds():
    lib = _fused.load()
    assert lib is not None, "_fused.c did not build or load"
    source = inspect.getsource(_fused._bind)
    for name in set(re.findall(r"lib\.(maxdo_\w+)", source)):
        optional = f'hasattr(lib, "{name}")' in source  # target-dependent
        assert optional or hasattr(lib, name), name


@needs_library
def test_a_build_removes_superseded_builds_only(tmp_path):
    cache = tmp_path / f"repro-fused-{os.getuid()}"
    cache.mkdir()
    native, base = _fused._builds(cache)
    stale = [cache / "_fused-0123456789abcdef.so", cache / "_fused-feedfacefeedface.so"]
    young = cache / "_fused-00000000000000aa.so"  # another checkout's, just built
    for path in (*stale, young, base, cache / "notes.txt"):
        path.write_bytes(b"not a library")
    for path in (*stale, base):
        os.utime(path, (0, time.time() - _fused._PRUNE_AGE_S - 60))
    load = "from repro.maxdo import _fused; print(_fused.load()._name)"
    assert run_child(load, TMPDIR=str(tmp_path)) == str(native)
    assert not any(path.exists() for path in stale)
    assert young.exists()
    assert base.read_bytes() == b"not a library"  # this source's, kept
    assert (cache / "notes.txt").exists()
    built = native.stat()
    assert run_child(load, TMPDIR=str(tmp_path)) == str(native)
    assert (native.stat().st_ino, native.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


def planted_store(path: Path) -> None:
    """Two couples in six chunks: one couple's chunks out of order with a
    tie across a chunk boundary (the ``lexsort`` merge), and chunks with
    NaN, +inf, an out-of-range coordinate and energy, a non-positive
    index, an energy-sum mismatch and a short line count."""
    rng = np.random.default_rng(5)
    segments = []
    for receptor, ligand, order in (("R1", "L1", [0, 1, 2]), ("R1", "L2", [2, 0, 1])):
        for k in order:
            rec = np.zeros(12, RESULT_DTYPE)
            rec["isep"] = np.repeat([1 + 2 * k, 2 + 2 * k], 6)
            rec["irot"] = np.tile(np.arange(1, 7), 2)
            rec["igamma"] = rng.integers(1, 5, 12)
            for name, scale in (("x", 50.0), ("y", 50.0), ("z", 50.0), ("e_lj", 20.0), ("e_elec", 5.0)):
                rec[name] = np.round(rng.normal(0.0, scale, 12), 3 if scale == 50.0 else 4)
            rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
            segments.append([ResultHeader(receptor, ligand, 1 + 2 * k, 2, 6, 4), rec])
    faults = [("x", 0, np.nan), ("e_tot", 1, np.inf), ("y", 2, 500.001),
              ("e_elec", 3, 2e6), ("irot", 4, 0), ("e_tot", 5, 1.0)]
    for (name, row, value), (_, rec) in zip(faults, segments):
        rec[name][row] = value
    segments[3][1]["irot"][6] = segments[3][1]["irot"][5] = 3  # a tie
    segments[4][1] = segments[4][1][:-1]  # one line short
    write_store(path, [ColumnarSegment.from_records(h, rec) for h, rec in segments])


def reduce_digest(directory: str) -> dict:
    """read -> check -> merge -> matrix over the planted store, as digests."""
    planted_store(Path(directory) / "chunks.rcs")
    store = read_store(Path(directory) / "chunks.rcs")
    report = check_store(store)
    merge_couple_store(store, Path(directory) / "merged.rcs")
    merged = (Path(directory) / "merged.rcs").read_bytes()
    return {"report": repr(report), "flagged": len(report.files_with_bad_values),
            "short": len(report.files_with_bad_line_count),
            "merged": hashlib.sha256(merged).hexdigest(),
            "matrix": energy_matrix(store)[0].tobytes().hex()}


@needs_library
def test_the_reduce_is_the_same_without_the_library(tmp_path):
    (tmp_path / "native").mkdir()
    (tmp_path / "numpy").mkdir()
    native = reduce_digest(str(tmp_path / "native"))
    assert (native["flagged"], native["short"]) == (6, 1)
    fallback = run_child(
        "import json; from tests.test_fused_build import reduce_digest; "
        f"print(json.dumps(reduce_digest({str(tmp_path / 'numpy')!r})))",
        REPRO_NO_FUSED="1",
    )
    assert json.loads(fallback) == native
