"""The stratified-quantile memo returns scipy's bytes, hit or miss.

``repro._cache.stratified`` stands in for the ``scipy.special`` calls
the protein library (``ndtri``) and the cost model (``stdtrit``) made
directly.  A memo file is scipy's own output plus a CRC-32, keyed by the
scipy build; anything else on disk is a miss that recomputes and
rewrites, and a cache that cannot be written costs the memo, not the
values.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from repro import _cache
from repro.maxdo.cost_model import NOISE_TAIL_DF, CostModel
from repro.proteins import library as library_module
from repro.proteins.library import ProteinLibrary

SRC = Path(__file__).resolve().parents[1] / "src"

_ndtri, _stdtrit = scipy.special.ndtri, scipy.special.stdtrit

#: the scipy calls the memo replaced, as the callers made them
DIRECT = {
    "ndtri": lambda n: _ndtri((np.arange(n) + 0.5) / n),
    "stdtrit": lambda n: _stdtrit(NOISE_TAIL_DF, (np.arange(n) + 0.5) / n),
}
PARAMS = {"ndtri": (), "stdtrit": (NOISE_TAIL_DF,)}

#: sha256 of the ``nsep`` and ``Mct`` bytes over
#: the sizes and seeds of :func:`library_digest`, as computed with
#: scipy called directly
LIBRARY_DIGEST = "d403f0d03167914d202117d4c28bab0ac9e9c210533716170da7e34edb131d10"


@pytest.fixture
def misses(tmp_path, monkeypatch) -> list[str]:
    """An empty cache; the names of the scipy functions each miss calls."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    calls: list[str] = []
    for name in DIRECT:
        real = getattr(scipy.special, name)
        monkeypatch.setattr(
            scipy.special, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
        )
    return calls


def memo(name: str, n: int) -> np.ndarray:
    return _cache.stratified(name, n, *PARAMS[name])


def memo_files() -> list[Path]:
    """Everything in the cache directory, temp files included."""
    return sorted(_cache.cache_dir().iterdir())


def framed(payload: bytes) -> bytes:
    """A memo file's bytes around ``payload``: a valid CRC, any length."""
    return payload + zlib.crc32(payload).to_bytes(4, "little")


@pytest.mark.parametrize("name", DIRECT)
def test_a_miss_and_a_hit_give_scipy_bytes(name, misses):
    for k in range(1, 201):
        n = k * k if name == "stdtrit" else k
        direct = DIRECT[name](n).tobytes()
        assert memo(name, n).tobytes() == direct
        assert memo(name, n).tobytes() == direct
    assert misses == [name] * 200  # every second call was a hit


@pytest.mark.parametrize("damage", [
    lambda data: data[:-3],
    lambda data: data[:17] + bytes([data[17] ^ 0x10]) + data[18:],
    lambda data: framed(data[:-4] + data[:8]),
], ids=["truncated", "bit-flipped", "wrong-length"])
def test_a_damaged_file_is_a_miss_that_rewrites_it(damage, misses):
    expected = DIRECT["stdtrit"](36).tobytes()
    memo("stdtrit", 36)
    (path,) = memo_files()
    good = path.read_bytes()
    path.write_bytes(damage(good))
    assert memo("stdtrit", 36).tobytes() == expected
    assert misses == ["stdtrit", "stdtrit"]
    assert path.read_bytes() == good
    assert memo_files() == [path]  # no temp file left behind


def test_another_scipy_build_is_not_read(misses, monkeypatch):
    tag = _cache._scipy_tag
    monkeypatch.setattr(_cache, "_scipy_tag", lambda: "0ther0ld")
    memo("ndtri", 24)
    (other,) = memo_files()
    other.write_bytes(framed(np.zeros(24).tobytes()))
    monkeypatch.setattr(_cache, "_scipy_tag", tag)
    assert memo("ndtri", 24).tobytes() == DIRECT["ndtri"](24).tobytes()
    assert misses == ["ndtri", "ndtri"]
    assert len(memo_files()) == 2


def test_an_unusable_cache_still_gives_scipy_bytes(misses, tmp_path, monkeypatch):
    expected = DIRECT["ndtri"](10).tobytes()
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "file"))  # cannot mkdir
    assert memo("ndtri", 10).tobytes() == expected
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    memo("ndtri", 10)
    (path,) = memo_files()
    path.unlink()
    path.mkdir()  # cannot be read or replaced
    assert memo("ndtri", 10).tobytes() == expected
    assert memo_files() == [path] and path.is_dir()
    assert misses == ["ndtri"] * 3


def test_racing_cold_processes_both_get_scipy_bytes(misses, tmp_path):
    n = 168 * 168
    code = (
        "import hashlib; from repro._cache import stratified\n"
        f"print(hashlib.sha256(stratified('stdtrit', {n}, {NOISE_TAIL_DF!r}).tobytes()).hexdigest())"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(tmp_path)}
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    expected = hashlib.sha256(DIRECT["stdtrit"](n).tobytes()).hexdigest()
    assert outs == [expected, expected]
    assert len(memo_files()) == 1
    assert memo("stdtrit", n).tobytes() == DIRECT["stdtrit"](n).tobytes()
    assert misses == []  # the file the race left is whole


def library_digest() -> str:
    digest = hashlib.sha256()
    libraries = [
        ProteinLibrary.synthetic(n_proteins=n, seed=seed)
        for n in (1, 2, 3, 6, 10, 24, 48, 100, 200) for seed in (7, 23)
    ]
    for library in [*libraries, ProteinLibrary.phase1()]:
        digest.update(library.nsep.tobytes())
        digest.update(CostModel.calibrated(library).mct.tobytes())
    return digest.hexdigest()


def test_library_and_cost_matrix_bytes_are_scipys(misses, monkeypatch):
    cold = library_digest()
    assert misses  # the memo was empty
    warm_from = len(misses)
    warm = library_digest()
    assert len(misses) == warm_from  # every quantile came from disk
    direct = lambda name, n, *params: DIRECT[name](n)  # noqa: E731
    monkeypatch.setattr(library_module, "stratified", direct)
    monkeypatch.setattr("repro.maxdo.cost_model.stratified", direct)
    assert cold == warm == library_digest() == LIBRARY_DIGEST
