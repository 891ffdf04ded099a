"""The per-user disk cache: the native library's builds and a memo of
``scipy.special`` quantiles, each file raw little-endian float64 bytes plus
their CRC-32 (never a pickle).  A wrong length or CRC is a miss."""

import contextlib
import importlib.util
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np


def cache_dir() -> Path:
    """``$TMPDIR/repro-fused-<uid>`` (mode 0700), made on first use, else ``OSError``."""
    path = Path(tempfile.gettempdir()) / f"repro-fused-{os.getuid()}"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def _scipy_tag() -> str:
    """scipy's build, from a stat of its ``version.py``: its metadata is slow to read."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise OSError("scipy is not installed")
    st = Path(spec.origin).with_name("version.py").stat()
    return f"{zlib.crc32(f'{spec.origin}|{st.st_size}|{st.st_mtime_ns}'.encode()):08x}"


def stratified(name: str, n: int, *params: float) -> np.ndarray:
    """``scipy.special.<name>(*params, (np.arange(n) + 0.5) / n)`` bit for bit; a
    hit imports no scipy, a miss writes the memo atomically if it can."""
    path = None
    with contextlib.suppress(OSError):
        path = cache_dir() / f"q-{'-'.join([name, *map(repr, params), str(n), _scipy_tag()])}.f8"
        data = path.read_bytes()
        if len(data) == 8 * n + 4 and zlib.crc32(data[:-4]) == int.from_bytes(data[-4:], "little"):
            return np.frombuffer(data, "<f8", n)
    import scipy.special

    values = getattr(scipy.special, name)(*params, (np.arange(n) + 0.5) / n)
    if path is not None:
        payload = values.astype("<f8").tobytes()
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        with contextlib.suppress(OSError):
            tmp.write_bytes(payload + zlib.crc32(payload).to_bytes(4, "little"))
            os.replace(tmp, path)  # atomic, as in _fused._build
        with contextlib.suppress(OSError):
            tmp.unlink()  # left by a failed write or replace
    return values
