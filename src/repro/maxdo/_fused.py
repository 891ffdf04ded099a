"""On-demand build + ctypes bindings for the native library: the fused
docking kernels, the text ingest's fixed-column reader, the store's CRC-32.

Compiles ``_fused.c`` with whatever C compiler the host happens to have
(``$CC``, ``cc``, ``gcc`` or ``clang``) into a per-user temp cache keyed by
a hash of the source and flags, and exposes thin numpy wrappers.  Nothing
here is required: :func:`load` returns ``None`` when there is no compiler
(or when ``REPRO_NO_FUSED`` is set); the batched kernels in
:mod:`repro.maxdo.energy` then fall back to pure numpy,
:mod:`repro.store.convert` reads codes with an integer ``np.loadtxt`` and
:mod:`repro.store.format` takes ``zlib.crc32``.  Each loads it at first use.

The build deliberately avoids ``-ffast-math`` and forces
``-ffp-contract=off``: the C kernels are contractually bit-identical to
the scalar numpy reference kernels, which a fused multiply-add or a
reassociated reduction would silently break (see the header of
``_fused.c``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

__all__ = ["load", "phase_a", "phase_grad", "phase_energy"]

_SOURCE = Path(__file__).with_name("_fused.c")
#: -fno-math-errno is value-safe (sqrt stays correctly rounded, it just
#: stops setting errno) and is what lets the compiler vectorize the
#: sqrt-bearing loops; -ffast-math would NOT be safe (reassociation).
_BASE_FLAGS = ["-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared"]

_lib: ctypes.CDLL | None = None
_load_attempted = False

_f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_u8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_c_long = ctypes.c_long
_c_double = ctypes.c_double


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _build(cc: str, flags: list[str], out: Path) -> bool:
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    cmd = [cc, *flags, str(_SOURCE), "-o", str(tmp), "-lm"]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        return False
    os.replace(tmp, out)  # atomic: concurrent builders can't torn-read
    return True


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.maxdo_phase_a.restype = None
    lib.maxdo_phase_a.argtypes = [
        _f64, _f64, _c_long, _c_long, _c_long, _c_double, _c_double,
        _f64, _f64,
    ]
    lib.maxdo_phase_grad.restype = None
    lib.maxdo_phase_grad.argtypes = [
        _f64, _f64, _f64, _f64, _f64, _f64, _f64,
        _c_long, _c_long, _c_long, _c_double,
        _f64, _f64, _f64,
    ]
    lib.maxdo_phase_energy.restype = None
    lib.maxdo_phase_energy.argtypes = [
        _f64, _f64, _f64, _f64, _f64,
        _c_long, _c_long, _c_long,
        _f64, _f64,
    ]
    lib.maxdo_fixed_codes.restype = ctypes.c_int
    lib.maxdo_fixed_codes.argtypes = [
        _u8, _c_long, _c_long, _i64, _i64, _i64, _c_long, _i64,
    ]
    if hasattr(lib, "maxdo_crc32"):  # built only for a target with PCLMULQDQ
        lib.maxdo_crc32.restype = ctypes.c_uint32
        lib.maxdo_crc32.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_uint32]
    return lib


def load() -> ctypes.CDLL | None:
    """Compile (once per source hash) and load the native library.

    Returns ``None`` when it is unavailable; callers must fall back to
    their numpy implementation.  Safe to call repeatedly and from
    worker processes — the compiled library is cached on disk.
    """
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_FUSED"):
        return None
    try:
        if not _SOURCE.exists():
            return None
        cc = _find_compiler()
        if cc is None:
            return None
        for flags in ([*_BASE_FLAGS, "-march=native"], _BASE_FLAGS):
            tag = hashlib.sha256(
                _SOURCE.read_bytes() + " ".join(flags).encode()
            ).hexdigest()[:16]
            cache = Path(tempfile.gettempdir()) / f"repro-fused-{os.getuid()}"
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            out = cache / f"_fused-{tag}.so"
            if out.exists() or _build(cc, flags, out):
                try:
                    _lib = _bind(ctypes.CDLL(str(out)))
                    return _lib
                except (OSError, AttributeError):
                    # unloadable cache artifact, or a stale library missing
                    # a symbol _bind expects; try the next flag set
                    continue
        return None
    except OSError as exc:
        # Cache-directory setup failed (read-only tmp, permissions, ...).
        # The numpy fallback is silent by design everywhere else in this
        # function — compiler absent, build failed — because those are
        # expected environments; an unusable temp dir is not, so say why
        # the fast path vanished instead of quietly running ~2x slower.
        warnings.warn(
            f"native kernels disabled ({exc}); using the numpy "
            "fallbacks",
            RuntimeWarning,
            stacklevel=2,
        )
        _lib = None
        return None


def phase_a(
    coords: np.ndarray,
    rec: np.ndarray,
    soft2: float,
    debye_length: float,
    r2: np.ndarray,
    targ: np.ndarray,
) -> None:
    """Fill ``r2`` and the (pre-exp) Debye arguments for a pose chunk."""
    lib = load()
    n_poses, m, _ = coords.shape
    n = rec.shape[0]
    lib.maxdo_phase_a(
        coords, rec, n_poses, m, n, soft2, debye_length, r2, targ
    )


def phase_grad(
    coords: np.ndarray,
    rec: np.ndarray,
    r2: np.ndarray,
    screen: np.ndarray,
    sigma2: np.ndarray,
    eps_lj: np.ndarray,
    q_coef: np.ndarray,
    debye_length: float,
    e_lj: np.ndarray,
    e_el: np.ndarray,
    bead_grad: np.ndarray,
) -> None:
    """Fill pair energies and per-bead gradients for a pose chunk."""
    lib = load()
    n_poses, m, _ = coords.shape
    n = rec.shape[0]
    lib.maxdo_phase_grad(
        coords, rec, r2, screen, sigma2, eps_lj, q_coef,
        n_poses, m, n, debye_length, e_lj, e_el, bead_grad,
    )


def phase_energy(
    r2: np.ndarray,
    screen: np.ndarray,
    sigma2: np.ndarray,
    eps_geom: np.ndarray,
    q_coef: np.ndarray,
    e_lj: np.ndarray,
    e_el: np.ndarray,
) -> None:
    """Fill (unscaled-LJ) pair energy arrays for a pose chunk."""
    lib = load()
    n_poses, m, n = r2.shape
    lib.maxdo_phase_energy(
        r2, screen, sigma2, eps_geom, q_coef, n_poses, m, n, e_lj, e_el
    )
