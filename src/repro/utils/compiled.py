"""Optional compiled tier for the dense Hamming matrix.

The dense Hamming matrix (:func:`repro.utils.bitops._matrix_rows`)
spends its time in broadcast temporaries that a short native loop
eliminates.  This module provides that loop behind a strict contract:

* **Env-gated.**  ``REPRO_COMPILED`` selects the tier: unset/``0``
  keeps the pure-numpy kernels (the default — importing this module
  never compiles anything); ``1``/``auto`` picks the best available
  implementation; ``numba`` or ``cc`` pin one.  A requested tier that
  is unavailable falls back to numpy with a one-time
  :class:`RuntimeWarning` — outputs never change, only wall time.
* **Identical outputs.**  Every compiled kernel reproduces the numpy
  kernel bit for bit (same dtypes, same ordering, same tie-breaks);
  ``tests/test_utils_compiled.py`` pins this, and the parallel
  identity suite runs unchanged on top.
* **No new dependencies.**  The ``numba`` tier activates only when
  numba is already importable.  The ``cc`` tier compiles a small C
  file at first use with whatever C compiler the host already has
  (``cc``/``gcc``/``clang``), caching the shared object under the
  system temp directory keyed by source digest — so the compile cost
  is paid once per source revision, not per process, and forked pool
  workers inherit the loaded library for free.  Hosts with neither
  numba nor a compiler simply stay on numpy.

Callers probe with the ``*_or_none`` convention: each kernel returns
``None`` when the tier is off or unavailable, and the call site falls
through to its numpy implementation.  :func:`kernel_variant` suffixes
cost-model kernel names with the active tier so compiled-tier
throughput observations never contaminate numpy-tier calibration.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "ENV_COMPILED",
    "enabled",
    "hamming_matrix",
    "kernel_variant",
    "refresh",
    "tier",
]

ENV_COMPILED = "REPRO_COMPILED"

_OFF_VALUES = ("", "0", "off", "false", "no")
_AUTO_VALUES = ("1", "on", "true", "yes", "auto")

_C_SOURCE = r"""
/* Dense Hamming distances: out[i*nb + j] = popcount(a[i] ^ b[j]). */
void hamming_matrix(
    const unsigned long long *a, long long na,
    const unsigned long long *b, long long nb,
    long long *out)
{
    for (long long i = 0; i < na; i++) {
        const unsigned long long ai = a[i];
        long long *row = out + i * nb;
        for (long long j = 0; j < nb; j++)
            row[j] = (long long)__builtin_popcountll(ai ^ b[j]);
    }
}
"""

_LL = ctypes.c_longlong
_LL_P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U64_P = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")

_lock = threading.Lock()
_resolved: dict | None = None


def refresh() -> None:
    """Forget the resolved tier (tests flip ``REPRO_COMPILED`` and call
    this; production code never needs it)."""
    global _resolved
    with _lock:
        _resolved = None


def _find_compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


# -march=native matters here, not just -O3: without it the compiler
# targets the baseline ISA, where __builtin_popcountll expands to a
# multi-instruction bit-twiddling sequence instead of the single POPCNT
# the popcount inner loop is designed around.  Hosts whose
# compiler rejects the flag (rare cross toolchains) fall back to plain
# -O3 — slower, still correct.
_CC_FLAGS = ("-O3", "-march=native")
_CC_FALLBACK_FLAGS = ("-O3",)


def _load_cc_library() -> ctypes.CDLL | None:
    """Compile (once per source+flags digest) and load the C kernels."""
    key = _C_SOURCE + "\n//" + " ".join(_CC_FLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    lib_path = Path(tempfile.gettempdir()) / f"repro_kernels_{digest}.so"
    if not lib_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            return None
        try:
            with tempfile.TemporaryDirectory() as build_dir:
                source = Path(build_dir) / "repro_kernels.c"
                source.write_text(_C_SOURCE)
                built = Path(build_dir) / "repro_kernels.so"
                for flags in (_CC_FLAGS, _CC_FALLBACK_FLAGS):
                    result = subprocess.run(
                        [
                            compiler,
                            *flags,
                            "-shared",
                            "-fPIC",
                            "-o",
                            str(built),
                            str(source),
                        ],
                        capture_output=True,
                        timeout=120,
                    )
                    if result.returncode == 0:
                        break
                else:
                    return None
                # Atomic publish: concurrent processes compiling the
                # same digest race benignly to an identical file.
                os.replace(built, lib_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError:
        return None
    lib.hamming_matrix.restype = None
    lib.hamming_matrix.argtypes = [_U64_P, _LL, _U64_P, _LL, _LL_P]
    return lib


def _load_numba_kernels() -> dict | None:  # pragma: no cover - needs numba
    """JIT the Hamming matrix with numba when it is already installed."""
    try:
        import numba
    except ImportError:
        return None

    @numba.njit(cache=False)
    def matrix(a, b, out):
        for i in range(a.size):
            ai = a[i]
            for j in range(b.size):
                x = ai ^ b[j]
                count = 0
                while x:
                    x &= x - np.uint64(1)
                    count += 1
                out[i, j] = count

    try:  # trigger compilation now so failures demote the tier here
        probe = np.zeros(1, dtype=np.uint64)
        matrix(probe, probe, np.zeros((1, 1), dtype=np.int64))
    except Exception:
        return None
    return {"matrix": matrix}


def _resolve() -> dict:
    """The active tier: ``{"tier": name, "lib": ..., "numba": ...}``."""
    global _resolved
    with _lock:
        if _resolved is not None:
            return _resolved
        requested = os.environ.get(ENV_COMPILED, "").strip().lower()
        state: dict = {"tier": "numpy", "lib": None, "numba": None}
        if requested in _OFF_VALUES:
            _resolved = state
            return state
        want_numba = requested in _AUTO_VALUES or requested == "numba"
        want_cc = requested in _AUTO_VALUES or requested in ("cc", "native")
        if requested not in _AUTO_VALUES and not (want_numba or want_cc):
            warnings.warn(
                f"ignoring malformed {ENV_COMPILED}={requested!r}; expected "
                "0/1/auto/numba/cc; compiled tier stays off",
                RuntimeWarning,
                stacklevel=3,
            )
            _resolved = state
            return state
        if want_numba:
            kernels = _load_numba_kernels()
            if kernels is not None:
                state["tier"] = "numba"
                state["numba"] = kernels
        if want_cc and state["tier"] == "numpy":
            lib = _load_cc_library()
            if lib is not None:
                state["tier"] = "cc"
                state["lib"] = lib
        if state["tier"] == "numpy":
            warnings.warn(
                f"{ENV_COMPILED}={requested!r} requested a compiled tier "
                "but neither numba nor a C compiler is usable; falling "
                "back to the pure-numpy kernels (identical results)",
                RuntimeWarning,
                stacklevel=3,
            )
        _resolved = state
        return state


def tier() -> str:
    """The active implementation tier: ``"numba"``, ``"cc"``, or ``"numpy"``."""
    return _resolve()["tier"]


def enabled() -> bool:
    """True when a compiled implementation is active."""
    return tier() != "numpy"


def kernel_variant(kernel: str) -> str:
    """Cost-model kernel key for the active tier.

    Compiled and numpy implementations have very different throughputs;
    keying observations by tier keeps one tier's EWMA from steering the
    other's dispatch.
    """
    active = tier()
    return kernel if active == "numpy" else f"{kernel}+{active}"


def hamming_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Compiled dense Hamming matrix, or ``None`` for the numpy path."""
    state = _resolve()
    if state["tier"] == "numpy":
        return None
    a = np.ascontiguousarray(a, dtype=np.uint64).reshape(-1)
    b = np.ascontiguousarray(b, dtype=np.uint64).reshape(-1)
    out = np.empty((a.size, b.size), dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return out
    if state["tier"] == "numba":  # pragma: no cover - needs numba
        state["numba"]["matrix"](a, b, out)
        return out
    state["lib"].hamming_matrix(a, a.size, b, b.size, out.reshape(-1))
    return out

