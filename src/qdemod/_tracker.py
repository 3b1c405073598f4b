"""Build and load the compiled library (_tracker.c) through ctypes.

The library holds the two loops that numpy runs slowly: track_block, the
inner loop of one tracker history block (pll._track_block in numpy), and
levinson, the Toeplitz solve of the Wiener-Hopf normal equations
(wiener._levinson in numpy).  It is built on the first call to load(), with
the interpreter's C compiler and flags that keep its rounding equal to the
numpy loops', and cached in this package's __pycache__ under a hash of the
source and the flags, so later processes only load it.  Where __pycache__ is
not writable it is built into a private temporary directory for this process
alone.  load() returns None when there is no compiler or the build fails;
pll and wiener then run their numpy loops instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_tracker.c")
# No -ffast-math or -march=native, and no fused multiply-adds: the kernel
# must round like the numpy loops and rebuild to the same results anywhere.
# -O3 vectorises the in-block lag loop across rows, which never reorders a
# row's sum.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_loaded = {}  # "kernel": the Kernel or None, once load() has run
_lock = threading.Lock()  # one build, however many threads call load() at once


class Kernel:
    """The loaded library: a call runs track_block behind the numpy loop's
    signature, and levinson(c, b) the normal-equation solve."""

    def __init__(self, lib: ctypes.CDLL, digest: str):
        self.digest = digest
        self._levinson = lib.levinson
        self._levinson.argtypes = [ctypes.c_int, *[ctypes.c_void_p] * 4]
        self._levinson.restype = ctypes.c_int
        self._fn = lib.track_block
        # Raw pointers, checked in __call__: numpy's ndpointer spends tens of
        # microseconds a call in Python, holding the interpreter lock that
        # the other row groups' threads are waiting for.
        self._fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_double,
                             *[ctypes.c_void_p] * 9]
        self._fn.restype = None

    def __call__(self, l0, trev, cbase, amp, dpsi, q, r0, u, rec, phip):
        n, rows = cbase.shape
        nt = trev.size + 1
        arrays = (cbase, amp, dpsi, q, r0, trev, u, rec, phip)
        if (any(a.shape != (n, rows) for a in (amp, dpsi, q, r0, rec, phip))
                or u.shape != (rows,) or n > nt
                or any(a.dtype != np.float64 or not a.flags.c_contiguous for a in arrays)
                or not all(a.flags.writeable for a in (u, rec, phip))):
            raise ValueError("tracker block arrays do not match")
        self._fn(n, rows, nt, l0, *[a.ctypes.data for a in arrays])

    def levinson(self, c: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with sum_k c[|j - k|] x_k = b_j, for float64 c and b of one size."""
        c, b = (np.ascontiguousarray(a, dtype=np.float64) for a in (c, b))
        if c.shape != b.shape or c.ndim != 1 or c.size == 0:
            raise ValueError("levinson needs c and b of one nonzero length")
        x, g = np.empty(b.size), np.empty(b.size)
        if self._levinson(b.size, c.ctypes.data, b.ctypes.data, x.ctypes.data, g.ctypes.data):
            raise np.linalg.LinAlgError("Singular principal minor")
        return x


def _compile(directory: Path, name: str) -> Path:
    """Build the library into directory/name, replacing it atomically."""
    directory.mkdir(exist_ok=True)
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    with tempfile.NamedTemporaryFile(dir=directory, suffix=".so", delete=False) as fh:
        tmp = Path(fh.name)
    try:
        subprocess.run([*cc, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
                       check=True, capture_output=True, timeout=120)
        tmp.replace(directory / name)
    finally:
        tmp.unlink(missing_ok=True)
    return directory / name


def _build() -> Kernel | None:
    try:
        source = SOURCE.read_bytes()
    except OSError:  # an install without the source
        return None
    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    name = f"_tracker-{digest}.so"
    cached = SOURCE.parent / "__pycache__" / name
    try:
        if not cached.exists():
            _compile(cached.parent, name)
        return Kernel(ctypes.CDLL(str(cached)), digest)
    except (OSError, subprocess.SubprocessError):
        pass  # no compiler, a failed build or an unwritable __pycache__
    private = Path(tempfile.mkdtemp(prefix="qdemod-tracker-"))
    try:
        return Kernel(ctypes.CDLL(str(_compile(private, name))), digest)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(private, ignore_errors=True)  # a loaded library stays mapped


def load() -> Kernel | None:
    """The compiled library, built on first use; None if it cannot be."""
    with _lock:
        if "kernel" not in _loaded:
            _loaded["kernel"] = _build()
    return _loaded["kernel"]


def describe() -> str:
    """The path this process's closed loop and solves have taken (the
    library's hash, numpy, or not run), for the run manifest."""
    if "kernel" not in _loaded:
        return "not run"
    kernel = _loaded["kernel"]
    return "numpy" if kernel is None else f"c kernel {kernel.digest}"
