"""Build and load the compiled library (_tracker.c) through ctypes.

The library holds the loops that numpy runs slowly, in four entries:
close_group, which closes a row group's whole loop in one call from the
cell's causal taps and the group's (rows, m) arrays, the steady-state lead,
the taps' partition spectra, the far history's real FFTs and multiply-add and
each block's closure included; normals, a row group's white Gaussian draws,
numpy's Philox streams and ziggurat bit for bit; spectrum_product, a filter's
product with a spectrum in place; and levinson, the Toeplitz solve of the
Wiener-Hopf normal equations.  It exports nothing else but kernel_isa.
Kernel checks that a group's arrays are C-contiguous float64 blocks of the
group's shape before the call, since the library gets raw pointers, one per
array, and normals checks its streams' seed and trials with rng's checks.
The spectra are split real and imaginary planes, and each real product of a
complex product is rounded on its own, so the bits are the same on every
CPU.  Each ctypes call releases the interpreter lock.  The cloned functions
are built on x86-64 with glibc for avx512f and for the baseline, and the
loader runs the avx512f builds where the CPU has it, as normals runs its
avx512f path; both give the same bits, since nothing is contracted or
reassociated.  Kernel.isa names the clone this process runs.  The library is
built on the first call to load(), with the interpreter's C compiler and
flags that keep its rounding equal to the numpy forms', and cached in this
package's __pycache__ under a hash of the source and the flags, so later
processes only load it.  Where __pycache__ is not writable it is built into
a private temporary directory for this process alone.  Where there is no
compiler or the build fails, load() returns _numpy_kernel, the numpy forms of
the four entries, which give the same bits: pll, grids and wiener call
whichever it returns.
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

from . import _numpy_kernel, rng

SOURCE = Path(__file__).with_name("_tracker.c")
# No -ffast-math or -march=native, and no fused multiply-adds: the kernel
# must round like the numpy forms and rebuild to the same results anywhere.
# -O3 vectorises the loops across rows (in the avx512f clone the closure's
# step too) and the filter products across bins; that never reorders or
# contracts an element's operations, so both clones give the same bits.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_loaded = {}  # "kernel": the Kernel or _numpy_kernel, once load() has run
_lock = threading.Lock()  # one build, however many threads call load() at once


class _Group(ctypes.Structure):
    """struct group of _tracker.c: a row group's arrays, bound once."""

    _fields_ = [*[(name, ctypes.c_int) for name in ("n", "rows", "nt", "m", "parts")],
                ("twoa", ctypes.c_double),
                *[(name, ctypes.c_void_p) for name in
                  ("taps", "phibar", "x0", "y0", "rec", "phip", "work", "hist")]]


def _contiguous(a: np.ndarray, dtype, shape: tuple, writeable: bool = False) -> bool:
    """Whether a is a C-contiguous array of the dtype and shape (and
    writeable, if asked)."""
    return (a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
            and (a.flags.writeable or not writeable))


def _aligned(size: int) -> np.ndarray:
    """An empty float64 array of size entries starting on a 64-byte boundary,
    a cache line and an AVX-512 vector: the library's work space."""
    buf = np.empty(size + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start: start + size]


class Kernel:
    """The loaded library: close_group, normals, spectrum_product and
    levinson, with the parameters of their numpy forms (_numpy_kernel)."""

    def __init__(self, lib: ctypes.CDLL, digest: str):
        self.digest = digest
        lib.kernel_isa.argtypes = []
        lib.kernel_isa.restype = ctypes.c_char_p
        self.isa = lib.kernel_isa().decode()  # the clone this CPU runs
        signatures = {
            "levinson": ([ctypes.c_int, *[ctypes.c_void_p] * 4], ctypes.c_int),
            "close_group": ([ctypes.c_void_p], None),
            "normals": ([ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int, ctypes.c_void_p,
                         ctypes.c_int, ctypes.c_int, ctypes.c_void_p], None),
            "spectrum_product": ([ctypes.c_ssize_t, ctypes.c_int, *[ctypes.c_void_p] * 2], None)}
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
            setattr(self, f"_{name}", fn)

    def close_group(self, taps, twoa, phibar, x0, y0, rec, phip):
        """Close a row group's whole loop in one call, every row starting in
        lock, from the cell's causal taps, lag 0 first, in blocks of
        n = min(_numpy_kernel._BLOCK, nt) samples, nt = taps.size <= m; n must
        be a power of two that divides nt and m.  Every array is checked
        first: dtype, shape, C order and writeable outputs."""
        shape, nt = phibar.shape, taps.size
        n = min(_numpy_kernel._BLOCK, nt)
        arrays = [(a, False) for a in (phibar, x0, y0) if a is not None]
        arrays += [(rec, True), (phip, True)]
        if (len(shape) != 2 or not all(_contiguous(a, np.float64, shape, w) for a, w in arrays)
                or not _contiguous(taps, np.float64, (nt,))
                or not 1 <= nt <= shape[1] or n & (n - 1) or nt % n or shape[1] % n):
            raise ValueError("tracker group arrays do not match")
        (rows, m), parts = shape, nt // n
        work = _aligned(max((5 * n + 3) * rows, (parts + 1) * (6 * n + 2)))
        hist = _aligned(((parts + 1) * (n + 1) * 2 + 6 * n) * rows + 2 * n + 2 * parts * (n + 1))
        pointers = [None if a is None else a.ctypes.data
                    for a in (taps, phibar, x0, y0, rec, phip, work, hist)]
        group = _Group(n, rows, nt, m, parts, twoa, *pointers)
        self._close_group(ctypes.byref(group))  # the arrays stay alive until it returns

    def normals(self, seed, trials, purpose, quads, m):
        """The C-contiguous (quads, len(trials), m) planes of standard normal
        draws whose row row is rng.stream(seed, trials[row], purpose)'s
        first quads m, plane by plane.  Every stream is checked first, by
        rng.counter."""
        for trial in trials:
            rng.counter(seed, trial, purpose)
        out = np.empty((quads, len(trials), m))
        if out.size:
            index = np.array(trials, dtype=np.uint64)
            self._normals(seed, purpose, index.size, index.ctypes.data, quads, m,
                          out.ctypes.data)
        return out

    def spectrum_product(self, spectrum: np.ndarray, h: np.ndarray) -> None:
        """spectrum *= the response whose (2, bins) planes are h, in place,
        along the last axis."""
        bins = spectrum.shape[-1] if spectrum.ndim else 0
        if not (_contiguous(spectrum, np.complex128, spectrum.shape, writeable=True)
                and _contiguous(h, np.float64, (2, bins))):
            raise ValueError("spectrum and response planes do not match")
        if spectrum.size:
            self._spectrum_product(spectrum.size // bins, bins, spectrum.ctypes.data,
                                   h.ctypes.data)

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


def load():
    """The compiled library, built on first use, or _numpy_kernel if it
    cannot be built."""
    with _lock:
        if "kernel" not in _loaded:
            _loaded["kernel"] = _build() or _numpy_kernel
    return _loaded["kernel"]


def describe() -> str:
    """The path this process's closed loop and solves have taken (the
    library's hash and clone, numpy, or not run), for the run manifest."""
    if "kernel" not in _loaded:
        return "not run"
    kernel = _loaded["kernel"]
    return "numpy" if kernel is _numpy_kernel else f"c kernel {kernel.digest} ({kernel.isa})"
