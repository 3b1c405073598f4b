"""Build and load the compiled library (_tracker.c) through ctypes.

The library holds the loops that numpy runs slowly: track_block, which
closes one tracker history block of a row group straight from the group's
own arrays (pll._track_block in numpy); far_mac, a far-history step's
multiply-add over the stored block spectra (pll._far_mac); spectrum_product,
a filter's product with a spectrum in place (grids._spectrum_product); and
levinson, the Toeplitz solve of the Wiener-Hopf normal equations
(wiener._levinson in numpy).  A Kernel call binds a row group once,
checking its arrays, and returns the per-block call, which passes the
kernel only the block's offset and far history; Kernel.far_mac binds a
group's far history the same way.  far_mac and spectrum_product work on
split real and imaginary planes and round each real product of a complex
product on its own, so, unlike numpy's complex multiply, they give the
same bits on every CPU.  Each ctypes call releases the interpreter lock.
track_block, far_mac and spectrum_product are built twice on x86-64 with
glibc, for avx512f and for the baseline, and the loader runs the avx512f
builds where the CPU has it; both give the same bits, since nothing is
contracted or reassociated.  Kernel.isa names the clone this process runs.
The library is built on the first call to load(), with the interpreter's C
compiler and flags that keep its rounding equal to the numpy loops', and
cached in this package's __pycache__ under a hash of the source and the
flags, so later processes only load it.  Where __pycache__ is not writable
it is built into a private temporary directory for this process alone.
load() returns None when there is no compiler or the build fails; pll,
grids and wiener then run their numpy loops instead.
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
# -O3 vectorises the in-block lag and record loops across rows, and in the
# avx512f clone the closure's step too, and the planar products across bins;
# that never reorders or contracts an element's operations, so both clones
# give the same bits.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_loaded = {}  # "kernel": the Kernel or None, once load() has run
_lock = threading.Lock()  # one build, however many threads call load() at once


class _Group(ctypes.Structure):
    """struct group of _tracker.c: a row group's arrays, bound once."""

    _fields_ = [("n", ctypes.c_int), ("rows", ctypes.c_int), ("nt", ctypes.c_int),
                ("l0", ctypes.c_double), ("twoa", ctypes.c_double),
                *[(name, ctypes.c_void_p) for name in ("trev", "phibar", "x0", "y0")],
                *[(name, ctypes.c_ssize_t) for name in
                  ("phibar_stride", "x0_stride", "y0_stride", "fr_stride", "phip_stride")],
                *[(name, ctypes.c_void_p) for name in ("e", "fr", "phip", "work")]]


def _row_stride(a: np.ndarray) -> int | None:
    """a's row stride in float64 entries, or None unless a is a 2-d float64
    array whose rows are contiguous."""
    if a.dtype != np.float64 or a.ndim != 2 or a.strides[1] != 8 or a.strides[0] % 8:
        return None
    return a.strides[0] // 8


def _contiguous(a: np.ndarray, dtype, shape: tuple, writeable: bool = False) -> bool:
    """Whether a is a C-contiguous array of the dtype and shape (and
    writeable, if asked)."""
    return (a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
            and (a.flags.writeable or not writeable))


class Kernel:
    """The loaded library: a call binds a row group to track_block behind
    the numpy loop's signature (pll._track_block), far_mac and
    spectrum_product stand in for pll._far_mac and grids._spectrum_product,
    and levinson(c, b) is the normal-equation solve."""

    def __init__(self, lib: ctypes.CDLL, digest: str):
        self.digest = digest
        lib.kernel_isa.argtypes = []
        lib.kernel_isa.restype = ctypes.c_char_p
        self.isa = lib.kernel_isa().decode()  # the clone this CPU runs
        self._levinson = lib.levinson
        self._levinson.argtypes = [ctypes.c_int, *[ctypes.c_void_p] * 4]
        self._levinson.restype = ctypes.c_int
        self._fn = lib.track_block
        self._fn.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p, ctypes.c_ssize_t]
        self._fn.restype = None
        self._far_mac = lib.far_mac
        self._far_mac.argtypes = [*[ctypes.c_int] * 4, *[ctypes.c_void_p] * 4]
        self._far_mac.restype = None
        self._spectrum_product = lib.spectrum_product
        self._spectrum_product.argtypes = [ctypes.c_ssize_t, ctypes.c_int, *[ctypes.c_void_p] * 2]
        self._spectrum_product.restype = None

    def __call__(self, n, l0, trev, twoa, phibar, x0, y0, e, fr, phip):
        """block(j0, far), which closes samples j0 .. j0 + n - 1 of the
        group (pll._track_block).

        The kernel gets raw pointers, so the group's arrays are checked here,
        once: dtype, shapes, rows with their own strides and writeable
        outputs.  A block then checks only its far history and j0.
        """
        strides = [_row_stride(a) for a in (phibar, y0, fr, phip)]
        x0_stride = 0 if x0 is None else _row_stride(x0)
        if None in strides or x0_stride is None:
            raise ValueError("tracker group arrays do not match")
        rows, m = phibar.shape
        nt = trev.size + 1
        if (any(a.shape != (rows, m) for a in (x0, y0, phip) if a is not None)
                or fr.shape != (rows, nt + m) or e.shape != (rows,) or trev.ndim != 1
                or any(a.dtype != np.float64 or not a.flags.c_contiguous for a in (trev, e))
                or not all(a.flags.writeable for a in (e, fr, phip))
                or not 1 <= n <= min(nt, m)):
            raise ValueError("tracker group arrays do not match")
        work = np.empty((6 * n + 3) * rows)
        group = _Group(n, rows, nt, l0, twoa, trev.ctypes.data, phibar.ctypes.data,
                       None if x0 is None else x0.ctypes.data, y0.ctypes.data,
                       strides[0], x0_stride, strides[1], strides[2], strides[3],
                       e.ctypes.data, fr.ctypes.data, phip.ctypes.data, work.ctypes.data)
        fn, address = self._fn, ctypes.addressof(group)

        def block(j0, far):
            stride = _row_stride(far)
            if stride is None or far.shape != (rows, n) or not 0 <= j0 <= m - n:
                raise ValueError("tracker block does not match its group")
            fn(address, j0, far.ctypes.data, stride)
        # referenced, so alive, as long as block is
        block.arrays = (group, trev, phibar, x0, y0, e, fr, phip, work)
        return block

    def far_mac(self, g, out):
        """mac(s, z, total=True), the far-history steps of a row group
        (pll._far_mac): z, a block's spectrum, goes into slot s of the
        group's ring of stored spectra, kept here as (parts, 2, rows, bins)
        planes; unless total is False, out then gets the sum over the
        partitions, oldest block first.

        Checked once, like a group: g holds the (parts, 2, bins) planes of
        the partition spectra and out is (rows, bins) complex; a step then
        checks only z and s.
        """
        if g.ndim != 3 or out.ndim != 2:
            raise ValueError("far history arrays do not match")
        parts, (rows, bins) = g.shape[0], out.shape
        if not (parts and _contiguous(g, np.float64, (parts, 2, bins))
                and _contiguous(out, np.complex128, (rows, bins), writeable=True)):
            raise ValueError("far history arrays do not match")
        ring = np.empty((parts, 2, rows, bins))
        fn, pointers = self._far_mac, (ring.ctypes.data, g.ctypes.data)

        def mac(s, z, total=True):
            if not _contiguous(z, np.complex128, (rows, bins)) or not 0 <= s < parts:
                raise ValueError("far history step does not match its group")
            fn(rows, bins, parts, s, z.ctypes.data, *pointers, out.ctypes.data if total else None)
        mac.arrays = (ring, g, out)  # referenced, so alive, as long as mac is
        return mac

    def spectrum_product(self, spectrum: np.ndarray, h: np.ndarray) -> None:
        """spectrum *= the response whose (2, bins) planes are h, in place,
        along the last axis (grids._spectrum_product)."""
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


def load() -> Kernel | None:
    """The compiled library, built on first use; None if it cannot be."""
    with _lock:
        if "kernel" not in _loaded:
            _loaded["kernel"] = _build()
    return _loaded["kernel"]


def describe() -> str:
    """The path this process's closed loop and solves have taken (the
    library's hash and clone, numpy, or not run), for the run manifest."""
    if "kernel" not in _loaded:
        return "not run"
    kernel = _loaded["kernel"]
    return "numpy" if kernel is None else f"c kernel {kernel.digest} ({kernel.isa})"
