"""Discrete-time homodyne phase-locked-loop Monte Carlo.

Loop realisation: the local-oscillator phase is produced by the causal Wiener
tracker applied to the running reconstructed phase record
phi_rec = phi' + p'/(2|a|).  Algebraically this is the textbook loop
phi' = L p' with L = L'/(2|a|(1 - L')), but realised in its feedback-stable
factorised form so brick-wall designs (whose L response rings) cannot
destabilise the recursion.

The light (coherent, squeezed_z or phase_squeezed) is design.noise, the
NoiseModel the loop was designed for; a PllConfig adds only the trials, the
master seed and the feedback delay.

feedback_delay selects the information set: 0 gives the delay-free loop of
the continuous theory (LO phase may use the simultaneous sample, closed per
sample by a Halley solve); 1 restricts the tracker to p' up to the previous
sample (one-step-ahead prediction).  The delay-free loop is the default: the
one-sample variant adds a prediction penalty to the tracking error that stays
finite for strongly squeezed noise no matter how large B/b is, which pushes
the simulator outside the linear theory the analytic predictions describe.

The delay-free closure works in the tracking error e.  With X = 1 + x0/2|a|
and Y = y0/2|a| (X = 1, Y = 0 for squeezed_z, whose record noise z'/2|a| is
an offset), the record's dependence on e is X sin e + Y cos e, so each
sample solves f(e) = k e + l0 (X sin e + Y cos e) - c = 0, k = 1 - l0
(explicitly when l0 = 0, as with feedback_delay=1), where c holds phibar,
the offset and the tracker history.  Halley's method starts from the
previous sample's error.  With ls = l0 (X sin e + Y cos e),
lc = l0 (X cos e - Y sin e), f' = k + lc, r = f/f' and h = ls/(2f'), its
step is r/(1 + r h), or Newton's r where 1 + r h <= 0 (far from the root,
where Halley's step points away from it).  Each row stops once the error
its own unclipped step predicts, (|lc/(6f')| + h^2) |step|^3, is below
_CLOSURE_TOL (a cubic stop), after at most _CLOSURE_STEPS (8) steps,
clipping any step beyond +-1 rad; a NaN or clipped step never stops it.  A
step takes one sin e and one cos e, and a locked sample takes about two
steps.  squeezed_z runs the same arithmetic with X = 1 and Y = 0.  The
step runs over all rows of a group in lockstep, a stopped row taking a
zero step, and sin and cos are the package's own (_sincos, msun's kernels
after a Cody-Waite reduction, within 1 ulp of libm for |e| <= 1e6, far
beyond _DIVERGENCE_LIMIT), so the compiled step has no call in it and
vectorises across the rows.

The tracker history is a uniformly partitioned convolution (Gardner, JAES
43(3), 1995) over blocks of _BLOCK (128) samples.  The lags that reach
before a block come from an overlap-save FFT delay line (_far_history): the
spectrum of each written block is stored once, and a block's history is one
inverse FFT of the stored spectra times the taps' partition spectra.  Each
sample then adds only the lags inside its block.  So a block costs one
far-history step, whose multiply-add over the partitions is one call of the
kernel's far_mac, and one call into the kernel's track_block (_tracker.c
through ctypes, which releases the interpreter lock for each call).
track_block reads the block straight from the row group's own arrays
(phibar, x0, y0, each with its row stride), forms X, Y, the record offset
and c there, closes the loop sample by sample and writes the records into
fr and the tracker output into phip in place.  The kernel is bound to the
group once, when its arrays are checked (_tracker.Kernel), and built with
the interpreter's C compiler at -O3 without floating-point contraction on
first use (a loop design solves its normal equations there too) and cached
under the package's __pycache__.  track_block, far_mac and the spectrum
product of grids.FilterKernel.apply are built twice, for avx512f and the
baseline, and the CPU runs the first where it has AVX-512; both make the
same operations on each element, so both give the same bits.  far_mac and
the spectrum product keep the spectra as split real and imaginary planes
and round each real product of a complex product on its own, so their bits
are the same whether or not the CPU (or numpy's build for it) fuses
multiply-adds: gcc fuses an interleaved complex loop in the avx512f clone
even without contraction, a planar one it does not.  Without a compiler,
_track_block runs the same loop in numpy with rows in lockstep, operation
for operation, and _far_mac and grids._spectrum_product the same products,
so both paths give the same bits, at about 40 times the kernel's time.

After the loop, one relinearisation pass takes the sine nonlinearity out of
the record at the tracking error of the undelayed MAP estimate (design.g);
the delayed MAP filter design.g_delayed = G exp(-i w d dt) then gives the
message estimate, both through FilterKernel.apply.  The per-trial
statistics are taken from the tracking error before the estimate, which
then works in place in the group's record and phi' arrays, so a group's
working set peaks in the loop, at about five (rows, m) float arrays:
phibar, phi', the record with its steady-state lead, and the far history's
stored spectra.

A cell's trials are vectorised in lockstep in row groups of _GROUP (32)
trials, the only unit of work; the last group is shorter when 32 does not
divide the trials.  Each group draws (_draw), then tracks, estimates and
checks its own trials in its own arrays.  run_cells runs a command's cells
on one pool of max_workers() threads (the CPUs the process may use), one
cell ahead, with results and errors in cell order (_pipeline); run_cell and
simulate_batch are its one-cell forms.  Every trial draws from its own
counter-based streams, each with one sampler that returns a row per trial:
its message from (seed, trial, 0) (sample_message) and its quadrature noise
from (seed, trial, 1) (sample_quadratures).  Neither stream depends on the
cell, so a sweep's cells share common random numbers: run_cells keeps one
_DrawStore in front of the two samplers, and a row group whose draws an
earlier cell of the same call made reads them, read-only, from there.  The
store is keyed on what each sampler reads, so only identical draws are
shared, and it is dropped when run_cells returns or raises; the one-cell
forms keep none.  Every later step is row-wise: the FFT
rows, the history's products summed over partitions in a fixed order, the
in-block lags summed oldest first, the per-row closure stop and the mse, a
pairwise sum over the trial's contiguous row.  So on either path a trial's
result is bit-identical whatever the other trials, its row group or the
thread count.

Each trial starts in lock (tracker history seeded with the steady-state
record): acquisition transients are out of scope, and a cold start at
beta >~ pi/2 slips with O(10%) probability, which would contaminate the
stationary statistics the predictions describe.  The first 4d samples are
discarded as warm-up and the trailing 2d samples are excluded from
statistics.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _tracker
from .grids import TimeGrid, color_noise
from .qnoise import COHERENT, SQUEEZED_Z, NoiseModel, squeezed_covariance_psds
from .rng import stream
from .signals import FM, MessageSpec, message_psd, modulate
from .wiener import LoopDesign, normal_equation_taps

_CLOSURE_STEPS = 8  # hard cap on Halley steps per sample
_CLOSURE_TOL = 1e-13  # stop threshold on the error predicted after a step (rad)
_DIVERGENCE_LIMIT = 1e3
_BLOCK = 128  # samples per tracker history block
_GROUP = 32  # trials per row group, the unit of work


class LoopDivergenceError(RuntimeError):
    def __init__(self, message: str, max_error: float, trial: int):
        super().__init__(message)
        self.max_error = max_error
        self.trial = trial


@dataclass(frozen=True)
class PllConfig:
    """One Monte Carlo operating point; the light is design.noise."""

    design: LoopDesign
    trials: int
    seed: int
    feedback_delay: int = 0

    def __post_init__(self) -> None:
        if self.feedback_delay not in (0, 1):
            raise ValueError("feedback_delay must be 0 or 1 samples")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.design.grid.bandwidth / self.design.message.bandwidth < 32:
            raise ValueError("oversampling guard: require B/b >= 32")
        m = self.design.grid.n_samples
        if m - 6 * self.design.delay < m // 8:  # statistics use samples 4d .. m - 2d
            raise ValueError("grid too short for the warm-up and edge exclusions")


@dataclass(frozen=True)
class TrialResult:
    seed: int
    trial: int
    mse: float
    snr_empirical: float
    sigma0_sq_empirical: float
    cycle_slips: int


@dataclass(frozen=True)
class CellResult:
    """Aggregate over the trials of one configuration.

    snr_empirical averages the mse over in-lock (slip-free) trials, falling
    back to all trials when every one slipped; the threshold-collapse
    criterion is then measured on the slipped population itself.
    """

    trials: tuple
    snr_empirical: float
    snr_stderr: float
    mse: float
    sigma0_sq_empirical: float
    locked_fraction: float
    total_slips: int
    seeds_with_slips: int


def cycle_slip_count(e: np.ndarray) -> int:
    """Completed crossings of odd multiples of pi by the tracking error e.

    Debounced: a crossing counts once the error settles well inside
    (within pi/2 of the centre of) a new 2pi lock basin, so jitter on a
    basin boundary is not multiply counted.
    """
    e = np.atleast_1d(np.asarray(e, dtype=float))
    basins = np.round(e / (2.0 * np.pi)).astype(int)
    inside = np.abs(e - 2.0 * np.pi * basins) < np.pi / 2.0
    seq = basins[inside]
    if seq.size == 0:
        return 0
    return int(np.sum(np.abs(seq[1:] - seq[:-1])))


def tracking_taps(design: LoopDesign, feedback_delay: int) -> np.ndarray:
    """Causal tracker taps (lag 0 first): those of L' for feedback_delay = 0,
    and for 1 the one-step predictor's, which solve the normal equations on
    the same (U, V) at lags 1 .. M/2-1 (wiener.normal_equation_taps)."""
    if feedback_delay == 0:
        return design.l_prime.causal_taps()
    return np.concatenate(([0.0], normal_equation_taps(design.u, design.v, first=1)))


# The constants of _tracker.c's sin_cos, FreeBSD msun's: the reduction by
# pi/2 in three parts (_PIO2_1 and _PIO2_2 have 33 bits, so their products
# with fn are exact for |fn| < 2^20) and the coefficients of __kernel_sin
# and __kernel_cos.  0-d arrays, which a ufunc takes faster than floats.
_SHIFT = np.array(6755399441055744.0)  # 0x1.8p52: (x + _SHIFT) - _SHIFT rounds x to nearest
_INVPIO2 = np.array(0.6366197723675814)
_PIO2_1 = np.array(1.5707963267341256)
_PIO2_2 = np.array(6.077100506303966e-11)
_PIO2_2T = np.array(2.0222662487959506e-21)
_S1, _S2, _S3, _S4, _S5, _S6 = map(np.array, (
    -0.16666666666666632, 0.00833333333332249, -0.0001984126982985795,
    2.7557313707070068e-06, -2.5050760253406863e-08, 1.58969099521155e-10))
_C1, _C2, _C3, _C4, _C5, _C6 = map(np.array, (
    0.0416666666666666, -0.001388888888887411, 2.480158728947673e-05,
    -2.7557314351390663e-07, 2.087572321298175e-09, -1.1359647557788195e-11))
_ZERO, _HALF, _ONE, _MINUS_ONE, _TWO, _QUARTER, _FOUR, _SIX = map(
    np.array, (0.0, 0.5, 1.0, -1.0, 2.0, 0.25, 4.0, 6.0))


def _sincos(x):
    """(sin x, cos x) of a float array, the numpy form of _tracker.c's
    sin_cos: its IEEE operations in its order, so its bits."""
    fn = (x * _INVPIO2 + _SHIFT) - _SHIFT
    t, u = x - fn * _PIO2_1, fn * _PIO2_2
    r = t - u
    w = fn * _PIO2_2T - ((t - r) - u)
    y0 = r - w
    y1 = (r - y0) - w
    z = y0 * y0
    zz = z * z
    rs = (_S2 + z * (_S3 + z * _S4)) + z * zz * (_S5 + z * _S6)
    v = z * y0
    s = y0 - ((z * (_HALF * y1 - v * rs) - y1) - v * _S1)
    rc = z * (_C1 + z * (_C2 + z * _C3)) + zz * zz * (_C4 + z * (_C5 + z * _C6))
    hz = _HALF * z
    wc = _ONE - hz
    c = wc + (((_ONE - wc) - hz) + (z * rc - y0 * y1))
    m4 = fn - _FOUR * ((fn * _QUARTER + _SHIFT) - _SHIFT)
    # the quadrant m4, in -2 .. 2, swaps the two where odd and sets their
    # signs as the kernel's tests |m4 -+ 1/2| > 1 do; a NaN m4 passes none
    mm = m4 * m4
    odd = mm == _ONE
    s, c = np.where(odd, c, s), np.where(odd, s, c)
    np.negative(s, out=s, where=mm > m4)  # m4 = -2, -1 or 2
    np.negative(c, out=c, where=mm > -m4)  # m4 = -2, 1 or 2
    return s, c


def _halley_step(k, lx, ly, c, e, stop, sin_cos):
    """(e, stop) after one step of _tracker.c's halley_step, all rows at
    once, with sin_cos = _sincos(e)."""
    s, co = sin_cos
    ls, lc = s * lx + co * ly, co * lx - s * ly
    fp = lc + k
    rt = (e * k + ls - c) / fp
    h = ls / (_TWO * fp)
    den = _ONE + rt * h
    step = np.divide(rt, den, out=rt, where=den > _ZERO)  # else Newton's r, no quotient made
    a = np.abs(step)
    err = (np.abs(lc / (_SIX * fp)) + h * h) * (a * a * a)
    clipped = np.maximum(np.minimum(step, _ONE), _MINUS_ONE)  # both let a NaN through
    return e - np.where(stop, _ZERO, clipped), stop | ((err < _CLOSURE_TOL) & (a <= _ONE))


def _track_block(n, l0, trev, twoa, phibar, x0, y0, e, fr, phip):
    """block(j0, far), which closes samples j0 .. j0 + n - 1 of a row group:
    the numpy form of _tracker.c's track_block, all rows in lockstep, with
    its operations, so its bits.

    The group's (rows, m) phibar, x0 (None for squeezed_z) and y0, the taps
    trev for lags nt-1 .. 1 and each row's tracking error e, carried from
    block to block; a block writes its records into fr, after the nt
    steady-state records, and its tracker outputs into phip.  far is the
    block's far history, (rows, n).  A sample's first Halley step reads the
    sin e and cos e that the last record made at the same e, where the
    kernel makes them again.
    """
    rows = e.size
    nt = trev.size + 1
    k = np.array(1.0 - l0)
    terms = np.zeros((n + 1, rows))  # row 0 stays 0.0, where each lag sum starts

    def block(j0, far):
        cols = slice(j0, j0 + n)
        pb = phibar[:, cols].T
        if x0 is None:  # X = 1, Y = 0 and the record offset z = y0/2|a|
            x, y = np.ones((n, rows)), np.zeros((n, rows))
            z = y0[:, cols].T / twoa
            r0 = pb + z
            cb = k * pb - l0 * z - far.T
        else:
            x = x0[:, cols].T / twoa + 1.0
            y = y0[:, cols].T / twoa
            r0 = pb
            cb = k * pb - far.T
        lxs, lys = l0 * x, l0 * y
        rec = np.empty((n, rows))
        u = e.copy()
        sin_cos = _sincos(u)
        for i in range(n):
            # an accumulate adds in order, never pairwise or through BLAS
            np.multiply(trev[nt - 1 - i:, None], rec[:i], out=terms[1: i + 1])
            c = cb[i] - np.add.accumulate(terms[: i + 1], axis=0)[-1]
            if l0 == 0.0:
                u = c  # the closure is explicit
            else:
                stop = np.zeros(rows, bool)
                for step_index in range(_CLOSURE_STEPS):
                    if step_index:
                        sin_cos = _sincos(u)
                    u, stop = _halley_step(k, lxs[i], lys[i], c, u, stop, sin_cos)
                    if np.count_nonzero(stop) == rows:
                        break
            phip[:, j0 + i] = pb[i] - u
            s, co = sin_cos = _sincos(u)
            rec[i] = r0[i] + ((s * x[i] + co * y[i]) - u)
        fr[:, nt + j0: nt + j0 + n] = rec.T
        e[:] = u
    return block


def max_workers() -> int:
    """The worker threads of a command's pool (_pipeline): the CPUs this
    process may use.  The pool threads make no BLAS calls."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        return os.cpu_count() or 1


def _row_groups(n_t: int) -> list:
    """Slices of _GROUP rows, the last one shorter when _GROUP does not
    divide n_t.  A group's width never changes its rows' bits."""
    return [slice(a, min(a + _GROUP, n_t)) for a in range(0, n_t, _GROUP)]


def _far_history(taps, kb, fr, kernel):
    """Each loop block's history from the records before it, (rows, kb).

    fr holds nt = taps.size steady-state records, then the loop's record,
    in blocks of kb samples; kb divides nt and the record (_close_loop).
    Entry i of a block's history sums taps[lag] * record over the lags that
    reach before the block, i < lag < nt.  The caller writes a block's
    records into fr before it asks for the next block's history.

    Uniformly partitioned overlap-save convolution (Gardner, JAES 43(3),
    1995).  Let x_k be block k of fr, H_p the spectrum of the taps for lags
    p kb .. p kb + kb - 1 (zero past nt) and Z_k = rfft([x_{k-1}, 0]),
    stored once per block.  Block b's history is the last kb samples of
    irfft(Z_b H_0 + sum_{p>=1} W_{b-p} H_p) with W_k = rfft([x_{k-1}, x_k])
    = Z_k + (-1)^f Z_{k+1}; the zero half of Z_b keeps the block itself
    out.  Collected by Z, the sum is sum_p Z_{b-p} G_p with G_p = H_p +
    (-1)^f H_{p+1}, so a block costs one forward FFT, one multiply-add over
    the partitions and one inverse FFT.  The multiply-add, which keeps the
    ring of stored spectra, is the kernel's far_mac, or _far_mac without one
    (kernel None): every step is row-wise, each complex product's real
    products are rounded on their own and the products are summed oldest
    block first, so a row's history depends neither on the other rows nor on
    the CPU's fused multiply-adds.
    """
    rows, nt = fr.shape[0], taps.size
    parts, bins = nt // kb, kb + 1
    h = np.zeros((parts + 1, 2 * kb))
    h[:parts, :kb] = taps.reshape(parts, kb)
    hs = np.fft.rfft(h, axis=1)
    g_old_first = (hs[:-1] + (-1.0) ** np.arange(bins) * hs[1:])[::-1]  # exact: times +-1
    g = np.stack([g_old_first.real, g_old_first.imag], axis=1)  # (parts, 2, bins)

    half = np.zeros((rows, 2 * kb))  # [x_{k-1}, 0]

    def spectrum(k):  # Z_k
        half[:, :kb] = fr[:, (k - 1) * kb: k * kb]
        return np.fft.rfft(half, axis=1)

    out = np.empty((rows, bins), complex)
    mac = (_far_mac if kernel is None else kernel.far_mac)(g, out)
    for k in range(1, parts):
        mac(k, spectrum(k), total=False)  # slot k % parts holds Z_k
    for b in range(parts, fr.shape[1] // kb):
        mac(b % parts, spectrum(b))  # sum_p Z_{b-p} G_p into out
        yield np.fft.irfft(out, n=2 * kb, axis=1)[:, kb:]


def _far_mac(g, out):
    """mac(s, z, total=True), the numpy form of _tracker.c's far_mac, with
    its ring of stored spectra as real and imaginary planes."""
    parts = g.shape[0]
    ring = np.empty((parts, 2, *out.shape))

    def mac(s, z, total=True):
        ring[s, 0], ring[s, 1] = z.real, z.imag
        if not total:
            return
        for p in range(parts):
            (xr, xi), (gr, gi) = ring[(s + 1 + p) % parts], g[p]
            re, im = xr * gr - xi * gi, xr * gi + xi * gr
            if p == 0:
                ar, ai = re, im
            else:
                ar += re
                ai += im
        out.real, out.imag = ar, ai
    return mac


def _close_loop(track, taps, twoa, phibar, x0, y0, fr, phip):
    """Closed loop of one row group, given its arrays (x0 None for
    squeezed_z, whose y0 is the S2-coloured record z').

    Writes fr, the tracker's input (nt steady-state records, then the loop's
    record), and phip, the tracker output.
    """
    n_t, m = phibar.shape
    nt = taps.size
    trev = np.ascontiguousarray(taps[::-1][: nt - 1])  # weights for lags nt-1 .. 1
    fr[:, :nt] = phibar[:, m - nt:] + y0[:, m - nt:] / twoa
    # Blocked history: _far_history gives the lags that reach before a
    # block, and track the lags inside it.  TimeGrid makes m, nt = m/2 and
    # kb powers of two, so kb divides nt and m: every block is whole, every
    # lag below nt.  The tracking error e carries the closure from sample to
    # sample and block to block; it starts at 0.
    kb = min(_BLOCK, nt)
    block = track(kb, taps[0], trev, twoa, phibar, x0, y0, np.zeros(n_t), fr, phip)
    kernel = track if isinstance(track, _tracker.Kernel) else None
    for j0, far in zip(range(0, m, kb), _far_history(taps, kb, fr, kernel)):
        block(j0, far)


def sample_message(spec: MessageSpec, seed: int, trials, drop_dc: bool = False) -> np.ndarray:
    """The messages of the given trials, (len(trials), m): each row is its
    trial's stream (seed, trial, 0) coloured to message_psd(spec, drop_dc),
    a zero-mean unit-variance Gaussian sequence."""
    m = spec.grid.n_samples
    white = np.empty((len(trials), m))
    for row, trial in enumerate(trials):
        white[row] = stream(seed, trial, 0).standard_normal(m)
    return color_noise(white, message_psd(spec, drop_dc=drop_dc))


def sample_quadratures(noise: NoiseModel, grid: TimeGrid, seed: int, trials):
    """The quadrature noise (x0, y0) of the given trials, (len(trials), m)
    rows, from each trial's stream (seed, trial, 1).

    Coherent light: white (x0, y0), one (2, m) draw.  phase_squeezed: the
    same draw coloured to the antisqueezed S1 and the squeezed S2.
    squeezed_z: x0 is None, since the loop never reads it, and y0 is the
    first m draws coloured to S2, the record noise z'.
    """
    m = grid.n_samples
    quads = 1 if noise.kind == SQUEEZED_Z else 2
    white = np.empty((len(trials), quads, m))
    for row, trial in enumerate(trials):
        white[row] = stream(seed, trial, 1).standard_normal((quads, m))
    if noise.kind == COHERENT:
        return white[:, 0], white[:, 1]
    s1, s2 = squeezed_covariance_psds(noise, grid)
    if noise.kind == SQUEEZED_Z:
        return None, color_noise(white[:, 0], s2)
    return color_noise(white[:, 0], s1), color_noise(white[:, 1], s2)


class _DrawStore:
    """The draws of one run_cells call, shared by its cells.

    fetch(key, draw) returns the tuple draw() made for key, its arrays
    read-only, and calls draw only on the first request for key; a request
    made while another thread draws the same key waits for that draw, so
    each key is drawn once per call, on any number of workers.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._draws = {}  # key -> Future of the draw's tuple

    def fetch(self, key, draw):
        with self._lock:
            future = self._draws.get(key)
            first = future is None
            if first:
                future = self._draws[key] = Future()
        if first:
            try:
                arrays = draw()
            except BaseException as exc:  # a waiting group raises it too
                future.set_exception(exc)
                raise
            for a in arrays:
                if a is not None:
                    a.flags.writeable = False
            future.set_result(arrays)
        return future.result()

    def clear(self) -> None:
        with self._lock:
            self._draws.clear()


def _draw(cfg: PllConfig, trials: list, store: _DrawStore | None):
    """(msg, x0, y0) of a row group's trials, as sample_message and
    sample_quadratures return them.

    With a store, each comes from there, keyed on exactly what its sampler
    reads: the message on its spec, drop_dc, the seed and the trials; the
    quadratures on the light's kind, r and squeeze bandwidth, the grid, the
    seed and the trials.  |alpha| is in neither key, since no draw reads it.
    """
    design = cfg.design
    drop_dc = design.mod.kind == FM
    noise, g = design.noise, design.grid

    def message():
        return (sample_message(design.message, cfg.seed, trials, drop_dc=drop_dc),)

    def quadratures():
        return sample_quadratures(noise, g, cfg.seed, trials)
    if store is None:
        return (*message(), *quadratures())
    drawn = (cfg.seed, tuple(trials))
    (msg,) = store.fetch(("message", design.message, drop_dc) + drawn, message)
    x0, y0 = store.fetch(("quadratures", noise.kind, noise.r, noise.squeeze_bandwidth, g)
                         + drawn, quadratures)
    return msg, x0, y0


def _error_statistics(e: np.ndarray) -> tuple:
    """(sigma0_sq_empirical, cycle_slips) of one trial's windowed tracking
    error: its mean square about the nearest multiple of 2 pi to its mean."""
    offset = 2.0 * np.pi * np.round(np.mean(e) / (2.0 * np.pi))
    return float(np.mean((e - offset) ** 2)), cycle_slip_count(e)


def _simulate_group(cfg: PllConfig, store, track, taps, trials: list) -> list:
    """The TrialResults of one row group: drawn (_draw, from store when
    that is not None), then tracked, estimated and checked in the group's
    own arrays.

    track is the kernel or _track_block, or None for the open loop.
    """
    design = cfg.design
    g = design.grid
    m, d, twoa = g.n_samples, design.delay, design.two_alpha
    n_t, nt = len(trials), taps.size
    msg, x0, y0 = _draw(cfg, trials, store)
    phibar = modulate(design.mod, g, msg)

    fr = np.empty((n_t, nt + m))  # tracker input; the record is fr[:, nt:]
    if track is None:
        phip = phibar  # e = 0: the record is the phase-insensitive quadrature
        fr[:, nt:] = phibar + y0 / twoa
    else:
        phip = np.empty((n_t, m))
        _close_loop(track, taps, twoa, phibar, x0, y0, fr, phip)
    err = phibar - phip
    # what the estimate needs of phibar is in err and phip: free it, and the
    # draws too unless a run_cells store holds them
    del x0, y0, phibar
    worst = np.max(np.abs(err), axis=1)
    if not np.max(worst) <= _DIVERGENCE_LIMIT:  # also catches a non-finite error
        bad = int(np.argmax(worst))
        raise LoopDivergenceError(
            f"loop diverged (max |phibar - phi'| = {worst[bad]:.3e})",
            float(worst[bad]), trials[bad])
    lo, hi = 4 * d, m - 2 * d
    errors = [_error_statistics(e_win) for e_win in err[:, lo:hi]]
    del err

    # e_hat and then its sine term in phip, the record's relinearisation in
    # place in fr
    phirec = fr[:, nt:]
    e_hat = modulate(design.mod, g, design.g.apply(phirec))
    e_hat -= phip
    np.sin(e_hat, out=phip)
    phip -= e_hat
    del e_hat
    phirec -= phip
    del phip
    m_hat = design.g_delayed.apply(phirec)
    del fr, phirec
    # row-major, so each row's mean is a pairwise sum, as a lone row's is
    mses = np.mean((m_hat[:, lo:hi] - msg[:, lo - d: hi - d]) ** 2, axis=1)
    return [TrialResult(seed=cfg.seed, trial=trial, mse=mse,
                        snr_empirical=1.0 / mse if mse != 0 else float("inf"),
                        sigma0_sq_empirical=sigma0_sq, cycle_slips=slips)
            for trial, mse, (sigma0_sq, slips) in zip(trials, mses.tolist(), errors)]


def _cell_work(cfg: PllConfig, trial_indices=None, force_lock: bool = False,
               store: _DrawStore | None = None):
    """(run, groups) of one cell: its trials as row groups (_row_groups) and
    run(group), the group's TrialResults (_simulate_group), drawn through
    store when that is not None.

    Built on the calling thread, before any worker needs the kernel or the
    taps; each group that draws does so with its own spectra.
    """
    trials = list(range(cfg.trials) if trial_indices is None else trial_indices)
    taps = tracking_taps(cfg.design, cfg.feedback_delay)
    track = None if force_lock else (_tracker.load() or _track_block)
    run = partial(_simulate_group, cfg, store, track, taps)
    return run, [trials[rows] for rows in _row_groups(len(trials))]


def _pipeline(cells):
    """Each cell's TrialResults, in cell order, for an iterable of (run,
    groups) cells (_cell_work).

    The row groups of all cells run on one pool of max_workers() threads.
    The calling thread takes cell i + 1 from cells (building its design,
    when cells does that) and queues its groups while the workers finish
    cell i; it takes cell i + 2 only once cell i has been collected.  Each
    group runs in a copy of the caller's context, so the caller's
    np.errstate holds there too.  Errors come as if everything ran in
    order: a failing group raises before any later group or cell, and
    before an error from taking a later cell; then the queued groups are
    cancelled.
    """
    def collect(futures):
        return [result for future in futures for result in future.result()]
    cells = iter(cells)
    pool = ThreadPoolExecutor(max_workers())
    queued = deque()  # the futures of each taken cell not yet collected
    try:
        while True:
            try:
                run, groups = next(cells)
            except StopIteration:
                break
            except Exception:  # the cells taken before this one come first
                while queued:
                    yield collect(queued.popleft())
                raise
            queued.append([pool.submit(contextvars.copy_context().run, run, group)
                           for group in groups])
            if len(queued) == 2:
                yield collect(queued.popleft())
        while queued:
            yield collect(queued.popleft())
    finally:
        pool.shutdown(cancel_futures=True)


def simulate_batch(cfg: PllConfig, trial_indices=None, force_lock: bool = False):
    """Run the given trials (all cfg.trials by default); returns a list of
    TrialResult in their order.

    The one-cell form of run_cells: the trials run as row groups on up to
    max_workers() threads, and results do not depend on the number of
    threads.  A diverging group raises LoopDivergenceError for its worst
    trial, the first such group's when several do.  force_lock pins phi' =
    phibar (open loop) for cross-checks against the linearised MAP estimate.
    """
    (results,) = _pipeline([_cell_work(cfg, trial_indices, force_lock)])
    return results


def aggregate(trials) -> CellResult:
    mses = np.array([t.mse for t in trials])
    slips = np.array([t.cycle_slips for t in trials])
    locked = slips == 0
    used = mses[locked] if locked.any() else mses
    mse = float(np.mean(used))
    stderr = float(np.std(used) / np.sqrt(used.size)) if used.size > 1 else 0.0
    snr = 1.0 / mse
    return CellResult(
        trials=tuple(trials),
        snr_empirical=snr,
        snr_stderr=snr * (stderr / mse) if mse > 0 else 0.0,
        mse=mse,
        sigma0_sq_empirical=float(np.mean([t.sigma0_sq_empirical for t in trials])),
        locked_fraction=float(np.mean(locked)),
        total_slips=int(slips.sum()),
        seeds_with_slips=int((slips > 0).sum()),
    )


def run_cells(configs):
    """The CellResult of each PllConfig of configs, in order, the cells
    pipelined on one worker pool (_pipeline); configs is read one ahead.

    The cells share one _DrawStore, so each row group's draws are made once
    per call and kept until it returns or raises.
    """
    store = _DrawStore()
    try:
        for trials in _pipeline(_cell_work(cfg, store=store) for cfg in configs):
            yield aggregate(trials)
    finally:
        store.clear()


def run_cell(cfg: PllConfig) -> CellResult:
    """Run the cfg.trials trials and aggregate: the one-cell run_cells."""
    return aggregate(simulate_batch(cfg))
