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

A row group's closed loop is one call of the kernel's close_group
(_tracker.load(): the library, _tracker.c through ctypes, or its numpy form
in _numpy_kernel, with the same bits), from the cell's causal taps
(tracking_taps) and the group's arrays, each a C-contiguous (rows, m) block;
in the library the call releases the interpreter lock for all of it.
_tracker.c's header derives what the kernel does: the delay-free closure of
each sample by Halley steps in the tracking error e, with the package's own
sin and cos (within 1 ulp of libm for |e| <= 1e6, far beyond
_DIVERGENCE_LIMIT), and the tracker history, an overlap-save convolution by
the kernel's own FFTs, which round each real product on its own, so no bit
depends on numpy's FFT build or on whether the CPU fuses multiply-adds.

After the loop, one relinearisation pass takes the sine nonlinearity out of
the record at the tracking error of the undelayed MAP estimate (design.g);
the delayed MAP filter design.g_delayed = G exp(-i w d dt) then gives the
message estimate, both through FilterKernel.apply.  The per-trial
statistics come before the estimate, from the tracking error made in place
in the group's phibar (_group_statistics): each row's largest |e|, for the
divergence check; its mean square about the nearest multiple of 2 pi to its
mean, in place over the window, each mean a pairwise sum over the row; and
its cycle slips, counted only on rows whose |e| reaches pi/2, since a row
inside +-pi/2 never leaves basin 0.  The estimate then works in place in the
group's record and phi' arrays, and the mse in the estimate's, so a group's
working set peaks in the loop, at about four and a half (rows, m) float
arrays: phibar, phi', the record, the far history's stored spectra and the
kernel's work space.  A group returns its per-trial table (_TRIAL_COLUMNS),
built from its own arrays; a cell's is its groups' tables in group order.

A cell's trials are vectorised in lockstep in row groups of _GROUP (32)
trials, the only unit of work; the last group is shorter when 32 does not
divide the trials.  Each group draws (_draw), then tracks, estimates and
checks its own trials in its own arrays.  run_cells runs a command's cells
on one pool of max_workers() threads (the CPUs the process may use), one
cell ahead, with results and errors in cell order (_pipeline); run_cell and
simulate_batch are its one-cell forms.  Every trial draws from its own
counter-based streams, each with one sampler that returns a row per trial:
its message from (seed, trial, 0) (sample_message) and its quadrature noise
from (seed, trial, 1) (sample_quadratures).  A sampler takes a group's white
draws in one call of the kernel's normals (numpy's Generator on rng.stream,
or the library's bit-for-bit form of it, outside the interpreter lock) and
colours them (color_noise) to densities made once per message or light and
kept in a small cache (_message_density, _quadrature_densities).  Neither
stream depends on the cell, so a sweep's cells share common random numbers:
run_cells keeps one _DrawStore in front of the two samplers, and a row group
whose draws an earlier cell of the same call made reads them, read-only,
from there.  The store is keyed on what each sampler reads, so only
identical draws are shared, and it is dropped when run_cells returns or
raises; the one-cell forms keep none.  Every later step is row-wise: the FFT
rows, the history's products summed over partitions in a fixed order, the
in-block lags summed oldest first, the per-row closure stop and the mse, a
pairwise sum over the trial's contiguous row.  So on either path a trial's
result is bit-identical whatever the other trials, its row group or the
thread count.

Each trial starts in lock: close_group starts every row at zero tracking
error and seeds the tracker history with the steady-state record, the record
at that error, phibar + y0/2|a| over the last nt samples.  Acquisition
transients are out of scope, and a cold start at beta >~ pi/2 slips with
O(10%) probability, which would contaminate the stationary statistics the
predictions describe.  The first 4d samples are discarded as warm-up and the
trailing 2d samples are excluded from statistics.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _tracker
from .grids import TimeGrid, color_noise
from .qnoise import COHERENT, SQUEEZED_Z, NoiseModel, squeezed_covariance_psds
from .rng import stream  # noqa: F401 (unused: see below)
from .signals import FM, MessageSpec, message_psd, modulate
from .wiener import LoopDesign, normal_equation_taps

# perfbench/tracing.py times the draws by wrapping stream, message_psd,
# squeezed_covariance_psds and color_noise where pll looks them up, so
# stream stays bound here, though the kernel's normals now opens the
# streams, until the wraps move (ROADMAP item 2a).

_DIVERGENCE_LIMIT = 1e3
_GROUP = 32  # trials per row group, the unit of work
_DENSITIES = 8  # densities each sampler keeps, for the messages or lights of a sweep


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
        if self.trials < 2:  # a standard error needs two
            raise ValueError("need at least two trials")
        if self.design.grid.bandwidth / self.design.message.bandwidth < 32:
            raise ValueError("oversampling guard: require B/b >= 32")
        m = self.design.grid.n_samples
        if m - 6 * self.design.delay < m // 8:  # statistics use samples 4d .. m - 2d
            raise ValueError("grid too short for the warm-up and edge exclusions")


# A per-trial table: an np.recarray, one row per trial run (t.mse) and a column per field
_TRIAL_COLUMNS = np.dtype([("trial", np.int64), ("mse", np.float64),
                           ("sigma0_sq_empirical", np.float64), ("cycle_slips", np.int64)])


@dataclass(frozen=True)
class CellResult:
    """Aggregate over one configuration's per-trial table, trials.

    snr_empirical averages the mse over in-lock (slip-free) trials, or over
    all when fewer than two are slip-free (no snr_stderr from one trial);
    the threshold-collapse criterion is then measured on the slipped
    population itself.
    """

    trials: np.recarray
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


def _made_once(make):
    """make, its results kept in a small cache (the last _DENSITIES keys),
    each made once however many workers ask for it at once."""
    cached, lock = lru_cache(maxsize=_DENSITIES)(make), threading.Lock()

    def get(*key):
        with lock:
            return cached(*key)
    get.cache_clear = cached.cache_clear
    return get


@_made_once
def _message_density(spec: MessageSpec, drop_dc: bool):
    """message_psd(spec, drop_dc), made once for every group that colours
    with it (color_noise makes its filter once per density)."""
    return message_psd(spec, drop_dc=drop_dc)


@_made_once
def _quadrature_densities(kind: str, r: float, squeeze_bandwidth, grid: TimeGrid) -> tuple:
    """A squeezed light's (S1, S2) (squeezed_covariance_psds), made once for
    every group that colours with them; |alpha| is not read."""
    return squeezed_covariance_psds(NoiseModel(kind, 0.0, r, squeeze_bandwidth), grid)


def sample_message(spec: MessageSpec, seed: int, trials, drop_dc: bool = False) -> np.ndarray:
    """The messages of the given trials, (len(trials), m): each row is its
    trial's stream (seed, trial, 0) coloured to message_psd(spec, drop_dc),
    a zero-mean unit-variance Gaussian sequence."""
    (white,) = _tracker.load().normals(seed, trials, 0, 1, spec.grid.n_samples)
    return color_noise(white, _message_density(spec, drop_dc))


def sample_quadratures(noise: NoiseModel, grid: TimeGrid, seed: int, trials):
    """The quadrature noise (x0, y0) of the given trials, (len(trials), m)
    rows, from each trial's stream (seed, trial, 1).

    Coherent light: white (x0, y0), one (2, m) draw.  phase_squeezed: the
    same draw coloured to the antisqueezed S1 and the squeezed S2.
    squeezed_z: x0 is None, since the loop never reads it, and y0 is the
    first m draws coloured to S2, the record noise z'.  Each is a
    C-contiguous array: the draws are laid out as (quads, rows, m) planes.
    """
    quads = 1 if noise.kind == SQUEEZED_Z else 2
    white = _tracker.load().normals(seed, trials, 1, quads, grid.n_samples)
    if noise.kind == COHERENT:
        return white[0], white[1]
    s1, s2 = _quadrature_densities(noise.kind, noise.r, noise.squeeze_bandwidth, grid)
    if noise.kind == SQUEEZED_Z:
        return None, color_noise(white[0], s2)
    return color_noise(white[0], s1), color_noise(white[1], s2)


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


def _group_statistics(err: np.ndarray, worst: np.ndarray) -> tuple:
    """(sigma0_sq_empirical, cycle_slips) of each row of a group's windowed
    tracking error err, whose rows reach at most worst in magnitude: its mean
    square about the nearest multiple of 2 pi to its mean and its slips
    (cycle_slip_count, counted only on rows whose worst reaches pi/2, since a
    row inside +-pi/2 never leaves basin 0).  Works in place in err.  Each
    row's means are pairwise sums over its contiguous row, as a lone row's
    are, so a trial's statistics do not depend on its group."""
    offsets = 2.0 * np.pi * np.round(np.mean(err, axis=1) / (2.0 * np.pi))
    slips = [cycle_slip_count(e) if w >= np.pi / 2.0 else 0 for e, w in zip(err, worst)]
    err -= offsets[:, None]
    np.square(err, out=err)
    return np.mean(err, axis=1), np.array(slips, dtype=np.int64)


def _simulate_group(cfg: PllConfig, store, close, taps, trials: list) -> np.recarray:
    """The per-trial table (_TRIAL_COLUMNS) of one row group: drawn (_draw,
    from store when that is not None), then tracked, estimated and checked in
    the group's own arrays.

    close is the kernel's close_group (_tracker.load()), or None for the
    open loop.
    """
    design = cfg.design
    g = design.grid
    m, d, twoa = g.n_samples, design.delay, design.two_alpha
    n_t = len(trials)
    msg, x0, y0 = _draw(cfg, trials, store)
    phibar = modulate(design.mod, g, msg)

    if close is None:
        phip = phibar  # e = 0: the record is the phase-insensitive quadrature
        rec = phibar + y0 / twoa
    else:  # TimeGrid makes m and nt = m/2 powers of two, as the kernel's blocks need
        phip, rec = np.empty((n_t, m)), np.empty((n_t, m))
        close(taps, twoa, phibar, x0, y0, rec, phip)
    # the tracking error, in phibar's own memory unless force_lock made phip
    # that array; the estimate needs of phibar only what is in err and phip,
    # and the draws are freed too unless a run_cells store holds them
    err = np.subtract(phibar, phip, out=None if phip is phibar else phibar)
    del x0, y0, phibar
    worst = np.maximum(np.max(err, axis=1), -np.min(err, axis=1))
    if not np.max(worst) <= _DIVERGENCE_LIMIT:  # also catches a non-finite error
        bad = int(np.argmax(worst))
        raise LoopDivergenceError(
            f"loop diverged (max |phibar - phi'| = {worst[bad]:.3e})",
            float(worst[bad]), trials[bad])
    lo, hi = 4 * d, m - 2 * d
    sigma0_sqs, slips = _group_statistics(err[:, lo:hi], worst)
    del err

    # e_hat and then its sine term in phip, the record's relinearisation in
    # place in rec
    e_hat = modulate(design.mod, g, design.g.apply(rec))
    e_hat -= phip
    np.sin(e_hat, out=phip)
    phip -= e_hat
    del e_hat
    rec -= phip
    del phip
    m_hat = design.g_delayed.apply(rec)
    del rec
    # the squared error in place; each row's mean is a pairwise sum over its
    # contiguous row, as a lone row's is
    sq = m_hat[:, lo:hi]
    sq -= msg[:, lo - d: hi - d]
    np.square(sq, out=sq)
    return np.rec.fromarrays([trials, np.mean(sq, axis=1), sigma0_sqs, slips],
                             dtype=_TRIAL_COLUMNS)


def _cell_work(cfg: PllConfig, trial_indices=None, force_lock: bool = False,
               store: _DrawStore | None = None):
    """(run, groups) of one cell: its trials as row groups (_row_groups) and
    run(group), the group's per-trial table (_simulate_group), drawn through
    store when that is not None.

    Built on the calling thread, before any worker needs the kernel or the
    taps.
    """
    trials = list(range(cfg.trials) if trial_indices is None else trial_indices)
    taps = tracking_taps(cfg.design, cfg.feedback_delay)
    close = None if force_lock else _tracker.load().close_group
    run = partial(_simulate_group, cfg, store, close, taps)
    return run, [trials[rows] for rows in _row_groups(len(trials))]


def _pipeline(cells):
    """Each cell's per-trial table, its groups' tables in group order, in
    cell order, for an iterable of (run, groups) cells (_cell_work).

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
        return np.concatenate([future.result() for future in futures]).view(np.recarray)
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
    """Run the given trials (all cfg.trials by default); returns their
    per-trial table (_TRIAL_COLUMNS), one row per trial in their order.

    The one-cell form of run_cells: the trials run as row groups on up to
    max_workers() threads, and results do not depend on the number of
    threads.  A diverging group raises LoopDivergenceError for its worst
    trial, the first such group's when several do.  force_lock pins phi' =
    phibar (open loop) for cross-checks against the linearised MAP estimate.
    """
    (results,) = _pipeline([_cell_work(cfg, trial_indices, force_lock)])
    return results


def aggregate(trials: np.recarray) -> CellResult:
    """The CellResult of a per-trial table (_TRIAL_COLUMNS), read by column."""
    slips = trials.cycle_slips
    locked = slips == 0
    used = trials.mse[locked] if np.count_nonzero(locked) > 1 else trials.mse
    mse = float(np.mean(used))
    stderr = float(np.std(used) / np.sqrt(used.size)) if used.size > 1 else 0.0
    snr = 1.0 / mse
    return CellResult(
        trials=trials,
        snr_empirical=snr,
        snr_stderr=snr * (stderr / mse) if mse > 0 else 0.0,
        mse=mse,
        sigma0_sq_empirical=float(np.mean(trials.sigma0_sq_empirical)),
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
