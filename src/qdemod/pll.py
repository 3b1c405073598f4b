"""Discrete-time homodyne phase-locked-loop Monte Carlo.

Loop realisation: the local-oscillator phase is produced by the causal Wiener
tracker applied to the running reconstructed phase record
phi_rec = phi' + p'/(2|a|).  Algebraically this is the textbook loop
phi' = L p' with L = L'/(2|a|(1 - L')), but realised in its feedback-stable
factorised form so brick-wall designs (whose L response rings) cannot
destabilise the recursion.

feedback_delay selects the information set: 0 gives the delay-free loop of
the continuous theory (LO phase may use the simultaneous sample, closed per
sample by a Newton solve); 1 restricts the tracker to p' up to the previous
sample (one-step-ahead prediction).  The delay-free loop is the default: the
one-sample variant adds a prediction penalty to the tracking error that stays
finite for strongly squeezed noise no matter how large B/b is, which pushes
the simulator outside the linear theory the analytic predictions describe.

The delay-free closure writes the record's dependence on the tracking error e
in amplitude-phase form, sin e + z(e)/2|a| = A sin(e + psi) + z_off (A, psi
from the sample's (x0, y0); A = 1, psi = 0, z_off = z'/2|a| for squeezed_z),
so each sample solves (1 - l0) u + l0 A sin u = c for u = e + psi.  Newton
starts from the previous sample's error and stops once every row's step is
below _NEWTON_TOL, after at most _NEWTON_STEPS (8) steps.

Trials are vectorised in lockstep; every trial draws from its own
counter-based stream, so its draws do not depend on the batch.  Results are
bit-identical for a given (config, master seed, trial index, batching);
across batch sizes they agree to rounding level (rel 1e-12), because the
tracker's BLAS reductions may order their sums differently and the Newton
stop rule is batch-wide.

Each trial starts in lock (tracker history seeded with the steady-state
record): acquisition transients are out of scope, and a cold start at
beta >~ pi/2 slips with O(10%) probability, which would contaminate the
stationary statistics the predictions describe.  The first 4d samples are
discarded as warm-up and the trailing 2d samples are excluded from
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_toeplitz

from .grids import color_noise
from .qnoise import (COHERENT, PHASE_SQUEEZED, SQUEEZED_Z, NoiseModel,
                     squeezed_covariance_psds)
from .rng import stream
from .signals import FM, message_psd
from .wiener import LoopDesign

VARIANTS = (COHERENT, SQUEEZED_Z, PHASE_SQUEEZED)

_NEWTON_STEPS = 8  # hard cap on Newton steps per sample
_NEWTON_TOL = 1e-13  # stop once every row's |step| is below this (rad)
_DIVERGENCE_LIMIT = 1e3
_BATCH = 64  # trials per lockstep batch in run_cell


class LoopDivergenceError(RuntimeError):
    def __init__(self, message: str, max_error: float, trial: int):
        super().__init__(message)
        self.max_error = max_error
        self.trial = trial


@dataclass(frozen=True)
class PllConfig:
    """One Monte Carlo operating point."""

    design: LoopDesign
    noise: NoiseModel
    variant: str
    trials: int
    seed: int
    feedback_delay: int = 0
    relinearize: int = 1

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == COHERENT and self.noise.squeezed:
            raise ValueError("coherent variant requires a coherent noise model")
        if self.variant != COHERENT and not self.noise.squeezed:
            raise ValueError("squeezed variants require a squeezed noise model")
        if self.feedback_delay not in (0, 1):
            raise ValueError("feedback_delay must be 0 or 1 samples")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        g = self.design.grid
        if g.bandwidth / self.design.message.bandwidth < 32:
            raise ValueError("oversampling guard: require B/b >= 32")


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
    snr_analytic: float = float("nan")
    meta: dict = field(default_factory=dict)


def cycle_slip_count(phibar: np.ndarray, phi_prime: np.ndarray) -> int:
    """Completed crossings of odd multiples of pi by the tracking error.

    Debounced: a crossing counts once the error settles well inside
    (within pi/2 of the centre of) a new 2pi lock basin, so jitter on a
    basin boundary is not multiply counted.
    """
    e = np.atleast_1d(np.asarray(phibar, dtype=float) - np.asarray(phi_prime, dtype=float))
    basins = np.round(e / (2.0 * np.pi)).astype(int)
    inside = np.abs(e - 2.0 * np.pi * basins) < np.pi / 2.0
    seq = basins[inside]
    if seq.size == 0:
        return 0
    return int(np.sum(np.abs(np.diff(seq))))


def tracking_taps(design: LoopDesign, feedback_delay: int) -> np.ndarray:
    """Causal tracker taps (lag 0 first).

    feedback_delay = 0: the L' taps themselves (filtering solution).
    feedback_delay = 1: lag-0 tap zero, lags 1..M/2-1 solve the one-step
    prediction normal equations on the same (U, V).
    """
    m = design.grid.n_samples
    half = m // 2
    if feedback_delay == 0:
        return design.l_prime.causal_taps()
    ut = np.fft.ifft(design.u).real
    vt = np.fft.ifft(design.v).real
    n = half - 1
    pred = solve_toeplitz((ut[:n], ut[:n]), vt[1: n + 1])
    taps = np.zeros(half)
    taps[1:] = pred
    return taps


def simulate_batch(cfg: PllConfig, trial_indices=None, force_lock: bool = False,
                   noise_scale: float = 1.0):
    """Run a batch of trials in lockstep; returns a list of TrialResult.

    force_lock pins phi' = phibar (open loop) for cross-checks against the
    batch linearised MAP estimate; noise_scale rescales the quadrature noise
    (0 gives the noiseless limit).
    """
    design = cfg.design
    g = design.grid
    m = g.n_samples
    if trial_indices is None:
        trial_indices = range(cfg.trials)
    trial_indices = list(trial_indices)
    n_t = len(trial_indices)
    twoa = design.two_alpha

    taps = tracking_taps(design, cfg.feedback_delay)
    nt = taps.size
    l0 = taps[0]
    trev = np.ascontiguousarray(taps[::-1][: nt - 1])  # weights for lags nt-1 .. 1

    h = design.h
    gd = design.g.response * np.exp(-2j * np.pi * g.freqs * design.delay * g.dt)

    # Per trial: the message on stream (seed, trial, 0), the quadrature
    # noise on (seed, trial, 1) -- white (x0, y0) for coherent light, the
    # S2-coloured record z' for squeezed_z, coloured (x0, y0) otherwise.
    s_msg = message_psd(design.message, drop_dc=design.mod.kind == FM)
    if cfg.variant != COHERENT:
        s1, s2 = squeezed_covariance_psds(cfg.noise, g)
    msg = np.empty((n_t, m))
    x0 = np.zeros((n_t, m))
    y0 = np.zeros((n_t, m))
    zrec = np.empty((n_t, m)) if cfg.variant == SQUEEZED_Z else None
    for row, trial in enumerate(trial_indices):
        msg[row] = color_noise(stream(cfg.seed, trial, 0), s_msg)
        rng = stream(cfg.seed, trial, 1)
        if cfg.variant == COHERENT:
            x0[row] = rng.standard_normal(m) * noise_scale
            y0[row] = rng.standard_normal(m) * noise_scale
        elif cfg.variant == SQUEEZED_Z:
            zrec[row] = color_noise(rng, s2) * noise_scale
        else:
            x0[row] = color_noise(rng, s1) * noise_scale
            y0[row] = color_noise(rng, s2) * noise_scale

    if design.mod.kind == FM:
        phibar = np.fft.ifft(np.fft.fft(msg, axis=1) * h, axis=1).real
    else:
        phibar = design.mod.beta * msg

    phip = np.empty((n_t, m))
    if force_lock:
        phip[:] = phibar  # e = 0: the record is the phase-insensitive quadrature
        phirec = phibar + (y0 if zrec is None else zrec) / twoa
    else:
        hist = y0 if zrec is None else zrec
        fr = np.zeros((n_t, nt + m))
        fr[:, :nt] = phibar[:, m - nt:] + hist[:, m - nt:] / twoa
        # Newton closure state, one entry per row, reused by every sample.
        k = 1.0 - l0
        e = np.zeros(n_t)  # warm start: the previous sample's tracking error
        u, c, s, den, step = (np.empty(n_t) for _ in range(5))
        if zrec is None:
            amp, psi, lamp, zoff = np.empty(n_t), np.empty(n_t), np.empty(n_t), 0.0
        else:
            amp, psi, lamp = 1.0, 0.0, l0
        for j in range(m):
            a_past = fr[:, j + 1: j + nt] @ trev
            pb = phibar[:, j]
            if l0 == 0.0:
                x = a_past
                e = pb - x
                if zrec is None:
                    zj = x0[:, j] * np.sin(e) + y0[:, j] * np.cos(e)
                else:
                    zj = zrec[:, j]
                phip[:, j] = x
                fr[:, nt + j] = x + np.sin(pb - x) + zj / twoa
                continue
            # sin e + z(e)/2|a| = amp sin(e + psi) + zoff; for (x0, y0)
            # noise, (amp, psi) is the polar form of (1 + x0/2|a|, y0/2|a|).
            if zrec is None:
                np.divide(x0[:, j], twoa, out=s)
                s += 1.0
                np.divide(y0[:, j], twoa, out=den)
                np.hypot(s, den, out=amp)
                np.arctan2(den, s, out=psi)
                np.multiply(amp, l0, out=lamp)
            else:
                zoff = zrec[:, j] / twoa
            # Solve c = k u + l0 amp sin u for u = e + psi, where the tracker
            # output is pb - e = l0 * record + a_past.
            np.add(pb, psi, out=c)
            c *= k
            c -= a_past
            c -= l0 * zoff
            np.add(e, psi, out=u)
            for _ in range(_NEWTON_STEPS):
                np.sin(u, out=s)
                s *= lamp
                np.cos(u, out=den)
                den *= lamp
                den += k
                np.multiply(u, k, out=step)
                step += s
                step -= c
                step /= den
                np.minimum(step, 1.0, out=step)
                np.maximum(step, -1.0, out=step)
                u -= step
                if np.max(np.abs(step, out=step)) < _NEWTON_TOL:
                    break
            np.subtract(u, psi, out=e)
            x = phip[:, j]
            np.subtract(pb, e, out=x)
            np.sin(u, out=s)
            s *= amp
            s += zoff
            np.add(x, s, out=fr[:, nt + j])
        phirec = fr[:, nt:]

    err = phibar - phip
    worst = float(np.max(np.abs(err)))
    if not worst <= _DIVERGENCE_LIMIT:  # also catches a non-finite error
        bad = int(np.argmax(np.max(np.abs(err), axis=1)))
        raise LoopDivergenceError(
            f"loop diverged (max |phibar - phi'| = {worst:.3e})",
            worst, trial_indices[bad])

    rec = phirec
    for _ in range(cfg.relinearize):
        m_hat0 = np.fft.ifft(np.fft.fft(rec, axis=1) * design.g.response, axis=1).real
        if design.mod.kind == FM:
            ph_hat = np.fft.ifft(np.fft.fft(m_hat0, axis=1) * h, axis=1).real
        else:
            ph_hat = design.mod.beta * m_hat0
        e_hat = ph_hat - phip
        rec = phirec - (np.sin(e_hat) - e_hat)

    m_hat = np.fft.ifft(np.fft.fft(rec, axis=1) * gd, axis=1).real

    d = design.delay
    lo, hi = 4 * d, m - 2 * d
    if hi - lo < m // 8:
        raise ValueError("grid too short for the warm-up and edge exclusions")
    sel = np.arange(lo, hi)
    est_err = m_hat[:, sel] - msg[:, sel - d]
    mses = np.mean(est_err**2, axis=1)

    results = []
    for row, trial in enumerate(trial_indices):
        e_win = err[row, sel]
        slips = cycle_slip_count(e_win, 0.0)
        offset = 2.0 * np.pi * np.round(np.mean(e_win) / (2.0 * np.pi))
        s0 = float(np.mean((e_win - offset) ** 2))
        mse = float(mses[row])
        results.append(TrialResult(
            seed=cfg.seed, trial=trial, mse=mse,
            snr_empirical=1.0 / mse if mse != 0 else float("inf"),
            sigma0_sq_empirical=s0, cycle_slips=slips))
    return results


def run_trial(cfg: PllConfig, trial: int = 0, **kwargs) -> TrialResult:
    """Single-trial convenience wrapper around simulate_batch."""
    return simulate_batch(cfg, [trial], **kwargs)[0]


def aggregate(trials, snr_analytic: float = float("nan"), meta: dict | None = None) -> CellResult:
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
        snr_analytic=snr_analytic,
        meta=dict(meta or {}),
    )


def run_cell(cfg: PllConfig, snr_analytic: float = float("nan"),
             meta: dict | None = None) -> CellResult:
    """Run cfg.trials trials in batches of _BATCH rows and aggregate."""
    out = []
    for start in range(0, cfg.trials, _BATCH):
        idx = range(start, min(start + _BATCH, cfg.trials))
        out.extend(simulate_batch(cfg, idx))
    return aggregate(out, snr_analytic=snr_analytic, meta=meta)

