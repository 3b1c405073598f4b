"""Oracles that only the tests use: the FM message's band-limited
derivative, the averaged-periodogram PSD estimate and the Carson bandwidth;
the photon budget at its carrier; the Wiener side's cepstral spectral
factor, textbook causal-part L', anticausal energy, linearised and exact
(fixed-point) MAP estimates; the Fock side's product states, phase shifts
and phase moments; the limits' large-argument SNR asymptotes and the
Lorentzian PM SNR; the Monte Carlo's per-trial error statistics; and a
replay of numpy's ziggurat that counts its slow branches.

spectral_factorize gives the cepstral factor X of the classical
construction L' = (1/X)[V/X*]_+ (causal_part_solution), kept as a
cross-check of the library's Levinson solve for smooth spectra only: on
discontinuous (brick-wall) spectra its circular Gibbs wrap-around leaves
residuals around 1e-2."""

import math
import re

import numpy as np

from qdemod import _tracker, rng
from qdemod.fock import TruncatedState, density_weight, phase_grid
from qdemod.grids import FilterKernel, SpectralDensity, TimeGrid
from qdemod.pll import cycle_slip_count
from qdemod.signals import (FM, PM, MessageSpec, ModulationScheme, message_psd,
                            modulate, phase_response)
from qdemod.wiener import FactorizationError, LoopDesign, optimum_filter

PLANCK = 6.62607015e-34      # h, J s
CARRIER_FREQUENCY = 1.935e14  # f0, Hz (1550 nm)


def differentiate(grid: TimeGrid, x: np.ndarray) -> np.ndarray:
    """Exact band-limited time derivative of a grid sequence (per second).

    Multiplies each DFT bin by i 2 pi f; the Nyquist bin, whose sign is
    undefined, is multiplied by 0.
    """
    w = 2j * np.pi * grid.freqs
    w[grid.n_samples // 2] = 0.0
    return np.fft.ifft(np.fft.fft(x) * w).real


def estimate_psd(x, grid: TimeGrid, segments: int = 1) -> SpectralDensity:
    """Averaged-periodogram PSD estimate of a sequence x on grid.

    Each segment is demeaned, so the bin-mean of the estimate equals the
    per-segment sample variance exactly (Parseval).
    """
    data = np.asarray(x)
    m = grid.n_samples
    if data.shape[-1] != m:
        raise ValueError("sequence length must equal grid.n_samples")
    if segments < 1 or m % segments != 0:
        raise ValueError("segments must be >= 1 and divide the grid length")
    seg_len = m // segments
    if seg_len < 8:
        raise ValueError("segment length below 8; use fewer segments")
    segs = data.reshape(segments, seg_len)
    segs = segs - segs.mean(axis=1, keepdims=True)
    p = np.abs(np.fft.fft(segs, axis=1)) ** 2 / seg_len
    values = p.mean(axis=0)
    seg_grid = TimeGrid(grid.bandwidth, seg_len)
    return SpectralDensity(seg_grid, values)


def carson_bandwidth(beta: float, bandwidth: float,
                     squeeze_bandwidth: float | None = None) -> float:
    """Occupied optical bandwidth (beta + 1) b, plus B_s when squeezed.

    beta may be 0, so the unmodulated limit is representable.
    """
    if beta < 0:
        raise ValueError("modulation index must be nonnegative")
    base = (beta + 1.0) * bandwidth
    return base if squeeze_bandwidth is None else squeeze_bandwidth + base


def photon_budget(alpha_mag: float, r: float, bandwidth: float,
                  squeeze_bandwidth: float, message_bandwidth: float):
    """(average power P, photons N per message correlation time 1/b).

    P = h f0 B |alpha|^2 + h f0 B_s sinh^2 r; N = P / (h f0 b).
    """
    hf0 = PLANCK * CARRIER_FREQUENCY
    power = hf0 * bandwidth * alpha_mag**2 + hf0 * squeeze_bandwidth * np.sinh(r) ** 2
    n_photon = power / (hf0 * message_bandwidth)
    return power, n_photon


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, last_iterate: np.ndarray, iterations: int):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


def anticausal_energy_fraction(response: np.ndarray) -> float:
    """Energy fraction of the taps at negative lags (circle indices >= M/2)."""
    taps = np.fft.ifft(np.asarray(response))
    m = taps.size
    total = float(np.sum(np.abs(taps) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(taps[m // 2:]) ** 2) / total)


def spectral_factorize(u: np.ndarray, grid: TimeGrid) -> FilterKernel:
    """Minimum-phase spectral factor X with |X(f)|^2 = U(f) exactly on bins.

    Real-cepstrum construction: fold the cepstrum of log sqrt(U) onto
    nonnegative lags and exponentiate.  Bins below the floor 1e-12 max(U)
    are clamped to it so brick-wall zeros stay finite; bins above it are
    untouched, keeping |X|^2 = U exact wherever U is alive (an additive
    floor would corrupt the small bins of wide-dynamic-range FM spectra).
    """
    u = np.asarray(u, dtype=float)
    m = grid.n_samples
    if u.shape != (m,):
        raise ValueError("U length must equal grid.n_samples")
    if np.all(u <= 0):
        raise FactorizationError("spectrum not positive after flooring")
    floored = np.maximum(u, 1e-12 * float(np.max(u)))
    ceps = np.fft.ifft(0.5 * np.log(floored))
    folded = np.zeros(m, dtype=complex)
    folded[0] = ceps[0]
    folded[1: m // 2] = 2.0 * ceps[1: m // 2]
    folded[m // 2] = ceps[m // 2]
    x = np.exp(np.fft.fft(folded))
    return FilterKernel(grid, x)


def causal_part_solution(u: np.ndarray, v: np.ndarray, grid: TimeGrid) -> FilterKernel:
    """Textbook L' = (1/X) [V/X*]_+ via the cepstral factor.

    Zeroes the anticausal taps of V/X* in the sample domain.  Accurate for
    smooth spectra; Gibbs-limited for brick walls (see module docstring).
    """
    x = spectral_factorize(u, grid).response
    w = np.fft.ifft(np.asarray(v) / np.conj(x))
    w[grid.n_samples // 2:] = 0.0
    response = np.fft.fft(w) / x
    return FilterKernel(grid, response)


def linearized_map_estimate(design: LoopDesign, phi: np.ndarray) -> np.ndarray:
    """m_hat = G . phi for an effective phase record phi = phibar + z'/2|a|."""
    return design.g.apply(np.asarray(phi, dtype=float))


_MAP_ITERATIONS = 10000  # cap of nonlinear_map_fixed_point

def nonlinear_map_fixed_point(message: MessageSpec, mod: ModulationScheme,
                              two_alpha: float, a: np.ndarray,
                              init: np.ndarray | None = None):
    """Damped fixed-point solve of the exact MAP equation m = 2|a| K_m H^T p(m).

    p(m) = -i (a e^{-i phi} - a* e^{i phi}), phi = H m.  The iteration is run
    in the preconditioned form m <- m/2 + G (H m + p(m)/2|a|)/2, which has
    the same fixed points as the raw equation but contracts even when
    beta^2 Lambda >> 1 (the raw Picard map has spectral radius ~ beta^2 Lambda
    and diverges).  Needs the full complex field record a (oracle mode).

    Returns (estimate, iterations) once an iteration moves no sample by
    1e-9 or more.  Raises NonConvergenceError carrying the last iterate
    after _MAP_ITERATIONS iterations.
    """
    grid = message.grid
    a = np.asarray(a, dtype=complex)
    s_m = message_psd(message, drop_dc=(mod.kind == FM)).values
    h = phase_response(mod, grid)
    fa2 = two_alpha**2
    g = optimum_filter(s_m, h, fa2, np.ones(grid.n_samples), grid)

    if init is None:
        # linearised estimate from the record phase (oracle mode has the full
        # complex field); low-pass to the Carson band first so the per-sample
        # angle noise cannot derail the unwrap
        half = min(carson_bandwidth(mod.beta, message.bandwidth),
                   0.499 * grid.bandwidth)
        mask = np.abs(grid.freqs) <= half
        a_lp = np.fft.ifft(np.fft.fft(a) * mask)
        phi0 = np.unwrap(np.angle(a_lp))
        init = g.apply(phi0)
    m = np.asarray(init, dtype=float).copy()
    for it in range(1, _MAP_ITERATIONS + 1):
        phi = modulate(mod, grid, m)
        p = 2.0 * np.imag(a * np.exp(-1j * phi))
        target = g.apply(phi + p / two_alpha)
        new = 0.5 * m + 0.5 * target
        delta = float(np.max(np.abs(new - m)))
        m = new
        if delta < 1e-9:
            return m, it
    raise NonConvergenceError("MAP fixed point did not converge", m, _MAP_ITERATIONS)


def product_state(*modes: TruncatedState) -> TruncatedState:
    """Tensor product of single-mode states."""
    c = modes[0].amplitudes
    for st in modes[1:]:
        c = np.tensordot(c, st.amplitudes, axes=0)
    return TruncatedState(c)


def phase_mean_and_variance(density: np.ndarray, points: int):
    """Circular-window mean and variance of a single-mode density around 0."""
    phi = phase_grid(points)
    phi = np.where(phi > np.pi, phi - 2.0 * np.pi, phi)  # wrap to (-pi, pi]
    w = density_weight(points, 1)
    mean = float(np.sum(phi * density) * w)
    var = float(np.sum((phi - mean) ** 2 * density) * w)
    return mean, var


def phase_shift(state: TruncatedState, theta: float) -> TruncatedState:
    """Apply exp(i theta n) per mode: translates the canonical density by theta."""
    c = state.amplitudes
    for axis in range(state.modes):
        n = np.arange(c.shape[axis])
        shape = [1] * state.modes
        shape[axis] = c.shape[axis]
        c = c * np.exp(1j * theta * n).reshape(shape)
    return TruncatedState(c)


def snr_asymptote(kind: str, beta: float, lam: float) -> float:
    """Large beta^2 Lambda asymptotes: beta^2 Lambda (PM), 3 beta^2 Lambda (FM)."""
    if kind == PM:
        return beta * beta * lam
    if kind == FM:
        return 3.0 * (beta * beta) * lam
    raise ValueError(f"unknown modulation kind {kind!r}")


def lorentzian_pm_snr(n_photon: float, beta: float) -> float:
    """Coherent PM SNR for a Lorentzian message, B >> b: sqrt(8 b^2 N / pi + 1)."""
    return float(np.sqrt(8.0 * (beta * beta) * n_photon / np.pi + 1.0))


def error_statistics(e: np.ndarray) -> tuple:
    """(sigma0_sq_empirical, cycle_slips) of one trial's windowed tracking
    error: its mean square about the nearest multiple of 2 pi to its mean,
    and its cycle_slip_count."""
    offset = 2.0 * np.pi * np.round(np.mean(e) / (2.0 * np.pi))
    return float(np.mean((e - offset) ** 2)), cycle_slip_count(e)


def _ziggurat_constants() -> tuple:
    """(wi, fi, ki, r, 1/r): numpy's ziggurat tables and constants as
    _tracker.c embeds them."""
    text = _tracker.SOURCE.read_text()

    def table(name, parse):
        body = re.search(rf"\b{name}\[256\] = \{{(.*?)\}};", text, re.S).group(1)
        return np.array([parse(entry.strip()) for entry in body.split(",")])

    def constant(name):
        return float(re.search(rf"^#define {name} (\S+)$", text, re.M).group(1))
    ki = table("zig_ki", lambda entry: int(entry, 16)).astype(np.uint64)
    return (table("zig_wi", float.fromhex), table("zig_fi", float.fromhex), ki,
            constant("ZIG_R"), constant("ZIG_INV_R"))


def replay_normals(seed: int, trial: int, purpose: int, n: int) -> tuple:
    """(draws, tails, wedges): the first n standard normal draws of
    rng.stream(seed, trial, purpose), replayed from its raw Philox draws by
    numpy's ziggurat on _tracker.c's tables, and how many draws took the
    tail branch (layer 0) and the wedge branch.  The first test runs on all
    raw draws at once; only the draws that fail it step in Python."""
    wi, fi, ki, r_edge, inv_r = _ziggurat_constants()
    bitgen = np.random.Philox(key=seed, counter=rng.counter(seed, trial, purpose))
    raw = bitgen.random_raw(n + n // 4 + 64)
    layer = (raw & np.uint64(0xFF)).astype(np.intp)
    rabs = (raw >> np.uint64(9)) & np.uint64(0xFFFFFFFFFFFFF)
    x = rabs.astype(float) * wi[layer]
    x = np.where((raw >> np.uint64(8)) & np.uint64(1), -x, x)
    failed = np.append(np.flatnonzero(rabs >= ki[layer]), raw.size)

    def uniform(i):
        return float(raw[i] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    out, p, k, tails, wedges = np.empty(n), 0, 0, 0, 0
    while k < n:
        take = min(int(failed[np.searchsorted(failed, p)]) - p, n - k)
        out[k: k + take] = x[p: p + take]
        k, p = k + take, p + take
        if k == n:
            break
        q, p = p, p + 1  # the draw that failed the first test
        if layer[q] == 0:
            tails += 1
            while True:
                xx = -inv_r * math.log1p(-uniform(p))
                yy = -math.log1p(-uniform(p + 1))
                p += 2
                if yy + yy > xx * xx:
                    out[k] = -(r_edge + xx) if int(rabs[q]) >> 8 & 1 else r_edge + xx
                    k += 1
                    break
        else:
            wedges += 1
            i, xq = layer[q], float(x[q])
            if (fi[i - 1] - fi[i]) * uniform(p) + fi[i] < math.exp(-0.5 * xq * xq):
                out[k] = xq
                k += 1
            p += 1
    return out, tails, wedges
