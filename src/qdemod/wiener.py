"""MAP/Wiener filter synthesis on the circulant grid.

The optimum filter G, its delayed form G exp(-i w d dt), the causal
closed-loop filter L' solving the discrete Wiener-Hopf equation, the loop
filter L and the delayed post-loop filter L'' are all synthesised per
design.  Causal means tap support on lags [0, M/2) of the M-point circle.

L' is computed exactly: the causal-constrained normal equations form a
symmetric positive-definite Toeplitz system (column = autocovariance taps of
U), solved by Levinson recursion, which drives the causal Wiener-Hopf
residual to rounding level even for brick-wall spectra.
normal_equation_taps sets up that system for either feedback delay, and
solve_normal_equations runs the recursion in the kernel (_tracker.load()'s
levinson).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tracker
from .grids import FilterKernel, SpectralDensity, TimeGrid
from .signals import FM, MessageSpec, ModulationScheme, message_psd, phase_response
from .qnoise import NoiseModel, squeezed_covariance_psds


class FactorizationError(ValueError):
    pass


class LoopInstabilityError(ValueError):
    pass


def optimum_filter(s_m: np.ndarray, h: np.ndarray, four_alpha_sq: float,
                   s2: np.ndarray, grid: TimeGrid) -> FilterKernel:
    """Noncausal MAP filter G = 4|a|^2 S_m H* / (4|a|^2 S_m |H|^2 + S2).

    Bins with no message power (including the FM DC bin) get their analytic
    limit G = 0.
    """
    s_m = np.asarray(s_m, float)
    s2 = np.asarray(s2, float)
    h = np.asarray(h, complex)
    if np.any(s2 <= 0):
        raise ValueError("S2 must be positive on every bin")
    num = four_alpha_sq * s_m * np.conj(h)
    den = four_alpha_sq * s_m * np.abs(h) ** 2 + s2
    g = np.zeros(grid.n_samples, dtype=complex)
    live = s_m * np.abs(h) ** 2 > 0
    g[live] = num[live] / den[live]
    return FilterKernel(grid, g)


def wiener_hopf_residual(l_response: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """max over causal lags of |(L * U - V) taps|, relative to max |V taps|."""
    r = np.fft.ifft(np.asarray(l_response) * np.asarray(u) - np.asarray(v))
    m = r.size
    scale = float(np.max(np.abs(np.fft.ifft(v))))
    if scale == 0.0:
        return float(np.max(np.abs(r[: m // 2])))
    return float(np.max(np.abs(r[: m // 2])) / scale)


def solve_normal_equations(ut: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with sum_k ut[|j - k|] x_k = rhs_j, j, k in [0, rhs.size), by
    Levinson recursion: the package's one causal Toeplitz solve.

    Raises ValueError on non-finite input, np.linalg.LinAlgError on a
    singular leading minor and FactorizationError on taps that overflow.
    """
    rhs = np.asarray(rhs, dtype=float)
    col = np.asarray(ut, dtype=float)[: rhs.size]
    if rhs.ndim != 1 or rhs.size == 0 or col.size != rhs.size:
        raise ValueError("need a nonempty rhs and at least rhs.size taps of ut")
    if not (np.isfinite(col).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    with np.errstate(all="ignore"):  # the numpy kernel's overflow is the error below
        x = _tracker.load().levinson(col, rhs)
    if not np.isfinite(x).all():
        raise FactorizationError("the Levinson solve of the causal normal equations "
                                 "gave non-finite taps")
    return x


def normal_equation_taps(u: np.ndarray, v: np.ndarray, first: int = 0) -> np.ndarray:
    """Taps x_k, k in [first, M/2), solving sum_k x_k U_{j-k} = V_j for j in
    [first, M/2), from the spectra U and V: first = 0 gives L' and first = 1
    the one-step predictor of pll.tracking_taps (its lag-0 tap is zero)."""
    ut = np.fft.ifft(np.asarray(u, dtype=float)).real
    vt = np.fft.ifft(np.asarray(v, dtype=float)).real
    return solve_normal_equations(ut, vt[first: ut.size // 2])


def closed_loop_filter(u: np.ndarray, v: np.ndarray, grid: TimeGrid) -> FilterKernel:
    """Causal Wiener filter L' solving sum_{k>=0} L'_k U_{j-k} = V_j, j >= 0,
    exactly on the circle (normal_equation_taps)."""
    m = grid.n_samples
    full = np.zeros(m)
    full[: m // 2] = normal_equation_taps(u, v)
    return FilterKernel(grid, np.fft.fft(full))


@dataclass(frozen=True)
class LoopDesign:
    """Complete filter set for one operating point.

    The consistency identities g_delayed = G exp(-i w d dt) = L'' L' and
    L' = 2|a| L / (1 + 2|a| L) hold per bin by construction.
    """

    grid: TimeGrid
    mod: ModulationScheme
    message: MessageSpec
    g: FilterKernel
    g_delayed: FilterKernel
    l_prime: FilterKernel
    l_loop: FilterKernel
    l_post: FilterKernel
    delay: int
    two_alpha: float
    noise: NoiseModel
    s2: SpectralDensity
    s_m: np.ndarray
    h: np.ndarray
    u: np.ndarray
    v: np.ndarray
    wh_residual: float

    @property
    def four_alpha_sq(self) -> float:
        return self.two_alpha**2


def loop_and_postloop(l_prime: FilterKernel, g: FilterKernel, two_alpha: float,
                      delay: int):
    """Loop filter L = L'/(2|a|(1-L')), delayed G e^{-iwd} and L'' = G e^{-iwd}/L'."""
    if delay < 0:
        raise ValueError("delay must be nonnegative")
    grid = l_prime.grid
    lp = l_prime.response
    margin = np.min(np.abs(1.0 - lp))
    if not margin >= 1e-6:  # also catches a NaN L'
        raise LoopInstabilityError(
            f"|1 - L'| reaches {margin:.3e}; the closed loop would be unstable")
    l_resp = lp / (two_alpha * (1.0 - lp))
    l_loop = FilterKernel(grid, l_resp)
    # e^{-iwd} from f dt, each bin's cycles per sample: f d dt overflows near the float limit
    shift = np.exp(-2j * np.pi * np.fft.fftfreq(grid.n_samples) * delay)
    g_delayed = g.response * shift  # G first: a complex product's bits depend on the order
    post = np.zeros(grid.n_samples, dtype=complex)
    live = np.abs(g.response) > 0
    post[live] = g_delayed[live] / lp[live]
    return l_loop, FilterKernel(grid, g_delayed), FilterKernel(grid, post)


def design_loop(message: MessageSpec, mod: ModulationScheme, alpha_mag: float,
                noise: NoiseModel, delay: int | None = None) -> LoopDesign:
    """Synthesise the full {G, G e^{-iwd}, L', L, L''} set for one operating point.

    The design carries noise, the light; its |alpha| must be alpha_mag.
    """
    if noise.alpha_mag != alpha_mag:
        raise ValueError(f"noise |alpha| = {noise.alpha_mag!r} differs from "
                         f"alpha_mag = {alpha_mag!r}")
    grid = message.grid
    s_m = message_psd(message, drop_dc=(mod.kind == FM)).values
    h = phase_response(mod, grid)
    _, s2_density = squeezed_covariance_psds(noise, grid)
    s2 = s2_density.values
    fa2 = 4.0 * alpha_mag**2
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
        v = fa2 * s_m * np.abs(h) ** 2
        u = v + s2
        total = np.sum(u)  # the sum of U over bins, which the inverse FFTs add up
    if not np.isfinite(total):
        raise ValueError("beta^2 lambda is too large: U = 4|alpha|^2 S_m |H|^2 + S2 "
                         "or its sum over bins overflows")
    g = optimum_filter(s_m, h, fa2, s2, grid)
    l_prime = closed_loop_filter(u, v, grid)
    if delay is None:  # 8 message correlation times
        delay = 8 * int(np.ceil(grid.bandwidth / message.bandwidth))
    l_loop, g_delayed, l_post = loop_and_postloop(l_prime, g, 2.0 * alpha_mag, delay)
    residual = wiener_hopf_residual(l_prime.response, u, v)
    if not residual <= 1e-6:  # also catches a NaN residual
        raise FactorizationError(
            f"causal Wiener-Hopf residual {residual:.3e} exceeds 1e-6")
    return LoopDesign(
        grid=grid, mod=mod, message=message, g=g, g_delayed=g_delayed, l_prime=l_prime,
        l_loop=l_loop, l_post=l_post, delay=delay, two_alpha=2.0 * alpha_mag,
        noise=noise, s2=s2_density, s_m=s_m, h=h, u=u, v=v, wh_residual=residual,
    )


_DUMP_ROW = "%d %.9e" + " %.17e" * 8 + "\n"
# Rows per formatted block. A block string is ~29 KB; blocks over glibc's
# 128 KB mmap threshold raise the peak RSS.
_DUMP_BLOCK = 128


def dump_design(design: LoopDesign, path) -> None:
    """Plain-text spectrum dump: bin, frequency, complex response per filter.

    Rows are written in blocks: each block's bin, frequency and eight
    response columns go through one `%` with the repeated row format, which
    gives the same bytes as formatting each value on its own.
    """
    g = design.grid
    freqs = g.freqs
    responses = (design.g.response, design.l_prime.response,
                 design.l_loop.response, design.l_post.response)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# loop design dump\n")
        fh.write(f"# n_samples = {g.n_samples}, bandwidth = {g.bandwidth!r}, "
                 f"delay = {design.delay}, two_alpha = {design.two_alpha!r}\n")
        fh.write("# bin freq G_re G_im Lp_re Lp_im L_re L_im Lpp_re Lpp_im\n")
        for lo in range(0, g.n_samples, _DUMP_BLOCK):
            hi = min(lo + _DUMP_BLOCK, g.n_samples)
            block = np.empty((hi - lo, 10))
            block[:, 0] = np.arange(lo, hi)  # exact as float64; %d prints it whole
            block[:, 1] = freqs[lo:hi]
            block[:, 2:] = np.stack([r[lo:hi] for r in responses], axis=1).view(float)
            fh.write(_DUMP_ROW * (hi - lo) % tuple(block.ravel().tolist()))
