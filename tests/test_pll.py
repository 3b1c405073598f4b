import math
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qdemod.grids import TimeGrid, _spectrum_product
from qdemod.limits import FM as LFM
from qdemod.limits import PM as LPM
from qdemod.limits import closed_form_snr, sigma0
from qdemod.qnoise import (COHERENT, PHASE_SQUEEZED, SQUEEZED_Z, NoiseModel,
                           operating_point, resolve_lambda)
from qdemod import _tracker, pll
from qdemod.pll import (LoopDivergenceError, PllConfig, TrialResult, aggregate,
                        cycle_slip_count, run_cell, sample_message, sample_quadratures, simulate_batch,
                        tracking_taps)
from qdemod.signals import MessageSpec, ModulationScheme
from qdemod.config import ConfigError
from qdemod.wiener import FactorizationError, design_loop, linearized_map_estimate


def make_design(beta=2.0, lam=100.0, kind="pm", n_samples=4096, band_bins=127,
                r=0.0, delay=None, variant=SQUEEZED_Z):
    grid = TimeGrid(1.0, n_samples)
    msg = MessageSpec.flat(grid, band_bins)
    mod = ModulationScheme(kind, beta, msg.bandwidth)
    alpha, _ = operating_point(msg, r, lam)
    if r > 0:
        noise = NoiseModel(variant, alpha, r, msg.bandwidth)
    else:
        noise = NoiseModel(COHERENT, alpha)
    return design_loop(msg, mod, alpha, noise, delay=delay)


class _ScaledStream:
    """A stream whose white draws are multiplied by scale."""

    def __init__(self, rng, scale):
        self.rng, self.scale = rng, scale

    def standard_normal(self, size):
        return self.rng.standard_normal(size) * self.scale


def scale_quadrature_noise(monkeypatch, scale):
    """Scale the draws of stream (seed, trial, 1), the quadrature noise.

    For coherent light these are the white (x0, y0) themselves, so scale 0
    is the noiseless limit and NaN poisons the record.
    """
    real = pll.stream

    def fake(seed, trial, purpose):
        rng = real(seed, trial, purpose)
        return _ScaledStream(rng, scale) if purpose == 1 else rng
    monkeypatch.setattr(pll, "stream", fake)


def no_kernel(monkeypatch):
    """Make the closed loop run the numpy block loop."""
    monkeypatch.setattr(_tracker, "load", lambda: None)


needs_kernel = pytest.mark.skipif(_tracker.load() is None,
                                  reason="no C compiler: only the numpy loop exists")


def test_cycle_slip_count_basics():
    t = np.linspace(0.0, 1.0, 512)
    assert cycle_slip_count(np.zeros(512)) == 0
    ramp = 2.0 * np.pi * t
    assert cycle_slip_count(ramp) == 1
    two = 4.0 * np.pi * t
    assert cycle_slip_count(two) == 2
    # boundary jitter is debounced
    jitter = np.pi + 0.3 * np.sin(40 * np.pi * t)
    assert cycle_slip_count(jitter) == 0


def assert_trial_deterministic(cfg):
    a = simulate_batch(cfg, [2])[0]
    b = simulate_batch(cfg, [2])[0]
    assert a == b  # bit-identical for identical (config, seed, batching)
    # per-trial draws, FFT rows, tracker history, closure and mse sum are
    # all row-local: a trial's result does not depend on its batch
    assert simulate_batch(cfg, [0, 1, 2, 3])[2] == a


def test_trial_results_deterministic():
    assert_trial_deterministic(PllConfig(make_design(), trials=4, seed=11))


@pytest.mark.parametrize("variant,r", [(SQUEEZED_Z, 0.5), (PHASE_SQUEEZED, 0.25)])
def test_trial_results_deterministic_squeezed(variant, r):
    lam = resolve_lambda(r, n_photon=10.0)
    design = make_design(beta=1.0, lam=lam, r=r, variant=variant)
    assert_trial_deterministic(PllConfig(design, trials=4, seed=11))


BATCH_CASES = {
    "coherent_pm": dict(),
    "coherent_fm": dict(kind="fm"),
    "squeezed_z": dict(variant=SQUEEZED_Z, beta=1.0, r=0.5,
                       lam=resolve_lambda(0.5, n_photon=10.0)),
    "phase_squeezed": dict(variant=PHASE_SQUEEZED, beta=1.0, r=0.25,
                           lam=resolve_lambda(0.25, n_photon=10.0)),
}


@pytest.mark.parametrize("feedback_delay", [0, 1])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batch_never_changes_a_trial(case, feedback_delay):
    """A trial alone equals the same trial in batches of 4, 64 and 72 rows
    (72 rows run as row groups of 32, 32 and 8), bit for bit.  This runs on
    the path that loads; the numpy loop gives the kernel's bits
    (test_kernel_matches_numpy_loop), so it holds on both."""
    design = make_design(n_samples=2048, band_bins=63, **BATCH_CASES[case])
    cfg = PllConfig(design, trials=72, seed=37, feedback_delay=feedback_delay)
    lone = {t: simulate_batch(cfg, [t])[0] for t in (2, 40, 71)}
    assert simulate_batch(cfg, range(4))[2] == lone[2]
    assert simulate_batch(cfg, range(64))[40] == lone[40]
    wide = simulate_batch(cfg, range(72))
    assert [wide[t] for t in lone] == list(lone.values())


# Per-trial (mse, sigma0_sq_empirical, cycle_slips) of three in-lock trials
# (seed 41) on a 2048-sample grid with a 63-bin band, recorded from the
# fixed eight-step Newton closure; the converged closure must reproduce them
# to rounding level.  The short_grid cases run a 64-sample grid, whose 32
# tracker taps are fewer than the samples in one tracker block; they were
# recorded from the per-sample history convolution.
_SHORT = dict(n_samples=64, band_bins=1, delay=2, beta=0.5)
PINNED = {
    "coherent_pm": (dict(), {}, [
        (0.004455770049648185, 0.06147951428737873, 0),
        (0.0022071670899805663, 0.0664433114066295, 0),
        (0.003629056423744502, 0.05681317102050552, 0)]),
    "coherent_fm": (dict(kind="fm"), {}, [
        (0.002439440047304106, 0.1007039338314286, 0),
        (0.000658358860590341, 0.08626688937459236, 0),
        (0.0016396324549680626, 0.09425659493457388, 0)]),
    "squeezed_z": (dict(variant=SQUEEZED_Z, beta=1.0, r=0.5), {}, [
        (0.005106582456578329, 0.09143480449397151, 0),
        (0.00615419151430931, 0.08575076782887713, 0),
        (0.008939877658228955, 0.0869401466940097, 0)]),
    "phase_squeezed": (dict(variant=PHASE_SQUEEZED, beta=1.0, r=0.25), {}, [
        (0.027595735117134878, 0.08731479331951351, 0),
        (0.01479699581575741, 0.09247362683670958, 0),
        (0.025244580908726385, 0.10637637859619432, 0)]),
    "feedback_delay_1": (dict(), dict(feedback_delay=1), [
        (0.004220734670347795, 0.07128467787502041, 0),
        (0.0021500928112687073, 0.08159725334281452, 0),
        (0.0037419598107819208, 0.06929559368929498, 0)]),
    "short_grid": (_SHORT, {}, [
        (0.08849690788527552, 0.029651806404835775, 0),
        (0.00042390379914341127, 0.02716045265574963, 0),
        (0.0017894702995917104, 0.008277474352790075, 0)]),
    "short_grid_feedback_delay_1": (_SHORT, dict(feedback_delay=1), [
        (0.0841628538334901, 0.02894378758119797, 0),
        (0.0005962304490182771, 0.02796146378390154, 0),
        (0.001591623850146977, 0.008815115404685476, 0)]),
}


def pinned_results(case):
    setup, extra, _ = PINNED[case]
    r = setup.get("r", 0.0)
    lam = resolve_lambda(r, n_photon=10.0) if r > 0 else 100.0
    design = make_design(**{"lam": lam, "n_samples": 2048, "band_bins": 63, **setup})
    cfg = PllConfig(design, trials=3, seed=41, **extra)
    return [(t.mse, t.sigma0_sq_empirical, t.cycle_slips) for t in simulate_batch(cfg)]


def assert_same_trials(got, expected):
    assert len(got) == len(expected)
    for (mse, s0, slips), (mse_x, s0_x, slips_x) in zip(got, expected):
        assert mse == pytest.approx(mse_x, rel=1e-12)
        assert s0 == pytest.approx(s0_x, rel=1e-12)
        assert slips == slips_x


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_trial_results(case):
    assert_same_trials(pinned_results(case), PINNED[case][2])


@needs_kernel
@pytest.mark.parametrize("case", sorted(PINNED))
def test_kernel_matches_numpy_loop(case, monkeypatch):
    kernel = pinned_results(case)
    no_kernel(monkeypatch)
    assert pinned_results(case) == kernel


# (nt, m, kb, lag-0 tap), the shapes a power-of-two grid gives: nt = m/2
# taps and kb = min(_BLOCK, nt).  Several partitions; nt < _BLOCK (kb = nt,
# one partition, a small grid); nt = _BLOCK; and the one-sample-delay taps,
# whose lag-0 tap is zero
HISTORY_SHAPES = [(256, 512, 128, 1.0), (32, 64, 32, 1.0), (128, 256, 128, 1.0),
                  (512, 1024, 128, 0.0)]


@pytest.mark.parametrize("nt,m,kb,lag0", HISTORY_SHAPES)
def test_far_history_is_the_direct_convolution(nt, m, kb, lag0):
    """Each block's history is the convolution of the taps with the records
    before the block, to rounding level on the scale of the sum; a row's
    history is the same bits alone and inside a batch, and with the
    kernel's far_mac and with numpy's."""
    rng = np.random.default_rng(nt + m)
    taps = rng.standard_normal(nt)
    taps[0] *= lag0
    fr = rng.standard_normal((3, nt + m))
    got = np.concatenate(list(pll._far_history(taps, kb, fr, None)), axis=1)
    assert got.shape == (3, m)
    for row in range(3):
        for j0 in range(0, m, kb):
            before = np.where(np.arange(nt + m) < nt + j0, fr[row], 0.0)
            want = np.convolve(taps, before)[nt + j0: nt + j0 + kb]
            scale = np.convolve(np.abs(taps), np.abs(before))[nt + j0: nt + j0 + kb].max()
            assert np.abs(got[row, j0: j0 + kb] - want).max() <= 1e-14 * scale
    for kernel in {_tracker.load(), None}:
        alone = np.concatenate(list(pll._far_history(taps, kb, fr[1:2].copy(), kernel)), axis=1)
        assert np.array_equal(alone[0], got[1])
        assert np.array_equal(np.concatenate(list(pll._far_history(taps, kb, fr, kernel)), axis=1),
                              got)


# The light of a block's inputs: coherent (x0, y0) rows of their own, the
# same as strided views (each row of a (rows, 2, m) draw, as coherent light
# comes from sample_quadratures), and squeezed_z, which has no x0
BLOCK_LIGHTS = ("coherent", "strided", "squeezed_z")


def block_inputs(trev_scale, light="coherent", rows=3):
    """(trev, 2|a|, phibar, x0, y0, far) of one 40-sample tracker block of
    rows rows: row 1 takes a first closure step far beyond the +-1 rad clip,
    row 0 turns NaN."""
    rng = np.random.default_rng(7)
    n, nt = 40, 50
    trev = trev_scale * rng.standard_normal(nt - 1)
    phibar, far = rng.standard_normal((2, rows, n))
    quads = 0.2 * rng.standard_normal((rows, 2, n))  # X = 1 + x0/2|a|, Y = y0/2|a|
    far[1, 5] = -3.0e3
    far[0, 20] = np.nan
    x0, y0 = quads[:, 0], quads[:, 1]
    if light != "strided":
        x0, y0 = x0.copy(), y0.copy()
    return trev, 2.0, phibar, None if light == "squeezed_z" else x0, y0, far


def take_rows(a, sel):
    """Rows sel of a, copied into an array with a's row stride."""
    if a is None:
        return None
    out = np.empty((len(sel), a.strides[0] // a.itemsize))[:, : a.shape[1]]
    out[...] = a[sel]
    return out


def run_block(track, l0, inputs, sel):
    """(records, tracker outputs) of the rows sel of a block through track,
    one row per sample."""
    trev, twoa, *arrays = inputs
    phibar, x0, y0, far = (take_rows(a, sel) for a in arrays)
    rows, n = phibar.shape
    nt = trev.size + 1
    fr, phip = np.zeros((rows, nt + n)), np.empty((rows, n))
    track(n, l0, trev, twoa, phibar, x0, y0, np.zeros(rows), fr, phip)(0, far)
    return fr[:, nt:].T, phip.T


@pytest.mark.parametrize("l0", [0.0, 0.4])
def test_kernel_rows_are_independent(l0):
    """In the kernel and in the numpy loop, the per-row stop rule makes a
    row's closure independent of the others, and a NaN row is never clipped
    back to finite values; for each light, with x0 and y0 strided or not."""
    for light in BLOCK_LIGHTS:
        inputs = block_inputs(0.02, light)
        for track in filter(None, (_tracker.load(), pll._track_block)):
            rec, phip = run_block(track, l0, inputs, [0, 1, 2])
            assert np.isnan(phip[20:, 0]).all() and np.isnan(rec[20:, 0]).all()
            assert np.isfinite(phip[:20]).all() and np.isfinite(phip[:, 1:]).all()
            alone = run_block(track, l0, inputs, [1, 2])
            assert np.array_equal(rec[:, 1:], alone[0]) and np.array_equal(phip[:, 1:], alone[1])


@needs_kernel
@pytest.mark.parametrize("l0", [0.0, 0.4])
def test_kernel_row_matches_numpy_block(l0):
    """A whole block, with in-block lags, a clipped row and a NaN row, takes
    the same steps in both loops: closure constants, lag sums, warm start,
    clip, stop rule and record write agree bit for bit, for each light."""
    for light in BLOCK_LIGHTS:
        inputs = block_inputs(0.02, light)
        got = run_block(_tracker.load(), l0, inputs, [0, 1, 2])
        want = run_block(pll._track_block, l0, inputs, [0, 1, 2])
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))


@pytest.mark.parametrize("l0", [0.2, 0.4, 0.7])
def test_closure_stops_only_at_a_root(l0, monkeypatch):
    """Every finite sample whose closure stopped before the cap solves
    k e + l0 (X sin e + Y cos e) = c to 1e-12 max(1, |c|), in the kernel and
    in the numpy loop.

    Random c with jumps of several rad, a jump of 3e3 that no 8 steps of at
    most 1 rad can close, and a NaN.  Each call closes one sample, so c is
    k phibar - far = far's negative (phibar is 0 and there are no in-block
    lags) and e is exact; the sample stopped before the cap when the numpy
    loop, from the same e with a cap of 9 steps, gives the same bits (a
    ninth step of exactly 0 is a root too; an even cap would miss an
    iteration caught in a 2-cycle)."""
    rng = np.random.default_rng(2024)
    n, rows = 256, 8
    c = 0.5 * rng.standard_normal((n, rows))
    c[rng.random((n, rows)) < 0.03] += 3.0
    c[5, 1] = 3.0e3
    c[20, 0] = np.nan
    # (X, Y) = amp (cos psi, sin psi), psi a random walk, and 2|a| = 1
    amp = 1.0 + 0.3 * rng.standard_normal((n, rows))
    psi = np.cumsum(0.1 * rng.standard_normal((n, rows)), axis=0)
    xq, yq = amp * np.cos(psi) - 1.0, amp * np.sin(psi)
    x, y = xq + 1.0, yq
    phibar, far, x0, y0 = (np.ascontiguousarray(a.T) for a in (np.zeros((n, rows)), -c, xq, yq))
    trev, fr, phip = np.zeros(1), np.empty((rows, 2 + n)), np.empty((rows, n))

    def close(track, e, i):
        track(1, l0, trev, 1.0, phibar, x0, y0, e, fr, phip)(i, far[:, i: i + 1])

    for track in filter(None, (_tracker.load(), pll._track_block)):
        u, stopped = np.zeros(rows), 0
        for i in range(n):
            longer = u.copy()
            close(track, u, i)
            with monkeypatch.context() as patch:
                patch.setattr(pll, "_CLOSURE_STEPS", pll._CLOSURE_STEPS + 1)
                close(pll._track_block, longer, i)
            done = u == longer  # never a NaN
            residual = np.abs((1.0 - l0) * u + l0 * (x[i] * np.sin(u) + y[i] * np.cos(u))
                              - c[i])
            assert np.all(residual[done] <= 1e-12 * np.maximum(1.0, np.abs(c[i, done])))
            stopped += np.count_nonzero(done)
        assert stopped < n * rows - (n - 20)  # the NaN row and the 3e3 jump
        assert stopped > n * rows // 2  # not vacuous


@pytest.mark.parametrize("amp", [1.0, 0.0])
@pytest.mark.parametrize("c", [3.0e3, -40.0])
def test_closure_walks_toward_a_far_root(c, amp):
    """A root far beyond 8 rad: every step, Halley's or, where 1 + r h <= 0
    reverses it, Newton's, is clipped to 1 rad toward the root, so e moves
    by exactly 8 rad (Halley's own step would turn back).  X is amp and
    Y = 0; at X = 0 the closure is linear and predicts no error, but a
    clipped step never stops."""
    for track in filter(None, (_tracker.load(), pll._track_block)):
        u = np.array([0.5])
        zero = np.zeros((1, 1))
        fr, phip = np.empty((1, 3)), np.empty((1, 1))
        track(1, 0.2, np.zeros(1), 1.0, zero, np.full((1, 1), amp - 1.0), zero, u,
              fr, phip)(0, np.full((1, 1), -c))
        assert u[0] == 0.5 + 8.0 * np.sign(c)


def same_bits(got, want):
    """Equal values with equal signs, zeros included; NaN where want has one."""
    nan = np.isnan(want)
    return bool(np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got) | nan, np.signbit(want) | nan))


def spectra_with_zeros(rng, shape):
    """Random complex spectra with a NaN, a +0 and a -0 part and a 0 entry."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = z.reshape(-1, shape[-1])
    flat[0, 5] = complex(np.nan, 1.0)
    flat[-1, 9] = complex(-0.0, 2.0)
    flat[0, 11] = complex(3.0, 0.0)
    flat[-1, 13] = complex(-0.0, 0.0)
    return z


def rounded_sum(spectra, g, s):
    """sum_p spectra[(s + 1 + p) % parts] (g[p, 0] + i g[p, 1]), oldest first,
    each product as (ar br - ai bi, ar bi + ai br) on real arrays."""
    parts = len(spectra)
    for p in range(parts):
        z = spectra[(s + 1 + p) % parts]
        re, im = z.real * g[p, 0] - z.imag * g[p, 1], z.real * g[p, 1] + z.imag * g[p, 0]
        total = (re, im) if p == 0 else (total[0] + re, total[1] + im)
    return total


@pytest.mark.parametrize("parts", [1, 16])
@pytest.mark.parametrize("rows", [1, 7, 37])
def test_far_mac_rounds_each_product_alone(parts, rows):
    """The kernel's far_mac and its numpy form give the separately rounded
    sum bit for bit, signs included, at ring offsets 0, 1 and parts - 1:
    vector bodies and remainders (129 bins, 1, 7 and 37 rows), a NaN and
    signed zeros in the spectra and in G."""
    rng = np.random.default_rng(parts * 100 + rows)
    bins = 129
    spectra = spectra_with_zeros(rng, (parts, rows, bins))
    g = rng.standard_normal((parts, 2, bins))
    g[0, 0, 9], g[-1, 1, 13] = -0.0, 0.0
    kernel = _tracker.load()
    for s in sorted({0, 1 % parts, parts - 1}):
        want = rounded_sum(spectra, g, s)
        for far_mac in filter(None, (kernel and kernel.far_mac, pll._far_mac)):
            out = np.empty((rows, bins), complex)
            mac = far_mac(g, out)
            for q in range(parts):
                if q != s:
                    mac(q, spectra[q], total=False)
            mac(s, spectra[s])
            assert same_bits(out.real, want[0]) and same_bits(out.imag, want[1]), s


@pytest.mark.parametrize("rows", [1, 7, 37])
def test_spectrum_product_rounds_each_product_alone(rows):
    """The kernel's spectrum_product and its numpy form multiply a spectrum
    by a response in place as (sr hr - si hi, sr hi + si hr), bit for bit,
    with a NaN and signed zeros in both."""
    rng = np.random.default_rng(rows)
    spectrum = spectra_with_zeros(rng, (rows, 129))
    h = rng.standard_normal((2, 129))
    h[0, 9], h[1, 11] = -0.0, 0.0
    sr, si = spectrum.real, spectrum.imag
    want = (sr * h[0] - si * h[1], sr * h[1] + si * h[0])
    kernel = _tracker.load()
    for product in filter(None, (kernel and kernel.spectrum_product, _spectrum_product)):
        got = spectrum.copy()
        product(got, h)
        assert same_bits(got.real, want[0]) and same_bits(got.imag, want[1])


@needs_kernel
def test_library_has_no_fused_multiply_adds(tmp_path):
    """Nothing in the built library, either clone, fuses a multiply and an
    add: objdump -d finds no vfmadd, vfmsub, vfnmadd, vfnmsub, vfmaddsub or
    vfmsubadd (gcc 12's avx512f clone emits vfmaddsub on an interleaved
    complex loop even under -ffp-contract=off)."""
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("no objdump")
    kernel = _tracker.load()
    path = _tracker.SOURCE.parent / "__pycache__" / f"_tracker-{kernel.digest}.so"
    if not path.is_file():  # loaded from a private directory, since removed
        path = _tracker._compile(tmp_path, path.name)
    text = subprocess.run([objdump, "-d", str(path)], capture_output=True, text=True,
                          check=True, timeout=120).stdout
    assert all(f"<{name}" in text for name in ("track_block", "far_mac", "spectrum_product"))
    assert not re.findall(r"\bvfn?m(?:add|sub)\w*", text)


@needs_kernel
def test_kernel_rejects_mismatched_arrays():
    """The kernel gets raw pointers, so every array is checked first: the
    group's arrays when it is bound, and each block's far history and
    offset."""
    trev, twoa, phibar, x0, y0, far = block_inputs(0.02)
    rows, n = phibar.shape
    e = np.zeros(rows)
    fr, phip = np.zeros((rows, trev.size + 1 + n)), np.empty_like(phibar)
    good = dict(n=n, l0=0.4, trev=trev, twoa=twoa, phibar=phibar, x0=x0, y0=y0, e=e,
                fr=fr, phip=phip)
    frozen = np.empty_like(phip)
    frozen.flags.writeable = False
    for name, bad in (("phibar", phibar[:2]), ("e", np.zeros(2)), ("trev", trev[:10]),
                      ("x0", np.asfortranarray(x0)), ("y0", y0.astype(np.float32)),
                      ("y0", y0[:, ::2]), ("fr", fr[:, :-1]), ("phip", phip[:, :-1]),
                      ("phip", frozen), ("n", trev.size + 2), ("n", 0)):
        with pytest.raises(ValueError):
            _tracker.load()(**{**good, name: bad})
    block = _tracker.load()(**good)
    for j0, bad in ((0, far[:2]), (0, far[:, :-1]), (0, np.asfortranarray(far)), (1, far)):
        with pytest.raises(ValueError):
            block(j0, bad)
    block(0, far)
    kernel, g, out = _tracker.load(), np.zeros((4, 2, 5)), np.empty((3, 5), complex)
    for bad_g, bad_out in ((g[:, :1], out), (g.astype(np.float32), out), (g[..., ::2], out[:, :3]),
                           (g, out[:, :4]), (g, out.real.copy()), (g[:0], out)):
        with pytest.raises(ValueError):
            kernel.far_mac(bad_g, bad_out)
    mac = kernel.far_mac(g, out)
    for s, z in ((0, out[:2]), (0, out.T.copy().T), (4, out), (-1, out), (0, out.real.copy())):
        with pytest.raises(ValueError):
            mac(s, z)
    mac(3, out.copy())
    h = np.zeros((2, 5))
    for spectrum, planes in ((out, h[:, :4]), (out.T, np.zeros((2, 3))), (out, h.T.copy()),
                             (out.astype(np.complex64), h)):
        with pytest.raises(ValueError):
            kernel.spectrum_product(spectrum, planes)
    kernel.spectrum_product(out, h)


# The squeezed_z pinned cell's TrialResults with the package's own sincos and
# separately rounded complex products, and as the closure wrote them with
# libm's sin and cos: those differ by at most an ulp, and the results only at
# rounding level.
SQUEEZED_Z_TRIALS = [
    TrialResult(seed=41, trial=0, mse=0.005106582456578314, snr_empirical=195.82568351790678,
                sigma0_sq_empirical=0.09143480449397112, cycle_slips=0),
    TrialResult(seed=41, trial=1, mse=0.006154191514309288, snr_empirical=162.4908808370476,
                sigma0_sq_empirical=0.08575076782887588, cycle_slips=0),
    TrialResult(seed=41, trial=2, mse=0.008939877658228974, snr_empirical=111.85835402115605,
                sigma0_sq_empirical=0.08694014669400897, cycle_slips=0)]
SQUEEZED_Z_TRIALS_LIBM = [
    TrialResult(seed=41, trial=0, mse=0.005106582456578313, snr_empirical=195.82568351790687,
                sigma0_sq_empirical=0.09143480449397115, cycle_slips=0),
    TrialResult(seed=41, trial=1, mse=0.006154191514309293, snr_empirical=162.49088083704746,
                sigma0_sq_empirical=0.08575076782887588, cycle_slips=0),
    TrialResult(seed=41, trial=2, mse=0.008939877658228975, snr_empirical=111.85835402115602,
                sigma0_sq_empirical=0.08694014669400897, cycle_slips=0)]


def test_squeezed_z_cell_keeps_its_bits():
    setup, extra, _ = PINNED["squeezed_z"]
    design = make_design(lam=resolve_lambda(0.5, n_photon=10.0), n_samples=2048,
                         band_bins=63, **setup)
    got = simulate_batch(PllConfig(design, trials=3, seed=41, **extra))
    assert got == SQUEEZED_Z_TRIALS
    for trial, libm in zip(got, SQUEEZED_Z_TRIALS_LIBM):
        assert trial.mse == pytest.approx(libm.mse, rel=1e-12)
        assert trial.sigma0_sq_empirical == pytest.approx(libm.sigma0_sq_empirical, rel=1e-12)
        assert trial.cycle_slips == libm.cycle_slips


def group_peak_arrays():
    """The tracemalloc peak of one 32-row group at n = 4096 whose draws sit
    in a draw store (as in a sweep), above its start, in group arrays (rows
    x m float64), on the path that loads."""
    cfg = PllConfig(make_design(beta=2.0, lam=30.0), trials=32, seed=61)
    trials = list(range(32))
    store = pll._DrawStore()
    pll._draw(cfg, trials, store)
    track = _tracker.load() or pll._track_block
    taps = tracking_taps(cfg.design, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pll._simulate_group(cfg, store, track, taps, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (32 * cfg.design.grid.n_samples * 8)


def test_row_group_working_set():
    """A group peaks at most 5.5 group arrays above its start: the record and
    its steady-state lead (1.5), phibar, phi' and the far history's stored
    spectra in the loop, fewer after it."""
    assert group_peak_arrays() <= 5.5


def test_row_group_working_set_without_the_library(monkeypatch):
    """The numpy path keeps the same bound."""
    no_kernel(monkeypatch)
    assert group_peak_arrays() <= 5.5


SINCOS_CONSTANTS = ("SHIFT", "INVPIO2", "PIO2_1", "PIO2_2", "PIO2_2T",
                    *(f"S{i}" for i in range(1, 7)), *(f"C{i}" for i in range(1, 7)))


def test_kernel_closure_constants_match():
    """The closure's and the sincos' constants are the twin's, verbatim."""
    text = _tracker.SOURCE.read_text()
    assert f"#define CLOSURE_STEPS {pll._CLOSURE_STEPS}\n" in text
    assert f"#define CLOSURE_TOL {pll._CLOSURE_TOL!r}\n" in text
    for name in SINCOS_CONSTANTS:
        value = float(getattr(pll, f"_{name}"))
        assert re.search(rf"^#define {name} {re.escape(repr(value))}\s", text, re.M), name


# the one line that names track_block's clone; without it the plain kernel is built
ISA_LINE = re.search(r'^#define ISA_CLONE "[^"]*"\n', _tracker.SOURCE.read_text(), re.M).group(0)


def test_kernel_flags_keep_the_rounding():
    """The bit-identity the tests rest on needs an unfused, strict build,
    and a clone that only widens the vectors: no arch= and no fma."""
    flags = _tracker.FLAGS
    assert "-ffp-contract=off" in flags
    assert not {"-ffast-math", "-Ofast", "-march=native", "-mfma"} & set(flags)
    text = _tracker.SOURCE.read_text()
    assert text.count(ISA_LINE) == text.count("#define ISA_CLONE ") == 1
    assert text.count("target_clones(") == 1
    assert '__attribute__((target_clones(ISA_CLONE, "default")))' in text
    assert not re.search(r"arch=|fma", ISA_LINE)


def test_sincos_is_within_an_ulp_of_libm():
    """pll._sincos, the kernel's sin_cos in numpy, is within 1 ulp of the C
    library's sin and cos (math.sin and math.cos) on 1e5 normal draws at
    each scale and 1e5 uniform draws in +-1e6."""
    rng = np.random.default_rng(2025)
    draws = [scale * rng.standard_normal(100_000) for scale in (0.3, 3.0, 300.0, 1e5)]
    for x in (*draws, rng.uniform(-1e6, 1e6, 100_000)):
        for got, libm in zip(pll._sincos(x), (math.sin, math.cos)):
            want = np.fromiter(map(libm, x.tolist()), float, x.size)
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), libm


def test_sincos_keeps_signed_zeros_and_has_no_finite_value_at_infinity():
    """sin(+-0) = +-0 with its sign, cos(+-0) = 1, and NaN and +-inf give NaN."""
    x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        s, c = pll._sincos(x)
    assert np.array_equal(np.signbit(s[:2]), [False, True]) and np.all(s[:2] == 0.0)
    assert np.all(c[:2] == 1.0)
    assert np.isnan(s[2:]).all() and np.isnan(c[2:]).all()


@needs_kernel
def test_kernel_names_its_clone(kernel_clones):
    kernel = _tracker.load()
    assert kernel.isa in kernel_clones
    assert _tracker.describe() == f"c kernel {kernel.digest} ({kernel.isa})"


@needs_kernel
def test_isa_clones_give_the_plain_kernels_bits(tmp_path, monkeypatch):
    """The loaded library (the clone this CPU runs), the same source built
    without clones and the numpy loop write the same records and tracker
    outputs for 37-row blocks of each light, at l0 = 0 and 0.4: vector
    bodies, their remainder rows, a clipped row and a NaN row alike."""
    source = tmp_path / "_tracker.c"
    source.write_text(_tracker.SOURCE.read_text().replace(ISA_LINE, ""))
    monkeypatch.setattr(_tracker, "SOURCE", source)
    plain = _tracker._build()
    assert plain is not None and plain.digest != _tracker.load().digest
    assert plain.isa == "default"
    rows = list(range(37))
    for l0 in (0.0, 0.4):
        for light in BLOCK_LIGHTS:
            inputs = block_inputs(0.02, light, rows=37)
            want = run_block(_tracker.load(), l0, inputs, rows)
            assert np.isnan(want[1][20:, 0]).all() and np.isfinite(want[1][:, 1:]).all()
            for track in (plain, pll._track_block):
                got = run_block(track, l0, inputs, rows)
                assert all(np.array_equal(a, b, equal_nan=True)
                           for a, b in zip(got, want)), (l0, light)


def test_tracker_build_cache_and_failure(tmp_path, monkeypatch):
    """A build is cached next to its source; a failed build yields None."""
    source = tmp_path / "_tracker.c"
    source.write_bytes(_tracker.SOURCE.read_bytes())
    monkeypatch.setattr(_tracker, "SOURCE", source)
    kernel = _tracker._build()
    if kernel is None:
        pytest.skip("no C compiler: only the numpy loop exists")
    assert (tmp_path / "__pycache__" / f"_tracker-{kernel.digest}.so").is_file()
    compile_ = _tracker._compile
    monkeypatch.setattr(_tracker, "_compile", None)  # the next build must not compile
    assert _tracker._build().digest == kernel.digest
    monkeypatch.setattr(_tracker, "_compile", compile_)
    source.write_text("this is not C\n")
    assert _tracker._build() is None
    assert len(list((tmp_path / "__pycache__").iterdir())) == 1  # no debris


@needs_kernel
def test_tracker_first_load_builds_once(tmp_path, monkeypatch):
    """Two threads making the first load() at once compile the kernel once."""
    source = tmp_path / "_tracker.c"
    source.write_bytes(_tracker.SOURCE.read_bytes())
    monkeypatch.setattr(_tracker, "SOURCE", source)
    monkeypatch.setattr(_tracker, "_loaded", {})
    compile_, calls = _tracker._compile, []

    def counted(*args):
        calls.append(args)
        return compile_(*args)
    monkeypatch.setattr(_tracker, "_compile", counted)
    start = threading.Barrier(2)

    def first_load(_):
        start.wait()
        return _tracker.load()
    with ThreadPoolExecutor(2) as pool:
        kernels = list(pool.map(first_load, range(2)))
    assert len(calls) == 1
    assert kernels[0] is kernels[1] is not None


def test_max_workers_ignores_the_blas_threads(monkeypatch):
    """The row groups make no threaded BLAS calls, so the workers are the
    CPUs the process may use, whatever the BLAS thread settings."""
    monkeypatch.setattr(pll.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.delenv(var, raising=False)
    assert pll.max_workers() == 4
    for var, value in zip(blas_vars, ("1", "2", "8")):
        monkeypatch.setenv(var, value)
        assert pll.max_workers() == 4
    monkeypatch.delattr(pll.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pll.os, "cpu_count", lambda: 3)
    assert pll.max_workers() == 3


def with_one_and_two_workers(monkeypatch, run):
    """run() with a batch's threads capped at one, then at two."""
    out = []
    for n in (1, 2):
        monkeypatch.setattr(pll, "max_workers", lambda n=n: n)
        out.append(run())
    return out


WORKER_CASES = {
    "coherent": (dict(), 64, {}),
    "squeezed_z": (dict(variant=SQUEEZED_Z, beta=1.0, r=0.5,
                        lam=resolve_lambda(0.5, n_photon=10.0)), 64, {}),
    "trials_72": (dict(), 72, {}),  # row groups of 32, 32 and 8
    "force_lock": (dict(), 64, dict(force_lock=True)),
}


@pytest.mark.parametrize("case", sorted(WORKER_CASES))
def test_worker_count_never_changes_results(case, monkeypatch):
    setup, trials, extra = WORKER_CASES[case]
    design = make_design(n_samples=2048, band_bins=63, **setup)
    cfg = PllConfig(design, trials=trials, seed=29)
    one, two = with_one_and_two_workers(monkeypatch, lambda: simulate_batch(cfg, **extra))
    assert one == two
    if not extra:
        one, two = with_one_and_two_workers(monkeypatch, lambda: run_cell(cfg))
        assert one == two


def test_more_workers_than_cpus_under_fast_switching(monkeypatch):
    """Five groups, then three pipelined cells, on four workers, switching
    threads every microsecond: a group that wrote outside its rows, or a
    cell's results collected out of order, would change the results."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=160, seed=31)
    cells = pipeline_configs()
    monkeypatch.setattr(pll, "max_workers", lambda: 1)
    want = simulate_batch(cfg), list(pll.run_cells(cells))
    monkeypatch.setattr(pll, "max_workers", lambda: 4)
    opened = count_streams(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = simulate_batch(cfg), list(pll.run_cells(cells))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    # the cells' row groups of trials 0-31, 32-39, 32-63 and 64-71 are
    # drawn once each, however the workers race for them
    assert len(opened) == 2 * (160 + 32 + 8 + 32 + 8)


def test_row_groups_do_not_follow_the_worker_count(monkeypatch):
    sizes = [[g.stop - g.start for g in pll._row_groups(n)] for n in (1, 40, 63, 64, 95, 96)]
    assert sizes == [[1], [32, 8], [32, 31], [32, 32], [32, 32, 31], [32, 32, 32]]
    seen, close_loop = [], pll._close_loop

    def spy(track, taps, twoa, phibar, *rest):
        seen.append(phibar.shape[0])
        close_loop(track, taps, twoa, phibar, *rest)
    monkeypatch.setattr(pll, "_close_loop", spy)
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=72, seed=29)
    with_one_and_two_workers(monkeypatch, lambda: simulate_batch(cfg))
    assert sorted(seen) == [8, 8, 32, 32, 32, 32]


def test_worker_threads_keep_the_callers_errstate(monkeypatch):
    """Infinite quadrature draws for the second row group only: its history
    product is invalid, and the caller's np.errstate, copied to the pool
    threads, makes that the same error on any worker count."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=64, seed=3)
    real = pll.stream

    def fake(seed, trial, purpose):
        rng = real(seed, trial, purpose)
        return _ScaledStream(rng, float("inf")) if purpose == 1 and trial >= 32 else rng
    monkeypatch.setattr(pll, "stream", fake)

    def run():
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError) as err:
            simulate_batch(cfg)
        return str(err.value)
    one, two = with_one_and_two_workers(monkeypatch, run)
    assert one == two


def test_divergence_names_a_trial_of_the_failing_group(monkeypatch):
    """NaN quadrature draws for trials 32..63 of a 64-trial cell: only the
    second row group diverges, and it reports one of its own trials, with
    the same message on any worker count."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=64, seed=3)
    real = pll.stream

    def fake(seed, trial, purpose):
        rng = real(seed, trial, purpose)
        return _ScaledStream(rng, float("nan")) if purpose == 1 and trial >= 32 else rng
    monkeypatch.setattr(pll, "stream", fake)

    def run():
        with pytest.raises(LoopDivergenceError) as err:
            run_cell(cfg)
        assert 32 <= err.value.trial < 64
        return str(err.value), err.value.trial
    one, two = with_one_and_two_workers(monkeypatch, run)
    assert one == two


def test_first_failing_group_raises(monkeypatch):
    """The error raised is the first failing group's, whichever thread ran it."""
    groups = pll._row_groups(160)

    def run(rows):
        if rows.start >= 64:
            raise ValueError(rows.start)
        return []
    for n in (1, 2, 4):
        monkeypatch.setattr(pll, "max_workers", lambda n=n: n)
        with pytest.raises(ValueError) as err:
            list(pll._pipeline([(run, groups)]))
        assert err.value.args == (64,)


def pipeline_configs():
    """Three cells of mixed beta on a short grid, of two, one and three row groups."""
    return [PllConfig(make_design(beta=beta, n_samples=2048, band_bins=63), trials=trials, seed=29)
            for beta, trials in ((0.5, 40), (1.0, 32), (2.0, 72))]


def shared_draw_configs():
    """Cells of one run_cells call that share some draws and must not share
    others.  Each differs from the coherent PM cell (beta 1, seed 29, 63-bin
    band, 40 trials) in what one key of the draw store reads: beta and |alpha|
    (read by neither), FM (the message's drop_dc), the light's kind, r and
    squeeze bandwidth, the seed, the band, the trials and the grid."""
    def squeezed(variant, r, squeeze_bins=63):
        grid = TimeGrid(1.0, 2048)
        msg = MessageSpec.flat(grid, 63)
        alpha, _ = operating_point(msg, r, resolve_lambda(r, n_photon=10.0))
        noise = NoiseModel(variant, alpha, r, squeeze_bins * grid.df)
        return design_loop(msg, ModulationScheme.pm(1.0, msg.bandwidth), alpha, noise)
    short = dict(n_samples=2048, band_bins=63)
    cells = [(make_design(beta=beta, lam=lam, **short), 40, 29)
             for beta, lam in ((0.5, 100.0), (1.0, 100.0), (2.0, 30.0))]
    cells += [(make_design(beta=1.0, kind="fm", **short), 40, 29),
              (squeezed(SQUEEZED_Z, 0.5), 40, 29),
              (squeezed(SQUEEZED_Z, 0.25), 40, 29),
              (squeezed(PHASE_SQUEEZED, 0.25), 40, 29),
              (squeezed(SQUEEZED_Z, 0.25, squeeze_bins=127), 40, 29),
              (make_design(beta=1.0, **short), 40, 30),
              (make_design(beta=1.0, n_samples=2048, band_bins=61), 40, 29),
              (make_design(beta=1.0, **short), 72, 29),
              (make_design(beta=1.0, n_samples=4096, band_bins=63), 32, 29)]
    return [PllConfig(design, trials=trials, seed=seed) for design, trials, seed in cells]


def test_pipelined_cells_equal_lone_cells(monkeypatch):
    """Cells run in one call, sharing the draws of their common random
    numbers, equal the same cells run alone, on any worker count: a cell
    never takes a draw made for other inputs."""
    monkeypatch.setattr(pll, "max_workers", lambda: 1)
    for cfgs in (pipeline_configs(), shared_draw_configs()):
        lone = [run_cell(cfg) for cfg in cfgs]
        for n in (1, 2, 3):
            monkeypatch.setattr(pll, "max_workers", lambda n=n: n)
            assert list(pll.run_cells(cfgs)) == lone


def count_streams(monkeypatch):
    """The (seed, trial, purpose) of each stream opened, in a list."""
    opened, real = [], pll.stream

    def stream(seed, trial, purpose):
        opened.append((seed, trial, purpose))
        return real(seed, trial, purpose)
    monkeypatch.setattr(pll, "stream", stream)
    return opened


def test_run_cell_draws_every_trial(monkeypatch):
    """A lone cell keeps no draw store: each trial opens its two streams,
    and the group's draws are its own, writeable arrays."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=40, seed=3)
    opened = count_streams(monkeypatch)
    run_cell(cfg)
    assert sorted(opened) == [(3, t, purpose) for t in range(40) for purpose in (0, 1)]
    assert all(a.flags.writeable for a in pll._draw(cfg, [0, 1], None))


@pytest.mark.parametrize("variant,r", [(COHERENT, 0.0), (SQUEEZED_Z, 0.5)])
def test_stored_draws_are_read_only_and_drawn_once(variant, r, monkeypatch):
    design = make_design(n_samples=2048, band_bins=63, r=r, variant=variant)
    cfg = PllConfig(design, trials=4, seed=3)
    store = pll._DrawStore()
    opened = count_streams(monkeypatch)
    first = pll._draw(cfg, [0, 1], store)
    again = pll._draw(cfg, [0, 1], store)
    assert len(opened) == 4
    assert all(a is b for a, b in zip(first, again))
    assert all(not a.flags.writeable for a in first if a is not None)
    assert all(np.array_equal(a, b) for a, b in zip(first, pll._draw(cfg, [0, 1], None))
               if a is not None)
    with pytest.raises(ValueError, match="read-only"):
        first[0][0, 0] = 0.0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_draws_each_row_group_once(workers, tmp_path, monkeypatch):
    """The three SWEEP_3 cells share their draws: 64 trials open 128
    streams, each once, not 384."""
    monkeypatch.setattr(pll, "max_workers", lambda: workers)
    opened = count_streams(monkeypatch)
    assert run_sweep(tmp_path, "sweep")[0] == 0
    assert sorted(opened) == [(5, t, purpose) for t in range(64) for purpose in (0, 1)]


def test_sweeps_of_two_seeds_in_one_process(monkeypatch):
    """Two sweeps of other seeds, interleaved in one process, each equal
    their cells run alone: the draw store is per call."""
    monkeypatch.setattr(pll, "max_workers", lambda: 2)
    sweeps = [[PllConfig(cfg.design, cfg.trials, seed) for cfg in pipeline_configs()]
              for seed in (7, 8)]
    lone = [[run_cell(cfg) for cfg in cfgs] for cfgs in sweeps]
    together = list(zip(*(pll.run_cells(cfgs) for cfgs in sweeps)))
    assert [list(cells) for cells in zip(*together)] == lone


SWEEP_3 = ("n_samples = 2048\nband_bins = 63\nbetas = 0.5, 1, 2\nlambdas = 100\n"
           "trials = 64\nseed = 5\n")


class SweepSpy:
    """A sweep's cells, numbered in the order their designs start.

    events gets ("design", k) as cell k's design starts and ("collected", k)
    as its trials are aggregated; groups counts the row groups run per cell.
    nan_cells draw NaN quadrature noise (the _ScaledStream pattern), so they
    diverge in the closed loop; failing_groups raise the given error from
    their row groups and failing_designs from their designs, at once.
    """

    def __init__(self, monkeypatch, nan_cells=(), failing_groups=None, failing_designs=None):
        import qdemod.cli as cli
        self.events, self.designs, self.groups = [], [], {}
        self.local = threading.local()
        real_design, real_group, real_stream = cli.design_loop, pll._simulate_group, pll.stream
        real_aggregate = pll.aggregate
        failing_groups, failing_designs = failing_groups or {}, failing_designs or {}

        def design_loop(*args, **kwargs):
            k = sum(event[0] == "design" for event in self.events)
            self.events.append(("design", k))
            if k in failing_designs:
                raise failing_designs[k]
            design = real_design(*args, **kwargs)
            self.designs.append(design)
            return design

        def simulate_group(cfg, *args):
            k = next(i for i, d in enumerate(self.designs) if d is cfg.design)
            self.groups[k] = self.groups.get(k, 0) + 1
            if k in failing_groups:
                raise failing_groups[k]
            self.local.nan = k in nan_cells
            return real_group(cfg, *args)

        def stream(seed, trial, purpose):
            rng = real_stream(seed, trial, purpose)
            return _ScaledStream(rng, float("nan")) if purpose == 1 and self.local.nan else rng

        def aggregate(trials):
            cell = real_aggregate(trials)
            self.events.append(("collected", sum(event[0] == "collected" for event in self.events)))
            return cell
        monkeypatch.setattr(cli, "design_loop", design_loop)
        monkeypatch.setattr(pll, "_simulate_group", simulate_group)
        monkeypatch.setattr(pll, "stream", stream)
        monkeypatch.setattr(pll, "aggregate", aggregate)


def run_sweep(tmp_path, name, text=SWEEP_3):
    from qdemod.cli import cli_main
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    return cli_main(["sweep", str(cfg), "--out", str(out)]), out / "results.csv"


def test_sweep_bytes_do_not_follow_the_worker_count(tmp_path, monkeypatch):
    written = []
    for n in (1, 2, 3):
        monkeypatch.setattr(pll, "max_workers", lambda n=n: n)
        code, csv = run_sweep(tmp_path, f"workers{n}")
        assert code == 0
        written.append(csv.read_bytes())
    assert written[0].count(b"\n") == 4 and written[1] == written[0] == written[2]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_builds_at_most_one_design_ahead(workers, tmp_path, monkeypatch):
    """Cell k's design starts only once cell k - 2 has been collected, and
    before cell k - 1 is collected, on any worker count."""
    monkeypatch.setattr(pll, "max_workers", lambda: workers)
    spy = SweepSpy(monkeypatch)
    assert run_sweep(tmp_path, "sweep")[0] == 0
    at = {event: i for i, event in enumerate(spy.events)}
    assert sorted(at) == sorted([("design", k) for k in range(3)]
                                + [("collected", k) for k in range(3)])
    assert at["design", 2] > at["collected", 0]
    for k in (1, 2):
        assert at["design", k] < at["collected", k - 1]


LATER_FAILURES = {
    "cell_1_diverges": dict(failing_groups={1: LoopDivergenceError("cell 1 diverged", 1e9, 0)}),
    "cell_1_design_config_error": dict(failing_designs={1: ConfigError("cell 1 design")}),
    "cell_1_design_factorization_error": dict(
        failing_designs={1: FactorizationError("cell 1 design")}),
}


@pytest.mark.parametrize("case", sorted(LATER_FAILURES))
def test_first_failing_cell_sets_the_exit(case, tmp_path, monkeypatch, capsys):
    """Cell 0 diverges on NaN draws while cell 1 fails at once: the sweep
    exits with cell 0's code and message, as one cell after another does,
    cell 2 is never started and no results.csv is written."""
    outcomes = []
    for n in (1, 2, 3):
        with monkeypatch.context() as patch:
            patch.setattr(pll, "max_workers", lambda n=n: n)
            spy = SweepSpy(patch, nan_cells={0}, **LATER_FAILURES[case])
            code, csv = run_sweep(tmp_path, f"workers{n}")
        assert not csv.exists()
        assert ("design", 2) not in spy.events and 2 not in spy.groups
        assert not any(event[0] == "collected" for event in spy.events)
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0][0] == 3 and "loop diverged" in outcomes[0][1]
    assert outcomes[1] == outcomes[0] == outcomes[2]


def test_pipeline_cancels_queued_groups_on_error(monkeypatch):
    """Cell 0's group fails while both workers hold groups of cell 1: the
    rest of cell 1 is cancelled, cell 2 is never taken and cell 0's error is
    raised.  The workers' groups block until the pool has cancelled."""
    release = threading.Event()

    class Pool(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)
    monkeypatch.setattr(pll, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(pll, "max_workers", lambda: 2)
    started, taken = [], []

    def fail(group):
        raise ValueError("cell 0")

    def hold(group):
        started.append(group)
        release.wait(timeout=60)
        return []

    def cells():
        for k, cell in enumerate(((fail, [0]), (hold, [0, 1, 2, 3]), (hold, [0]))):
            taken.append(k)
            yield cell
    with pytest.raises(ValueError, match="cell 0"):
        list(pll._pipeline(cells()))
    assert release.is_set() and taken == [0, 1] and len(started) <= 2


def test_non_finite_error_is_divergence(monkeypatch):
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=1, seed=3)
    scale_quadrature_noise(monkeypatch, float("nan"))
    kernel, groups = _tracker.load(), []
    if kernel is not None:  # the closed loop runs through the compiled kernel
        bind = _tracker.Kernel.__call__

        def counted(self, *args):
            groups.append(bind(self, *args))
            return groups[-1]
        monkeypatch.setattr(_tracker.Kernel, "__call__", counted)
    with pytest.raises(LoopDivergenceError):
        simulate_batch(cfg, [0])
    assert bool(groups) == (kernel is not None)
    no_kernel(monkeypatch)
    with pytest.raises(LoopDivergenceError):
        simulate_batch(cfg, [0])
    # open loop never diverges, but a NaN mse must not read as infinite SNR
    res = simulate_batch(cfg, [0], force_lock=True)[0]
    assert np.isnan(res.mse) and np.isnan(res.snr_empirical)


def test_snr_matches_linear_theory():
    cfg = PllConfig(make_design(beta=2.0, lam=100.0), trials=48, seed=5)
    cell = run_cell(cfg)
    assert cell.total_slips == 0
    assert abs(cell.snr_empirical / 401.0 - 1.0) < 0.10
    assert cell.trials[0].snr_empirical == pytest.approx(1.0 / cell.trials[0].mse)


def test_sigma0_empirical_matches_analytic():
    for kind, pred in (("pm", sigma0(LPM, 2.0, 100.0)), ("fm", sigma0(LFM, 2.0, 100.0))):
        cfg = PllConfig(make_design(beta=2.0, lam=100.0, kind=kind), trials=32, seed=6)
        cell = run_cell(cfg)
        assert abs(cell.sigma0_sq_empirical / pred - 1.0) < 0.15


def test_noiseless_limit_tracks_perfectly(monkeypatch):
    cfg = PllConfig(make_design(beta=1.0, lam=300.0), trials=2, seed=3)
    scale_quadrature_noise(monkeypatch, 0.0)
    out = simulate_batch(cfg, [0, 1])
    for res in out:
        assert res.snr_empirical > 1e3
        assert res.cycle_slips == 0


@pytest.mark.parametrize("light", [dict(), dict(r=0.5, variant=SQUEEZED_Z),
                                   dict(r=0.5, variant=PHASE_SQUEEZED)],
                         ids=[COHERENT, SQUEEZED_Z, PHASE_SQUEEZED])
def test_forced_lock_equals_linearized_map(light):
    """Open loop with phi' pinned to phibar reproduces the MAP filter path,
    relinearisation pass included."""
    design = make_design(beta=2.0, lam=100.0, **light)
    cfg = PllConfig(design, trials=1, seed=9)
    # the public samplers must reproduce the simulator's own draws exactly
    (m,) = sample_message(design.message, 9, [0])
    _, (y0,) = sample_quadratures(design.noise, design.grid, 9, [0])
    phibar = design.mod.beta * m
    phi = phibar + y0 / design.two_alpha   # z' = y0 exactly at lock
    m_hat_map = linearized_map_estimate(design, phi)
    res = simulate_batch(cfg, [0], force_lock=True)[0]
    # reproduce the trial's estimate path by hand: one relinearisation pass
    # at the MAP estimate's tracking error, then the delayed MAP filter
    e_hat = design.mod.beta * m_hat_map - phibar
    rec = phi - (np.sin(e_hat) - e_hat)
    g = design.grid
    gd = design.g.response * np.exp(-2j * np.pi * g.freqs * design.delay * g.dt)
    d = design.delay
    sel = np.arange(4 * d, g.n_samples - 2 * d)
    m_hat_rec = np.fft.ifft(np.fft.fft(rec) * gd).real
    mse_by_hand = float(np.mean((m_hat_rec[sel] - m[sel - d]) ** 2))
    assert res.mse == pytest.approx(mse_by_hand, rel=1e-12)
    # the delayed MAP estimate is the circular shift of the undelayed one
    m_hat_delayed = np.fft.ifft(np.fft.fft(phi) * gd).real
    assert np.max(np.abs(m_hat_delayed - np.roll(m_hat_map, d))) < 1e-10


def test_one_sample_delay_mode():
    """The delayed loop tracks with a small prediction penalty and no slips."""
    cfg = PllConfig(make_design(beta=2.0, lam=100.0), trials=24, seed=15, feedback_delay=1)
    cell = run_cell(cfg)
    assert cell.total_slips == 0
    assert abs(cell.snr_empirical / 401.0 - 1.0) < 0.15
    pred = sigma0(LPM, 2.0, 100.0)
    assert cell.sigma0_sq_empirical > pred  # prediction penalty is real
    assert cell.sigma0_sq_empirical < 1.3 * pred


def test_tracker_taps_shapes():
    design = make_design()
    t0 = tracking_taps(design, 0)
    t1 = tracking_taps(design, 1)
    half = design.grid.n_samples // 2
    assert t0.shape == (half,) and t1.shape == (half,)
    assert t1[0] == 0.0
    assert t0[0] != 0.0


def test_no_lock_cell_is_a_result():
    """Far below threshold every trial slips, and the cell still returns: a
    loss of lock is a result, not a divergence (exit 3)."""
    cell = run_cell(PllConfig(make_design(beta=8.0, lam=0.5), trials=64, seed=12345))
    assert cell.locked_fraction == 0.0 and cell.total_slips > 0
    assert np.isfinite(cell.snr_empirical)


def test_below_threshold_collapse_and_slips():
    cfg = PllConfig(make_design(beta=8.0, lam=4.0), trials=12, seed=17)  # sigma0^2 = 1.39
    cell = run_cell(cfg)
    assert cell.seeds_with_slips == 12
    linear = closed_form_snr(LPM, 8.0, 4.0)[1]
    mse_all = float(np.mean([t.mse for t in cell.trials]))
    assert 1.0 / mse_all < 0.5 * linear


def test_squeezed_feedback_variant():
    r = 0.5
    lam = 4.0 * (10.0 - np.sinh(r) ** 2) * np.exp(2.0 * r)
    cfg = PllConfig(make_design(beta=1.0, lam=lam, r=r), trials=32, seed=19)
    cell = run_cell(cfg)
    assert abs(cell.snr_empirical / (lam + 1.0) - 1.0) < 0.15


def test_phase_squeezed_no_feedback_variant():
    """Fig.-6 operation: squeezed y0, antisqueezed x0 through the exact rotation.

    The antisqueezed quadrature leaks into the record as x0 sin(e), raising
    the effective in-band noise by the factor 1 + sigma0^2 exp(4r) -- the
    quantitative content of the squeezing constraint.  The measured SNR must
    match the leakage-corrected prediction and still beat the coherent SQL.
    """
    from qdemod.qnoise import PHASE_SQUEEZED
    from qdemod.limits import threshold_check
    r, n_photon, beta = 0.25, 10.0, 1.0
    lam = 4.0 * (n_photon - np.sinh(r) ** 2) * np.exp(2.0 * r)
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(beta, msg.bandwidth)
    alpha, _ = operating_point(msg, r, lam)
    noise = NoiseModel(PHASE_SQUEEZED, alpha, r, msg.bandwidth)
    design = design_loop(msg, mod, alpha, noise)
    lhs, ok = threshold_check(sigma0(LPM, beta, lam), r=r)
    assert ok  # squeezing constraint satisfied at this operating point
    cell = run_cell(PllConfig(design, trials=48, seed=23))
    leak = 1.0 + cell.sigma0_sq_empirical * np.exp(4.0 * r)
    predicted = beta**2 * lam / leak + 1.0
    assert abs(cell.snr_empirical / predicted - 1.0) < 0.10
    sql_snr = 4.0 * beta**2 * n_photon + 1.0
    assert cell.snr_empirical > sql_snr  # squeezing still wins despite leakage
    assert cell.snr_empirical < lam + 1.0  # but below the leak-free ideal


def test_oversampling_guard():
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 255)  # B/b = 16 < 32
    mod = ModulationScheme.pm(1.0, msg.bandwidth)
    alpha, _ = operating_point(msg, lam=100.0)
    design = design_loop(msg, mod, alpha, NoiseModel(COHERENT, alpha))
    with pytest.raises(ValueError):
        PllConfig(design, trials=1, seed=1)


@pytest.mark.parametrize("setup", [dict(band_bins=53), dict(delay=700)])
def test_grid_too_short_for_the_exclusions(setup):
    """m - 6d < m/8 leaves too few samples between the 4d warm-up and the
    trailing 2d, whether d comes from a narrow band or is set."""
    design = make_design(beta=1.0, **setup)
    assert design.grid.n_samples - 6 * design.delay < design.grid.n_samples // 8
    with pytest.raises(ValueError, match="grid too short"):
        PllConfig(design, trials=1, seed=1)


def test_aggregate_in_lock_policy():
    base = simulate_batch(PllConfig(make_design(), trials=1, seed=2), [0])[0]
    slipped = type(base)(seed=2, trial=1, mse=100.0, snr_empirical=0.01,
                         sigma0_sq_empirical=10.0, cycle_slips=3)
    cell = aggregate([base, slipped])
    assert cell.locked_fraction == 0.5
    assert cell.snr_empirical == pytest.approx(1.0 / base.mse)
    only_slipped = aggregate([slipped])
    assert only_slipped.snr_empirical == pytest.approx(0.01)
