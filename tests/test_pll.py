import ctypes
import inspect
import math
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple

import numpy as np
import pytest

from conftest import both_kernels
from oracles import error_statistics, linearized_map_estimate, replay_normals
from qdemod.grids import TimeGrid
from qdemod.limits import FM as LFM
from qdemod.limits import PM as LPM
from qdemod.limits import closed_form_snr, sigma0
from qdemod.qnoise import (COHERENT, PHASE_SQUEEZED, SQUEEZED_Z, NoiseModel,
                           operating_point, resolve_lambda)
from qdemod import _numpy_kernel, _tracker, pll
from qdemod.pll import (LoopDivergenceError, PllConfig, aggregate,
                        cycle_slip_count, run_cell, sample_message, sample_quadratures, simulate_batch,
                        tracking_taps)
from qdemod.signals import MessageSpec, ModulationScheme
from qdemod.config import ConfigError
from qdemod.wiener import FactorizationError, design_loop


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


def wrap_normals(monkeypatch, wrap):
    """Make wrap(normals) the normals of both kernels, the library's instance
    attribute and the numpy module's, gone again after the test: the
    samplers' one source of white draws on either path."""
    for kernel in both_kernels():
        monkeypatch.setitem(vars(kernel), "normals", wrap(kernel.normals))


def _scaled_normals(scale, purpose, first_trial=0, when=lambda: True):
    """A wrap for wrap_normals: the draws of the streams (seed, trial,
    purpose) with trial >= first_trial, multiplied by scale while when()."""
    def wrap(normals):
        def scaled(seed, trials, p, quads, m):
            white = normals(seed, trials, p, quads, m)
            if p == purpose and when():
                white[:, np.array(trials) >= first_trial] *= scale
            return white
        return scaled
    return wrap


def scale_quadrature_noise(monkeypatch, scale):
    """Scale the draws of stream (seed, trial, 1), the quadrature noise.

    For coherent light these are the white (x0, y0) themselves, so scale 0
    is the noiseless limit and NaN poisons the record.
    """
    wrap_normals(monkeypatch, _scaled_normals(scale, 1))


needs_kernel = pytest.mark.skipif(_tracker.load() is _numpy_kernel,
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


def test_group_statistics_are_each_trials_own(monkeypatch):
    """A group's post-loop statistics, taken in place over all its windowed
    rows at once, are each trial's error_statistics, the same floats and
    slip counts row by row: in a locked cell (beta = 1, Lambda = 100), at
    beta = 2 and Lambda = 30, and in the criterion-4 collapse cell (beta = 8,
    Lambda = 4); and in a group of rows that stay inside pi/2, pass it
    without slipping (about 0 and about 2 pi) or slip."""
    real, seen = pll._group_statistics, []

    def spy(err, worst):
        seen.append((err.copy(), worst.copy()))
        return real(err, worst)
    monkeypatch.setattr(pll, "_group_statistics", spy)
    for beta, lam, trials in ((1.0, 100.0, 8), (2.0, 30.0, 32), (8.0, 4.0, 12)):
        seen.clear()
        got = simulate_batch(PllConfig(make_design(beta, lam), trials=trials, seed=17))
        ((err, worst),) = seen
        assert ([(t.sigma0_sq_empirical, t.cycle_slips) for t in got]
                == [error_statistics(e) for e in err]), (beta, lam)
        if beta == 1.0:
            assert worst.max() < np.pi / 2.0  # no row counts its slips
        if beta == 8.0:
            assert all(t.cycle_slips > 0 for t in got)
    t = np.linspace(0.0, 1.0, 2048)
    wave = np.sin(6.0 * np.pi * t)
    err = np.stack([0.3 * wave, 2.0 * wave, 2.0 * np.pi + 2.0 * wave, 4.0 * np.pi * t,
                    -2.0 * np.pi * t + 0.1 * wave])
    want = [error_statistics(e) for e in err]
    assert [slips for _, slips in want] == [0, 0, 0, 2, 1]
    got = real(err, np.max(np.abs(err), axis=1))
    assert tuple(column.tolist() for column in got) == tuple(map(list, zip(*want)))


def assert_trial_deterministic(cfg):
    a = simulate_batch(cfg, [2])[0]
    b = simulate_batch(cfg, [2])[0]
    assert a == b  # bit-identical for identical (config, seed, batching)
    # per-trial draws, FFT rows, tracker history, closure and mse sum are
    # all row-local: a trial's result does not depend on its batch
    assert simulate_batch(cfg, [0, 1, 2, 3])[2] == a


@pytest.mark.parametrize("trial", [-1, 2**63, 2**64 - 1])
def test_a_trial_index_outside_the_trial_column_is_rejected(trial):
    """A trial index is a stream path entry, which rng.stream takes in
    [0, 2^63), the range of the int64 trial column, and rejects, rather than
    reduces, outside it, so no two indices draw one trial (-1 and 2^64 - 1
    would) and the column stores each index as given: the largest runs."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=2, seed=3)
    with pytest.raises(ValueError, match=rf"path entry must be in \[0, 2\*\*63\), got {trial}$"):
        simulate_batch(cfg, [trial])
    assert simulate_batch(cfg, [2**63 - 1]).trial.tolist() == [2**63 - 1]


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
def test_kernel_matches_numpy_loop(case, request):
    kernel = pinned_results(case)
    request.getfixturevalue("no_kernel")
    assert pinned_results(case) == kernel


# (nt, m, kb, lag-0 tap), the shapes a power-of-two grid gives: nt = m/2
# taps and the kernel's block length kb = min(_numpy_kernel._BLOCK, nt).
# Several partitions; nt < _BLOCK (kb = nt, one partition, a small grid);
# nt = _BLOCK; and the one-sample-delay taps, whose lag-0 tap is zero
HISTORY_SHAPES = [(nt, m, min(_numpy_kernel._BLOCK, nt), lag0) for nt, m, lag0 in
                  ((256, 512, 1.0), (32, 64, 1.0), (128, 256, 1.0), (512, 1024, 0.0))]


def close_from_lead(kernel, taps, lead, m):
    """(phip, rec) of a group of len(lead) rows closed over m samples by a
    kernel's close_group (the library or _numpy_kernel) from the
    steady-state records lead, set as phibar's last nt samples with y0 = 0
    (phibar + y0/2|a| is then lead itself), phibar = 0 before them and
    X = Y = 0 (x0 = -2|a|), so each record and tracker output is
    phibar - e."""
    rows, nt = lead.shape
    phibar, zero = np.zeros((rows, m)), np.zeros((rows, m))
    phibar[:, m - nt:] = lead
    rec, phip = np.empty((rows, m)), np.empty((rows, m))
    kernel.close_group(taps, 2.0, phibar, np.full((rows, m), -2.0), zero, rec, phip)
    return phip, rec


@pytest.mark.parametrize("nt,m,kb,lag0", HISTORY_SHAPES)
def test_far_history_is_the_direct_convolution(nt, m, kb, lag0, monkeypatch):
    """Each block's far history, as the numpy form hands it to _track_block,
    is the convolution of the taps with the records before the block, to
    rounding level on the scale of the sum, and the lag-0 tap never enters
    it; a row's outputs are the same bits alone and inside a batch, and in
    the library's close_group and in numpy's.  The records are the loop's
    own, in-block lags included, so the taps sum to 1 in magnitude (random
    taps of unit variance make the records overflow); the bound is relative
    to each block's scale."""
    rng = np.random.default_rng(nt + m)
    taps = rng.standard_normal(nt)
    taps[0] *= lag0
    taps /= np.abs(taps).sum()
    lead = rng.standard_normal((3, nt + m))[:, :nt]
    fars, track_block = [], _numpy_kernel._track_block

    def spy(j0, far, *args):
        fars.append((j0, far.copy()))
        track_block(j0, far, *args)
    monkeypatch.setattr(_numpy_kernel, "_track_block", spy)
    got = close_from_lead(_numpy_kernel, taps, lead, m)
    records = np.concatenate([lead, got[1]], axis=1)  # the lead, then the loop's records
    assert [j0 for j0, _ in fars] == list(range(0, m, kb))
    for j0, far in fars:
        assert far.shape == (kb, 3)
        for row in range(3):
            before = np.where(np.arange(nt + m) < nt + j0, records[row], 0.0)
            want = np.convolve(taps, before)[nt + j0: nt + j0 + kb]
            scale = np.convolve(np.abs(taps), np.abs(before))[nt + j0: nt + j0 + kb].max()
            assert np.abs(far[:, row] - want).max() <= 1e-14 * scale
    for kernel in both_kernels():
        alone = close_from_lead(kernel, taps, lead[1:2].copy(), m)
        assert all(np.array_equal(a[0], b[1]) for a, b in zip(alone, got))
        assert all(np.array_equal(a, b) for a, b in zip(close_from_lead(kernel, taps, lead, m),
                                                        got))


# The light of a group's inputs: coherent (x0, y0), and squeezed_z, which
# has no x0
GROUP_LIGHTS = ("coherent", "squeezed_z")


def group_rows(args, sel):
    """close_group's arguments (group_args) for the rows sel of the group
    alone."""
    rows = {name: None if args[name] is None else args[name][sel]
            for name in ("phibar", "x0", "y0", "rec", "phip")}
    return {**args, **rows}


@pytest.mark.parametrize("l0", [0.0, 0.4])
def test_kernel_rows_are_independent(l0):
    """In the kernel and in the numpy loop, the per-row stop rule makes a
    row's closure independent of the others, and a NaN row is never clipped
    back to finite values; for each light."""
    for light in GROUP_LIGHTS:
        args = group_args(light, l0=l0)
        for close in (kernel.close_group for kernel in both_kernels()):
            rec, phip = close_outputs(close, args)
            assert np.isnan(phip[0, 200:]).all() and np.isnan(rec[0, 200:]).all()
            assert np.isfinite(phip[0, :200]).all() and np.isfinite(phip[1:]).all()
            alone = close_outputs(close, group_rows(args, [1, 2]))
            assert all(np.array_equal(a, b[1:]) for a, b in zip(alone, (rec, phip)))


def close_sample(close, l0, phibar, x0, y0, column=lambda a: a.reshape(a.size, 1)):
    """(rec, phip) after closing one sample of each row as a one-sample group
    through close (close_group or its numpy form), each row starting in lock
    at e = 0: the one tap l0, so a block of one sample and no lag to make a
    history, and e solves k e + l0 (X sin e + Y cos e) = k phibar,
    k = 1 - l0, with 2|a| = 1; phip is phibar - e.  x0 None is squeezed_z
    light; column makes the (rows, 1) arrays phibar, x0, y0, rec and phip
    of the rows."""
    rows = phibar.size
    rec, phip = column(np.empty(rows)), column(np.empty(rows))
    close(taps=np.array([l0]), twoa=1.0, phibar=column(phibar),
          x0=None if x0 is None else column(x0), y0=column(y0), rec=rec, phip=phip)
    return rec, phip


@pytest.mark.parametrize("l0", [0.2, 0.4, 0.7])
def test_closure_stops_only_at_a_root(l0, monkeypatch):
    """Every finite sample whose closure stopped before the cap solves
    k e + l0 (X sin e + Y cos e) = c to 1e-12 max(1, |c|), in the kernel and
    in the numpy loop.

    Random c with jumps of several rad, a jump of 3e3 that no 8 steps of at
    most 1 rad can close, and a NaN.  Each sample is closed alone from
    e = 0 (close_sample), with phibar = c/k, so c is k phibar, and e is read
    as phibar - phip, exact to the rounding of phibar; the sample stopped
    before the cap when the numpy loop with a cap of 9 steps gives the same
    bits (a ninth step of exactly 0 is a root too; an even cap would miss an
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
    phibar = c / (1.0 - l0)
    for close in (kernel.close_group for kernel in both_kernels()):
        done = np.zeros((n, rows), bool)
        for i in range(n):
            got = close_sample(close, l0, phibar[i], xq[i], yq[i])
            with monkeypatch.context() as patch:
                patch.setattr(_numpy_kernel, "_CLOSURE_STEPS", _numpy_kernel._CLOSURE_STEPS + 1)
                longer = close_sample(_numpy_kernel.close_group, l0, phibar[i], xq[i], yq[i])
            done[i] = np.all([np.equal(a, b)[:, 0] for a, b in zip(got, longer)], axis=0)
            u, ci = phibar[i] - got[1][:, 0], (1.0 - l0) * phibar[i]
            residual = np.abs((1.0 - l0) * u + l0 * (x[i] * np.sin(u) + y[i] * np.cos(u)) - ci)
            assert np.all(residual[done[i]] <= 1e-12 * np.maximum(1.0, np.abs(ci[done[i]])))
        assert not done[20, 0] and not done[5, 1]  # the NaN and the 3e3 jump
        assert np.count_nonzero(done) > n * rows // 2  # not vacuous


@pytest.mark.parametrize("amp", [1.0, 0.0])
@pytest.mark.parametrize("c", [3.0e3, -40.0])
def test_closure_walks_toward_a_far_root(c, amp):
    """A root far beyond 8 rad: every step, Halley's or, where 1 + r h <= 0
    reverses it, Newton's, is clipped to 1 rad toward the root, so e moves
    by exactly 8 rad from e = 0 (Halley's own step would turn back), and
    e = phibar - phip is exact, phibar and phip sharing a binade.  X is amp
    and Y = 0; at X = 0 the closure is linear and predicts no error, but a
    clipped step never stops."""
    phibar = np.array([c / (1.0 - 0.2)])
    for close in (kernel.close_group for kernel in both_kernels()):
        _, phip = close_sample(close, 0.2, phibar, np.array([amp - 1.0]), np.zeros(1))
        assert phibar[0] - phip[0, 0] == 8.0 * np.sign(c)


def same_bits(got, want):
    """Equal values with equal signs, zeros included; NaN where want has one."""
    nan = np.isnan(want)
    return bool(np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got) | nan, np.signbit(want) | nan))


@needs_kernel
def test_one_sample_group_takes_any_stride_on_its_sample_axis():
    """A (rows, 1) array made by a[:, None], to whose sample axis numpy gives
    a 0 stride, binds as a.reshape(rows, 1) does and gives its bits, for both
    lights."""
    rng = np.random.default_rng(8)
    phibar, x0, y0 = 0.5 * rng.standard_normal((3, 7))
    kernel = _tracker.load()
    for light_x0 in (x0, None):
        outs = [close_sample(kernel.close_group, 0.4, phibar, light_x0, y0, column)
                for column in (lambda a: a[:, None], lambda a: a.reshape(a.size, 1))]
        assert outs[0][1].strides[1] == 0
        assert all(same_bits(a, b) for a, b in zip(*outs))


@needs_kernel
@pytest.mark.parametrize("rows", [1, 7, 9, 33])
def test_tiles_keep_the_numpy_loops_bits_at_their_edges(rows):
    """close_group moves a block into and out of its (n, rows) tiles by
    8 x 8 blocks and takes Halley steps after the second one per 8-row
    vector: a group of rows that fill no whole 8-row block, or leave one
    over, gives the numpy loop's bits, signs of zeros included.  The rows
    are taken from a 40-row group (group_rows: the clipped row 1 first,
    then the NaN row 0), for both lights at l0 = 0 and 0.4, in blocks of
    128 samples; and as one-sample groups (one tap, so blocks of one
    sample, fewer than a tile block) of rows draws (close_sample)."""
    kernel = _tracker.load()
    sel = [1, 0, *range(2, 40)][:rows]
    for l0 in (0.0, 0.4):
        for light in GROUP_LIGHTS:
            args = group_rows(group_args(light, rows=40, l0=l0), sel)
            want = close_outputs(_numpy_kernel.close_group, args)
            got = close_outputs(kernel.close_group, args)
            assert all(same_bits(a, b) for a, b in zip(got, want)), (l0, light)
    rng = np.random.default_rng(rows)
    phibar, x0, y0 = rng.standard_normal((3, rows))
    phibar[0] = 3.0e3  # clipped steps
    for l0 in (0.0, 0.4):
        for light_x0 in (0.3 * x0, None):
            outs = [close_sample(close, l0, phibar, light_x0, 0.3 * y0)
                    for close in (kernel.close_group, _numpy_kernel.close_group)]
            assert all(same_bits(a, b) for a, b in zip(*outs)), (l0, light_x0 is None)


# The library's far-history steps, exported from a source of the tests' own
# that includes _tracker.c: far_mac_of wraps far_mac, and real_fft_of makes
# the real FFT of length 2n of each row either way, as close_group does:
# fft and split, or unsplit and fft.  Both are cloned as close_group is.
HARNESS_SOURCE = """
ISA_CLONES
void far_mac_of(int n, int rows, int parts, int s, const double *ring, const double *g,
                double *acc)
{
    far_mac(n, rows, parts, s, ring, g, acc);
}

ISA_CLONES
void real_fft_of(int n, int rows, int inverse, const double *in, double *out, double *work)
{
    const size_t tile = 2 * (size_t)n * rows;
    double *a = work, *b = a + tile, *tw = b + tile;
    twiddles(n, tw);
    if (!inverse) {
        split(n, rows, fft(n, rows, 0, in, a, b, tw), out, tw);
        return;
    }
    unsplit(n, rows, in, a, tw);
    const double *x = fft(n, rows, 1, a, b, a, tw);
    for (size_t i = 0; i < tile; i++)
        out[i] = x[i];
}
"""


@pytest.fixture(scope="module")
def library_steps(tmp_path_factory):
    """The library's far_mac and real FFT (HARNESS_SOURCE), built into a
    library of their own: both are inlined steps of close_group, and the
    package's library exports nothing for them.  Skipped without a C
    compiler."""
    directory = tmp_path_factory.mktemp("library_steps")
    source = directory / "library_steps.c"
    source.write_text(f'#include "{_tracker.SOURCE}"\n{HARNESS_SOURCE}')
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_tracker, "SOURCE", source)
        try:
            path = _tracker._compile(directory, "library_steps.so")
        except (OSError, subprocess.SubprocessError):
            pytest.skip("no C compiler")
    lib = ctypes.CDLL(str(path))
    lib.far_mac_of.argtypes, lib.far_mac_of.restype = [*[ctypes.c_int] * 4,
                                                       *[ctypes.c_void_p] * 3], None
    lib.real_fft_of.argtypes, lib.real_fft_of.restype = [*[ctypes.c_int] * 3,
                                                         *[ctypes.c_void_p] * 3], None

    def far_mac(ring, g, s):
        parts, bins, _, rows = ring.shape
        acc = np.empty((bins, 2, rows))
        lib.far_mac_of(bins - 1, rows, parts, s, ring.ctypes.data, g.ctypes.data,
                       acc.ctypes.data)
        return acc

    def real_fft(a, inverse=False):
        a = np.ascontiguousarray(a)
        n, rows = (a.shape[0] - 1 if inverse else a.shape[0] // 2), a.shape[-1]
        out = np.empty((2 * n, rows) if inverse else (n + 1, 2, rows))
        work = np.empty(4 * n * rows + 2 * n)
        lib.real_fft_of(n, rows, inverse, a.ctypes.data, out.ctypes.data, work.ctypes.data)
        return out
    return types.SimpleNamespace(far_mac=far_mac, real_fft=real_fft)


def real_ffts(request):
    """The real FFT's forms: _numpy_kernel's and, where the library builds,
    the library's own (library_steps)."""
    if _tracker.load() is _numpy_kernel:
        return [_numpy_kernel._real_fft]
    return [_numpy_kernel._real_fft, request.getfixturevalue("library_steps").real_fft]


@pytest.mark.parametrize("parts", [1, 16])
@pytest.mark.parametrize("rows", [1, 7, 37])
def test_library_far_mac_keeps_the_signs_of_zeros(parts, rows, library_steps):
    """The library's far_mac (library_steps) gives
    _numpy_kernel._far_mac's bits, the signs of zero sums included, at ring
    offsets 0, 1 and parts - 1.  Row 0 of the ring is -0 real and +0
    imaginary throughout, and G has +0 imaginary parts on even bins, so
    there each product's real part is -0 where G's real part is positive
    and +0 where it is negative: every fourth bin, where it is positive in
    all partitions, sums to -0.  Elsewhere a fifth of the ring and of G are
    zeros of either sign, and there is a NaN."""
    rng = np.random.default_rng(parts * 1000 + rows)
    bins = 129

    def with_zeros(shape):
        a = rng.standard_normal(shape)
        return np.where(rng.random(shape) < 0.2, np.copysign(0.0, rng.standard_normal(shape)), a)
    ring = with_zeros((parts, bins, 2, rows))
    ring[:, :, 0, 0], ring[:, :, 1, 0] = -0.0, 0.0
    ring[-1, 3, 0, -1] = np.nan
    g = with_zeros((parts, 2, bins))
    g[:, 1, ::2] = 0.0
    g[:, 0, ::4] = 0.5 + np.abs(g[:, 0, ::4])
    for s in sorted({0, 1 % parts, parts - 1}):
        want = _numpy_kernel._far_mac(ring, g, s)
        zeros = want[want == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        assert same_bits(library_steps.far_mac(ring, g, s), want), s


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
    """_far_mac, the numpy form of close_group's far-history sum, gives the
    separately rounded sum bit for bit, signs included, at ring offsets 0, 1
    and parts - 1: 129 bins, 1, 7 and 37 rows, a NaN and signed zeros in the
    spectra and in G.  The ring holds the spectra as close_group stores
    them, (parts, bins, 2, rows) planes.  The library's own sum is held to
    _far_mac's bits by test_library_far_mac_keeps_the_signs_of_zeros."""
    rng = np.random.default_rng(parts * 100 + rows)
    bins = 129
    spectra = spectra_with_zeros(rng, (parts, rows, bins))
    planes = np.stack([spectra.real, spectra.imag], axis=2)  # (parts, rows, 2, bins)
    ring = np.ascontiguousarray(planes.transpose(0, 3, 2, 1))
    g = rng.standard_normal((parts, 2, bins))
    g[0, 0, 9], g[-1, 1, 13] = -0.0, 0.0
    for s in sorted({0, 1 % parts, parts - 1}):
        want, out = rounded_sum(spectra, g, s), _numpy_kernel._far_mac(ring, g, s)
        assert same_bits(out[:, 0].T, want[0]) and same_bits(out[:, 1].T, want[1]), s


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
    for product in (kernel.spectrum_product for kernel in both_kernels()):
        got = spectrum.copy()
        product(got, h)
        assert same_bits(got.real, want[0]) and same_bits(got.imag, want[1])


def fft_inputs(rng, n2, rows):
    """(x, special x, spectra, special spectra): real rows x, (n2, rows), at
    scales 1e-3 .. 1e3 with a +0 and a -0 entry, and their numpy spectra as
    (n2/2 + 1, 2, rows) planes; the special copies add a NaN, a +inf and a
    -inf entry (the spectra a -0 too), each in a row of its own where there
    are several."""
    x = rng.standard_normal((n2, rows)) * np.logspace(-3, 3, rows)
    x[3, 0], x[5, -1] = 0.0, -0.0
    special = x.copy()
    special[7, rows // 2] = np.nan
    special[9, 0], special[11, -1] = np.inf, -np.inf
    spectrum = np.fft.rfft(x, axis=0)
    planes = np.ascontiguousarray(np.stack([spectrum.real, spectrum.imag], axis=1))
    special_planes = planes.copy()
    special_planes[2, 0, rows // 2], special_planes[4, 1, 0] = np.nan, np.inf
    special_planes[6, 0, -1], special_planes[8, 1, -1] = -np.inf, -0.0
    return x, special, planes, special_planes


@needs_kernel
@pytest.mark.parametrize("n2", [64, 256])
@pytest.mark.parametrize("rows", [1, 7, 37])
def test_real_fft_paths_agree_bit_for_bit(n2, rows, library_steps):
    """The library's real FFT (library_steps) and its numpy form, both
    ways, give the same bits, signs included, with +-0, NaN and +-inf
    entries."""
    _, x, _, planes = fft_inputs(np.random.default_rng(n2 + rows), n2, rows)
    with np.errstate(invalid="ignore"):
        for inverse, a in ((False, x), (True, planes)):
            assert same_bits(library_steps.real_fft(a, inverse),
                             _numpy_kernel._real_fft(a, inverse))


@pytest.mark.parametrize("n2", [64, 256])
@pytest.mark.parametrize("rows", [1, 7, 37])
def test_real_fft_is_numpys_to_rounding(n2, rows, request):
    """Each row's spectrum, and 2 kb times each inverse transform, is within
    20 log2(2 kb) eps of numpy's in the row's 2-norm: Higham's bound for a
    radix-2 FFT (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    thm 24.2), about 9 log2(n) eps with twiddles good to a few ulps, for each
    of the two transforms."""
    x, _, planes, _ = fft_inputs(np.random.default_rng(n2 * rows), n2, rows)
    bound = 20 * np.log2(n2) * np.finfo(float).eps
    inverse = n2 * np.fft.irfft(planes[:, 0] + 1j * planes[:, 1], n=n2, axis=0)

    def norm(a):  # of each row
        return np.sqrt(np.sum(a.reshape(-1, rows) ** 2, axis=0))
    for fft in real_ffts(request):
        for got, want in ((fft(x), planes), (fft(planes, True), inverse)):
            assert np.all(norm(got - want) <= bound * norm(want))


def test_real_fft_rows_are_independent(request):
    """A row's transform, both ways and on both paths, is the same bits
    alone as inside a 37-row group."""
    x, _, planes, _ = fft_inputs(np.random.default_rng(5), 256, 37)
    for fft in real_ffts(request):
        for inverse, a in ((False, x), (True, planes)):
            whole = fft(a, inverse)
            for row in (0, 17, 36):
                alone = fft(np.ascontiguousarray(a[..., row: row + 1]), inverse)
                assert same_bits(alone, whole[..., row: row + 1])


def objdump(option, tmp_path):
    """objdump's output with option for the loaded library, or for the same
    build in tmp_path where it was loaded from a private directory, since
    removed; the test is skipped where there is no objdump."""
    tool = shutil.which("objdump")
    if tool is None:
        pytest.skip("no objdump")
    path = _tracker.SOURCE.parent / "__pycache__" / f"_tracker-{_tracker.load().digest}.so"
    if not path.is_file():
        path = _tracker._compile(tmp_path, path.name)
    return subprocess.run([tool, option, str(path)], capture_output=True, text=True,
                          check=True, timeout=120).stdout


@needs_kernel
def test_library_has_no_fused_multiply_adds(tmp_path):
    """Nothing in the built library, either clone, fuses a multiply and an
    add: objdump -d finds no vfmadd, vfmsub, vfnmadd, vfnmsub, vfmaddsub or
    vfmsubadd (gcc 12's avx512f clone emits vfmaddsub on an interleaved
    complex loop even under -ffp-contract=off)."""
    text = objdump("-d", tmp_path)
    assert all(f"<{name}" in text for name in ("close_group", "spectrum_product", "levinson"))
    assert not re.findall(r"\bvfn?m(?:add|sub)\w*", text)


@needs_kernel
def test_library_exports_only_what_kernel_binds(tmp_path):
    """The library's dynamic symbols (objdump -T) define exactly the
    functions Kernel binds and kernel_isa, apart from the clones' resolvers:
    no entry that only a test would call."""
    defined = set(re.findall(r"\s\.text\s.*\s(\S+)$", objdump("-T", tmp_path), re.M))
    bound = {name[1:] for name, value in vars(_tracker.load()).items()
             if hasattr(value, "argtypes")}
    assert bound == {"close_group", "normals", "spectrum_product", "levinson"}
    assert {name for name in defined if not name.endswith(".resolver")} == bound | {"kernel_isa"}


def group_args(light="coherent", rows=3, l0=0.4):
    """close_group's arguments for a row group of rows rows with nt = 256
    small random taps after the lag-0 tap l0 (so the loop stays bounded),
    so blocks of 128 samples, and m = 640: row 1 takes a first closure step far
    beyond the +-1 rad clip, row 0 turns NaN at sample 200, before the
    steady-state lead, phibar's and y0's last nt samples, which stays
    finite."""
    rng = np.random.default_rng(11)
    nt, m = 256, 640
    taps = 0.02 * rng.standard_normal(nt)
    taps[0] = l0
    phibar = rng.standard_normal((rows, m))
    phibar[1, 5] += 3.0e3
    phibar[0, 200] = np.nan
    x0, y0 = 0.2 * rng.standard_normal((2, rows, m))
    return dict(taps=taps, twoa=2.0, phibar=phibar, x0=None if light == "squeezed_z" else x0,
                y0=y0, rec=np.empty((rows, m)), phip=np.empty((rows, m)))


def close_outputs(close, args):
    """(rec, phip) after close (close_group or its numpy form) ran on a copy
    of args' outputs."""
    args = {**args, **{name: args[name].copy() for name in ("rec", "phip")}}
    close(**args)
    return args["rec"], args["phip"]


@needs_kernel
def test_kernel_rejects_mismatched_arrays():
    """The kernel gets raw pointers, so every array is checked first: a
    group's arrays, each a C-contiguous (rows, m) block (a row-strided x0,
    as a view of a (rows, 2, m) draw, and a (rows, nt + m) record are
    rejected), its outputs and its taps: no more than m, and nt such that
    the kernel's block length min(_BLOCK, nt), the far history's FFT length,
    is a power of two that divides nt and m (nt = 10 and 192 are rejected,
    and so is m = 320 for nt = 256); and the arrays of spectrum_product."""
    kernel, out = _tracker.load(), np.zeros((3, 5), complex)
    h = np.zeros((2, 5))
    for spectrum, planes in ((out, h[:, :4]), (out.T, np.zeros((2, 3))), (out, h.T.copy()),
                             (out.astype(np.complex64), h)):
        with pytest.raises(ValueError):
            kernel.spectrum_product(spectrum, planes)
    kernel.spectrum_product(out, h)
    args = group_args()
    rows, m = args["phibar"].shape
    frozen_rec, frozen_phip = (args[name].copy() for name in ("rec", "phip"))
    frozen_rec.flags.writeable = frozen_phip.flags.writeable = False
    taps, x0, y0 = (args[name] for name in ("taps", "x0", "y0"))
    strided = np.zeros(2 * taps.size)[::2]
    strided[...] = taps
    quads = np.stack([x0, y0], axis=1)  # (rows, 2, m)
    short = {name: args[name][:, :320].copy() for name in ("phibar", "x0", "y0", "rec", "phip")}
    for bad in (dict(phibar=args["phibar"][:2]), dict(taps=taps[:10]),
                dict(x0=np.asfortranarray(x0)), dict(y0=y0.astype(np.float32)),
                dict(y0=y0[:, ::2]), dict(rec=args["rec"][:, :-1]), dict(taps=taps[:192]),
                short, dict(taps=taps[None]), dict(taps=taps.astype(np.float32)),
                dict(taps=strided), dict(taps=np.zeros(0)), dict(taps=np.resize(taps, 2 * m)),
                dict(x0=quads[:, 0]), dict(rec=np.zeros((rows, taps.size + m))),
                dict(rec=frozen_rec), dict(phip=frozen_phip), dict(phip=args["phip"][:, :-1])):
        with pytest.raises(ValueError):
            kernel.close_group(**{**args, **bad})
    assert all(same_bits(a, b) for a, b in zip(close_outputs(kernel.close_group, args),
                                               close_outputs(_numpy_kernel.close_group, args)))


def trial_table(rows):
    """A per-trial table of (trial, mse, sigma0_sq_empirical, cycle_slips) rows."""
    return np.rec.array(rows, dtype=pll._TRIAL_COLUMNS)


# The squeezed_z pinned cell's per-trial table (seed 41) with the package's
# own sincos, separately rounded complex products and the far history's own
# FFTs, and as the closure wrote it with libm's sin and cos and numpy's FFTs:
# the results differ only at rounding level.
SQUEEZED_Z_TRIALS = trial_table([(0, 0.00510658245657831, 0.09143480449397115, 0),
                                 (1, 0.006154191514309288, 0.08575076782887586, 0),
                                 (2, 0.008939877658228968, 0.08694014669400899, 0)])
SQUEEZED_Z_TRIALS_LIBM = trial_table([(0, 0.005106582456578313, 0.09143480449397115, 0),
                                      (1, 0.006154191514309293, 0.08575076782887588, 0),
                                      (2, 0.008939877658228975, 0.08694014669400897, 0)])


def test_squeezed_z_cell_keeps_its_bits():
    setup, extra, _ = PINNED["squeezed_z"]
    design = make_design(lam=resolve_lambda(0.5, n_photon=10.0), n_samples=2048,
                         band_bins=63, **setup)
    got = simulate_batch(PllConfig(design, trials=3, seed=41, **extra))
    assert got.dtype == SQUEEZED_Z_TRIALS.dtype and got.tobytes() == SQUEEZED_Z_TRIALS.tobytes()
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
    run, _ = pll._cell_work(cfg, store=store)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (32 * cfg.design.grid.n_samples * 8)


def test_row_group_working_set():
    """A group peaks at most 5.0 group arrays above its start: the record,
    phibar, phi' and the far history's stored spectra in the loop, with the
    kernel's work space, fewer after it."""
    assert group_peak_arrays() <= 5.0


def test_row_group_working_set_without_the_library(no_kernel):
    """The numpy path keeps the same bound."""
    assert group_peak_arrays() <= 5.0


SINCOS_CONSTANTS = ("SHIFT", "INVPIO2", "PIO2_1", "PIO2_2", "PIO2_2T",
                    *(f"S{i}" for i in range(1, 7)), *(f"C{i}" for i in range(1, 7)))


def test_kernel_closure_constants_match():
    """The closure's and the sincos' constants are the twin's, verbatim."""
    text = _tracker.SOURCE.read_text()
    assert f"#define CLOSURE_STEPS {_numpy_kernel._CLOSURE_STEPS}\n" in text
    assert f"#define CLOSURE_TOL {_numpy_kernel._CLOSURE_TOL!r}\n" in text
    for name in SINCOS_CONSTANTS:
        value = float(getattr(_numpy_kernel, f"_{name}"))
        assert re.search(rf"^#define {name} {re.escape(repr(value))}\s", text, re.M), name


# the one line that names the clone; without it the plain kernel is built
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
    """_numpy_kernel._sincos, the kernel's sin_cos in numpy, is within 1 ulp
    of the C library's sin and cos (math.sin and math.cos) on 1e5 normal
    draws at each scale and 1e5 uniform draws in +-1e6."""
    rng = np.random.default_rng(2025)
    draws = [scale * rng.standard_normal(100_000) for scale in (0.3, 3.0, 300.0, 1e5)]
    for x in (*draws, rng.uniform(-1e6, 1e6, 100_000)):
        for got, libm in zip(_numpy_kernel._sincos(x), (math.sin, math.cos)):
            want = np.fromiter(map(libm, x.tolist()), float, x.size)
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want))), libm


def test_sincos_keeps_signed_zeros_and_has_no_finite_value_at_infinity():
    """sin(+-0) = +-0 with its sign, cos(+-0) = 1, and NaN and +-inf give NaN."""
    x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        s, c = _numpy_kernel._sincos(x)
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
    outputs, signs of zeros included, for a whole 37-row group of
    each light at l0 = 0 and 0.4, far history and its signed zeros included:
    vector bodies, their remainder rows, a clipped row and a NaN row alike."""
    source = tmp_path / "_tracker.c"
    source.write_text(_tracker.SOURCE.read_text().replace(ISA_LINE, ""))
    monkeypatch.setattr(_tracker, "SOURCE", source)
    plain = _tracker._build()
    assert plain is not None and plain.digest != _tracker.load().digest
    assert plain.isa == "default"
    for l0 in (0.0, 0.4):
        for light in GROUP_LIGHTS:
            args = group_args(light, rows=37, l0=l0)
            want = close_outputs(_tracker.load().close_group, args)
            assert np.isnan(want[1][0, 200:]).all() and np.isfinite(want[1][1:]).all()
            for close in (plain.close_group, _numpy_kernel.close_group):
                got = close_outputs(close, args)
                assert all(same_bits(a, b) for a, b in zip(got, want)), (l0, light)


NORMALS_SEEDS = (0, 12345, 2**64 - 1)


def normals_cases():
    """(trials, purpose, quads, m) of the normals parity checks: the first
    and last trial index, both purposes, one plane and two, and m = 1, a
    length 8 does not divide and 4096."""
    return [([0, 2**63 - 1, 5], purpose, quads, m)
            for purpose in (0, 1) for quads in (1, 2) for m in (1, 13, 4096)]


@needs_kernel
@pytest.mark.parametrize("seed", NORMALS_SEEDS)
def test_library_normals_are_numpys_draws(seed):
    """The library's normals give _numpy_kernel's planes, numpy's Generator
    on each stream, bit for bit, C-contiguous; over 64 rows of 4096, and a
    replay of numpy's ziggurat on the library's tables shows the rows took
    its tail and wedge branches, so the slow draws are checked too."""
    kernel = _tracker.load()
    for trials, purpose, quads, m in normals_cases():
        got = kernel.normals(seed, trials, purpose, quads, m)
        assert got.flags.c_contiguous and got.shape == (quads, len(trials), m)
        assert got.tobytes() == _numpy_kernel.normals(seed, trials, purpose, quads, m).tobytes()
    want = _numpy_kernel.normals(seed, range(64), 1, 1, 4096)
    assert kernel.normals(seed, list(range(64)), 1, 1, 4096).tobytes() == want.tobytes()
    tails = wedges = 0
    for trial in range(16):
        replayed, took_tail, took_wedge = replay_normals(seed, trial, 1, 4096)
        assert replayed.tobytes() == want[0, trial].tobytes()
        tails, wedges = tails + took_tail, wedges + took_wedge
    assert tails > 0 and wedges > 0, (tails, wedges)


@needs_kernel
def test_isa_clones_give_numpys_normals(tmp_path, monkeypatch):
    """The source built without clones, whose normals take the scalar path
    only, gives numpy's draws too, as the loaded library (on this CPU its
    avx512f path, where the CPU has it) does in
    test_library_normals_are_numpys_draws, for every seed and case."""
    source = tmp_path / "_tracker.c"
    source.write_text(_tracker.SOURCE.read_text().replace(ISA_LINE, ""))
    monkeypatch.setattr(_tracker, "SOURCE", source)
    plain = _tracker._build()
    assert plain is not None and plain.isa == "default"
    for seed in NORMALS_SEEDS:
        for trials, purpose, quads, m in normals_cases() + [(list(range(64)), 1, 1, 4096)]:
            want = _numpy_kernel.normals(seed, trials, purpose, quads, m).tobytes()
            assert plain.normals(seed, trials, purpose, quads, m).tobytes() == want


@pytest.mark.parametrize("seed, trial, message", [
    (-1, 0, r"seed must be in \[0, 2\*\*64\), got -1$"),
    (2**64, 0, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616$"),
    (3, -1, r"path entry must be in \[0, 2\*\*63\), got -1$"),
    (3, 2**63, r"path entry must be in \[0, 2\*\*63\), got 9223372036854775808$")])
def test_normals_reject_a_stream_outside_rngs_ranges(seed, trial, message):
    """Both kernels' normals check every stream with rng's checks and
    messages, a bad trial after a good one too."""
    for kernel in both_kernels():
        with pytest.raises(ValueError, match=message):
            kernel.normals(seed, [0, trial], 1, 2, 8)


def test_samplers_make_each_density_once(monkeypatch):
    """A cell's row groups colour their draws to densities made once per
    message and light (pll's small cache), not once per group: three groups
    of a phase-squeezed cell, then a second cell of the same light at
    another |alpha|, make one message_psd and one squeezed_covariance_psds,
    on four workers switching threads every microsecond."""
    calls = []
    for name in ("message_psd", "squeezed_covariance_psds"):
        def counted(*args, real=getattr(pll, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(pll, name, counted)
    monkeypatch.setattr(pll, "max_workers", lambda: 4)
    pll._message_density.cache_clear()
    pll._quadrature_densities.cache_clear()
    designs = [make_design(lam=lam, n_samples=2048, band_bins=63, r=0.5, variant=PHASE_SQUEEZED)
               for lam in (100.0, 300.0)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for design in designs:
            simulate_batch(PllConfig(design, trials=72, seed=3))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == ["message_psd", "squeezed_covariance_psds"]


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


def test_both_kernels_keep_one_contract(tmp_path, monkeypatch):
    """_tracker.Kernel and _numpy_kernel expose the same four entries with
    the same parameters, and after a failed build (the broken source of
    test_tracker_build_cache_and_failure) load() returns _numpy_kernel,
    which a simulate manifest names."""
    def entries(owner, skip):  # {public function: its parameters but the first skip}
        return {name: list(inspect.signature(fn).parameters)[skip:]
                for name, fn in vars(owner).items()
                if inspect.isfunction(fn) and fn.__module__.startswith("qdemod.")
                and not name.startswith("_")}
    assert entries(_tracker.Kernel, 1) == entries(_numpy_kernel, 0)  # the methods' self
    assert set(entries(_numpy_kernel, 0)) == {"close_group", "normals", "spectrum_product",
                                              "levinson"}
    source = tmp_path / "_tracker.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(_tracker, "SOURCE", source)
    monkeypatch.setattr(_tracker, "_loaded", {})
    assert _tracker.load() is _numpy_kernel
    from qdemod.cli import cli_main
    config, out = tmp_path / "simulate.cfg", tmp_path / "simulate"
    config.write_text("n_samples = 2048\nband_bins = 63\nbeta = 1\nlambda = 100\ntrials = 2\n")
    assert cli_main(["simulate", str(config), "--out", str(out)]) == 0
    assert "tracker = numpy\n" in (out / "manifest.txt").read_text()


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


def cell_values(cell):
    """A CellResult as values that == compares: its table's bytes, then its
    other fields."""
    return (cell.trials.tobytes(), *astuple(cell)[1:])


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
    assert one.tobytes() == two.tobytes()
    if not extra:
        one, two = with_one_and_two_workers(monkeypatch, lambda: cell_values(run_cell(cfg)))
        assert one == two


def test_more_workers_than_cpus_under_fast_switching(monkeypatch):
    """Five groups, then three pipelined cells, on four workers, switching
    threads every microsecond: a group that wrote outside its rows, or a
    cell's results collected out of order, would change the results."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=160, seed=31)
    cells = pipeline_configs()
    monkeypatch.setattr(pll, "max_workers", lambda: 1)
    want = simulate_batch(cfg).tobytes(), [cell_values(c) for c in pll.run_cells(cells)]
    monkeypatch.setattr(pll, "max_workers", lambda: 4)
    opened = count_streams(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = simulate_batch(cfg).tobytes(), [cell_values(c) for c in pll.run_cells(cells)]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    # the cells' row groups of trials 0-31, 32-39, 32-63 and 64-71 are
    # drawn once each, however the workers race for them
    assert len(opened) == 2 * (160 + 32 + 8 + 32 + 8)


def test_row_groups_do_not_follow_the_worker_count(monkeypatch):
    sizes = [[g.stop - g.start for g in pll._row_groups(n)] for n in (1, 40, 63, 64, 95, 96)]
    assert sizes == [[1], [32, 8], [32, 31], [32, 32], [32, 32, 31], [32, 32, 32]]
    seen, kernel = [], _tracker.load()
    close = kernel.close_group

    def spy(taps, twoa, phibar, *rest):
        seen.append(phibar.shape[0])
        close(taps, twoa, phibar, *rest)
    # the library's instance attribute or the numpy module's, gone again after the test
    monkeypatch.setitem(vars(kernel), "close_group", spy)
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=72, seed=29)
    with_one_and_two_workers(monkeypatch, lambda: simulate_batch(cfg))
    assert sorted(seen) == [8, 8, 32, 32, 32, 32]


@needs_kernel
def test_a_row_group_closes_its_loop_in_one_library_call(monkeypatch):
    """On the library path each row group's whole closed loop, every block's
    far history included, is one close_group call: three for 72 trials."""
    rows, close = [], _tracker.Kernel.close_group

    def counted(self, taps, twoa, phibar, *rest):
        rows.append(phibar.shape[0])
        return close(self, taps, twoa, phibar, *rest)
    monkeypatch.setattr(_tracker.Kernel, "close_group", counted)
    monkeypatch.setattr(_tracker.Kernel, "__call__", None)  # no per-block binding
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=72, seed=29)
    simulate_batch(cfg)
    assert sorted(rows) == [8, 32, 32]


def test_worker_threads_keep_the_callers_errstate(monkeypatch):
    """Infinite message draws for the second row group only: the FFT that
    colours them is invalid, and the caller's np.errstate, copied to the
    pool threads, makes that the same error on any worker count."""
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=64, seed=3)
    wrap_normals(monkeypatch, _scaled_normals(float("inf"), 0, first_trial=32))

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
    wrap_normals(monkeypatch, _scaled_normals(float("nan"), 1, first_trial=32))

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
        lone = [cell_values(run_cell(cfg)) for cfg in cfgs]
        for n in (1, 2, 3):
            monkeypatch.setattr(pll, "max_workers", lambda n=n: n)
            assert [cell_values(cell) for cell in pll.run_cells(cfgs)] == lone


def count_streams(monkeypatch):
    """The (seed, trial, purpose) of each stream drawn, in a list."""
    opened = []

    def wrap(normals):
        def counted(seed, trials, purpose, quads, m):
            opened.extend((seed, trial, purpose) for trial in trials)
            return normals(seed, trials, purpose, quads, m)
        return counted
    wrap_normals(monkeypatch, wrap)
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
    lone = [[cell_values(run_cell(cfg)) for cfg in cfgs] for cfgs in sweeps]
    together = list(zip(*(pll.run_cells(cfgs) for cfgs in sweeps)))
    assert [[cell_values(cell) for cell in cells] for cells in zip(*together)] == lone


SWEEP_3 = ("n_samples = 2048\nband_bins = 63\nbetas = 0.5, 1, 2\nlambdas = 100\n"
           "trials = 64\nseed = 5\n")


class SweepSpy:
    """A sweep's cells, numbered in the order their designs start.

    events gets ("design", k) as cell k's design starts and ("collected", k)
    as its trials are aggregated; groups counts the row groups run per cell.
    nan_cells draw NaN quadrature noise (the _scaled_normals pattern), so they
    diverge in the closed loop; failing_groups raise the given error from
    their row groups and failing_designs from their designs, at once.
    """

    def __init__(self, monkeypatch, nan_cells=(), failing_groups=None, failing_designs=None):
        import qdemod.cli as cli
        self.events, self.designs, self.groups = [], [], {}
        self.local = threading.local()
        real_design, real_group = cli.design_loop, pll._simulate_group
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

        def aggregate(trials):
            cell = real_aggregate(trials)
            self.events.append(("collected", sum(event[0] == "collected" for event in self.events)))
            return cell
        monkeypatch.setattr(cli, "design_loop", design_loop)
        monkeypatch.setattr(pll, "_simulate_group", simulate_group)
        wrap_normals(monkeypatch, _scaled_normals(float("nan"), 1, when=lambda: self.local.nan))
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


def simulate_csv_snrs(cell, tmp_path, monkeypatch):
    """The per-trial snr_empirical column of the results.csv that simulate
    writes when its run_cell returns cell."""
    from qdemod import cli
    monkeypatch.setattr(cli, "run_cell", lambda cfg: cell)
    config, out = tmp_path / "simulate.cfg", tmp_path / "simulate"
    config.write_text("n_samples = 2048\nband_bins = 63\nbeta = 1\nlambda = 100\n")
    assert cli.cli_main(["simulate", str(config), "--out", str(out)]) == 0
    header, _, *rows = (out / "results.csv").read_text().splitlines()
    column = header.split(",").index("snr_empirical")
    return [float(row.split(",")[column]) for row in rows]


def test_non_finite_error_is_divergence(monkeypatch, tmp_path, request):
    cfg = PllConfig(make_design(n_samples=2048, band_bins=63), trials=2, seed=3)
    scale_quadrature_noise(monkeypatch, float("nan"))
    kernel, groups = _tracker.load(), []
    if kernel is not _numpy_kernel:  # the closed loop runs through the compiled kernel
        close = _tracker.Kernel.close_group

        def counted(self, *args):
            groups.append(args)
            return close(self, *args)
        monkeypatch.setattr(_tracker.Kernel, "close_group", counted)
    with pytest.raises(LoopDivergenceError):
        simulate_batch(cfg, [0])
    assert bool(groups) == (kernel is not _numpy_kernel)
    request.getfixturevalue("no_kernel")
    with pytest.raises(LoopDivergenceError):
        simulate_batch(cfg, [0])
    # open loop never diverges, but a NaN mse must not read as infinite SNR
    res = simulate_batch(cfg, [0], force_lock=True)
    assert np.isnan(res[0].mse) and np.isnan(simulate_csv_snrs(aggregate(res), tmp_path,
                                                               monkeypatch)[0])


def test_snr_matches_linear_theory(tmp_path, monkeypatch):
    cfg = PllConfig(make_design(beta=2.0, lam=100.0), trials=48, seed=5)
    cell = run_cell(cfg)
    assert cell.total_slips == 0
    assert abs(cell.snr_empirical / 401.0 - 1.0) < 0.10
    snrs = simulate_csv_snrs(cell, tmp_path, monkeypatch)
    assert snrs[0] == pytest.approx(1.0 / cell.trials[0].mse)


def test_sigma0_empirical_matches_analytic():
    for kind, pred in (("pm", sigma0(LPM, 2.0, 100.0)), ("fm", sigma0(LFM, 2.0, 100.0))):
        cfg = PllConfig(make_design(beta=2.0, lam=100.0, kind=kind), trials=32, seed=6)
        cell = run_cell(cfg)
        assert abs(cell.sigma0_sq_empirical / pred - 1.0) < 0.15


def test_noiseless_limit_tracks_perfectly(monkeypatch, tmp_path):
    cfg = PllConfig(make_design(beta=1.0, lam=300.0), trials=2, seed=3)
    scale_quadrature_noise(monkeypatch, 0.0)
    out = simulate_batch(cfg, [0, 1])
    snrs = simulate_csv_snrs(aggregate(out), tmp_path, monkeypatch)
    for res, snr in zip(out, snrs, strict=True):
        assert snr > 1e3
        assert res.cycle_slips == 0


@pytest.mark.parametrize("light", [dict(), dict(r=0.5, variant=SQUEEZED_Z),
                                   dict(r=0.5, variant=PHASE_SQUEEZED)],
                         ids=[COHERENT, SQUEEZED_Z, PHASE_SQUEEZED])
def test_forced_lock_equals_linearized_map(light):
    """Open loop with phi' pinned to phibar reproduces the MAP filter path,
    relinearisation pass included."""
    design = make_design(beta=2.0, lam=100.0, **light)
    cfg = PllConfig(design, trials=2, seed=9)
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
    with pytest.raises(ValueError, match="oversampling guard"):
        PllConfig(design, trials=2, seed=1)


@pytest.mark.parametrize("setup", [dict(band_bins=53), dict(delay=700)])
def test_grid_too_short_for_the_exclusions(setup):
    """m - 6d < m/8 leaves too few samples between the 4d warm-up and the
    trailing 2d, whether d comes from a narrow band or is set."""
    design = make_design(beta=1.0, **setup)
    assert design.grid.n_samples - 6 * design.delay < design.grid.n_samples // 8
    with pytest.raises(ValueError, match="grid too short"):
        PllConfig(design, trials=2, seed=1)


def test_aggregate_in_lock_policy():
    """The SNR averages the slip-free trials' mse when at least two trials
    are slip-free, and every trial's otherwise."""
    base = simulate_batch(PllConfig(make_design(), trials=2, seed=2))
    assert not base.cycle_slips.any()
    slipped = [(2, 100.0, 10.0, 3), (3, 50.0, 10.0, 1)]
    cell = aggregate(trial_table(base.tolist() + slipped))
    assert cell.locked_fraction == 0.5
    assert cell.snr_empirical == pytest.approx(1.0 / np.mean(base.mse))
    only_slipped = aggregate(trial_table(slipped[:1]))
    assert only_slipped.snr_empirical == pytest.approx(0.01)
    one_locked = aggregate(trial_table(base.tolist()[:1] + slipped))
    assert one_locked.snr_empirical == pytest.approx(3.0 / (base.mse[0] + 150.0))
    assert one_locked.snr_stderr > 0.0


def test_one_slip_free_trial_is_not_the_cells_snr():
    """PM at beta = 2, Lambda = 6, seed 6161: one of 128 trials is
    slip-free, so the cell's SNR is every trial's, with a positive standard
    error, not that one trial's with an error bar of 0."""
    cell = run_cell(PllConfig(make_design(beta=2.0, lam=6.0), trials=128, seed=6161))
    assert np.count_nonzero(cell.trials.cycle_slips == 0) == 1
    assert cell.snr_empirical == 1.0 / np.mean(cell.trials.mse)
    assert cell.snr_stderr > 0.0
