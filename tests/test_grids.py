import numpy as np
import pytest

from qdemod.grids import (SampledEnvelope, TimeGrid, color_noise, differentiate,
                          differentiator_kernel, estimate_psd, periodized_differentiator,
                          periodized_sinc, reconstruct, sinc_kernel)
from qdemod.rng import stream


def test_sinc_values():
    assert sinc_kernel(0.0) == 1.0
    assert abs(sinc_kernel(1.0)) < 1e-16
    assert abs(sinc_kernel(0.5) - 2.0 / np.pi) < 1e-15


def test_sinc_kronecker_on_integers():
    n = np.array([-10**6, -37, -1, 0, 1, 2, 511, 10**6])
    vals = sinc_kernel(n.astype(float))
    expect = (n == 0).astype(float)
    assert np.max(np.abs(vals - expect)) < 1e-9


def test_differentiator_values():
    assert differentiator_kernel(0) == 0.0
    assert differentiator_kernel(1) == -1.0
    assert differentiator_kernel(-2) == -0.5


def test_differentiator_antisymmetry():
    n = np.arange(1, 2000)
    assert np.all(differentiator_kernel(-n) == -differentiator_kernel(n))


def test_periodized_differentiator_matches_partial_sums():
    m = 64
    taps = periodized_differentiator(m)
    # direct aliased sums of the infinite kernel
    for n in (1, 5, 31, 33):
        shifts = n + m * np.arange(-4000, 4001)
        approx = np.sum(differentiator_kernel(shifts))
        assert abs(taps[n] - approx) < 1e-4


def test_periodized_differentiator_is_exact_derivative():
    m = 256
    taps = np.fft.fft(periodized_differentiator(m))
    k = np.fft.fftfreq(m, 1.0 / m)
    want = 1j * 2 * np.pi * k / m
    want[m // 2] = 0.0
    assert np.max(np.abs(taps - want)) < 1e-10


def test_periodized_sinc_interpolates_tones_exactly():
    m = 128
    x = np.linspace(-0.49 * m, 0.49 * m, 57)
    # kernel sums over all aliases: check against slow partial sums
    approx = sum(sinc_kernel(x + q * m) for q in range(-3000, 3001))
    assert np.max(np.abs(periodized_sinc(x, m) - approx)) < 1e-3


def test_reconstruct_single_sample():
    g = TimeGrid(2.0, 64)
    a = np.zeros(64, complex)
    a[0] = 1.0
    env = SampledEnvelope(g, a)
    assert abs(reconstruct(env, g.times[0]) - np.sqrt(2.0)) < 1e-12
    assert abs(reconstruct(env, g.times[1])) < 1e-12


def test_reconstruct_grid_points_exact():
    g = TimeGrid(1.0, 64)
    rng = stream(5)
    a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    env = SampledEnvelope(g, a)
    vals = reconstruct(env, g.times)
    assert np.max(np.abs(vals - np.sqrt(g.bandwidth) * a)) < 1e-10


def test_reconstruct_band_limited_tone():
    g = TimeGrid(1.0, 256)
    k0 = 19
    f = k0 * g.df
    a = np.exp(2j * np.pi * f * g.times)
    env = SampledEnvelope(g, a)
    rng = stream(6)
    t = g.span * rng.uniform(0.25, 0.75, size=40)  # interior points
    got = reconstruct(env, t)
    want = np.sqrt(g.bandwidth) * np.exp(2j * np.pi * f * t)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9


def test_reconstruct_out_of_range():
    g = TimeGrid(1.0, 64)
    env = SampledEnvelope(g, np.zeros(64))
    with pytest.raises(ValueError):
        reconstruct(env, -1.0)


def test_differentiate_tone():
    g = TimeGrid(1.0, 256)
    f = 11 * g.df
    x = np.cos(2 * np.pi * f * g.times)
    dx = differentiate(g, x)
    want = -2 * np.pi * f * np.sin(2 * np.pi * f * g.times)
    assert np.max(np.abs(dx - want)) < 1e-9


def test_estimate_psd_white_flat():
    g = TimeGrid(1.0, 4096)
    x = stream(7).standard_normal(4096)
    dens = estimate_psd(x, g, segments=32)
    tol = 5.0 / np.sqrt(32)
    # segments are demeaned, so the DC bin is identically zero
    assert np.max(np.abs(dens.values[1:] - 1.0)) < tol
    assert dens.values[0] < 1e-20


def test_estimate_psd_zero_sequence():
    g = TimeGrid(1.0, 256)
    dens = estimate_psd(np.zeros(256), g, segments=4)
    assert np.all(dens.values == 0.0)


def test_estimate_psd_brick_wall_coloring():
    from qdemod.pll import sample_message
    from qdemod.signals import MessageSpec
    g = TimeGrid(1.0, 8192)
    spec = MessageSpec.flat(g, 1023)  # B/b = 8.008
    level = g.bandwidth / spec.bandwidth
    x = sample_message(spec, 11, range(4)).ravel()
    big = TimeGrid(1.0, 4 * 8192)
    dens = estimate_psd(x, big, segments=64)
    seg_grid = dens.grid
    inside = np.abs(seg_grid.freqs) < 0.8 * spec.bandwidth / 2
    outside = np.abs(seg_grid.freqs) > 1.3 * spec.bandwidth / 2
    assert abs(np.mean(dens.values[inside]) / level - 1.0) < 0.15
    assert np.mean(dens.values[outside]) < 0.05 * level


def test_color_noise_rows_alone_or_batched():
    """A batch of white rows comes out coloured bit for bit as each row alone."""
    from qdemod.signals import MessageSpec, message_psd
    g = TimeGrid(1.0, 1024)
    density = message_psd(MessageSpec.flat(g, 63))
    white = np.array([stream(3, t).standard_normal(1024) for t in range(5)])
    batch = color_noise(white, density)
    assert batch.shape == white.shape and batch.flags.c_contiguous
    assert np.array_equal(batch, [color_noise(row, density) for row in white])
    pairs = np.stack([white, white], axis=1)  # rows of a strided view, as pll colours them
    assert np.array_equal(color_noise(pairs[:, 1], density), batch)


def test_parseval_identity():
    g = TimeGrid(1.0, 1024)
    x = stream(9).standard_normal(1024) * 3.0 + 1.7
    dens = estimate_psd(x, g, segments=1)
    assert abs(dens.variance - np.var(x)) < 1e-12 * np.var(x)


def test_estimate_psd_segment_guard():
    g = TimeGrid(1.0, 64)
    with pytest.raises(ValueError):
        estimate_psd(np.zeros(64), g, segments=16)  # segment length 4 < 8


def test_grid_invariants():
    g = TimeGrid(4.0, 128)
    assert g.dt * g.bandwidth == 1.0
    with pytest.raises(ValueError):
        TimeGrid(1.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 128)
