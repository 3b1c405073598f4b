import numpy as np
import pytest

from qdemod.grids import (TimeGrid, color_noise, differentiate, differentiator_kernel,
                          estimate_psd)
from qdemod.rng import stream


def test_differentiator_values():
    assert differentiator_kernel(0) == 0.0
    assert differentiator_kernel(1) == -1.0
    assert differentiator_kernel(-2) == -0.5


def test_differentiator_antisymmetry():
    n = np.arange(1, 2000)
    assert np.all(differentiator_kernel(-n) == -differentiator_kernel(n))


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


def test_color_noise_is_the_complex_fft_colouring():
    """color_noise, by real FFTs, gives ifft(fft(w) sqrt(S)).real to 1e-12 of
    max|w| for a flat, an FM drop-DC, an S1 and an S2 density on a (3, m)
    batch, and each row has the same bits as when coloured alone."""
    from qdemod.qnoise import SQUEEZED_Z, NoiseModel, squeezed_covariance_psds
    from qdemod.signals import MessageSpec, message_psd
    g = TimeGrid(1.0, 2048)
    spec = MessageSpec.flat(g, 63)
    s1, s2 = squeezed_covariance_psds(NoiseModel(SQUEEZED_Z, 10.0, 0.8, spec.bandwidth), g)
    white = np.array([stream(5, t).standard_normal(2048) for t in range(3)])
    for density in (message_psd(spec), message_psd(spec, drop_dc=True), s1, s2):
        got = color_noise(white, density)
        want = np.fft.ifft(np.fft.fft(white, axis=-1) * np.sqrt(density.values), axis=-1).real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(white))
        assert all(np.array_equal(color_noise(white[row], density), got[row])
                   for row in range(3))


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
