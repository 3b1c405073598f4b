import numpy as np
import pytest

from oracles import carson_bandwidth, differentiate, estimate_psd
from qdemod.grids import TimeGrid
from qdemod.pll import sample_message
from qdemod.signals import (LORENTZIAN, MessageSpec, ModulationScheme, message_psd,
                            modulate, phase_response)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 4096)


def test_flat_psd_degenerate_white(grid):
    spec = MessageSpec.flat(grid, grid.n_samples)  # b = B
    vals = message_psd(spec).values
    assert np.all(vals == 1.0)


def test_flat_psd_brick_wall(grid):
    spec = MessageSpec.flat(grid, 511)  # B/b ~ 8.01; exact level B/b in band
    level = grid.bandwidth / spec.bandwidth
    vals = message_psd(spec).values
    inband = np.abs(grid.freqs) < spec.bandwidth / 2
    assert np.all(vals[inband] == pytest.approx(level, abs=1e-12))
    assert np.all(vals[~inband] == 0.0)
    assert abs(np.mean(vals) - 1.0) < 1e-10  # unit variance on the grid


def test_flat_psd_rejects_even_bin_count(grid):
    with pytest.raises(ValueError):
        MessageSpec.flat(grid, 128)


def test_lorentzian_psd_peak_and_variance(grid):
    spec = MessageSpec(grid, LORENTZIAN, grid.bandwidth / 256.0)
    vals = message_psd(spec).values
    assert abs(np.mean(vals) - 1.0) < 1e-10
    peak_nominal = 2.0 * grid.bandwidth / (np.pi * spec.bandwidth)
    # renormalisation on the finite grid shifts the peak by the truncated tail
    assert abs(vals[0] / peak_nominal - 1.0) < 0.01


def test_sample_message_deterministic(grid):
    spec = MessageSpec.flat(grid, 127)
    a = sample_message(spec, 3, [5])
    b = sample_message(spec, 3, [5])
    assert np.array_equal(a, b)
    c = sample_message(spec, 3, [6])
    assert not np.array_equal(a, c)


def test_sample_message_variance(grid):
    spec = MessageSpec.flat(grid, 511)
    n_trials = 256  # ~1e6 samples in total
    total = np.sum(np.mean(sample_message(spec, 21, range(n_trials)) ** 2, axis=1))
    assert abs(total / n_trials - 1.0) < 0.02


def test_sample_message_mean_is_small(grid):
    spec = MessageSpec.flat(grid, 511)
    means = np.mean(sample_message(spec, 4, range(64)), axis=1)
    # standard error of the mean of a B/b-correlated unit process
    n_eff = 64 * grid.n_samples / (grid.bandwidth / spec.bandwidth)
    assert abs(np.mean(means)) < 3.0 / np.sqrt(n_eff)


def test_sampled_psd_matches_spec(grid):
    spec = MessageSpec.flat(grid, 511)
    m = sample_message(spec, 8, range(8)).ravel()
    big = TimeGrid(1.0, 8 * grid.n_samples)
    dens = estimate_psd(m, big, segments=64)
    level = grid.bandwidth / spec.bandwidth
    inband = np.abs(dens.grid.freqs) < 0.8 * spec.bandwidth / 2
    assert abs(np.mean(dens.values[inband]) / level - 1.0) < 0.10


def test_phase_response_pm(grid):
    mod = ModulationScheme.pm(2.0, 127 * grid.df)
    h = phase_response(mod, grid)
    assert np.all(h == 2.0)


def test_phase_response_fm_magnitude(grid):
    b = 127 * grid.df
    mod = ModulationScheme.fm(2.0, b)
    h = phase_response(mod, grid)
    f = grid.freqs
    nz = f != 0
    # |H(f)| f = F everywhere, so |H| at the band edge equals beta
    assert np.max(np.abs(np.abs(h[nz]) * np.abs(f[nz]) - mod.deviation)) < 1e-12
    assert abs(2.0 * mod.deviation / b - mod.beta) < 1e-12
    assert h[0] == 0.0


def test_modulate_pm_identity(grid):
    spec = MessageSpec.flat(grid, 127)
    (m,) = sample_message(spec, 1, [0])
    mod = ModulationScheme.pm(1.0, spec.bandwidth)
    assert np.max(np.abs(modulate(mod, grid, m) - m)) < 1e-12


def test_modulate_pm_constant(grid):
    mod = ModulationScheme.pm(3.0, 127 * grid.df)
    out = modulate(mod, grid, np.ones(grid.n_samples))
    assert np.max(np.abs(out - 3.0)) < 1e-10


def test_modulate_linearity(grid):
    spec = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.fm(2.0, spec.bandwidth)
    m1, m2 = sample_message(spec, 2, [0, 1], drop_dc=True)
    lhs = modulate(mod, grid, m1 + m2)
    rhs = modulate(mod, grid, m1) + modulate(mod, grid, m2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_fm_round_trip_recovers_message(grid):
    spec = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.fm(2.0, spec.bandwidth)
    (m,) = sample_message(spec, 5, [0], drop_dc=True)
    phase = modulate(mod, grid, m)
    recovered = differentiate(grid, phase) / (-2.0 * np.pi * mod.deviation)
    assert np.max(np.abs(recovered - m)) < 1e-6 * np.max(np.abs(m))


def test_carson_rule():
    assert carson_bandwidth(4.0, 1e3) == pytest.approx(5e3)
    assert carson_bandwidth(0.0, 1e3) == pytest.approx(1e3)
    assert carson_bandwidth(4.0, 1e3, squeeze_bandwidth=2e3) == pytest.approx(7e3)
