import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdemod.grids import TimeGrid, estimate_psd
from qdemod.pll import sample_quadratures
from qdemod.qnoise import (CARRIER_FREQUENCY, COHERENT, PHASE_SQUEEZED, PLANCK,
                           SQUEEZED_Z, NoiseModel, operating_point, photon_budget,
                           resolve_lambda, squeezed_covariance_psds)
from qdemod.signals import LORENTZIAN, MessageSpec, message_psd


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 4096)


MESSAGES = st.sampled_from([
    MessageSpec.flat(TimeGrid(1.0, 4096), 127),
    MessageSpec.flat(TimeGrid(2.5, 1024), 31),
    MessageSpec(TimeGrid(1.0, 8192), LORENTZIAN, 1.0 / 256.0),
])
SQUEEZE = st.floats(0.0, 2.0)
VACUUM = NoiseModel(COHERENT, 1.0)


def test_vacuum_deterministic(grid):
    ax, ay = sample_quadratures(VACUUM, grid, 1, [2])
    bx, by = sample_quadratures(VACUUM, grid, 1, [2])
    assert np.array_equal(ax, bx) and np.array_equal(ay, by)


def test_vacuum_statistics(grid):
    x0, y0 = sample_quadratures(VACUUM, grid, 3, range(256))  # ~1e6 samples
    xs, ys, xy = np.mean(x0**2, axis=1), np.mean(y0**2, axis=1), np.mean(x0 * y0, axis=1)
    n = 256 * grid.n_samples
    assert 0.99 < np.mean(xs) < 1.01
    assert 0.99 < np.mean(ys) < 1.01
    assert abs(np.mean(xy)) < 3.0 / np.sqrt(n)


def test_vacuum_psd_flat(grid):
    x0, _ = sample_quadratures(VACUUM, grid, 4, [0])
    dens = estimate_psd(x0[0], grid, segments=32)
    assert abs(np.mean(dens.values[1:]) - 1.0) < 0.10


def test_rotation_invariance(grid):
    """Any fixed quadrature rotation of the vacuum is again white unit noise."""
    theta = 0.77
    x0, y0 = sample_quadratures(VACUUM, grid, 5, range(64))
    z = x0 * np.sin(theta) + y0 * np.cos(theta)
    second = np.mean(z**2, axis=1)
    n = 64 * grid.n_samples
    assert abs(np.mean(second) - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_squeezed_psd_values(grid):
    model = NoiseModel(SQUEEZED_Z, 1.0, 0.0, grid.bandwidth)
    s1, s2 = squeezed_covariance_psds(model, grid)
    assert np.all(s1.values == 1.0) and np.all(s2.values == 1.0)

    model = NoiseModel(SQUEEZED_Z, 1.0, 0.5, grid.bandwidth)  # B_s = B
    s1, s2 = squeezed_covariance_psds(model, grid)
    assert np.allclose(s2.values, np.exp(-1.0), atol=1e-15)

    model = NoiseModel(SQUEEZED_Z, 1.0, 1.0, grid.bandwidth / 4.0)
    s1, s2 = squeezed_covariance_psds(model, grid)
    inband = np.abs(grid.freqs) < grid.bandwidth / 8.0
    assert np.allclose(s1.values[inband], np.exp(2.0))
    assert np.allclose(s1.values[~inband], 1.0)


def test_uncertainty_floor(grid):
    model = NoiseModel(PHASE_SQUEEZED, 0.5, 1.3, grid.bandwidth / 2.0)
    s1, s2 = squeezed_covariance_psds(model, grid)
    assert np.max(np.abs(s1.values * s2.values - 1.0)) < 1e-12


def test_sample_quadratures_squeezed_variances(grid):
    model = NoiseModel(SQUEEZED_Z, 1.0, 0.5, grid.bandwidth)
    _, y0 = sample_quadratures(model, grid, 6, range(128))
    vals = np.mean(y0**2, axis=1)
    assert abs(np.mean(vals) / np.exp(-1.0) - 1.0) < 0.05


def test_sample_quadratures_r0_equals_vacuum(grid):
    """At r = 0 phase-squeezed light is the vacuum; squeezed_z light keeps
    only the record noise, the vacuum's first draw."""
    vx, vy = sample_quadratures(VACUUM, grid, 7, [3])
    model = NoiseModel(PHASE_SQUEEZED, 1.0, 0.0, grid.bandwidth)
    x0, y0 = sample_quadratures(model, grid, 7, [3])
    assert np.allclose(x0, vx, atol=1e-12)
    assert np.allclose(y0, vy, atol=1e-12)
    model = NoiseModel(SQUEEZED_Z, 1.0, 0.0, grid.bandwidth)
    x0, y0 = sample_quadratures(model, grid, 7, [3])
    assert x0 is None
    assert np.allclose(y0, vx, atol=1e-12)


def test_filtered_variance_ratio(grid):
    """Brick-wall low-pass of width b < B_s: var ratio -> exp(-4r)."""
    r = 0.8
    model = NoiseModel(PHASE_SQUEEZED, 1.0, r, grid.bandwidth / 2.0)
    mask = np.abs(grid.freqs) < grid.bandwidth / 16.0
    num, den, xnorm = 0.0, 0.0, 0.0
    for x0, y0 in zip(*sample_quadratures(model, grid, 8, range(128))):
        lx = np.fft.ifft(np.fft.fft(x0) * mask).real
        ly = np.fft.ifft(np.fft.fft(y0) * mask).real
        num += np.mean(ly**2)
        den += np.mean(lx**2)
    ratio = num / den
    assert abs(ratio / np.exp(-4.0 * r) - 1.0) < 0.10
    # and the filtered antisqueezed variance is (b/B) e^{2r}
    frac = np.mean(mask)
    assert abs(den / 128 / (frac * np.exp(2 * r)) - 1.0) < 0.10


def test_disjoint_trials_uncorrelated(grid):
    x0, _ = sample_quadratures(VACUUM, grid, 9, [0, 1])
    corr = np.mean(x0[0] * x0[1])
    assert abs(corr) < 3.0 / np.sqrt(grid.n_samples)


@settings(max_examples=60, deadline=None)
@given(MESSAGES, SQUEEZE, st.floats(0.05, 20.0))
def test_photon_budget_consistency_with_lambda(msg, r, alpha):
    """N from (|alpha|, r) with B_s = b gives |alpha| and its Lambda back, and
    that |alpha| gives N back, for flat and Lorentzian messages alike."""
    budget = (msg.grid.bandwidth, msg.bandwidth, msg.bandwidth)
    _, n = photon_budget(alpha, r, *budget)
    got, lam = operating_point(msg, r, n_photon=n)
    assert got == pytest.approx(alpha, rel=1e-9)
    assert photon_budget(got, r, *budget)[1] == pytest.approx(n, rel=1e-12)
    s_m_at_0 = message_psd(msg).values[0]
    assert lam == pytest.approx(4.0 * alpha**2 * s_m_at_0 * np.exp(2.0 * r), rel=1e-9)


def test_photon_budget():
    hf0 = PLANCK * CARRIER_FREQUENCY
    p, n = photon_budget(2.0, 0.0, bandwidth=1e6, squeeze_bandwidth=1e3,
                         message_bandwidth=1e3)
    assert p == pytest.approx(hf0 * 1e6 * 4.0, rel=1e-12)
    p2, _ = photon_budget(0.0, 1.0, bandwidth=1e6, squeeze_bandwidth=1e3,
                          message_bandwidth=1e3)
    assert p2 == pytest.approx(hf0 * 1e3 * np.sinh(1.0) ** 2, rel=1e-12)


def test_lambda_parameter_coherent(grid):
    # N = 10 photons per 1/b: |alpha|^2 = N b / B and Lambda = 4 N
    msg = MessageSpec.flat(grid, 127)
    alpha, lam = operating_point(msg, n_photon=10.0)
    assert lam == 40.0
    assert alpha**2 == pytest.approx(10.0 * msg.bandwidth / grid.bandwidth, rel=1e-12)


def test_lambda_parameter_squeezed_budget():
    e2r = 21.0
    r = 0.5 * np.log(e2r)
    lam = resolve_lambda(r, n_photon=10.0)
    assert lam == pytest.approx(4.0 * (10.0 - np.sinh(r) ** 2) * e2r, rel=1e-12)
    assert lam == pytest.approx(440.0, rel=1e-6)


def test_lambda_parameter_r0_reduces():
    assert resolve_lambda(0.0, n_photon=10.0) == pytest.approx(40.0)
    assert resolve_lambda(0.5, lam=7.0, n_photon=10.0) == 7.0  # Lambda wins


def test_lambda_parameter_infeasible_budget(grid):
    msg = MessageSpec.flat(grid, 127)
    lorentz = MessageSpec(grid, LORENTZIAN, grid.bandwidth / 256.0)  # N sizes |alpha| directly
    for message in (msg, lorentz):
        with pytest.raises(ValueError, match="photon budget too small"):
            operating_point(message, r=3.0, n_photon=10.0)  # sinh^2(3) ~ 100 > 10
    with pytest.raises(ValueError, match="need lambda or n_photon"):
        operating_point(msg, r=0.5)
    for bad in (np.nan, 0.0):
        with pytest.raises(ValueError, match="n_photon must be finite and positive"):
            operating_point(lorentz, n_photon=bad)


@settings(max_examples=60, deadline=None)
@given(MESSAGES, SQUEEZE, st.floats(1e-3, 1e6))
def test_operating_point_realises_lambda(msg, r, lam):
    alpha, got = operating_point(msg, r, lam=lam)
    assert got == lam
    s_m_at_0 = message_psd(msg).values[0]
    assert 4.0 * alpha**2 * s_m_at_0 / np.exp(-2.0 * r) == pytest.approx(lam, rel=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(COHERENT, 1.0, r=0.3)
    with pytest.raises(ValueError):
        NoiseModel(SQUEEZED_Z, 1.0, 0.3)  # missing squeeze bandwidth
    with pytest.raises(ValueError):
        NoiseModel("thermal", 1.0)
    for bad in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="r must be finite and nonnegative"):
            NoiseModel(SQUEEZED_Z, 1.0, bad, 1.0)
        with pytest.raises(ValueError, match="r must be finite and nonnegative"):
            operating_point(MessageSpec.flat(TimeGrid(1.0, 4096), 127), bad, lam=100.0)
