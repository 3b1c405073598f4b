import numpy as np
import pytest

from qdemod.grids import TimeGrid
from qdemod.limits import FM as LFM
from qdemod.limits import PM as LPM
from qdemod.limits import closed_form_snr, sigma0
from qdemod.qnoise import (COHERENT, PHASE_SQUEEZED, SQUEEZED_Z, NoiseModel,
                           operating_point, resolve_lambda, sample_vacuum)
from qdemod.pll import (LoopDivergenceError, PllConfig, aggregate,
                        cycle_slip_count, run_cell, run_trial, simulate_batch,
                        tracking_taps)
from qdemod.signals import MessageSpec, ModulationScheme, sample_message
from qdemod.wiener import design_loop, linearized_map_estimate


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
    return design_loop(msg, mod, alpha, noise, delay=delay), noise


def test_cycle_slip_count_basics():
    t = np.linspace(0.0, 1.0, 512)
    assert cycle_slip_count(np.zeros(512), np.zeros(512)) == 0
    ramp = 2.0 * np.pi * t
    assert cycle_slip_count(ramp, np.zeros(512)) == 1
    two = 4.0 * np.pi * t
    assert cycle_slip_count(two, np.zeros(512)) == 2
    # boundary jitter is debounced
    jitter = np.pi + 0.3 * np.sin(40 * np.pi * t)
    assert cycle_slip_count(jitter, np.zeros(512)) == 0


def assert_trial_deterministic(cfg):
    a = run_trial(cfg, trial=2)
    b = run_trial(cfg, trial=2)
    assert a == b  # bit-identical for identical (config, seed, batching)
    # per-trial draws do not depend on the batch; the tracker's BLAS
    # reduction order and the batch-wide Newton stop rule may differ, at
    # rounding level
    batch = simulate_batch(cfg, [0, 1, 2, 3])
    assert batch[2].mse == pytest.approx(a.mse, rel=1e-12)
    assert batch[2].sigma0_sq_empirical == pytest.approx(a.sigma0_sq_empirical, rel=1e-12)
    assert batch[2].cycle_slips == a.cycle_slips


def test_trial_results_deterministic():
    design, noise = make_design()
    assert_trial_deterministic(PllConfig(design, noise, COHERENT, trials=4, seed=11))


@pytest.mark.parametrize("variant,r", [(SQUEEZED_Z, 0.5), (PHASE_SQUEEZED, 0.25)])
def test_trial_results_deterministic_squeezed(variant, r):
    lam = resolve_lambda(r, n_photon=10.0)
    design, noise = make_design(beta=1.0, lam=lam, r=r, variant=variant)
    assert_trial_deterministic(PllConfig(design, noise, variant, trials=4, seed=11))


# Per-trial (mse, sigma0_sq_empirical, cycle_slips) of three in-lock trials
# (seed 41) on a 2048-sample grid with a 63-bin band, recorded from the
# fixed eight-step Newton closure; the converged closure must reproduce them
# to rounding level.
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
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_trial_results(case):
    setup, extra, expected = PINNED[case]
    r = setup.get("r", 0.0)
    lam = resolve_lambda(r, n_photon=10.0) if r > 0 else 100.0
    design, noise = make_design(lam=lam, n_samples=2048, band_bins=63, **setup)
    variant = setup.get("variant", COHERENT)
    cfg = PllConfig(design, noise, variant, trials=3, seed=41, **extra)
    got = [(t.mse, t.sigma0_sq_empirical, t.cycle_slips) for t in simulate_batch(cfg)]
    for (mse, s0, slips), (mse_x, s0_x, slips_x) in zip(got, expected):
        assert mse == pytest.approx(mse_x, rel=1e-12)
        assert s0 == pytest.approx(s0_x, rel=1e-12)
        assert slips == slips_x


def test_non_finite_error_is_divergence():
    design, noise = make_design(n_samples=2048, band_bins=63)
    cfg = PllConfig(design, noise, COHERENT, trials=1, seed=3)
    with pytest.raises(LoopDivergenceError):
        simulate_batch(cfg, [0], noise_scale=float("nan"))
    # open loop never diverges, but a NaN mse must not read as infinite SNR
    res = simulate_batch(cfg, [0], force_lock=True, noise_scale=float("nan"))[0]
    assert np.isnan(res.mse) and np.isnan(res.snr_empirical)


def test_snr_matches_linear_theory():
    design, noise = make_design(beta=2.0, lam=100.0)
    cfg = PllConfig(design, noise, COHERENT, trials=48, seed=5)
    cell = run_cell(cfg)
    assert cell.total_slips == 0
    assert abs(cell.snr_empirical / 401.0 - 1.0) < 0.10
    assert cell.trials[0].snr_empirical == pytest.approx(1.0 / cell.trials[0].mse)


def test_sigma0_empirical_matches_analytic():
    for kind, pred in (("pm", sigma0(LPM, 2.0, 100.0)), ("fm", sigma0(LFM, 2.0, 100.0))):
        design, noise = make_design(beta=2.0, lam=100.0, kind=kind)
        cfg = PllConfig(design, noise, COHERENT, trials=32, seed=6)
        cell = run_cell(cfg)
        assert abs(cell.sigma0_sq_empirical / pred - 1.0) < 0.15


def test_noiseless_limit_tracks_perfectly():
    design, noise = make_design(beta=1.0, lam=300.0)
    cfg = PllConfig(design, noise, COHERENT, trials=2, seed=3)
    out = simulate_batch(cfg, [0, 1], noise_scale=0.0)
    for res in out:
        assert res.snr_empirical > 1e3
        assert res.cycle_slips == 0


def test_forced_lock_equals_linearized_map():
    """Open loop with phi' pinned to phibar reproduces the MAP filter path."""
    design, noise = make_design(beta=2.0, lam=100.0)
    cfg = PllConfig(design, noise, COHERENT, trials=1, seed=9, relinearize=0)
    # the public samplers must reproduce the simulator's own draws exactly
    m = sample_message(design.message, seed=9, trial=0)
    y0 = sample_vacuum(design.grid, seed=9, trial=0).y0
    phibar = design.mod.beta * m
    phi = phibar + y0 / design.two_alpha   # z' = y0 exactly at lock
    m_hat_map = linearized_map_estimate(design, phi)
    res = simulate_batch(cfg, [0], force_lock=True)[0]
    # reproduce the trial's estimate path by hand: delayed MAP vs message
    g = design.grid
    gd = design.g.response * np.exp(-2j * np.pi * g.freqs * design.delay * g.dt)
    m_hat_delayed = np.fft.ifft(np.fft.fft(phi) * gd).real
    d = design.delay
    sel = np.arange(4 * d, g.n_samples - 2 * d)
    mse_by_hand = float(np.mean((m_hat_delayed[sel] - m[sel - d]) ** 2))
    assert res.mse == pytest.approx(mse_by_hand, rel=1e-12)
    # the delayed estimate is the circular shift of the undelayed MAP output
    assert np.max(np.abs(m_hat_delayed - np.roll(m_hat_map, d))) < 1e-10


def test_one_sample_delay_mode():
    """The delayed loop tracks with a small prediction penalty and no slips."""
    design, noise = make_design(beta=2.0, lam=100.0)
    cfg = PllConfig(design, noise, COHERENT, trials=24, seed=15, feedback_delay=1)
    cell = run_cell(cfg)
    assert cell.total_slips == 0
    assert abs(cell.snr_empirical / 401.0 - 1.0) < 0.15
    pred = sigma0(LPM, 2.0, 100.0)
    assert cell.sigma0_sq_empirical > pred  # prediction penalty is real
    assert cell.sigma0_sq_empirical < 1.3 * pred


def test_tracker_taps_shapes():
    design, _ = make_design()
    t0 = tracking_taps(design, 0)
    t1 = tracking_taps(design, 1)
    half = design.grid.n_samples // 2
    assert t0.shape == (half,) and t1.shape == (half,)
    assert t1[0] == 0.0
    assert t0[0] != 0.0


def test_below_threshold_collapse_and_slips():
    design, noise = make_design(beta=8.0, lam=4.0)  # sigma0^2 = 1.39
    cfg = PllConfig(design, noise, COHERENT, trials=12, seed=17)
    cell = run_cell(cfg)
    assert cell.seeds_with_slips == 12
    linear = closed_form_snr(LPM, 8.0, 4.0)[1]
    mse_all = float(np.mean([t.mse for t in cell.trials]))
    assert 1.0 / mse_all < 0.5 * linear


def test_squeezed_feedback_variant():
    r = 0.5
    lam = 4.0 * (10.0 - np.sinh(r) ** 2) * np.exp(2.0 * r)
    design, noise = make_design(beta=1.0, lam=lam, r=r)
    cfg = PllConfig(design, noise, SQUEEZED_Z, trials=32, seed=19)
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
    from qdemod.limits import threshold_check, PM as LPM2
    r, n_photon, beta = 0.25, 10.0, 1.0
    lam = 4.0 * (n_photon - np.sinh(r) ** 2) * np.exp(2.0 * r)
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(beta, msg.bandwidth)
    alpha, _ = operating_point(msg, r, lam)
    noise = NoiseModel(PHASE_SQUEEZED, alpha, r, msg.bandwidth)
    design = design_loop(msg, mod, alpha, noise)
    lhs, ok = threshold_check(LPM2, beta, lam, r=r)
    assert ok  # squeezing constraint satisfied at this operating point
    cell = run_cell(PllConfig(design, noise, PHASE_SQUEEZED, trials=48, seed=23))
    leak = 1.0 + cell.sigma0_sq_empirical * np.exp(4.0 * r)
    predicted = beta**2 * lam / leak + 1.0
    assert abs(cell.snr_empirical / predicted - 1.0) < 0.10
    sql_snr = 4.0 * beta**2 * n_photon + 1.0
    assert cell.snr_empirical > sql_snr  # squeezing still wins despite leakage
    assert cell.snr_empirical < lam + 1.0  # but below the leak-free ideal


def test_variant_noise_consistency():
    design, noise = make_design()
    with pytest.raises(ValueError):
        PllConfig(design, noise, SQUEEZED_Z, trials=1, seed=1)
    design_sq, noise_sq = make_design(r=0.4)
    with pytest.raises(ValueError):
        PllConfig(design_sq, noise_sq, COHERENT, trials=1, seed=1)


def test_oversampling_guard():
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 255)  # B/b = 16 < 32
    mod = ModulationScheme.pm(1.0, msg.bandwidth)
    alpha, _ = operating_point(msg, lam=100.0)
    design = design_loop(msg, mod, alpha)
    noise = NoiseModel(COHERENT, alpha)
    with pytest.raises(ValueError):
        PllConfig(design, noise, COHERENT, trials=1, seed=1)


def test_aggregate_in_lock_policy():
    design, noise = make_design()
    base = run_trial(PllConfig(design, noise, COHERENT, trials=1, seed=2))
    slipped = type(base)(seed=2, trial=1, mse=100.0, snr_empirical=0.01,
                         sigma0_sq_empirical=10.0, cycle_slips=3)
    cell = aggregate([base, slipped])
    assert cell.locked_fraction == 0.5
    assert cell.snr_empirical == pytest.approx(1.0 / base.mse)
    only_slipped = aggregate([slipped])
    assert only_slipped.snr_empirical == pytest.approx(0.01)
