import numpy as np
import pytest

from qdemod.grids import TimeGrid
from qdemod.limits import (FM, HEISENBERG, LOG_BOUND, PM, SQL, LimitQuery,
                           closed_form_snr, irreducible_error, lorentzian_pm_snr,
                           optimal_squeeze, quantum_limit_snr, sigma0, sigma0_grid,
                           snr_asymptote, threshold_check)
from qdemod.signals import LORENTZIAN, MessageSpec, ModulationScheme, message_psd, phase_response


def test_closed_form_pm():
    sigma2, snr = closed_form_snr(PM, 2.0, 100.0)
    assert sigma2 == pytest.approx(1.0 / 401.0, rel=1e-12)
    assert sigma2 == pytest.approx(2.4938e-3, rel=1e-4)
    assert snr == pytest.approx(401.0, rel=1e-12)


def test_closed_form_fm_unit_argument():
    sigma2, _ = closed_form_snr(FM, 1.0, 1.0)
    assert sigma2 == pytest.approx(1.0 - np.pi / 4.0, rel=1e-12)


@pytest.mark.parametrize("x", [1e16, 1e300])
def test_closed_form_fm_keeps_its_digits_at_large_argument(x):
    """Far above x = beta^2 Lambda = 1e4, sigma^2 is 1/(3x) - 1/(5x^2) to
    1e-12 relative (the next term is 1/(7x^3)), and the SNR is finite."""
    sigma2, snr = closed_form_snr(FM, 1.0, x)
    y2 = 1.0 / x
    assert sigma2 == pytest.approx(y2 / 3.0 - y2**2 / 5.0, rel=1e-12, abs=0)
    assert np.isfinite(snr)


def test_closed_form_fm_branches_meet_at_1e4():
    """The closed form at x = 1e4 and the series just above it agree to 1e-11."""
    below, _ = closed_form_snr(FM, 1.0, 1e4)
    above, _ = closed_form_snr(FM, 1.0, np.nextafter(1e4, np.inf))
    assert above == pytest.approx(below, rel=1e-11, abs=0)


def test_fm_advantage_approaches_three():
    for b2l in (1e4, 1e6, 1e8):
        _, snr_pm = closed_form_snr(PM, 1.0, b2l)
        _, snr_fm = closed_form_snr(FM, 1.0, b2l)
        assert abs(snr_fm / snr_pm - 3.0) < 30.0 / np.sqrt(b2l)
    assert snr_asymptote(FM, 2.0, 50.0) == 3.0 * snr_asymptote(PM, 2.0, 50.0)


def test_fm_never_below_pm():
    for beta in (0.3, 1.0, 2.0, 5.0):
        for lam in (1.0, 10.0, 100.0, 1e4):
            _, snr_pm = closed_form_snr(PM, beta, lam)
            _, snr_fm = closed_form_snr(FM, beta, lam)
            assert snr_fm >= snr_pm


def test_quantum_limits():
    assert quantum_limit_snr(SQL, 10.0, 1.0, PM) == pytest.approx(40.0)
    assert quantum_limit_snr(HEISENBERG, 10.0, 1.0, PM) == pytest.approx(440.0)
    assert quantum_limit_snr(SQL, 10.0, 1.0, FM) == pytest.approx(120.0)
    assert quantum_limit_snr(LOG_BOUND, 10.0, 1.0, PM) == pytest.approx(
        800.0 / np.log(10.0))
    assert quantum_limit_snr(LOG_BOUND, 10.0, 1.0, FM) == pytest.approx(
        2400.0 / np.log(10.0))
    # squares that overflow give inf, not OverflowError
    assert quantum_limit_snr(LOG_BOUND, 1e200, 1.0, PM) == np.inf
    assert quantum_limit_snr(SQL, 10.0, 1e200, FM) == np.inf


def test_heisenberg_over_sql_ratio():
    for n in (0.1, 1.0, 7.0, 100.0):
        ratio = quantum_limit_snr(HEISENBERG, n, 2.0, PM) / quantum_limit_snr(SQL, n, 2.0, PM)
        assert ratio == pytest.approx(n + 1.0, rel=1e-12)
        assert ratio >= 1.0


def test_log_bound_domain():
    with pytest.raises(ValueError):
        quantum_limit_snr(LOG_BOUND, 1.0, 1.0, PM)


def test_optimal_squeeze():
    e2r, r = optimal_squeeze(10.0)
    assert e2r == pytest.approx(21.0)
    assert np.exp(2 * r) == pytest.approx(21.0)
    assert optimal_squeeze(0.0) == (1.0, 0.0)
    # plugging the optimum into the budgeted Lambda hits the Heisenberg SNR
    n = 10.0
    lam = 4.0 * (n - np.sinh(r) ** 2) * e2r
    assert lam == pytest.approx(quantum_limit_snr(HEISENBERG, n, 1.0, PM), rel=1e-12)


def test_lorentzian_snr_form():
    assert lorentzian_pm_snr(100.0, 1.0) == pytest.approx(
        np.sqrt(800.0 / np.pi + 1.0), rel=1e-12)


def test_sigma0_closed_forms():
    assert sigma0(PM, 2.0, 100.0) == pytest.approx(np.log(401.0) / 100.0, rel=1e-12)
    assert sigma0(PM, 2.0, 100.0) == pytest.approx(0.05994, abs=2e-5)
    want_fm = (np.log(401.0) + 40.0 * np.arctan(0.05)) / 100.0
    assert sigma0(FM, 2.0, 100.0) == pytest.approx(want_fm, rel=1e-12)
    assert sigma0(FM, 2.0, 100.0) == pytest.approx(0.07993, abs=2e-5)
    assert sigma0(PM, 2.0, 1e9) < 1e-6  # vanishes at large Lambda


def test_sigma0_monotonicity():
    lams = (3.0, 10.0, 30.0, 100.0, 300.0)
    for kind in (PM, FM):
        vals = [sigma0(kind, 1.0, lam) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        betas = (0.2, 0.5, 1.0, 2.0, 4.0)
        vals_b = [sigma0(kind, b, 100.0) for b in betas]
        assert all(a < b for a, b in zip(vals_b, vals_b[1:]))


def test_threshold_check_examples():
    lhs, ok = threshold_check(sigma0(PM, 2.0, 100.0))
    assert lhs == pytest.approx(0.0599, abs=1e-4)
    assert ok
    # phase-squeezed at N = 25, r = 0.5: Lambda from the photon budget
    r = 0.5
    lam = 4.0 * (25.0 - np.sinh(r) ** 2) * np.exp(2 * r)
    lhs2, ok2 = threshold_check(sigma0(PM, 2.0, lam), r=r)
    want = np.exp(2.0) * np.log1p(4.0 * lam) / lam
    assert lhs2 == pytest.approx(want, rel=1e-12)
    assert ok2 == (want <= 0.25)
    # r = 0 reduces to the coherent constraint
    s0 = sigma0(PM, 2.0, 100.0)
    assert threshold_check(s0, r=0.0) == threshold_check(s0) == (s0, True)


def test_irreducible_error_dark():
    grid = TimeGrid(1.0, 1024)
    msg = MessageSpec.flat(grid, 31)
    s_m = message_psd(msg).values
    h = np.full(1024, 2.0, complex)
    assert irreducible_error(s_m, h, 0.0, np.ones(1024)) == pytest.approx(1.0, rel=1e-12)


def test_irreducible_error_flat_pm_exact():
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 127)
    for beta, lam in ((0.5, 30.0), (2.0, 100.0), (1.0, 300.0)):
        s_m = message_psd(msg).values
        h = np.full(grid.n_samples, beta, complex)
        fa2 = lam * msg.bandwidth / grid.bandwidth
        err = irreducible_error(s_m, h, fa2, np.ones(grid.n_samples))
        want, _ = closed_form_snr(PM, beta, lam)
        assert abs(err - want) < 1e-10 * want


def test_irreducible_error_flat_fm_near_closed_form():
    """FM bin sums differ from the continuum integral at O((df/b)^2)."""
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 127)
    beta, lam = 2.0, 100.0
    mod = ModulationScheme.fm(beta, msg.bandwidth)
    s_m = message_psd(msg, drop_dc=True).values
    h = phase_response(mod, grid)
    fa2 = lam * msg.bandwidth / grid.bandwidth
    err = irreducible_error(s_m, h, fa2, np.ones(grid.n_samples))
    want, _ = closed_form_snr(FM, beta, lam)
    assert abs(err / want - 1.0) < 1e-3


def test_irreducible_error_lorentzian_vs_closed_form():
    grid = TimeGrid(1.0, 16384)
    msg = MessageSpec(grid, LORENTZIAN, grid.bandwidth / 256.0)
    s_m = message_psd(msg).values
    beta = 1.0
    h = np.full(grid.n_samples, beta, complex)
    for n_photon in (10.0, 30.0):
        fa2 = 4.0 * n_photon * msg.bandwidth / grid.bandwidth
        err = irreducible_error(s_m, h, fa2, np.ones(grid.n_samples))
        assert abs((1.0 / err) / lorentzian_pm_snr(n_photon, beta) - 1.0) < 0.05


def test_sigma0_grid_matches_closed_form():
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 127)
    beta, lam = 2.0, 100.0
    s_m = message_psd(msg).values
    h = np.full(grid.n_samples, beta, complex)
    fa2 = lam * msg.bandwidth / grid.bandwidth
    got = sigma0_grid(s_m, h, fa2, np.ones(grid.n_samples))
    assert got == pytest.approx(sigma0(PM, beta, lam), rel=1e-12)


def test_limit_query_tables():
    q = LimitQuery(kind=PM, beta=2.0, lam=100.0)
    table = q.evaluate()
    assert table["sigma_sq"] == pytest.approx(1.0 / 401.0, rel=1e-12)
    q2 = LimitQuery(kind=PM, beta=1.0, n_photon=10.0, r=0.5 * np.log(21.0))
    assert q2.resolved_lambda() == pytest.approx(440.0, rel=1e-9)
    with pytest.raises(ValueError):
        LimitQuery(kind=PM, beta=1.0).resolved_lambda()
