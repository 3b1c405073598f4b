import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import both_kernels
from oracles import (anticausal_energy_fraction, causal_part_solution,
                     linearized_map_estimate, nonlinear_map_fixed_point,
                     spectral_factorize)
from qdemod import wiener
from qdemod.cli import cli_main
from qdemod.grids import TimeGrid
from qdemod.limits import irreducible_error
from qdemod.pll import sample_message, sample_quadratures, tracking_taps
from qdemod.qnoise import (COHERENT, SQUEEZED_Z, NoiseModel, operating_point,
                           resolve_lambda)
from qdemod.rng import stream
from qdemod.signals import (LORENTZIAN, MessageSpec, ModulationScheme,
                            message_psd, modulate)
from qdemod.wiener import (FactorizationError, FilterKernel, LoopInstabilityError,
                           closed_loop_filter, design_loop, dump_design,
                           loop_and_postloop, optimum_filter,
                           solve_normal_equations, wiener_hopf_residual)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 4096)


@pytest.fixture(scope="module")
def pm_design(grid):
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(2.0, msg.bandwidth)
    alpha, _ = operating_point(msg, lam=100.0)
    return design_loop(msg, mod, alpha, NoiseModel(COHERENT, alpha))


@pytest.fixture(scope="module")
def lorentz_design():
    g = TimeGrid(1.0, 8192)
    msg = MessageSpec(g, LORENTZIAN, g.bandwidth / 256.0)
    mod = ModulationScheme.pm(0.5, msg.bandwidth)
    alpha, _ = operating_point(msg, n_photon=300.0)
    return design_loop(msg, mod, alpha, NoiseModel(COHERENT, alpha))


def test_optimum_filter_flat_pm(grid, pm_design):
    inband = np.abs(grid.freqs) < pm_design.message.bandwidth / 2
    g = pm_design.g.response
    assert np.allclose(g[inband].real, 200.0 / 401.0, atol=1e-12)
    assert np.allclose(g[inband].imag, 0.0, atol=1e-15)
    assert np.all(g[~inband] == 0.0)


def test_optimum_filter_dark_input(grid):
    s_m = message_psd(MessageSpec.flat(grid, 127)).values
    h = np.full(grid.n_samples, 2.0, complex)
    g = optimum_filter(s_m, h, 0.0, np.ones(grid.n_samples), grid)
    assert np.all(g.response == 0.0)


def test_optimum_filter_squeezed_form(grid):
    """In-band G = Lambda e^{2r} beta / (Lambda e^{2r} beta^2 + 1)."""
    msg = MessageSpec.flat(grid, 127)
    beta, lam, r = 2.0, 100.0, 0.3
    s_m = message_psd(msg).values
    fa2 = lam * msg.bandwidth / grid.bandwidth  # coherent-Lambda normalisation
    s2 = np.where(np.abs(grid.freqs) < msg.bandwidth / 2, np.exp(-2 * r), 1.0)
    h = np.full(grid.n_samples, beta, complex)
    g = optimum_filter(s_m, h, fa2, s2, grid)
    inband = np.abs(grid.freqs) < msg.bandwidth / 2
    want = lam * np.exp(2 * r) * beta / (lam * np.exp(2 * r) * beta**2 + 1.0)
    assert np.allclose(g.response[inband].real, want, rtol=1e-12)


def test_spectral_factorize_white(grid):
    x = spectral_factorize(np.full(grid.n_samples, 4.0), grid)
    assert np.allclose(x.response, 2.0, atol=1e-9)


def test_spectral_factorize_recovers_known_taps(grid):
    taps = np.zeros(grid.n_samples)
    taps[0], taps[1] = 1.0, 0.5
    u = np.abs(np.fft.fft(taps)) ** 2
    x = spectral_factorize(u, grid)
    got = np.fft.ifft(x.response).real
    assert abs(got[0] - 1.0) < 1e-8 and abs(got[1] - 0.5) < 1e-8
    assert np.max(np.abs(got[2:])) < 1e-8


def test_spectral_factorize_smooth_roundtrip(grid):
    rng = stream(13)
    k = np.fft.fftfreq(grid.n_samples, grid.dt)
    logu = np.zeros(grid.n_samples)
    for mode in range(1, 6):  # smooth positive spectrum
        logu += rng.normal() * np.cos(2 * np.pi * mode * k / grid.bandwidth)
    u = np.exp(logu)
    x = spectral_factorize(u, grid)
    assert np.max(np.abs(np.abs(x.response) ** 2 - u) / u) < 1e-8
    assert anticausal_energy_fraction(x.response) < 1e-8


def test_spectral_factorize_reconstruction_brick_wall(pm_design, grid):
    x = spectral_factorize(pm_design.u, grid)
    assert np.max(np.abs(np.abs(x.response) ** 2 - pm_design.u) / pm_design.u) < 1e-8
    # brick-wall factors are Gibbs-limited in causality (documented deviation)
    assert anticausal_energy_fraction(x.response) < 2e-2


def test_spectral_factorize_zero_spectrum(grid):
    with pytest.raises(FactorizationError):
        spectral_factorize(np.zeros(grid.n_samples), grid)


def test_closed_loop_zero_signal(grid):
    u = np.ones(grid.n_samples)
    lp = closed_loop_filter(u, np.zeros(grid.n_samples), grid)
    assert np.max(np.abs(lp.response)) < 1e-14


def test_closed_loop_white_allpass(grid):
    u = np.full(grid.n_samples, 3.0)
    lp = closed_loop_filter(u, u, grid)
    assert np.allclose(lp.response, 1.0, atol=1e-10)


def test_closed_loop_brick_wall_residual(pm_design):
    assert pm_design.wh_residual < 1e-6
    # the causal-constrained optimum on a brick wall rings (Gibbs ~ x2);
    # the |L'| <= 1 bound of the smooth theory holds only out of the ring
    assert np.max(np.abs(pm_design.l_prime.response)) < 2.2
    # its anticausal taps are zero before the FFT: energy at rounding level
    assert anticausal_energy_fraction(pm_design.l_prime.response) < 1e-28


def test_closed_loop_smooth_residual_and_gain(lorentz_design):
    assert lorentz_design.wh_residual < 1e-6
    assert np.max(np.abs(lorentz_design.l_prime.response)) <= 1.0 + 1e-9


def test_causal_part_solution_matches_on_smooth(lorentz_design):
    d = lorentz_design
    cp = causal_part_solution(d.u, d.v, d.grid)
    assert wiener_hopf_residual(cp.response, d.u, d.v) < 1e-6
    assert np.max(np.abs(cp.response - d.l_prime.response)) < 1e-8


def test_loop_consistency_identities(pm_design, lorentz_design):
    for d in (pm_design, lorentz_design):
        g = d.grid
        shift = np.exp(2j * np.pi * g.freqs * d.delay * g.dt)
        recon = d.l_post.response * d.l_prime.response * shift
        assert np.max(np.abs(recon - d.g.response)) < 1e-8
        assert np.max(np.abs(d.g_delayed.response * shift - d.g.response)) < 1e-8
        assert np.max(np.abs(d.l_post.response * d.l_prime.response
                             - d.g_delayed.response)) < 1e-8
        lp = 2.0 * (d.two_alpha / 2.0) * d.l_loop.response
        recon2 = lp / (1.0 + lp)
        assert np.max(np.abs(recon2 - d.l_prime.response)) < 1e-8


def test_postloop_anticausality(pm_design, lorentz_design):
    # smooth spectra meet the 1e-4 target at the default delay; brick walls
    # are Gibbs-limited to ~1e-2 (documented deviation)
    assert anticausal_energy_fraction(lorentz_design.l_post.response) < 1e-4
    assert anticausal_energy_fraction(pm_design.l_post.response) < 1e-2


def test_filter_kernel_apply_is_the_complex_fft_filter(grid, pm_design, lorentz_design):
    """FilterKernel.apply, by real FFTs, gives ifft(fft(x) H).real to 1e-12
    of max|x| for every filter of a PM, an FM, a squeezed_z and a Lorentzian
    design, whose taps are real; on a (3, m) batch, each row has the same
    bits as when filtered alone."""
    msg = MessageSpec.flat(grid, 127)
    alpha, _ = operating_point(msg, lam=100.0)
    fm = design_loop(msg, ModulationScheme.fm(1.5, msg.bandwidth), alpha,
                     NoiseModel(COHERENT, alpha))
    alpha, _ = operating_point(msg, 0.8, n_photon=10.0)
    squeezed = design_loop(msg, ModulationScheme.pm(1.0, msg.bandwidth), alpha,
                           NoiseModel(SQUEEZED_Z, alpha, 0.8, msg.bandwidth))
    for d in (pm_design, fm, squeezed, lorentz_design):
        x = np.random.default_rng(d.grid.n_samples).standard_normal((3, d.grid.n_samples))
        for kernel in (d.g, d.l_prime, d.l_loop, d.l_post, d.g_delayed):
            got = kernel.apply(x)
            want = np.fft.ifft(np.fft.fft(x, axis=-1) * kernel.response, axis=-1).real
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))
            assert all(np.array_equal(kernel.apply(x[row]), got[row]) for row in range(3))


def test_loop_instability_guard(grid):
    resp = np.full(grid.n_samples, 0.5, complex)
    resp[7] = 1.0 - 1e-9
    bad = FilterKernel(grid, resp)
    g = FilterKernel(grid, np.full(grid.n_samples, 0.2, complex))
    with pytest.raises(LoopInstabilityError):
        loop_and_postloop(bad, g, 1.0, 8)


def test_linearized_map_zero_input(pm_design, grid):
    assert np.all(linearized_map_estimate(pm_design, np.zeros(grid.n_samples)) == 0.0)


def test_linearized_map_full_noise_error(pm_design, grid):
    """Ideal-record MSE matches the irreducible error within Monte Carlo noise."""
    msg = pm_design.message
    total, n_trials = 0.0, 32
    for t, m in enumerate(sample_message(msg, 31, range(n_trials))):
        z = stream(31, t, 1).standard_normal(grid.n_samples)
        phi = pm_design.mod.beta * m + z / pm_design.two_alpha
        m_hat = linearized_map_estimate(pm_design, phi)
        total += np.mean((m_hat - m) ** 2)
    assert abs(total / n_trials * 401.0 - 1.0) < 0.10


def test_error_monotone_in_lambda(grid):
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(1.0, msg.bandwidth)
    prev = np.inf
    for lam in (3.0, 10.0, 30.0, 100.0, 300.0, 1000.0):
        alpha, _ = operating_point(msg, lam=lam)
        d = design_loop(msg, mod, alpha, NoiseModel(COHERENT, alpha))
        err = irreducible_error(d.s_m, d.h, d.four_alpha_sq, d.s2.values)
        assert err < prev
        prev = err


def test_nonlinear_map_noiseless_zero_message(grid):
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(2.0, msg.bandwidth)
    two_alpha = 1.5
    a = np.full(grid.n_samples, two_alpha / 2.0, complex)  # m = 0, no noise
    est, iters = nonlinear_map_fixed_point(msg, mod, two_alpha, a,
                                           init=np.zeros(grid.n_samples))
    assert iters == 1
    assert np.max(np.abs(est)) < 1e-12


def test_nonlinear_map_agrees_with_linear(grid):
    """Small-noise regime: the converged fixed point tracks the linear MAP."""
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(1.0, msg.bandwidth)
    lam = 400.0
    alpha, _ = operating_point(msg, lam=lam)
    d = design_loop(msg, mod, alpha, NoiseModel(COHERENT, alpha))
    (m,) = sample_message(msg, 41, [0])
    (x0,), (y0,) = sample_quadratures(NoiseModel(COHERENT, alpha), grid, 41, [0])
    phibar = modulate(mod, grid, m)
    a = np.exp(1j * phibar) * (alpha + (x0 + 1j * y0) / 2.0)
    est, _ = nonlinear_map_fixed_point(msg, mod, 2.0 * alpha, a)
    lin = linearized_map_estimate(d, phibar + (x0 * 0 + y0) / (2.0 * alpha))
    err_norm = np.linalg.norm(lin - m)
    assert np.linalg.norm(est - lin) < 0.10 * err_norm


def test_nonlinear_map_aliased_basin(grid):
    """A far initialisation with large beta converges to a 2 pi shifted branch."""
    msg = MessageSpec.flat(grid, 127)
    beta = 8.0
    mod = ModulationScheme.pm(beta, msg.bandwidth)
    lam = 400.0
    alpha, _ = operating_point(msg, lam=lam)
    (m,) = sample_message(msg, 43, [0])
    a = np.exp(1j * beta * m) * alpha  # noiseless record
    good, _ = nonlinear_map_fixed_point(msg, mod, 2 * alpha, a, init=m.copy())
    bad_init = m - 2.0 * np.pi / beta
    aliased, _ = nonlinear_map_fixed_point(msg, mod, 2 * alpha, a, init=bad_init)
    # residual comparison detects the alias: its message error is ~ 2 pi / beta
    assert np.linalg.norm(good - m) < 0.05 * np.linalg.norm(aliased - m)
    mean_offset = np.mean(aliased - m)
    assert abs(mean_offset + 2.0 * np.pi / beta) < 0.25 * 2.0 * np.pi / beta


def test_squeezed_design_uses_s2(grid):
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(1.0, msg.bandwidth)
    r = 0.5
    noise = NoiseModel(SQUEEZED_Z, 0.3, r, msg.bandwidth)
    d = design_loop(msg, mod, 0.3, noise)
    inband = np.abs(grid.freqs) < msg.bandwidth / 2
    assert np.allclose(d.s2.values[inband], np.exp(-2 * r))
    assert np.allclose(d.s2.values[~inband], 1.0)
    assert d.wh_residual < 1e-6


def test_design_loop_rejects_a_light_of_another_amplitude(grid):
    """The design's |alpha| and its light's must agree: a design at
    |alpha| = 1 cannot carry light of |alpha| = 2."""
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme.pm(1.0, msg.bandwidth)
    with pytest.raises(ValueError, match="differs from alpha_mag"):
        design_loop(msg, mod, 1.0, NoiseModel(COHERENT, 2.0))
    with pytest.raises(ValueError, match="differs from alpha_mag"):
        design_loop(msg, mod, 1.0, NoiseModel(SQUEEZED_Z, 2.0, 0.5, msg.bandwidth))
    assert design_loop(msg, mod, 2.0, NoiseModel(COHERENT, 2.0)).two_alpha == 4.0


def assert_dump_matches_oracle(design, oracle, tmp_path):
    dump_design(design, tmp_path / "design.txt")
    oracle(design, tmp_path / "oracle.txt")
    assert (tmp_path / "design.txt").read_bytes() == (tmp_path / "oracle.txt").read_bytes()


def test_dump_design_roundtrip(tmp_path, pm_design):
    path = tmp_path / "design.txt"
    dump_design(pm_design, path)
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    n = pm_design.grid.n_samples
    assert len(rows) == n
    table = np.array([ln.split() for ln in rows], dtype=float)
    assert np.array_equal(table[:, 0], np.arange(n))
    assert np.allclose(table[:, 1], pm_design.grid.freqs, rtol=1e-9, atol=0.0)
    responses = np.stack([pm_design.g.response, pm_design.l_prime.response,
                          pm_design.l_loop.response, pm_design.l_post.response], axis=1)
    assert np.array_equal(table[:, 2:], responses.view(float))


@pytest.mark.parametrize("kind", ["pm", "fm"])
@pytest.mark.parametrize("r", [0.0, 0.8])
@pytest.mark.parametrize("n, band_bins", [(4096, 127), (64, 7)])  # 64 < one block
def test_dump_design_bytes_match_row_writer(kind, r, n, band_bins, tmp_path,
                                            design_dump_oracle):
    msg = MessageSpec.flat(TimeGrid(1.0, n), band_bins)
    mod = ModulationScheme(kind, 1.5, msg.bandwidth)
    if r == 0.0:
        alpha, _ = operating_point(msg, lam=100.0)
        noise = NoiseModel(COHERENT, alpha)
    else:
        alpha, _ = operating_point(msg, r, n_photon=10.0)
        noise = NoiseModel(SQUEEZED_Z, alpha, r, msg.bandwidth)
    assert_dump_matches_oracle(design_loop(msg, mod, alpha, noise), design_dump_oracle,
                               tmp_path)


def test_dump_design_bytes_special_values(tmp_path, pm_design, design_dump_oracle):
    grid = pm_design.grid
    special = np.array([-0.0, 5e-324, 1e-300, 1e300, np.nan, -np.nan, -1e300, 0.0, -5e-324])
    response = np.resize(special, 2 * grid.n_samples).view(complex)
    design = dataclasses.replace(
        pm_design, g=FilterKernel(grid, response), l_post=FilterKernel(grid, response[::-1]))
    assert_dump_matches_oracle(design, design_dump_oracle, tmp_path)


def normal_systems(kind, r):
    """A design at n = 4096 and the (column, rhs) of its two normal-equation
    systems: L' and the one-step prediction of pll.tracking_taps(design, 1)."""
    grid = TimeGrid(1.0, 4096)
    msg = MessageSpec.flat(grid, 127)
    mod = ModulationScheme(kind, 2.0, msg.bandwidth)
    lam = 100.0 if r == 0 else resolve_lambda(r, n_photon=10.0)
    alpha, _ = operating_point(msg, r, lam)
    noise = (NoiseModel(COHERENT, alpha) if r == 0
             else NoiseModel(SQUEEZED_Z, alpha, r, msg.bandwidth))
    design = design_loop(msg, mod, alpha, noise)
    ut = np.fft.ifft(design.u).real
    vt = np.fft.ifft(design.v).real
    half = grid.n_samples // 2
    return design, [(ut[:half], vt[:half]), (ut[:half - 1], vt[1:half])]


@pytest.mark.parametrize("r", [0.0, 1.0])
@pytest.mark.parametrize("kind", ["pm", "fm"])
def test_levinson_paths_equal_solve_toeplitz(kind, r):
    """The compiled solve, its numpy twin and scipy's solve_toeplitz give the
    same bits on both normal-equation systems of PM and FM, coherent and
    squeezed designs, and the design and the tracker taps carry them."""
    linalg = pytest.importorskip("scipy.linalg")
    design, systems = normal_systems(kind, r)
    want = [linalg.solve_toeplitz((c, c), b) for c, b in systems]
    for solve in (kernel.levinson for kernel in both_kernels()):
        for (c, b), x in zip(systems, want):
            assert np.array_equal(solve(c, b), x)
    taps = np.zeros(design.grid.n_samples)
    taps[: want[0].size] = want[0]
    assert np.array_equal(design.l_prime.response, np.fft.fft(taps))
    assert np.array_equal(tracking_taps(design, 1), np.r_[0.0, want[1]])


@pytest.mark.parametrize("c,b", [([2.0], [3.0]), ([2.0, -0.5], [1.0, 4.0]),
                                 ([1e-3, 7.0], [0.0, 1.0])])
def test_levinson_shortest_systems(c, b):
    """n = 1 and n = 2 (the n = 2 system indefinite or not) on every path."""
    linalg = pytest.importorskip("scipy.linalg")
    c, b = np.array(c), np.array(b)
    want = linalg.solve_toeplitz((c, c), b)
    for solve in (kernel.levinson for kernel in both_kernels()):
        assert np.array_equal(solve(c, b), want)


@pytest.mark.parametrize("c", [[0.0, 1.0, 0.5], [1.0, 1.0, 0.5], [2.0, 0.0, 2.0, 1.0]])
def test_singular_leading_minor_raises_linalg_error(c):
    """A zero c[0], or a zero denominator later in the recursion (the 2x2
    and, with c[1] = 0, the 3x3 leading minors singular), raises
    LinAlgError on every path, as scipy's recursion does."""
    c = np.array(c)
    for solve in (kernel.levinson for kernel in both_kernels()):
        with pytest.raises(np.linalg.LinAlgError):
            solve(c, np.ones(c.size))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["ut", "rhs"])
def test_non_finite_normal_equations_raise_value_error(request, which, bad):
    """Non-finite input is refused before either path runs."""
    ut, rhs = np.array([2.0, 0.5, 0.1, 9.0]), np.array([1.0, 2.0, 3.0])
    {"ut": ut, "rhs": rhs}[which][1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_normal_equations(ut, rhs)
    request.getfixturevalue("no_kernel")
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_normal_equations(ut, rhs)


def test_overflowing_solve_raises_factorization_error(request):
    """Taps that overflow (x = 1e300 / 1e-300) raise FactorizationError
    naming the Levinson solve on both paths, and warn of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FactorizationError, match="Levinson solve"):
            solve_normal_equations([1e-300, 0.0], [1e300])
        request.getfixturevalue("no_kernel")
        with pytest.raises(FactorizationError, match="Levinson solve"):
            solve_normal_equations([1e-300, 0.0], [1e300])


def test_solve_uses_only_the_taps_it_needs(request):
    """Taps of ut beyond rhs.size are not part of the system."""
    ut, rhs = np.array([2.0, 0.5, 0.1, np.nan]), np.array([1.0, 2.0, 3.0])
    got = solve_normal_equations(ut, rhs)
    request.getfixturevalue("no_kernel")
    assert np.array_equal(solve_normal_equations(ut, rhs), got)
    assert np.allclose(np.array([[2.0, 0.5, 0.1], [0.5, 2.0, 0.5], [0.1, 0.5, 2.0]]) @ got,
                       rhs, rtol=1e-14, atol=0)


@pytest.mark.parametrize("compiled", [True, False])
def test_cli_singular_design_exits_3(tmp_path, monkeypatch, capsys, request, compiled):
    """A singular normal-equation system is a numerical failure (exit 3) on
    both paths."""
    if not compiled:
        request.getfixturevalue("no_kernel")
    solve = wiener.solve_normal_equations
    monkeypatch.setattr(wiener, "solve_normal_equations",
                        lambda ut, rhs: solve(np.zeros_like(ut), rhs))
    cfg = tmp_path / "design.cfg"
    cfg.write_text("n_samples = 2048\nband_bins = 63\nbeta = 1.0\nlambda = 100\n")
    assert cli_main(["design", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "Singular principal minor" in capsys.readouterr().err


def test_import_loads_no_scipy_and_builds_nothing():
    """Importing the CLI imports no scipy module and neither builds nor
    loads the compiled library."""
    code = ("import sys, qdemod.cli\n"
            "from qdemod import _tracker\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print(_tracker.describe())\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "not run"]
