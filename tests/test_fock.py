import math
import tracemalloc

import numpy as np
import pytest

from oracles import phase_mean_and_variance, phase_shift, product_state
from qdemod.fock import (DENSE_BUDGET, ModeOperator,
                         ResourceBudgetError, TruncatedState, TruncationError,
                         canonical_phase_density, coherent_coeffs, density_weight,
                         fluid_velocity_commutator_check, herm_defect,
                         instantaneous_frequency_operator,
                         pegg_barnett_commutator_residual, pegg_barnett_unitary,
                         phase_grid, phase_points, povm_resolution_check,
                         unitary_defect)


def test_coherent_vacuum():
    st = coherent_coeffs(0.0, 25)
    assert st.amplitudes[0] == 1.0
    assert np.all(st.amplitudes[1:] == 0.0)


def test_coherent_amplitudes():
    st = coherent_coeffs(1.0, 31)
    n = np.arange(32)
    fact = np.array([math.factorial(k) for k in range(32)], dtype=float)
    want = np.exp(-0.5) / np.sqrt(fact)
    assert np.max(np.abs(st.amplitudes - want)) < 1e-12
    norm_deficit = abs(np.sum(np.abs(want) ** 2) - 1.0)
    assert norm_deficit < 1e-12


def test_coherent_mean_photon_number():
    for alpha in (0.5, 1.0, 2.0):
        n_max = int(alpha**2 + 10 * alpha + 21)
        st = coherent_coeffs(alpha, n_max)
        n = np.arange(n_max + 1)
        mean = np.sum(n * np.abs(st.amplitudes) ** 2)
        assert abs(mean - alpha**2) < 1e-10


def test_coherent_tail_rule():
    with pytest.raises(TruncationError):
        coherent_coeffs(2.0, 10)


def test_vacuum_density_uniform():
    st = coherent_coeffs(0.0, 20)
    dens = canonical_phase_density(st, 8 * 21)
    assert np.max(np.abs(dens - 1.0 / (2.0 * np.pi))) < 1e-14


def test_number_state_density_uniform():
    c = np.zeros(6)
    c[3] = 1.0
    dens = canonical_phase_density(TruncatedState(c), 64)
    assert np.max(np.abs(dens - 1.0 / (2.0 * np.pi))) < 1e-14


def test_density_normalisation_and_peak():
    st = coherent_coeffs(1.0, 31)
    points = 8 * 32
    dens = canonical_phase_density(st, points)
    assert abs(np.sum(dens) * density_weight(points, 1) - 1.0) < 1e-10
    assert np.all(dens >= -1e-15)
    # unimodal and peaked at phi = 0
    assert np.argmax(dens) == 0
    mean, var = phase_mean_and_variance(dens, points)
    # the (-pi, pi] window endpoint leaves an O(density(pi)/points) asymmetry
    assert abs(mean) < 0.01
    assert 0.0 < var < (2 * np.pi) ** 2 / 12.0  # tighter than uniform


def test_density_narrows_with_amplitude():
    variances = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        n_max = int(alpha**2 + 10 * alpha + 21)
        st = coherent_coeffs(alpha, n_max)
        points = 8 * (n_max + 1)
        dens = canonical_phase_density(st, points)
        variances.append(phase_mean_and_variance(dens, points)[1])
    assert all(a > b for a, b in zip(variances, variances[1:]))


def test_density_grid_rule():
    st = coherent_coeffs(1.0, 31)
    with pytest.raises(ValueError):
        canonical_phase_density(st, 64)  # needs >= 8 * 32


def test_phase_shift_covariance():
    st = coherent_coeffs(1.5, 40)
    points = 8 * 41
    dens = canonical_phase_density(st, points)
    shift_bins = 37
    theta = 2.0 * np.pi * shift_bins / points
    shifted = canonical_phase_density(phase_shift(st, theta), points)
    assert np.max(np.abs(shifted - np.roll(dens, shift_bins))) < 1e-10


def test_two_mode_density_normalisation():
    st = product_state(coherent_coeffs(0.8, 30), coherent_coeffs(0.0, 30))
    points = 8 * 31
    dens = canonical_phase_density(st, points)
    assert dens.shape == (points, points)
    assert abs(np.sum(dens) * density_weight(points, 2) - 1.0) < 1e-10


def test_povm_resolution():
    assert povm_resolution_check(0, 8) < 1e-15
    assert povm_resolution_check(5, 64) < 1e-10
    assert povm_resolution_check(8, 128) < 1e-10


def test_povm_off_diagonals():
    n_max, points = 5, 64
    phi = phase_grid(points)
    n = np.arange(n_max + 1)
    kernel = np.exp(1j * np.outer(n, phi))
    mat = kernel @ kernel.conj().T / points
    off = mat - np.diag(np.diag(mat))
    assert np.max(np.abs(off)) < 1e-10


def test_pegg_barnett_s1_exchange():
    u = pegg_barnett_unitary(1, 0.0).matrix
    assert np.allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_pegg_barnett_unitarity():
    for s, phi0 in ((1, 0.0), (3, 0.7), (6, -1.2)):
        u = pegg_barnett_unitary(s, phi0)
        assert unitary_defect(u.matrix) < 1e-12
        assert u.unitary


def test_pegg_barnett_budget_is_checked_before_the_matrix():
    """s = 5000 is over the dense budget: ResourceBudgetError before the
    (s + 1)^2 complex matrix, 400 MB, is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            pegg_barnett_unitary(5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_pegg_barnett_commutator():
    for s in (1, 3, 5):
        assert pegg_barnett_commutator_residual(s, 0.3) < 1e-12


def test_frequency_operator_single_mode_vanishes():
    ops = instantaneous_frequency_operator(1, 3, dt=1.0)
    assert np.max(np.abs(ops[0].matrix)) == 0.0


def test_frequency_operator_hermitian():
    ops = instantaneous_frequency_operator(2, 2, dt=0.5)
    for op in ops:
        assert herm_defect(op.matrix) < 1e-12
        assert op.hermitian


def test_frequency_operator_symmetric_state_expectation():
    ops = instantaneous_frequency_operator(2, 2, dt=1.0)
    single = coherent_coeffs(0.4, 2) if False else None
    # identical per-mode states: <F> = Im |<E>|^2 = 0
    c = np.array([0.6, 0.64, 0.48], dtype=complex)
    st = product_state(TruncatedState(c), TruncatedState(c))
    vec = st.amplitudes.reshape(-1)
    for op in ops:
        val = vec.conj() @ (op.matrix @ vec)
        assert abs(val) < 1e-12


def test_frequency_operator_budget():
    with pytest.raises(ResourceBudgetError):
        instantaneous_frequency_operator(4, 4, dt=1.0)


def test_fluid_single_site_trivial():
    rep = fluid_velocity_commutator_check(1, 2)
    assert rep.max_residual == 0.0
    assert rep.projected_residual == 0.0


def test_fluid_two_site_report():
    rep = fluid_velocity_commutator_check(2, 2)
    assert rep.max_residual > 0.0
    assert rep.max_residual <= rep.projector_bound
    assert rep.projected_residual < 1e-12
    assert rep.diagonal_identity < 1e-12


def test_fluid_three_site_report():
    rep = fluid_velocity_commutator_check(3, 2)
    assert rep.max_residual <= rep.projector_bound
    assert rep.projected_residual < 1e-12


def test_fluid_budget_guard():
    with pytest.raises(ResourceBudgetError):
        fluid_velocity_commutator_check(4, 2)


def test_mode_operator_flag_checks():
    with pytest.raises(ValueError):
        ModeOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)
    assert ModeOperator(np.eye(3), hermitian=True, unitary=True).unitary


def test_state_normalised_on_construction():
    st = TruncatedState(np.array([3.0, 4.0], dtype=complex))
    assert abs(np.sum(np.abs(st.amplitudes) ** 2) - 1.0) < 1e-12


def test_phase_grid_is_held_to_the_dense_budget():
    """phase_points checks the grid against DENSE_BUDGET before anything is
    allocated: at the default grid n_max = 511 is the largest allowed."""
    assert phase_points(511) == DENSE_BUDGET
    for n_max, points in ((512, 0), (5, DENSE_BUDGET + 1)):
        with pytest.raises(ResourceBudgetError):
            phase_points(n_max, points)
    with pytest.raises(ResourceBudgetError):
        povm_resolution_check(1023, 0)


def test_dense_budget_guard():
    with pytest.raises(ResourceBudgetError):
        TruncatedState(np.ones(DENSE_BUDGET + 1, dtype=complex))
