"""Exact truncated-Fock-space oracle.

Dense-matrix implementations of the canonical phase density, the phase POVM
resolution, the Pegg-Barnett exponential-phase operator, the
instantaneous-frequency operator, and the 1-D lattice fluid-velocity
commutator check; the last two are the paper's one lattice phase-gradient
operator (_phase_gradients).  Everything here is an oracle for the rest of
the toolkit, not a performance layer: dimensions are capped at DENSE_BUDGET.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .grids import differentiator_kernel

DENSE_BUDGET = 4096


class ResourceBudgetError(ValueError):
    pass


class TruncationError(ValueError):
    pass


def _check_dim(dim: int) -> None:
    if dim > DENSE_BUDGET:
        raise ResourceBudgetError(f"dense dimension {dim} exceeds budget {DENSE_BUDGET}")


@dataclass(frozen=True)
class TruncatedState:
    """Normalised coefficient tensor C[n1, ..., nJ] over number states."""

    amplitudes: np.ndarray  # shape (n_max+1,) * modes

    def __post_init__(self) -> None:
        c = np.asarray(self.amplitudes, dtype=complex)
        _check_dim(c.size)
        norm = np.sqrt(np.sum(np.abs(c) ** 2))
        if norm == 0:
            raise ValueError("state must be nonzero")
        object.__setattr__(self, "amplitudes", c / norm)

    @property
    def modes(self) -> int:
        return self.amplitudes.ndim

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1


@dataclass(frozen=True)
class ModeOperator:
    """Dense operator with numerically verified structure flags."""

    matrix: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        _check_dim(m.shape[0])
        object.__setattr__(self, "matrix", m)
        if self.hermitian and herm_defect(m) > 1e-12:
            raise ValueError("operator flagged hermitian fails the check")
        if self.unitary and unitary_defect(m) > 1e-12:
            raise ValueError("operator flagged unitary fails the check")


def herm_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def unitary_defect(m: np.ndarray) -> float:
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m.conj().T @ m - eye)))


def tail_cutoff(alpha: complex) -> float:
    """Smallest n_max that keeps a coherent state's truncated tail below 1e-12;
    a non-finite alpha has none (ValueError)."""
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return abs(alpha) ** 2 + 10.0 * abs(alpha) + 20.0


def coherent_coeffs(alpha: complex, n_max: int) -> TruncatedState:
    """Single-mode coherent state C_n = e^{-|a|^2/2} a^n / sqrt(n!), renormalised.

    Requires n_max >= tail_cutoff(alpha).
    """
    if alpha == 0:  # the vacuum has no tail at any cutoff
        c = np.zeros(n_max + 1, dtype=complex)
        c[0] = 1.0
        return TruncatedState(c)
    need = tail_cutoff(alpha)
    if n_max < need:
        raise TruncationError(f"n_max = {n_max} below the tail rule {need:.1f}")
    n = np.arange(n_max + 1)
    log_fact = np.array([lgamma(k + 1.0) for k in n])
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - 0.5 * log_fact)
    return TruncatedState(mag * np.exp(1j * n * np.angle(alpha)))


def product_state(*modes: TruncatedState) -> TruncatedState:
    """Tensor product of single-mode states."""
    c = modes[0].amplitudes
    for st in modes[1:]:
        c = np.tensordot(c, st.amplitudes, axes=0)
    return TruncatedState(c)


def phase_grid(points: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(points) / points


def phase_points(n_max: int, points: int = 0) -> int:
    """points (0: the fewest allowed) held to the rule points >= 8 (n_max + 1)
    and to the dense budget, before anything is allocated."""
    need = 8 * (n_max + 1)
    if points and points < need:
        raise ValueError(f"phase grid too coarse; need points >= 8 (n_max + 1) = {need}")
    _check_dim(points or need)
    return points or need


def canonical_phase_density(state: TruncatedState, points: int) -> np.ndarray:
    """Canonical phase density |sum_n C[n] e^{-i n.phi}|^2 / (2 pi)^J.

    Sampled on the uniform periodic phase grid of `points` points per mode
    (shape (points,)*J); the trapezoid weight (2 pi / points)^J integrates it
    to one exactly (the density is a trigonometric polynomial of per-mode
    degree n_max, so the rule is spectrally exact for points > 2 n_max).
    Requires points >= 8 (n_max + 1) (phase_points).
    """
    n_max = state.n_max
    points = phase_points(n_max, points)
    modes = state.modes
    padded = np.zeros((points,) * modes, dtype=complex)
    padded[tuple(slice(0, n_max + 1) for _ in range(modes))] = state.amplitudes
    # forward FFT kernel e^{-i n phi_l} with phi_l = 2 pi l / points
    amp = np.fft.fftn(padded)
    return np.abs(amp) ** 2 / (2.0 * np.pi) ** modes


def density_weight(points: int, modes: int) -> float:
    """Quadrature weight per phase-grid node."""
    return (2.0 * np.pi / points) ** modes


def phase_mean_and_variance(density: np.ndarray, points: int):
    """Circular-window mean and variance of a single-mode density around 0."""
    phi = phase_grid(points)
    phi = np.where(phi > np.pi, phi - 2.0 * np.pi, phi)  # wrap to (-pi, pi]
    w = density_weight(points, 1)
    mean = float(np.sum(phi * density) * w)
    var = float(np.sum((phi - mean) ** 2 * density) * w)
    return mean, var


def phase_shift(state: TruncatedState, theta: float) -> TruncatedState:
    """Apply exp(i theta n) per mode: translates the canonical density by theta."""
    c = state.amplitudes
    for axis in range(state.modes):
        n = np.arange(c.shape[axis])
        shape = [1] * state.modes
        shape[axis] = c.shape[axis]
        c = c * np.exp(1j * theta * n).reshape(shape)
    return TruncatedState(c)


def povm_resolution_check(n_max: int, points: int) -> float:
    """max-norm residual of the phase-POVM completeness sum on the grid.

    Quadrature of |phi><phi| over the periodic grid gives the matrix with
    entries (1/points) sum_l e^{i (n - n') phi_l}, which equals the identity
    exactly whenever points > n_max.
    """
    points = phase_points(n_max, points)
    phi = phase_grid(points)
    n = np.arange(n_max + 1)
    kernel = np.exp(1j * np.outer(n, phi))  # <n|phi> up to normalisation
    mat = kernel @ kernel.conj().T / points
    return float(np.max(np.abs(mat - np.eye(n_max + 1))))


def pegg_barnett_unitary(s: int, phi0: float = 0.0) -> ModeOperator:
    """exp(i phi_hat) = sum_{n=1}^{s} |n-1><n| + e^{i (s+1) phi0} |s><0|."""
    if s < 1:
        raise ValueError("need s >= 1")
    u = np.zeros((s + 1, s + 1), dtype=complex)
    for n in range(1, s + 1):
        u[n - 1, n] = 1.0
    u[s, 0] = np.exp(1j * (s + 1) * phi0)
    return ModeOperator(u, unitary=True)


def pegg_barnett_commutator_residual(s: int, phi0: float = 0.0) -> float:
    """max-norm of [exp(i phi), n] - (1 - (s+1)|s><s|) exp(i phi)."""
    e = pegg_barnett_unitary(s, phi0).matrix
    n = np.diag(np.arange(s + 1.0)).astype(complex)
    lhs = e @ n - n @ e
    proj = np.zeros_like(e)
    proj[s, s] = 1.0
    rhs = (np.eye(s + 1) - (s + 1) * proj) @ e
    return float(np.max(np.abs(lhs - rhs)))


def _lattice(sites: int, s: int) -> list:
    """Pegg-Barnett unitaries E_j of `sites` modes cut off at s, each in slot j
    of the tensor product (identity elsewhere), after the dense-budget check."""
    dim = s + 1
    _check_dim(dim**sites)
    single = pegg_barnett_unitary(s).matrix
    e_ops = []
    for j in range(sites):
        out = np.array([[1.0 + 0j]])
        for k in range(sites):
            out = np.kron(out, single if k == j else np.eye(dim))
        e_ops.append(out)
    return e_ops


def _phase_gradients(e_ops: list) -> list:
    """Lattice phase gradients sum_{k != j} d_{j-k} sin(phi_k - phi_j), one
    per site j, from the embedded Pegg-Barnett unitaries of _lattice.

    The one build of both lattice operators: the fluid velocity is the
    gradient itself (hbar/m = 1, unit spacing) and the instantaneous
    frequency is -1/(2 pi dt) times it.
    """
    grads = []
    for j, e_j in enumerate(e_ops):
        total = np.zeros(e_j.shape, dtype=complex)
        for k, e_k in enumerate(e_ops):
            if k != j:
                a = e_k @ e_j.conj().T  # sin(phi_k - phi_j) = (a - a^+)/(2i)
                total += differentiator_kernel(j - k) * ((a - a.conj().T) / 2j)
        grads.append(total)
    return grads


def instantaneous_frequency_operator(modes: int, s: int, dt: float) -> list:
    """Hermitian operators F_j = (1/2 pi dt) sum_k d_{j-k} sin(phi_j - phi_k)."""
    if modes > 3 or s > 4:
        raise ResourceBudgetError("instantaneous-frequency oracle capped at J <= 3, s <= 4")
    return [ModeOperator(-grad / (2.0 * np.pi * dt), hermitian=True)
            for grad in _phase_gradients(_lattice(modes, s))]


@dataclass(frozen=True)
class FluidCommutatorReport:
    """Residuals of the lattice velocity-number commutation relation."""

    max_residual: float          # over site pairs j != j'
    projector_bound: float       # norm budget of the dropped (N+1)|N><N| terms
    projected_residual: float    # after restriction to occupations < N
    diagonal_identity: float     # [v_j, sum_j' n_j'] residual (number conservation)


def fluid_velocity_commutator_check(sites: int, bosons: int) -> FluidCommutatorReport:
    """Verify [v_j, n_j'] ~ -i D_{j-j'} cos(phi_j' - phi_j) on a 1-D chain.

    Per-site cutoff equals the boson number N; hbar/m = 1 and the site
    spacing is 1, so D_n = d_n, and v_j is _phase_gradients.  The relation is
    checked for distinct sites, where the exact commutator differs from the
    right-hand side only by the dropped (N+1)|N><N| projector terms; the
    difference is bounded by the propagated projector norm and vanishes
    exactly on the subspace with every site occupation below N.  At j' = j
    the right-hand side degenerates (D_0 = 0) while number conservation
    forces [v_j, n_j] = -sum_{j' != j} [v_j, n_j']; that identity is
    reported instead.
    """
    if sites > 3 or bosons > 3:
        raise ResourceBudgetError("fluid oracle capped at 3 sites, 3 bosons")
    if sites < 1 or bosons < 1:
        raise ValueError("need at least one site and one boson")
    e_ops = _lattice(sites, bosons)
    velocity = _phase_gradients(e_ops)
    # occ[j] is site j's occupation n_j on each basis state; p_sub projects
    # onto the states with every occupation below N
    occ = np.indices((bosons + 1,) * sites).reshape(sites, -1)
    p_sub = np.diag(np.all(occ < bosons, axis=0).astype(float))

    max_resid = 0.0
    max_bound = 0.0
    max_proj = 0.0
    diag = 0.0
    for j in range(sites):
        total = np.zeros_like(velocity[j])  # [v_j, sum_j' n_j']
        for jp in range(sites):
            comm = velocity[j] * occ[jp] - occ[jp][:, None] * velocity[j]  # [v_j, n_j']
            total += comm
            if jp == j:
                continue
            cos = (e_ops[jp] @ e_ops[j].conj().T + e_ops[j] @ e_ops[jp].conj().T) / 2.0
            rhs = -1j * differentiator_kernel(j - jp) * cos
            resid = comm - rhs
            norm = float(np.linalg.norm(resid, 2))
            bound = abs(differentiator_kernel(j - jp)) * (bosons + 1.0)
            proj = float(np.linalg.norm(p_sub @ resid @ p_sub, 2))
            max_resid = max(max_resid, norm)
            max_bound = max(max_bound, bound)
            max_proj = max(max_proj, proj)
        # velocity conserves total number except through the Pegg-Barnett wrap
        wrapless = p_sub @ total @ p_sub
        diag = max(diag, float(np.linalg.norm(wrapless, 2)))

    return FluidCommutatorReport(
        max_residual=max_resid,
        projector_bound=max_bound,
        projected_residual=max_proj,
        diagonal_identity=diag,
    )
