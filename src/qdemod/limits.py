"""Closed-form error, SNR, quantum-limit and threshold predictions.

Conventions: Lambda = 4 |alpha|^2 S_m(0) / S2(0) is the loop SNR parameter,
N the photon number per message correlation time 1/b.  Flat-band closed
forms are exact.  beta and N are squared as x * x, which overflows to inf
where x**2 raises OverflowError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import check_nonnegative, check_positive
from .qnoise import resolve_lambda
from .signals import FM, PM

SQL = "sql"
HEISENBERG = "heisenberg"
LOG_BOUND = "log_bound"


def irreducible_error(s_m: np.ndarray, h: np.ndarray, four_alpha_sq: float,
                      s2: np.ndarray) -> float:
    """Minimum mean-square error (1/B) integral of S_m S2 / (4a^2 S_m|H|^2 + S2).

    Evaluated as a bin sum; bins without message power contribute their
    analytic limit zero (this covers the FM DC bin).
    """
    s_m = np.asarray(s_m, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    h2 = np.abs(np.asarray(h)) ** 2
    num = s_m * s2
    den = four_alpha_sq * s_m * h2 + s2
    live = num > 0
    return float(np.sum(num[live] / den[live]) / s_m.size)


def closed_form_snr(kind: str, beta: float, lam: float):
    """(sigma^2, SNR) for a flat-band message; exact closed forms.

    PM: sigma^2 = 1/(beta^2 Lambda + 1).
    FM: sigma^2 = 1 - sqrt(x) atan(1/sqrt(x)), x = beta^2 Lambda, which
    cancels above x = 1e4: there its series y2/3 - y2^2/5 + ..., y2 = 1/x.
    """
    b2l = check_nonnegative("beta^2 lambda", beta * beta * lam)
    if kind == PM:
        sigma2 = 1.0 / (b2l + 1.0)
    elif kind == FM:
        if b2l > 1e4:
            y2 = 1.0 / b2l
            sigma2 = y2 * (1/3 - y2 * (1/5 - y2 * (1/7 - y2 * (1/9 - y2 * (1/11 - y2/13)))))
        elif b2l == 0:
            sigma2 = 1.0
        else:
            root = np.sqrt(b2l)
            sigma2 = 1.0 - root * np.arctan(1.0 / root)
    else:
        raise ValueError(f"unknown modulation kind {kind!r}")
    return float(sigma2), float(1.0 / sigma2)


def quantum_limit_snr(limit: str, n_photon: float, beta: float, kind: str) -> float:
    """SQL / Heisenberg SNRs and the log-corrected upper bound.

    SQL: 4 beta^2 N (PM), 12 beta^2 N (FM).
    Heisenberg: 4 beta^2 N (N+1) (PM), 12 beta^2 N (N+1) (FM).
    Log bound (upper bound marker, not a prediction): 8 beta^2 N^2 / ln N
    (PM), 24 beta^2 N^2 / ln N (FM); defined for N > 1 only.
    """
    if kind not in (PM, FM):
        raise ValueError(f"unknown modulation kind {kind!r}")
    check_positive("n_photon", n_photon)
    fm_factor = 3.0 if kind == FM else 1.0
    if limit == SQL:
        return 4.0 * (beta * beta) * n_photon * fm_factor
    if limit == HEISENBERG:
        return 4.0 * (beta * beta) * n_photon * (n_photon + 1.0) * fm_factor
    if limit == LOG_BOUND:
        if n_photon <= 1.0:
            raise ValueError("log bound requires N > 1")
        return 8.0 * (beta * beta) * (n_photon * n_photon) / np.log(n_photon) * fm_factor
    raise ValueError(f"unknown limit kind {limit!r}")


def optimal_squeeze(n_photon: float):
    """(exp(2r), r) maximising the squeezed SNR at a fixed photon budget."""
    e2r = 2.0 * check_nonnegative("n_photon", n_photon) + 1.0
    return float(e2r), float(0.5 * np.log(e2r))


def sigma0(kind: str, beta: float, lam: float) -> float:
    """Tracking error sigma0^2 of the loop, flat-band closed forms.

    PM: (1/Lambda) ln(1 + beta^2 Lambda).
    FM: (1/Lambda) [ln(1 + beta^2 Lambda)
                    + 2 beta sqrt(Lambda) atan(1/(beta sqrt(Lambda)))].
    """
    b2l = beta * beta * lam
    if kind == PM:
        return float(np.log1p(b2l) / lam)
    if kind == FM:
        root = beta * np.sqrt(lam)
        return float((np.log1p(b2l) + 2.0 * root * np.arctan(1.0 / root)) / lam)
    raise ValueError(f"unknown modulation kind {kind!r}")


def sigma0_grid(s_m: np.ndarray, h: np.ndarray, four_alpha_sq: float,
                s2: np.ndarray) -> float:
    """Bin-sum tracking error (1/B) integral of S_n ln(1 + S_phibar/S_n).

    General (colored-noise) form with S_n = S2 / 4|a|^2; reduces to the
    flat-band closed forms when the spectra are flat.  Note: this is the
    white-noise (Yovits-Jackson) expression the closed forms are borrowed
    from; for strongly colored S2 it underestimates the causal tracking
    error of the actual loop.
    """
    s_m = np.asarray(s_m, float)
    s2 = np.asarray(s2, float)
    h2 = np.abs(np.asarray(h)) ** 2
    s_n = s2 / four_alpha_sq
    ratio = np.zeros_like(s_n)
    live = s_m * h2 > 0
    ratio[live] = four_alpha_sq * s_m[live] * h2[live] / s2[live]
    return float(np.sum(s_n * np.log1p(ratio)) / s_m.size)


def threshold_check(sigma0_sq: float, r: float = 0.0):
    """(constraint LHS, pass) for the loop linearisation to hold: the
    package's one statement of the paper's threshold rule.

    LHS = exp(4r) sigma0^2: pass r = 0 for coherent or z'-squeezed-with-
    feedback operation (LHS = sigma0^2), and the squeeze parameter r for
    phase-squeezed light without feedback (the paper's right-hand side is an
    order-of-magnitude estimate, so the squeezed check is approximate).
    pass = LHS <= 1/4 by the standard operational rule.
    """
    with np.errstate(over="ignore"):  # an infinite exp(4r) fails the rule
        lhs = sigma0_sq * float(np.exp(4.0 * r))
    return float(lhs), bool(lhs <= 0.25)


@dataclass(frozen=True)
class LimitQuery:
    """Bundle of parameters for the analytic tables."""

    kind: str = PM
    beta: float = 1.0
    lam: float | None = None
    n_photon: float | None = None
    r: float = 0.0

    def __post_init__(self) -> None:
        check_positive("beta", self.beta)

    def resolved_lambda(self) -> float:
        return resolve_lambda(self.r, self.lam, self.n_photon)

    def evaluate(self) -> dict:
        lam = self.resolved_lambda()
        sigma2, snr = closed_form_snr(self.kind, self.beta, lam)
        s0 = sigma0(self.kind, self.beta, lam)
        _, ok = threshold_check(s0, self.r)
        return {
            "lambda": lam,
            "sigma_sq": sigma2,
            "snr": snr,
            "sigma0_sq": s0,
            "pass_threshold": ok,
        }
