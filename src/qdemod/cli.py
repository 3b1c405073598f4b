"""Command-line harness tying the toolkit together.

Subcommands (each takes one config file and an output directory):

  design    synthesise a loop design and dump its filter spectra
  simulate  run one PLL configuration with full diagnostics
  sweep     Monte Carlo over a (beta, lambda-or-r) grid
  limits    analytic tables for the closed-form predictions
  fock      Fock-space oracle checks and a canonical phase density
  sense     sensor-parameter mapping

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
QDEMOD_OUT environment variable overrides the output directory (and nothing
else).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from . import fock as fock_mod
from . import limits as limits_mod
from .config import ConfigError, parse_config, serialize_config
from .grids import TimeGrid, check_nonnegative
from .pll import LoopDivergenceError, PllConfig, run_cell, run_cells
from .qnoise import (COHERENT, PHASE_SQUEEZED, SQUEEZED_Z, NoiseModel,
                     operating_point)
from .results import RunManifest, emit_results, write_table
from .sensing import (SensorConfig, interrogation_constraint, position_pm_params,
                      velocity_fm_params)
from .signals import FLAT, LORENTZIAN, MessageSpec, ModulationScheme
from .wiener import (FactorizationError, LoopInstabilityError,
                     design_loop, dump_design)

_NUMERICAL_ERRORS = (FactorizationError, LoopInstabilityError,
                     LoopDivergenceError,
                     np.linalg.LinAlgError, FloatingPointError,
                     fock_mod.ResourceBudgetError, fock_mod.TruncationError)


def _build_setup(cfg: dict, beta: float, r: float, variant: str,
                 lam: float | None, n_photon: float | None):
    """(design, lam) of one operating point of a resolved config."""
    grid = TimeGrid(cfg["bandwidth"], cfg["n_samples"])
    if cfg["message_kind"] == FLAT:
        message = MessageSpec.flat(grid, cfg["band_bins"])
    elif cfg["message_kind"] == LORENTZIAN:
        message = MessageSpec(grid, LORENTZIAN, grid.bandwidth / cfg["lorentz_ratio"])
    else:
        raise ConfigError(f"unknown message_kind {cfg['message_kind']!r}")
    mod = ModulationScheme(cfg["mod_kind"], beta, message.bandwidth)
    check_nonnegative("r", r)
    if variant == COHERENT:
        r = 0.0  # no squeezing: sized at r = 0, the given r only a sweep coordinate
    alpha, lam = operating_point(message, r, lam, n_photon)
    noise = NoiseModel(variant, alpha, r, message.bandwidth)
    design = design_loop(message, mod, alpha, noise,
                         delay=None if cfg["delay"] < 0 else cfg["delay"])
    return design, lam


def _operating_point(cfg: dict, run_id: str, beta: float, r: float,
                     lam: float | None, n_photon: float | None):
    """(PllConfig, CSV row without the empirical columns) of one Monte Carlo
    operating point.

    A given lam sizes the point; the n_photon column then reads NaN.
    """
    if lam is not None:
        n_photon = None
    design, lam = _build_setup(cfg, beta, r, cfg["variant"], lam, n_photon)
    spectra = (design.s_m, design.h, design.four_alpha_sq, design.s2.values)
    kind = cfg["mod_kind"]
    if cfg["message_kind"] == FLAT:
        sigma0_analytic = limits_mod.sigma0(kind, beta, lam)
    else:
        sigma0_analytic = limits_mod.sigma0_grid(*spectra)
    _, below_threshold = limits_mod.threshold_check(
        sigma0_analytic, r if cfg["variant"] == PHASE_SQUEEZED else 0.0)
    row = {
        "run_id": run_id,
        "seed": cfg["seed"],
        "variant": cfg["variant"],
        "mod_kind": kind,
        "beta": beta,
        "lambda": lam,
        "n_photon": n_photon if n_photon is not None else float("nan"),
        "r": r,
        "snr_analytic": 1.0 / limits_mod.irreducible_error(*spectra),
        "sigma0_sq": sigma0_analytic,
        "pass_threshold": below_threshold,
    }
    pll_cfg = PllConfig(design, cfg["trials"], cfg["seed"],
                        feedback_delay=cfg["feedback_delay"])
    return pll_cfg, row


def _cell_row(row: dict, cell) -> dict:
    """An operating point's row with the empirical columns of its cell."""
    return dict(row, snr_empirical=cell.snr_empirical, snr_stderr=cell.snr_stderr,
                sigma0_sq_empirical=cell.sigma0_sq_empirical,
                cycle_slips=cell.total_slips)


def _output(outdir: str, name: str, manifest: RunManifest) -> str:
    """outdir/name, listed in the manifest: the one place an output is named."""
    path = os.path.join(outdir, name)
    manifest.outputs.append(path)
    return path


def _cmd_design(cfg: dict, outdir: str, manifest: RunManifest) -> None:
    variant = COHERENT if cfg["r"] == 0 else SQUEEZED_Z
    design, _ = _build_setup(cfg, cfg["beta"], cfg["r"], variant,
                             cfg["lambda"], cfg["n_photon"])
    dump_design(design, _output(outdir, "design.txt", manifest))
    print(f"design: wh_residual = {design.wh_residual:.3e}, delay = {design.delay}")


def _cmd_simulate(cfg: dict, outdir: str, manifest: RunManifest) -> None:
    pll_cfg, row = _operating_point(cfg, "simulate-0", cfg["beta"], cfg["r"],
                                    cfg["lambda"], cfg["n_photon"])
    cell = run_cell(pll_cfg)
    row = _cell_row(row, cell)
    trial_rows = [dict(row, run_id=f"trial-{t.trial}", snr_empirical=t.snr_empirical,
                       snr_stderr=float("nan"), sigma0_sq_empirical=t.sigma0_sq_empirical,
                       cycle_slips=t.cycle_slips)
                  for t in cell.trials]  # per-trial diagnostics under the same schema
    emit_results([row] + trial_rows, _output(outdir, "results.csv", manifest))
    print(f"simulate: snr = {cell.snr_empirical:.4g} "
          f"(analytic {row['snr_analytic']:.4g}), slips = {cell.total_slips}")


def _cmd_sweep(cfg: dict, outdir: str, manifest: RunManifest) -> None:
    lambdas = cfg["lambdas"]
    if lambdas is None and cfg["n_photon"] is None:
        raise ConfigError("sweep needs lambdas or n_photon")
    points = []
    for beta in cfg["betas"]:
        for r in cfg["rs"]:
            if lambdas is not None and r == 0.0:
                points += [(beta, r, lam, None) for lam in lambdas]
            else:
                points.append((beta, r, None, cfg["n_photon"]))
    # The cells run pipelined: a point's design is built, and its analytic
    # columns worked out, as run_cells takes its cell, one cell ahead.
    analytic = []

    def cells():
        for i, point in enumerate(points):
            pll_cfg, row = _operating_point(cfg, f"sweep-{i}", *point)
            analytic.append(row)
            yield pll_cfg
    rows = [_cell_row(analytic[i], cell) for i, cell in enumerate(run_cells(cells()))]
    emit_results(rows, _output(outdir, "results.csv", manifest))
    print(f"sweep: {len(rows)} cells written")


def _cmd_limits(cfg: dict, outdir: str, manifest: RunManifest) -> None:
    lam = cfg["lambda"]
    n_photon = None if lam is not None else cfg["n_photon"]  # lam sizes the point
    query = limits_mod.LimitQuery(cfg["mod_kind"], cfg["beta"], lam, n_photon, cfg["r"])
    table = query.evaluate()
    row = {
        "run_id": "limits-0",
        "seed": 0,
        "variant": "analytic",
        "mod_kind": cfg["mod_kind"],
        "beta": cfg["beta"],
        "lambda": table["lambda"],
        "n_photon": n_photon if n_photon is not None else float("nan"),
        "r": cfg["r"],
        "snr_empirical": float("nan"),
        "snr_stderr": float("nan"),
        "snr_analytic": table["snr"],
        "sigma0_sq": table["sigma0_sq"],
        "sigma0_sq_empirical": float("nan"),
        "cycle_slips": 0,
        "pass_threshold": table["pass_threshold"],
    }
    emit_results([row], _output(outdir, "results.csv", manifest))
    print(f"limits: sigma_sq = {table['sigma_sq']:.5g}, snr = {table['snr']:.6g}, "
          f"sigma0_sq = {table['sigma0_sq']:.5g}")


def _cmd_fock(cfg: dict, outdir: str, manifest: RunManifest) -> None:
    n_max = check_nonnegative("n_max", cfg["n_max"])
    points = fock_mod.phase_points(n_max, check_nonnegative("points", cfg["points"]))
    alpha = cfg["alpha"] if fock_mod.tail_cutoff(cfg["alpha"]) <= n_max else 0.0
    povm = fock_mod.povm_resolution_check(n_max, points)
    pb_u = fock_mod.unitary_defect(fock_mod.pegg_barnett_unitary(cfg["pb_s"]).matrix)
    pb_c = fock_mod.pegg_barnett_commutator_residual(cfg["pb_s"])
    state = fock_mod.coherent_coeffs(alpha, n_max)
    density = fock_mod.canonical_phase_density(state, points)
    norm = float(np.sum(density) * fock_mod.density_weight(points, 1))
    fluid = fock_mod.fluid_velocity_commutator_check(cfg["sites"], cfg["bosons"])
    checks = [
        ("povm_resolution_residual", povm, 1e-10),
        ("pegg_barnett_unitarity", pb_u, 1e-12),
        ("pegg_barnett_commutator", pb_c, 1e-12),
        ("density_normalization", abs(norm - 1.0), 1e-10),
        ("fluid_projected_residual", fluid.projected_residual, 1e-12),
        ("fluid_residual_within_bound",
         max(0.0, fluid.max_residual - fluid.projector_bound), 0.0),
    ]
    passed = [value <= thr if thr > 0 else value == 0.0 for _, value, thr in checks]
    write_table(_output(outdir, "fock_checks.csv", manifest), "check,value,threshold,pass",
                (f"{name},{value:.17e},{thr:.1e},{'true' if ok else 'false'}"
                 for (name, value, thr), ok in zip(checks, passed)))
    write_table(_output(outdir, "phase_density.csv", manifest), "phi,density",
                (f"{phi:.17e},{val:.17e}"
                 for phi, val in zip(fock_mod.phase_grid(points), density)))
    worst = max(value for _, value, _ in checks[:5])
    print(f"fock: worst oracle residual = {worst:.3e}")
    if not all(passed):
        raise FactorizationError("fock oracle check failed")


def _cmd_sense(cfg: dict, outdir: str, manifest: RunManifest) -> None:
    sensor = SensorConfig(**cfg)  # the sense schema's keys are its fields
    rows = [("effective_passes", sensor.effective_passes)]
    if sensor.rms_position is not None:
        pos = position_pm_params(sensor)
        rows += [("position_beta", pos.beta),
                 ("position_narrowband_ok", float(pos.narrowband_ok))]
    if sensor.rms_velocity is not None:
        vel = velocity_fm_params(sensor)
        rows += [("velocity_deviation_hz", vel.deviation),
                 ("velocity_beta", vel.beta),
                 ("velocity_narrowband_ok", float(vel.narrowband_ok))]
    lhs, ok = interrogation_constraint(sensor)
    rows += [("interrogation_lhs_s", lhs), ("interrogation_pass", float(ok))]
    write_table(_output(outdir, "sense_results.csv", manifest), "key,value",
                (f"{key},{value:.17e}" for key, value in rows))
    print("sense: " + ", ".join(f"{k} = {v:.6g}" for k, v in rows))


_COMMANDS = {
    "design": _cmd_design,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "limits": _cmd_limits,
    "fock": _cmd_fock,
    "sense": _cmd_sense,
}


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qdemod", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to the key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    outdir = os.environ.get("QDEMOD_OUT", args.out)
    try:
        cfg = parse_config(args.config, args.command)
        os.makedirs(outdir, exist_ok=True)
        manifest = RunManifest(
            command=args.command, version=__version__,
            seed=cfg.get("seed"), config_text=serialize_config(cfg, args.command))
        manifest.start()
        _COMMANDS[args.command](cfg, outdir, manifest)
        manifest.finish()
        manifest.write(os.path.join(outdir, "manifest.txt"))
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())
