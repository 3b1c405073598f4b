"""The benchmark's workloads: inputs from a seed, one pass of calls, checks.

A workload pass is a list of operations, each one call into qdemod (a
`cli_main` invocation or a direct library call).  Inputs are built by the
workload's setup function; every stochastic input derives from the benchmark
seed, so the same seed gives the same inputs and byte-identical outputs.

Output checks, run after each pass outside its timed region:

- exit codes: a non-zero `cli_main` exit or an exception fails the operation;
- finiteness: snr_empirical, snr_analytic, sigma0_sq and sigma0_sq_empirical
  of every Monte Carlo row, and every number of the other outputs, must be
  finite (n_photon and per-trial snr_stderr are NaN by design);
- reference: on REFERENCE_SEED every checked number is compared with the
  outputs the seed commit produced (reference.json);
- reruns: passes on the same seed must write byte-identical files.

Call sites look functions up through their modules (`qcli.cli_main`,
`wiener.design_loop`, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import qdemod.cli as qcli
from qdemod import fock, wiener
from qdemod.grids import TimeGrid
from qdemod.qnoise import COHERENT, SQUEEZED_Z, NoiseModel
from qdemod.signals import FM, PM, MessageSpec, ModulationScheme, message_psd

REFERENCE_SEED = 0
# Relative tolerance for every checked value against the reference.
RTOL = 1e-9
# Residual-type outputs sit at rounding level; they are compared on the
# scale of an acceptance threshold instead of relative to themselves.
WH_RESIDUAL_TOL = 1e-10

MC_FINITE = ("snr_empirical", "snr_analytic", "sigma0_sq", "sigma0_sq_empirical")
_CSV_NUMBERS = ("seed", "beta", "lambda", "n_photon", "r", "snr_empirical",
                "snr_stderr", "snr_analytic", "sigma0_sq", "sigma0_sq_empirical",
                "cycle_slips", "pass_threshold")
_MANIFEST = "manifest.txt"


def master_seed(seed: int) -> int:
    """Monte Carlo master seed for a benchmark seed (0 gives the fixtures' 12345)."""
    return (12345 + seed) % (1 << 63)


@dataclass
class Op:
    """One call into the program: `run(outdir)`, then `read(name, result)`."""

    name: str
    run: object
    read: object


@dataclass
class Outputs:
    """Checked numbers of one operation: label -> (value, absolute scale)."""

    numbers: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    failure: str | None = None

    def add(self, label: str, value, scale: float = 0.0, finite: bool = True) -> None:
        value = float(value)
        if finite and not math.isfinite(value) and self.failure is None:
            self.failure = f"non-finite {label}"
        self.numbers[label] = (value, scale)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli_op(name: str, command: str, cfg_path: str) -> Op:
    def run(outdir):
        out = os.path.join(outdir, name)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = qcli.cli_main([command, cfg_path, "--out", out])
        return code, buf.getvalue(), out
    return Op(name, run, _cli_outputs)


# --- reading what an operation produced ------------------------------------

def _read_results_csv(path: str, op: str, out: Outputs) -> None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            row = dict(zip(header, line.rstrip("\n").split(",")))
            monte_carlo = row["variant"] != "analytic"
            for col in _CSV_NUMBERS:
                raw = row[col]
                value = {"true": 1.0, "false": 0.0}.get(raw)
                out.add(f"{op}.{row['run_id']}.{col}",
                        float(raw) if value is None else value,
                        finite=monte_carlo and col in MC_FINITE)


def _read_key_value_csv(path: str, op: str, out: Outputs, residuals: bool) -> None:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.strip().split(",")
            # fock checks carry their own pass threshold in column 3
            out.add(f"{op}.{parts[0]}", parts[1], float(parts[2]) if residuals else 0.0)


def _read_design_dump(path: str, op: str, out: Outputs) -> None:
    cols = np.loadtxt(path, comments="#")[:, 2:]
    for name, col in zip(("g_re", "g_im", "lp_re", "lp_im", "l_re", "l_im",
                          "lpp_re", "lpp_im"), cols.T):
        out.add(f"{op}.dump_{name}_sq_mean", np.mean(col**2))


def _read_phase_density(path: str, op: str, out: Outputs) -> None:
    dens = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
    out.add(f"{op}.density_sum", np.sum(dens))
    out.add(f"{op}.density_max", np.max(dens))


def _cli_outputs(name: str, result) -> Outputs:
    code, text, outdir = result
    out = Outputs()
    if code != 0:
        out.failure = f"exit {code}: {text.strip()[-200:]}"
        return out
    for fname in sorted(os.listdir(outdir)):
        if fname == _MANIFEST:  # timestamps; compared by nothing
            continue
        path = os.path.join(outdir, fname)
        with open(path, "rb") as fh:
            out.files[fname] = fh.read()
        if fname == "results.csv":
            _read_results_csv(path, name, out)
        elif fname == "fock_checks.csv":
            _read_key_value_csv(path, name, out, residuals=True)
        elif fname == "sense_results.csv":
            _read_key_value_csv(path, name, out, residuals=False)
        elif fname == "design.txt":
            _read_design_dump(path, name, out)
        elif fname == "phase_density.csv":
            _read_phase_density(path, name, out)
    if text.startswith("design:"):
        residual = float(text.split("wh_residual =")[1].split(",")[0])
        out.add(f"{name}.wh_residual", residual, WH_RESIDUAL_TOL)
    return out


def _design_outputs(name: str, design) -> Outputs:
    out = Outputs()
    n = design.grid.n_samples
    out.add(f"{name}.wh_residual", design.wh_residual, WH_RESIDUAL_TOL)
    out.add(f"{name}.delay", design.delay)
    out.add(f"{name}.lp_energy", np.sum(np.abs(design.l_prime.response) ** 2) / n)
    out.add(f"{name}.g_energy", np.sum(np.abs(design.g.response) ** 2) / n)
    out.add(f"{name}.lpp_energy", np.sum(np.abs(design.l_post.response) ** 2) / n)
    return out


def _fluid_outputs(name: str, report) -> Outputs:
    out = Outputs()
    out.add(f"{name}.max_residual", report.max_residual)
    out.add(f"{name}.projector_bound", report.projector_bound)
    out.add(f"{name}.projected_residual", report.projected_residual, 1e-12)
    out.add(f"{name}.diagonal_identity", report.diagonal_identity, 1e-12)
    if report.max_residual > report.projector_bound:
        out.failure = "fluid residual above the projector bound"
    return out


def compare(numbers: dict, reference: dict):
    """(largest relative difference, labels outside tolerance) against the reference.

    Values differ relative to the reference value; residual-type numbers
    (non-zero scale) relative to their threshold, which they may not exceed.
    """
    worst, bad = 0.0, []
    for label in sorted(set(numbers) | set(reference)):
        if label not in numbers or label not in reference:
            bad.append(label)
            worst = math.inf
            continue
        value, scale = numbers[label]
        ref = reference[label]
        if math.isnan(value) and math.isnan(ref):
            continue
        diff = abs(value - ref)
        if scale > 0:
            rel = diff / scale
            ok = value <= scale
        else:
            rel = diff / abs(ref) if ref != 0 else (0.0 if value == 0 else math.inf)
            ok = rel <= RTOL
        if math.isnan(rel):
            rel = math.inf
        worst = max(worst, rel)
        if not ok:
            bad.append(label)
    return worst, bad


# --- workloads -------------------------------------------------------------

@dataclass
class Inputs:
    ops: list
    trials: int  # per pass, behind trials_per_s: MC trials, or operations for synthesis


def _sweep_pm(seed: int, workdir: str) -> Inputs:
    cfg = _write(os.path.join(workdir, "sweep_pm.cfg"), (
        "[sweep]\nn_samples = 4096\nband_bins = 127\nmod_kind = pm\n"
        "betas = 0.5, 1, 2\nlambdas = 30, 100, 300\n"
        f"trials = 64\nseed = {master_seed(seed)}\n"))
    return Inputs([_cli_op("sweep", "sweep", cfg)], trials=9 * 64)


def _squeezed_cell(seed: int, workdir: str) -> Inputs:
    cfg = _write(os.path.join(workdir, "squeezed_cell.cfg"), (
        "[simulate]\nbeta = 1.0\nn_photon = 10\nr = 1.5222612188617113\n"
        f"variant = squeezed_z\ntrials = 192\nseed = {master_seed(seed)}\n"))
    return Inputs([_cli_op("simulate", "simulate", cfg)], trials=192)


LORENTZ_TRIALS = 4


def _lorentz_long(seed: int, workdir: str) -> Inputs:
    ops = []
    for n_photon in (100, 1000, 10000):
        cfg = _write(os.path.join(workdir, f"lorentz_{n_photon}.cfg"), (
            "[simulate]\nn_samples = 16384\nmessage_kind = lorentzian\n"
            "lorentz_ratio = 256\nmod_kind = pm\nbeta = 0.2\n"
            f"n_photon = {n_photon}\ntrials = {LORENTZ_TRIALS}\n"
            f"seed = {master_seed(seed)}\n"))
        ops.append(_cli_op(f"simulate_n{n_photon}", "simulate", cfg))
    return Inputs(ops, trials=3 * LORENTZ_TRIALS)


def _design_op(name: str, n: int, kind: str, squeezed: bool, beta: float,
               lam: float, r: float) -> Op:
    grid = TimeGrid(1.0, n)
    message = MessageSpec.flat(grid, 127)
    mod = ModulationScheme(kind, beta, message.bandwidth)
    s_m_at_0 = float(message_psd(message).values[0])
    s2_at_0 = math.exp(-2.0 * r) if squeezed else 1.0
    alpha = math.sqrt(lam * s2_at_0 / (4.0 * s_m_at_0))
    noise = (NoiseModel(SQUEEZED_Z, alpha, r, message.bandwidth) if squeezed
             else NoiseModel(COHERENT, alpha))
    return Op(name, lambda outdir: wiener.design_loop(message, mod, alpha, noise),
              _design_outputs)


def _synthesis(seed: int, workdir: str) -> Inputs:
    rnd = random.Random(seed)

    def lam():
        return 10.0 ** rnd.uniform(math.log10(30.0), math.log10(300.0))

    ops = []
    for n in (4096, 16384):
        for kind in (PM, FM):
            for squeezed in (False, True):
                r = rnd.uniform(0.5, 1.5) if squeezed else 0.0
                name = f"design_{kind}_{'sq' if squeezed else 'coh'}_{n}"
                ops.append(_design_op(name, n, kind, squeezed,
                                      rnd.uniform(0.5, 2.0), lam(), r))
    cfgs = {
        "design": (f"[design]\nn_samples = 16384\nbeta = {rnd.uniform(0.5, 2.0)!r}\n"
                   f"lambda = {lam()!r}\n"),
        "limits": (f"[limits]\nmod_kind = fm\nbeta = {rnd.uniform(0.5, 2.0)!r}\n"
                   f"n_photon = {rnd.uniform(5.0, 50.0)!r}\nr = {rnd.uniform(0.0, 1.0)!r}\n"),
        "sense": ("[sense]\nkind = fabry_perot\n"
                  f"reflectivity = {rnd.uniform(0.5, 0.95)!r}\n"
                  f"rms_position = {rnd.uniform(0.5e-10, 2e-10)!r}\n"
                  "message_bandwidth = 1e3\n"),
        "fock": (f"[fock]\nn_max = {rnd.randint(5, 8)}\nalpha = 1.0\n"
                 f"pb_s = {rnd.randint(2, 4)}\nsites = 2\nbosons = 2\n"),
    }
    for command, text in cfgs.items():
        cfg = _write(os.path.join(workdir, f"{command}.cfg"), text)
        ops.append(_cli_op(command, command, cfg))
    ops.append(Op("fluid_3x3",
                  lambda outdir: fock.fluid_velocity_commutator_check(3, 3), _fluid_outputs))
    return Inputs(ops, trials=len(ops))


WORKLOADS = {
    "sweep_pm": _sweep_pm,
    "squeezed_cell": _squeezed_cell,
    "lorentz_long": _lorentz_long,
    "synthesis": _synthesis,
}
