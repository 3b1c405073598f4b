"""Result persistence: the CSV tables and the run manifest."""

from __future__ import annotations

import datetime as _dt
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from . import _tracker
from .pll import max_workers

CSV_COLUMNS = (
    "run_id", "seed", "variant", "mod_kind", "beta", "lambda", "n_photon",
    "r", "snr_empirical", "snr_stderr", "snr_analytic", "sigma0_sq",
    "sigma0_sq_empirical", "cycle_slips", "pass_threshold",
)

_FLOAT_COLUMNS = {
    "beta", "lambda", "n_photon", "r", "snr_empirical", "snr_stderr",
    "snr_analytic", "sigma0_sq", "sigma0_sq_empirical",
}


def _render(column: str, value) -> str:
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return f"{float(value):.17e}"
    if column == "pass_threshold":
        return "true" if value else "false"
    return str(value)


def write_table(path, header: str, lines) -> None:
    """Write the header line, then each of lines: the one writer of the CSVs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def emit_results(rows, path) -> None:
    """Write rows (mappings keyed by CSV_COLUMNS) with the fixed header."""
    write_table(path, ",".join(CSV_COLUMNS),
                (",".join(_render(c, row.get(c)) for c in CSV_COLUMNS) for row in rows))


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Interpreter, library, BLAS and platform versions, the CPU count, the
    worker threads of a command's pool (the process's CPUs), the
    path the compiled library's loops took (c kernel <hash> (<clone>), numpy
    or not run) and the BLAS thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 only prints its build configuration
        blas = {}
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workers": max_workers(),
        "tracker": _tracker.describe(),
    }
    for var in _THREAD_VARS:
        env[var] = os.environ.get(var, "unset")
    return env


@dataclass
class RunManifest:
    """Everything needed to reproduce a run bit-exactly with the same code."""

    command: str
    version: str
    seed: int | None
    config_text: str
    outputs: list = field(default_factory=list)
    started: str = ""
    finished: str = ""

    def start(self) -> None:
        self.started = _dt.datetime.now(_dt.timezone.utc).isoformat()

    def finish(self) -> None:
        self.finished = _dt.datetime.now(_dt.timezone.utc).isoformat()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[manifest]\n")
            fh.write(f"command = {self.command}\n")
            fh.write(f"version = {self.version}\n")
            if self.seed is not None:
                fh.write(f"master_seed = {self.seed}\n")
            fh.write(f"started = {self.started}\n")
            fh.write(f"finished = {self.finished}\n")
            for key, value in _environment().items():
                fh.write(f"{key} = {value}\n")
            for out in self.outputs:
                fh.write(f"output = {out}\n")
            fh.write("\n# resolved configuration\n")
            fh.write(self.config_text)
