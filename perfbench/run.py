"""qdemod benchmark: one workload per run, timed passes, checked outputs.

    python3 perfbench/run.py --workload sweep_pm --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one call at a time, single process):

  sweep_pm       cli sweep, PM coherent, beta x Lambda = {0.5,1,2} x {30,100,300},
                 n=4096, 64 trials per cell: nine one-batch cells, so per-sample
                 Newton dispatch at 64 rows and per-cell overhead dominate.
  squeezed_cell  cli simulate, squeezed_z at the optimal squeezing (beta=1, N=10),
                 192 trials: many 64-row batches of one cell, coloured-noise draws,
                 squeezed Newton path and the per-trial CSV emit.
  lorentz_long   three cli simulate runs, Lorentzian PM, beta=0.2, n=16384,
                 N in {100, 1000, 10000}, 4 trials: 8192-tap histories and the
                 n/2 = 8192 Levinson design.  Not listed in BENCHMARK.json: on
                 a shared 2-core VM its ten-run IQR/median of wall_s was
                 0.16-0.29, over the 0.25 bound in three of four sets.
  synthesis      no Monte Carlo: design_loop over PM/FM x coherent/squeezed at
                 n=4096 and 16384, cli design/limits/sense/fock and the 3x3
                 fluid commutator check.  Tracker changes must not move it.

A run first sets up (imports qdemod, writes the configs) and repeats that
set-up in child processes for setup_s.  Its first pass uses REFERENCE_SEED and
is compared with the seed commit's outputs in reference.json; further passes
use --seed until --seconds are spent (at least two passes) and must write
byte-identical files.  Every pass does the same work and is timed; wall_s is
their median.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 a traced pass follows an untraced one on the same
seed and the line carries the per-layer table (tracing.py), with the spans
written to .perfbench_work/.  record_reference.py rewrites reference.json.

BLAS threads are pinned to one (closed loop, one call at a time) before numpy
loads; the environment is printed with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_PASSES = 2
# workloads.WORKLOADS keys, listed here so parsing arguments does not import
# qdemod before the set-up is timed
WORKLOAD_NAMES = ("sweep_pm", "squeezed_cell", "lorentz_long", "synthesis")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_environment() -> None:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("QDEMOD_OUT", None)  # would redirect every cli output
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def setup(workload: str, seed: int, workdir: Path):
    """(seconds, workloads module, inputs per pass seed): import plus configs."""
    t0 = time.perf_counter()
    import workloads
    inputs = {}
    for s in {workloads.REFERENCE_SEED, seed}:
        d = workdir / f"inputs-{s}"
        d.mkdir(parents=True)
        inputs[s] = workloads.WORKLOADS[workload](s, str(d))
    return time.perf_counter() - t0, workloads, inputs


def setup_probe(args) -> int:
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        elapsed, _, _ = setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))
    return 0


def setup_samples(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Run:
    """Passes of one workload with their checks and failure counts."""

    def __init__(self, wl, inputs, reference, workdir: Path):
        self.wl = wl
        self.inputs = inputs
        self.reference = reference
        self.workdir = workdir
        self.attempted = 0
        self.failures = []        # (pass index, op name, reason)
        self.rel_diff_max = 0.0   # over the reference-seed passes
        self._files = {}          # pass seed -> {op: {file: bytes}}
        self.passes = 0

    def execute(self, seed: int):
        """Run one pass's operations; (seconds, [(op, result, error)])."""
        outdir = self.workdir / f"pass-{self.passes}"
        outdir.mkdir()
        done = []
        t0 = time.perf_counter()
        for op in self.inputs[seed].ops:
            try:
                done.append((op, op.run(str(outdir)), None))
            except Exception as exc:  # the op failed; the run reports it and goes on
                done.append((op, None, f"{type(exc).__name__}: {exc}"))
        return time.perf_counter() - t0, done

    def check(self, seed: int, done) -> None:
        index = self.passes
        self.passes += 1
        self.attempted += len(done)
        failed = {}
        numbers = {}
        files = {}
        for op, result, error in done:
            if error is None:
                try:
                    out = op.read(op.name, result)
                except Exception as exc:  # unreadable output fails the op
                    out = self.wl.Outputs(failure=f"output unreadable: {exc!r}")
                error = out.failure
                numbers.update(out.numbers)
                files[op.name] = out.files
            if error:
                failed[op.name] = error
        first = self._files.setdefault(seed, files)
        for name, blobs in files.items():
            if first is not files and first.get(name) != blobs:
                failed.setdefault(name, "output files differ from an earlier pass on this seed")
        if seed == self.wl.REFERENCE_SEED:
            worst, bad = self.wl.compare(numbers, self.reference)
            self.rel_diff_max = max(self.rel_diff_max, worst)
            for label in bad:
                failed.setdefault(label.split(".")[0], f"differs from reference at {label}")
        self.failures += [(index, name, why) for name, why in failed.items()]
        shutil.rmtree(self.workdir / f"pass-{index}", ignore_errors=True)

    def timed_pass(self, seed: int) -> float:
        elapsed, done = self.execute(seed)
        self.check(seed, done)
        return elapsed


def traced_pass(run: Run, seed: int, tracing):
    """(traced pass seconds, tracer, open-loop replay seconds)."""
    import qdemod.pll
    tracer = tracing.Tracer()
    tracer.pass_id = run.passes
    tracer.install()
    try:
        with tracer.span("pass", "harness"):
            _, done = run.execute(seed)
    finally:
        tracer.restore()
    root = tracer.spans[0]
    run.check(seed, done)
    open_loop_s = 0.0
    for cfg, idx in tracer.batches:
        t0 = time.perf_counter()
        qdemod.pll.simulate_batch(cfg, idx, force_lock=True)
        open_loop_s += time.perf_counter() - t0
    return root[4] - root[3], tracer, open_loop_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qdemod" / "__init__.py").is_file():
        print(f"qdemod sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_probe:
        return setup_probe(args)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        setup_s, wl, inputs = setup(args.workload, args.seed, workdir)
        setups = [setup_s] + setup_samples(args)
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
        run = Run(wl, inputs, reference, workdir)
        print("env: " + json.dumps(environment()))
        times = [run.timed_pass(wl.REFERENCE_SEED)]
        t_start = time.perf_counter() - times[0]
        if args.trace:
            import tracing
            times.append(run.timed_pass(args.seed))
            pass_s, tracer, open_loop_s = traced_pass(run, args.seed, tracing)
            metrics = tracing.layer_metrics(tracer, pass_s, times[-1], open_loop_s)
            WORK.mkdir(exist_ok=True)
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(str(spans_path))
            selfs = tracing.self_times(tracer.spans)
            print(f"traced pass {pass_s:.4f} s; self times: " + ", ".join(
                f"{layer} {t:.4f}" for layer, t in selfs.items())
                + f"; sum {sum(selfs.values()):.4f} s")
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            print("note: pll.track_s is not split into history vs Newton; that "
                  "needs spans inside qdemod.pll")
        else:
            while True:
                times.append(run.timed_pass(args.seed))
                spent = time.perf_counter() - t_start
                if len(times) >= MIN_PASSES and spent + statistics.median(times) > args.seconds:
                    break
            wall_s = statistics.median(times)
            metrics = {
                "wall_s": (wall_s, "s"),
                "trials_per_s": (inputs[args.seed].trials / wall_s, "1/s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    for i, name, why in run.failures:
        print(f"FAILED pass {i} {name}: {' | '.join(why.splitlines())}")
    print(f"failed operations: {failed} of {run.attempted} attempted")
    metrics["check.failed_fraction"] = (failed / run.attempted, "ratio")
    # a missing or NaN output has an infinite difference; JSON has no infinity
    metrics["check.result_rel_diff_max"] = (min(run.rel_diff_max, sys.float_info.max), "ratio")
    print(f"pass times (s): {' '.join(f'{t:.4f}' for t in times)}")
    print(f"setup samples (s): {' '.join(f'{t:.4f}' for t in setups)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:  # the end-to-end result carries exactly its metrics
        del metrics["check.failed_fraction"], metrics["check.result_rel_diff_max"]
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
