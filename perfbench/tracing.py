"""Spans recorded from outside the program, and the per-layer table.

The traced pass wraps each public function where its caller looks it up
(`qdemod.cli.design_loop`, `qdemod.pll.simulate_batch`, ...) and restores
it afterwards; no file of the package changes.  A span is
(id, name, layer, start, end, parent id, pass id), kept in memory and
written out when the run ends.  A layer's self time is its spans' duration
minus the time covered by their child spans, so the self times of all
layers, `cli` and the harness's own pass span add up to the traced pass.

Splitting the tracker time into history convolution and Newton closure
needs spans inside `qdemod.pll`; from outside, `pll.track_s` is the batch
time minus an open-loop (`force_lock=True`) replay of the same trials.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import qdemod.cli
import qdemod.fock
import qdemod.limits
import qdemod.pll
import qdemod.wiener
from qdemod.pll import LoopDivergenceError

# (owner, attribute, layer).  Owners are where the callers look names up:
# cli imported these names into its namespace, pll's draw helpers use
# pll's globals, cli reaches limits and fock through the module objects.
TARGETS = (
    (qdemod.cli, "cli_main", "cli"),
    (qdemod.cli, "parse_config", "config"),
    (qdemod.cli, "serialize_config", "config"),
    (qdemod.cli, "design_loop", "wiener"),
    (qdemod.wiener, "design_loop", "wiener"),
    (qdemod.cli, "run_cell", "pll"),
    (qdemod.pll, "simulate_batch", "pll"),
    (qdemod.pll, "aggregate", "pll"),
    (qdemod.pll, "stream", "draw"),
    (qdemod.pll, "message_psd", "draw"),
    (qdemod.pll, "squeezed_covariance_psds", "draw"),
    (qdemod.pll, "color_noise", "draw"),
    (qdemod.cli, "emit_results", "results"),
    (qdemod.cli, "dump_design", "results"),
    (qdemod.limits, "sigma0", "limits"),
    (qdemod.limits, "sigma0_grid", "limits"),
    (qdemod.limits, "irreducible_error", "limits"),
    (qdemod.limits.LimitQuery, "resolved_lambda", "limits"),
    (qdemod.limits.LimitQuery, "evaluate", "limits"),
    (qdemod.cli, "SensorConfig", "sensing"),
    (qdemod.cli, "position_pm_params", "sensing"),
    (qdemod.cli, "velocity_fm_params", "sensing"),
    (qdemod.cli, "interrogation_constraint", "sensing"),
    (qdemod.fock, "povm_resolution_check", "fock"),
    (qdemod.fock, "unitary_defect", "fock"),
    (qdemod.fock, "pegg_barnett_unitary", "fock"),
    (qdemod.fock, "pegg_barnett_commutator_residual", "fock"),
    (qdemod.fock, "coherent_coeffs", "fock"),
    (qdemod.fock, "canonical_phase_density", "fock"),
    (qdemod.fock, "density_weight", "fock"),
    (qdemod.fock, "phase_grid", "fock"),
    (qdemod.fock, "fluid_velocity_commutator_check", "fock"),
)
LAYERS = ("cli", "config", "wiener", "pll", "draw", "results", "limits",
          "sensing", "fock", "harness")


class Tracer:
    """In-memory span recorder with call facts the layer table needs."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._saved = []
        self.batches = []       # (cfg, trial indices) of every simulate_batch call
        self.cells = []         # (trials, locked fraction, slips) per aggregate call
        self.residuals = []     # wh_residual of every design
        self.divergences = 0
        self.emitted_bytes = 0

    def span(self, name: str, layer: str):
        return _Span(self, name, layer)

    def _observe(self, attr, args, kwargs, result):
        if attr == "simulate_batch":
            cfg = args[0]
            idx = kwargs.get("trial_indices", args[1] if len(args) > 1 else None)
            self.batches.append((cfg, list(range(cfg.trials)) if idx is None else list(idx)))
        elif attr == "aggregate":
            self.cells.append((len(result.trials), result.locked_fraction,
                               result.total_slips))
        elif attr == "design_loop":
            self.residuals.append(result.wh_residual)
        elif attr in ("emit_results", "dump_design"):
            self.emitted_bytes += os.path.getsize(args[1])

    def install(self):
        for owner, attr, layer in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, attr, layer))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, attr, layer):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(attr, layer):
                try:
                    result = fn(*args, **kwargs)
                except LoopDivergenceError:
                    tracer.divergences += 1
                    raise
            tracer._observe(attr, args, kwargs, result)
            return result
        return traced

    def write(self, path: str) -> None:
        keys = ("id", "name", "layer", "start", "end", "parent", "pass")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        stack = tracer._stack
        self.rec = [len(tracer.spans), name, layer, 0.0, 0.0,
                    stack[-1] if stack else None, tracer.pass_id]

    def __enter__(self):
        self.tracer.spans.append(self.rec)
        self.tracer._stack.append(self.rec[0])
        self.rec[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[4] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans) -> dict:
    """Seconds of self time per layer."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[5] is not None:
            child_time[s[5]] += s[4] - s[3]
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s[2]] += (s[4] - s[3]) - child_time[s[0]]
    return out


def _busy(spans, layer):
    """(calls, seconds) of a layer's outermost spans (nested same-layer calls once)."""
    top = [s for s in spans
           if s[2] == layer and (s[5] is None or spans[s[5]][2] != layer)]
    return len(top), sum(s[4] - s[3] for s in top)


def layer_metrics(tracer: Tracer, pass_s: float, untraced_pass_s: float,
                  open_loop_s: float) -> dict:
    """The per-layer table of one traced pass (values in their stated units)."""
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s[4] - s[3])
    designs = by_name.get("design_loop", [])
    batch = by_name.get("simulate_batch", [])
    rows = sum(len(idx) for _, idx in tracer.batches)
    trials = sum(c[0] for c in tracer.cells)
    draw_calls, draw_s = _busy(spans, "draw")
    selfs = self_times(spans)
    return {
        "config.parse_s": (_busy(spans, "config")[1], "s"),
        "wiener.design_calls": (len(designs), "count"),
        "wiener.design_s": (sum(designs), "s"),
        "wiener.design_ms_p50": (1e3 * statistics.median(designs) if designs else 0.0, "ms"),
        "wiener.wh_residual_max": (max(tracer.residuals, default=0.0), "ratio"),
        "draw.calls": (draw_calls, "count"),
        "draw.s": (draw_s, "s"),
        "pll.batches": (len(batch), "count"),
        "pll.rows_mean": (rows / len(batch) if batch else 0.0, "count"),
        "pll.batch_s": (sum(batch), "s"),
        "pll.ms_per_trial": (1e3 * sum(batch) / rows if rows else 0.0, "ms"),
        "pll.open_loop_s": (open_loop_s, "s"),
        "pll.track_s": (sum(batch) - open_loop_s, "s"),
        "pll.aggregate_s": (sum(by_name.get("aggregate", [])), "s"),
        "pll.locked_fraction": (
            sum(c[0] * c[1] for c in tracer.cells) / trials if trials else 0.0, "ratio"),
        "pll.slips_total": (sum(c[2] for c in tracer.cells), "count"),
        "pll.divergence_errors": (tracer.divergences, "count"),
        "results.emit_s": (_busy(spans, "results")[1], "s"),
        "results.bytes": (tracer.emitted_bytes, "bytes"),
        "limits.eval_s": (_busy(spans, "limits")[1], "s"),
        "sensing.map_s": (_busy(spans, "sensing")[1], "s"),
        "fock.oracle_s": (_busy(spans, "fock")[1], "s"),
        "cli.self_s": (selfs["cli"], "s"),
        "trace.pass_s": (pass_s, "s"),
        "trace.overhead_s": (pass_s - untraced_pass_s, "s"),
    }
