"""Alternating in-process A/B of one row group's closed loop, two trees.

Usage, from the repository root, with the parent commit unpacked beside it:

    git archive <parent-commit> | tar -x -C ../parent
    python tools/kernel_ab.py --parent ../parent [--rounds 15] [--seed 16587]

Both trees' qdemod packages are imported into this one process, the
parent's under another name, and each loads (building it if need be) its own
compiled library.  There is one 32-row group, trials 0 .. 31 at n = 4096,
per light: coherent PM at beta = 1 and Lambda = 100, a cell of the
`sweep_pm` grid, and squeezed_z at beta = 1 and the optimal squeezing for
N = 10, the `squeezed_cell` point.  Each tree draws the group once into a
draw store of its own, so no pass of the loop draws.  Then every round
draws the group through each tree's pll._draw with no store, timed on its
own (the draw milliseconds: the white draws and their colouring), and runs
it through each tree's pll._simulate_group on this thread, the tree that
goes first alternating from round to round, with the library's close_group
wrapped by a timer: the close_group milliseconds are that call's, and the
post-loop milliseconds run from its return to the group's end (the per-trial
statistics and the estimate).

Per light and tree it prints the median and the quartiles of the three over
the rounds, the sha256 (first 16 hex digits) of the draws (the message and
the quadratures, x0 where the light has it), and the sha256 of the record
and phip as close_group left them.  The tracking error e is not hashed: the kernel keeps
it to itself, and an older close_group that takes it as an argument only
leaves there the last sample's e, which phip = phibar - e carries.  The
record is the last m samples (phip's width) of close_group's record
argument: all of a (rows, m) rec, or what follows the nt steady-state
records in a tree whose (rows, nt + m) fr holds them too.
It exits 1 when the two trees' hashes or per-trial results differ, compared
by column (trial, mse, sigma0_sq_empirical and cycle_slips, read off each
row, so a tree whose group returns a list of objects with those attributes
compares too), and 2 when a tree has no compiled library.  The script relies
on pll._cell_work returning a partial of pll._simulate_group with the
library's close_group, a bound method, among its arguments, whatever that
close_group's parameters; it edits nothing in either tree except the build
cache the package keeps itself.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("trial", "mse", "sigma0_sq_empirical", "cycle_slips")
LIGHTS = {
    "pm": "beta = 1.0\nlambda = 100\n",
    "squeezed_z": "beta = 1.0\nn_photon = 10\nr = 1.5222612188617113\nvariant = squeezed_z\n",
}


def load_tree(src: Path, name: str):
    """The qdemod package under src, imported as the top-level package name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "qdemod" / "__init__.py", submodule_search_locations=[str(src / "qdemod")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One tree's group of one light, drawn once, and its timings."""

    def __init__(self, package: str, light: str, seed: int):
        pll = importlib.import_module(f"{package}.pll")
        cli = importlib.import_module(f"{package}.cli")
        config = importlib.import_module(f"{package}.config")
        tracker = importlib.import_module(f"{package}._tracker")
        kernel = tracker.load()
        if not isinstance(kernel, tracker.Kernel):  # None or the numpy forms
            raise RuntimeError(f"{package}: no compiled library")
        text = f"[simulate]\n{LIGHTS[light]}trials = 32\nseed = {seed}\n"
        cfg = config.parse_config_text(text, "simulate")
        pll_cfg, _ = cli._operating_point(cfg, "ab", cfg["beta"], cfg["r"], cfg["lambda"],
                                          cfg["n_photon"])
        self.trials = list(range(32))
        store = pll._DrawStore()
        pll._draw(pll_cfg, self.trials, store)
        run, _ = pll._cell_work(pll_cfg, store=store)
        self.run = partial(run.func, *[self.timed(a) if getattr(a, "__self__", None) is kernel
                                       and a.__name__ == "close_group" else a for a in run.args])
        self.draw = partial(pll._draw, pll_cfg, self.trials, None)
        self.draw_ms, self.close_ms, self.post_ms, self.hashes = [], [], [], None
        self.draw_hash = None

    def timed(self, close):
        def call(*args):
            t0 = time.perf_counter()
            close(*args)
            self.close_ms.append(1e3 * (time.perf_counter() - t0))
            *_, rec, phip = args
            self.hashes = [hashlib.sha256(a.tobytes()).hexdigest()[:16]
                           for a in (rec[:, -phip.shape[1]:], phip)]
            self.closed = time.perf_counter()  # the post-loop time leaves the hashing out
        return call

    def round(self):
        t0 = time.perf_counter()
        draws = self.draw()
        self.draw_ms.append(1e3 * (time.perf_counter() - t0))
        self.draw_hash = hashlib.sha256(b"".join(a.tobytes() for a in draws
                                                 if a is not None)).hexdigest()[:16]
        del draws
        results = self.run(self.trials)
        self.post_ms.append(1e3 * (time.perf_counter() - self.closed))
        return results


def quartiles(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:7.3f} ms [{q1:.3f}, {q3:.3f}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="a checkout of the parent commit")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--seed", type=int, default=16587, help="the Monte Carlo seed of the group")
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("need --rounds >= 2")
    trees = {"parent": args.parent.resolve() / "src", "change": ROOT / "src"}
    if not (trees["parent"] / "qdemod" / "__init__.py").is_file():
        p.error(f"no src/qdemod under {args.parent}")
    packages = {side: load_tree(src, f"qdemod_ab_{side}") for side, src in trees.items()}
    same = True
    for light in LIGHTS:
        try:
            sides = {side: Side(package.__name__, light, args.seed)
                     for side, package in packages.items()}
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        results = {}
        for i in range(args.rounds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                results[side] = sides[side].round()
        for side, s in sides.items():
            print(f"{light:10s} {side:6s} draw {quartiles(s.draw_ms)}  "
                  f"close_group {quartiles(s.close_ms)}  post-loop {quartiles(s.post_ms)}  "
                  f"draws {s.draw_hash} rec {s.hashes[0]} phip {s.hashes[1]}")
        fields = {side: [tuple(getattr(t, c) for c in COLUMNS) for t in r]
                  for side, r in results.items()}
        if (sides["parent"].hashes != sides["change"].hashes or fields["parent"] != fields["change"]
                or sides["parent"].draw_hash != sides["change"].draw_hash):
            print(f"{light}: the trees' outputs differ")
            same = False
    print(f"{args.rounds} alternating rounds per light, seed {args.seed}; "
          f"outputs {'the same' if same else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
