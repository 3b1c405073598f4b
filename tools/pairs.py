"""Alternating parent/change pairs of perfbench/run.py, summarised.

Usage, from the repository root, with the parent commit unpacked beside it:

    git archive <parent-commit> | tar -x -C ../parent
    python tools/pairs.py --parent ../parent --workload sweep_pm \\
        --pairs 10 --seconds 20 --seed 5001

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S` once in
the parent tree and once in this one, one process at a time; the parent goes
first on even pairs and second on odd ones.  Before the first pair each tree
builds its tracker library, so no timed pass pays for the compiler.  Each
run's last stdout line is its JSON result; a run that fails, or reports
`correct: false` or failed operations, stops the script with exit 1.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the change of the medians relative to the parent's, the
parent's interquartile range and the pairs the change wins (ties count for
neither side), in the metric's better direction.  A gain may be claimed when
the change wins at least nine tenths of the pairs and its median differs
from the parent's by more than the parent's interquartile range; the last
column says whether both hold.  The script edits nothing in either tree
except the build cache the package keeps itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="a checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0 or args.seed < 0:
        p.error("need --pairs >= 2, --seconds > 0 and --seed >= 0")
    if not (args.parent / "perfbench" / "run.py").is_file():
        p.error(f"no perfbench/run.py under {args.parent}")
    return args


def build(tree: Path) -> None:
    """Build (or find cached) the tree's tracker library before any timing."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", "from qdemod import _tracker; _tracker.load()"],
                   cwd=tree, env=env, check=True)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metric values of one perfbench run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: seed {seed}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(metric: dict, parent: list, change: list) -> str:
    """One line: each side's median [q1, q3], the relative change of the
    medians, the parent's IQR, the change's wins and whether a gain holds."""
    name, lower = metric["name"], metric["better"] == "lower"
    p1, pm, p3 = statistics.quantiles(parent, n=4)
    c1, cm, c3 = statistics.quantiles(change, n=4)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    gain = (cm < pm) if lower else (cm > pm)
    holds = wins >= WIN_SHARE * len(parent) and gain and abs(cm - pm) > p3 - p1
    return (f"{name:13s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"{(cm - pm) / pm:+.1%} of parent, parent IQR {p3 - p1:.3g}, "
            f"wins {wins}/{len(parent)}, gain holds: {'yes' if holds else 'no'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_tree, change_tree = args.parent.resolve(), ROOT
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    for tree in (parent_tree, change_tree):
        build(tree)
    runs = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent_tree if side == "parent" else change_tree
                runs[side].append(run(tree, args.workload, seed, args.seconds))
            print(f"pair {i} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> "
                f"{runs['change'][-1][m['name']]:.4g}" for m in metrics), flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}; all runs correct")
    for metric in metrics:
        name = metric["name"]
        print(summary(metric, [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
