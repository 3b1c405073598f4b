"""Hash the outputs of every configs/ fixture on both tracker paths.

Usage, from the repository root:

    PYTHONPATH=src python tools/fixture_hashes.py [--keep DIR] [--against DIR]

Each fixture runs through qdemod.cli_main twice: once with the compiled
library and once with qdemod._tracker.load patched to return
qdemod._numpy_kernel (None in a tree from before it), so the closed loop,
the filter products and the normal-equation solves take the library's
numpy forms.  For every output but manifest.txt (which records times) it
prints one line, `fixture file sha256[:8]`, the hash of the compiled path's
bytes, and to stderr each fixture's wall time on each path.  It exits 1 if
a fixture fails or the two paths write different bytes, else 0.

--keep DIR saves each fixture's compiled-path outputs as DIR/fixture/file.
--against DIR compares them with outputs kept earlier, from another tree:
for each CSV that changed it prints the worst relative move of every
numeric column that moved, the cells that differ in every other column, and
the totals of a cycle_slips column, kept and now; for any other changed
file, that its bytes differ.  Run the other tree's
code with this script by pointing PYTHONPATH at it:

    git archive <commit> | tar -x -C ../before
    PYTHONPATH=../before/src python tools/fixture_hashes.py --keep ../kept
    PYTHONPATH=src python tools/fixture_hashes.py --against ../kept
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import math
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

from qdemod import _tracker
from qdemod.cli import cli_main

try:
    from qdemod import _numpy_kernel as NUMPY  # what load() returns without a compiler
except ImportError:  # a tree from before _numpy_kernel, whose load() returned None
    NUMPY = None

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_fixture(path: Path, outdir: Path) -> dict:
    """{output name: sha256 hex} of one fixture's run, manifest.txt left out."""
    command = re.search(r"^\[(\w+)\]", path.read_text(), re.M).group(1)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([command, str(path), "--out", str(outdir)])
    if code != 0:
        raise RuntimeError(f"{path.name}: {command} exited {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.txt"}


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _relative_move(old: float, new: float) -> float:
    """|new - old| / |old|: 0 for equal values (NaN included), inf from 0."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def compare_csv(kept: Path, now: Path) -> list:
    """Lines describing how the CSV now differs from the kept one."""
    with open(kept, newline="", encoding="utf-8") as fh:
        old_rows = list(csv.DictReader(fh))
    with open(now, newline="", encoding="utf-8") as fh:
        new_rows = list(csv.DictReader(fh))
    if len(old_rows) != len(new_rows) or (old_rows and old_rows[0].keys() != new_rows[0].keys()):
        return [f"  rows or columns differ: {len(old_rows)} kept, {len(new_rows)} now"]
    lines = []
    for column in old_rows[0] if old_rows else ():
        pairs = [(a[column], b[column]) for a, b in zip(old_rows, new_rows)]
        values = [(_float(a), _float(b)) for a, b in pairs]
        if all(a is not None and b is not None for a, b in values):
            worst = max(_relative_move(a, b) for a, b in values)
            if worst:
                lines.append(f"  {column}: worst relative move {worst:.3g}")
        else:
            differ = sum(a != b for a, b in pairs)
            if differ:
                lines.append(f"  {column}: {differ} of {len(pairs)} cells differ")
        if column == "cycle_slips":
            total = [sum(int(v[side]) for v in pairs) for side in (0, 1)]
            lines.append(f"  cycle_slips total: {total[0]} kept, {total[1]} now")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--keep", type=Path, help="save each fixture's outputs under this directory")
    p.add_argument("--against", type=Path, help="compare with outputs saved by --keep")
    args = p.parse_args(argv)
    if _tracker.load() is NUMPY:
        print("note: no compiled library; both paths run the numpy loops", file=sys.stderr)
    load = _tracker.load
    same = True
    with tempfile.TemporaryDirectory(prefix="fixture-hashes-") as tmp:
        for path in sorted(CONFIGS.glob("*.cfg")):
            outdir = Path(tmp) / path.stem / "compiled"
            try:
                start = time.perf_counter()
                compiled = run_fixture(path, outdir)
                middle = time.perf_counter()
                _tracker.load = lambda: NUMPY
                numpy = run_fixture(path, Path(tmp) / path.stem / "numpy")
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            finally:
                _tracker.load = load
            end = time.perf_counter()
            print(f"{path.stem}: compiled {middle - start:.2f} s, numpy {end - middle:.2f} s",
                  file=sys.stderr)
            for name, digest in compiled.items():
                print(f"{path.stem} {name} {digest[:8]}")
            if compiled != numpy:
                same = False
                print(f"{path.stem}: compiled {compiled} != numpy {numpy}", file=sys.stderr)
            if args.keep:
                shutil.copytree(outdir, args.keep / path.stem, dirs_exist_ok=True,
                                ignore=shutil.ignore_patterns("manifest.txt"))
            if args.against:
                for name in compiled:
                    kept, now = args.against / path.stem / name, outdir / name
                    if not kept.is_file():
                        print(f"  {name}: nothing kept")
                    elif kept.read_bytes() == now.read_bytes():
                        continue
                    elif name.endswith(".csv"):
                        print("\n".join(compare_csv(kept, now)))
                    else:
                        print(f"  {name}: bytes differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
