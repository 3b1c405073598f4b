"""Hash the outputs of every configs/ fixture on both tracker paths.

Usage, from the repository root:

    PYTHONPATH=src python tools/fixture_hashes.py

Each fixture runs through qdemod.cli_main twice: once with the compiled
library and once with qdemod._tracker.load patched to return None, so the
closed loop and the normal-equation solves take the numpy loops.  For every
output but manifest.txt (which records times) it prints one line,
`fixture file sha256[:8]`, the hash of the compiled path's bytes.  It exits
1 if a fixture fails or the two paths write different bytes, else 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

from qdemod import _tracker
from qdemod.cli import cli_main

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


def main() -> int:
    if _tracker.load() is None:
        print("note: no compiled library; both paths run the numpy loops", file=sys.stderr)
    load = _tracker.load
    same = True
    with tempfile.TemporaryDirectory(prefix="fixture-hashes-") as tmp:
        for path in sorted(CONFIGS.glob("*.cfg")):
            try:
                compiled = run_fixture(path, Path(tmp) / path.stem / "compiled")
                _tracker.load = lambda: None
                numpy = run_fixture(path, Path(tmp) / path.stem / "numpy")
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            finally:
                _tracker.load = load
            for name, digest in compiled.items():
                print(f"{path.stem} {name} {digest[:8]}")
            if compiled != numpy:
                same = False
                print(f"{path.stem}: compiled {compiled} != numpy {numpy}", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
