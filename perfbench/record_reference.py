"""Record reference.json: every checked output number of one pass per workload
on REFERENCE_SEED.  Run it at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.pin_environment()
    import workloads
    seed = workloads.REFERENCE_SEED
    reference = {}
    workdir = run.WORK / "record-reference"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name in run.WORKLOAD_NAMES:
            _, wl, inputs = run.setup(name, seed, workdir / name)
            _, done = run.Run(wl, inputs, {}, workdir / name).execute(seed)
            numbers = {}
            for op, result, error in done:
                out = op.read(op.name, result) if error is None else None
                if out is None or out.failure:
                    print(f"{name}/{op.name} failed: {error or out.failure}", file=sys.stderr)
                    return 1
                numbers.update({k: v for k, (v, _) in out.numbers.items()})
            reference[name] = numbers
            print(f"{name}: {len(numbers)} numbers")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
