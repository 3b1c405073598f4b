"""The package as a whole: src/qdemod holds only what a command runs, and
the README's library quick start runs as written."""

import ast
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qdemod"
ENTRY_POINTS = (("cli", "cli_main"), ("cli", "main"))

# Public top-level functions and classes that no command reaches yet, each
# with the open ROADMAP item that wires it up; that item deletes its line.
UNREACHED = {
    "limits.quantum_limit_snr": "an output of limits with ROADMAP item 7",
    "limits.optimal_squeeze": "an output of limits with ROADMAP item 7",
    "fock.instantaneous_frequency_operator": "a fock_checks.csv row with ROADMAP item 9",
}


def _top_level(tree):
    """({name: node} of a module's top-level defs, classes and assignment
    targets, {local name: (module, name)} of its relative imports, and the
    other top-level statements, which run on import)."""
    defs, imports, run = {}, {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (node.module or "__init__",
                                                           alias.name)
        elif not isinstance(node, ast.Import) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            run.append(node)
    return defs, imports, run


def unreached_definitions():
    """'module.name' of every public top-level function and class of the
    package that no command reaches.

    The walk starts at the entry points and at every top-level statement
    that runs on import.  A name resolves through its module's definitions
    and relative imports; an attribute `x.name` reaches every top-level
    definition called name in any module, so a reached definition is never
    reported."""
    modules = {p.stem: _top_level(ast.parse(p.read_text(encoding="utf-8")))
               for p in sorted(PACKAGE.glob("*.py"))}
    by_name = {}
    for mod, (defs, _, _) in modules.items():
        for name in defs:
            by_name.setdefault(name, []).append((mod, name))

    def resolve(mod, name, seen=()):
        defs, imports, _ = modules.get(mod, ({}, {}, ()))
        if name in defs:
            return [(mod, name)]
        if name in imports and (mod, name) not in seen:
            return resolve(*imports[name], seen + ((mod, name),))
        return []

    reached = set()
    work = [(mod, node) for mod, (_, _, run) in modules.items() for node in run]
    work += [(mod, modules[mod][0][name]) for mod, name in ENTRY_POINTS]
    reached.update(ENTRY_POINTS)
    while work:
        mod, node = work.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found = resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute):
                found = by_name.get(sub.attr, [])
            else:
                continue
            for key in found:
                if key not in reached:
                    reached.add(key)
                    work.append((key[0], modules[key[0]][0][key[1]]))
    return {f"{mod}.{name}" for mod, (defs, _, _) in modules.items()
            for name, node in defs.items()
            if not name.startswith("_") and (mod, name) not in reached
            and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_every_public_definition_is_reached_from_a_command():
    """Every public top-level function and class of src/qdemod is reached
    from cli_main or main, but for the listed ones, and a listed one that a
    command reaches, or that is gone, is a stale line."""
    unreached = unreached_definitions()
    assert not unreached - UNREACHED.keys(), (
        f"not reached from any command: {sorted(unreached - UNREACHED.keys())}")
    assert not UNREACHED.keys() - unreached, (
        f"stale UNREACHED lines: {sorted(UNREACHED.keys() - unreached)}")


def test_readme_quick_start_runs_as_written(capsys):
    """The README's library quick start, run verbatim, gives a 256-trial
    cell whose per-trial table has the columns the README names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```$", readme,
                      re.M | re.S).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    cell = scope["cell"]
    assert cell.trials.shape == (256,)
    assert cell.trials.dtype.names == ("trial", "mse", "sigma0_sq_empirical", "cycle_slips")
    assert np.isfinite(cell.snr_empirical) and cell.snr_empirical > 0
    assert "predicted" in capsys.readouterr().out
