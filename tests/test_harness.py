import importlib.util
import os
import re
import shutil
import string
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdemod import _tracker, cli, pll
from qdemod.cli import cli_main
from qdemod.config import (SCHEMAS, ConfigError, parse_config_text,
                           serialize_config)
from qdemod.results import CSV_COLUMNS, emit_results
from qdemod.wiener import dump_design


def test_parse_minimal_limits():
    cfg = parse_config_text("beta = 2.0\nlambda = 100\n", "limits")
    assert cfg["beta"] == 2.0
    assert cfg["lambda"] == 100.0
    assert cfg["mod_kind"] == "pm"  # default echoed


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config_text("beta = 2.0\nwavelength = 3\n", "limits")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("beta = 2.0\nbeta = 3.0\n", "limits")


def test_parse_missing_required_lists_keys():
    with pytest.raises(ConfigError, match="beta"):
        parse_config_text("", "limits")


def test_parse_type_error_has_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("beta = fast\n", "limits")


def test_parse_section_header():
    cfg = parse_config_text("[limits]\nbeta = 1.0\nlambda = 30\n", "limits")
    assert cfg["beta"] == 1.0
    with pytest.raises(ConfigError, match="section"):
        parse_config_text("[sweep]\nbeta = 1.0\n", "limits")


def test_parse_float_list():
    cfg = parse_config_text("betas = 0.5, 1, 2\nlambdas = 30 100\n", "sweep")
    assert cfg["betas"] == (0.5, 1.0, 2.0)
    assert cfg["lambdas"] == (30.0, 100.0)


def test_config_round_trip():
    text = "beta = 2.0\nlambda = 100\nr = 0.25\n"
    cfg = parse_config_text(text, "limits")
    again = parse_config_text(serialize_config(cfg, "limits"), "limits")
    assert again == cfg
    cfg2 = parse_config_text("betas = 1, 2\nn_photon = 10\ntrials = 8\n", "sweep")
    assert parse_config_text(serialize_config(cfg2, "sweep"), "sweep") == cfg2


_LOOP_DEFAULTS = ("n_samples = 4096\nbandwidth = 1.0\nmessage_kind = flat\n"
                  "band_bins = 127\nlorentz_ratio = 256.0\nmod_kind = pm\n")
_MONTE_CARLO_DEFAULTS = ("delay = -1\nvariant = coherent\ntrials = 64\n"
                         "seed = 12345\nfeedback_delay = 0\n")


def test_serialize_config_defaults_pinned():
    sim = parse_config_text("beta = 1.0\n", "simulate")
    assert serialize_config(sim, "simulate") == (
        "[simulate]\n" + _LOOP_DEFAULTS + "beta = 1.0\nr = 0.0\n" + _MONTE_CARLO_DEFAULTS)
    sweep = parse_config_text("betas = 1.0\n", "sweep")
    assert serialize_config(sweep, "sweep") == (
        "[sweep]\n" + _LOOP_DEFAULTS + "betas = 1.0\nrs = 0.0\n" + _MONTE_CARLO_DEFAULTS)


_FINITE = st.floats(allow_nan=False)
_VALUES = {
    "str": st.text(string.ascii_letters + string.digits + "_-.+/", min_size=1),
    "int": st.integers(-10**12, 10**12),
    "float": _FINITE,
    "floatlist": st.lists(_FINITE, min_size=1, max_size=5).map(tuple),
}


@st.composite
def _resolved_config(draw):
    command = draw(st.sampled_from(sorted(SCHEMAS)))
    cfg = {}
    for key in SCHEMAS[command]:
        value = _VALUES[key.typ]
        if key.default is None:  # optional: absent resolves back to None
            value = st.none() | value
        cfg[key.name] = draw(value)
    return command, cfg


@settings(max_examples=200, deadline=None)
@given(_resolved_config())
def test_config_round_trip_every_schema(case):
    command, cfg = case
    assert parse_config_text(serialize_config(cfg, command), command) == cfg


def test_emit_results_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_emit_results_full_row(tmp_path):
    row = {c: 1.0 for c in CSV_COLUMNS}
    row.update(run_id="sweep-0", seed=7, variant="coherent", mod_kind="pm",
               cycle_slips=2, pass_threshold=True)
    path = tmp_path / "one.csv"
    emit_results([row], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert len(fields) == 15
    assert fields[0] == "sweep-0"
    assert fields[-1] == "true"
    assert "e" in fields[4]  # full-precision scientific notation


def test_emit_results_deterministic(tmp_path):
    rows = [{c: 0.5 for c in CSV_COLUMNS} for _ in range(3)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(rows, a)
    emit_results(rows, b)
    assert a.read_bytes() == b.read_bytes()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _csv_rows(out):
    lines = (out / "results.csv").read_text().splitlines()
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


def _assert_manifest_lists_every_output_once(out):
    """The manifest's output lines name each file the run wrote, once."""
    listed = re.findall(r"^output = (.*)$", (out / "manifest.txt").read_text(), re.M)
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.txt")
    assert sorted(Path(p).name for p in listed) == written
    assert all(Path(p).parent == out for p in listed)


@pytest.mark.parametrize("kind", ["pm", "fm"])
def test_cli_limits_rejects_an_overflowing_beta_squared_lambda(kind, tmp_path, capsys):
    """beta and lambda are each finite, but beta^2 lambda overflows, or beta^2
    itself does (not an OverflowError): a config error (exit 2) naming
    beta^2 lambda, and no results.csv."""
    for beta, lam in (("2", "1e308"), ("1e200", "1")):
        cfg = _write(tmp_path, "limits.cfg", f"mod_kind = {kind}\nbeta = {beta}\nlambda = {lam}\n")
        out = tmp_path / "out"
        assert cli_main(["limits", cfg, "--out", str(out)]) == 2
        assert "config error: beta^2 lambda must be finite" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


def test_cli_limits_end_to_end(tmp_path, capsys, kernel_clones):
    cfg = _write(tmp_path, "limits.cfg", "beta = 2.0\nlambda = 100\n")
    out = tmp_path / "out"
    rc = cli_main(["limits", cfg, "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "sigma_sq = 0.0024938" in captured
    body = (out / "results.csv").read_text().splitlines()
    row = dict(zip(body[0].split(","), body[1].split(",")))
    assert float(row["snr_analytic"]) == pytest.approx(401.0, rel=1e-12)
    assert float(row["sigma0_sq"]) == pytest.approx(np.log(401.0) / 100.0, rel=1e-12)
    assert (out / "manifest.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "results.csv" in manifest and "beta = 2.0" in manifest
    assert f"numpy = {np.__version__}" in manifest
    assert f"nproc = {os.cpu_count()}\n" in manifest
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert f"workers = {cpus}\n" in manifest
    assert f"OPENBLAS_NUM_THREADS = {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}\n" in manifest
    # limits runs no closed loop; an earlier simulation in this process may have
    tracker = re.search(r"^tracker = (not run|numpy|c kernel [0-9a-f]{16} \((\w+)\))$",
                        manifest, re.M)
    assert tracker and tracker.group(2) in (None, *kernel_clones)


def test_python_m_qdemod(tmp_path):
    cfg = _write(tmp_path, "limits.cfg", "beta = 2.0\nlambda = 100\n")
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "QDEMOD_OUT"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-m", "qdemod", "limits", cfg, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "results.csv").exists()


def test_python_m_qdemod_simulate_builds_tracker(tmp_path):
    """A fresh copy of the package builds its tracker kernel on first use."""
    pkg = tmp_path / "pkg"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "qdemod", pkg / "qdemod",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cfg = _write(tmp_path, "sim.cfg", "n_samples = 2048\nband_bins = 63\nbeta = 1.0\n"
                 "lambda = 100\ntrials = 2\nseed = 5\n")
    out = tmp_path / "out"
    env = {k: v for k, v in os.environ.items() if k != "QDEMOD_OUT"}
    env["PYTHONPATH"] = str(pkg)
    proc = subprocess.run([sys.executable, "-m", "qdemod", "simulate", cfg, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((out / "results.csv").read_text().splitlines()) == 4
    kernel = _tracker.load()
    tracker = "numpy" if kernel is None else f"c kernel {kernel.digest} ({kernel.isa})"
    assert f"tracker = {tracker}\n" in (out / "manifest.txt").read_text()
    built = list((pkg / "qdemod" / "__pycache__").glob("_tracker-*.so"))
    assert len(built) == (kernel is not None)


# Small simulate runs of the three lights' arithmetic: coherent PM, squeezed_z
# (its noise coloured by a filter) and FM (its phase filtered from the message)
SIMD_CONFIGS = {
    "coherent_pm": "beta = 1.0\nlambda = 100\n",
    "squeezed_z": "beta = 1.0\nn_photon = 10\nr = 0.5\nvariant = squeezed_z\n",
    "coherent_fm": "mod_kind = fm\nbeta = 1.0\nlambda = 100\n",
}


def test_results_do_not_depend_on_numpy_simd_level(tmp_path):
    """simulate writes the same results.csv bytes whether numpy dispatches
    to every SIMD extension it has for this CPU or to none of them
    (NPY_DISABLE_CPU_FEATURES), for each light: every complex product on
    the way rounds its real products on their own, fused or not.  Where
    numpy dispatches nothing beyond its baseline, both runs are one run."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    for name, text in SIMD_CONFIGS.items():
        _write(tmp_path, f"{name}.cfg", "n_samples = 2048\nband_bins = 63\ntrials = 4\n"
               "seed = 5\n" + text)
    code = ("import sys\nfrom qdemod.cli import cli_main\n"
            f"for name in {sorted(SIMD_CONFIGS)!r}:\n"
            "    assert cli_main(['simulate', f'{sys.argv[1]}/{name}.cfg',"
            " '--out', f'{sys.argv[2]}/{name}']) == 0\n")
    env = {k: v for k, v in os.environ.items() if k not in ("QDEMOD_OUT", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    written = []
    for disabled in ("", " ".join(dispatched)):
        out = tmp_path / f"out{len(written)}"
        run_env = {**env, "NPY_DISABLE_CPU_FEATURES": disabled} if disabled else env
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(out)],
                              env=run_env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        written.append({name: (out / name / "results.csv").read_bytes() for name in SIMD_CONFIGS})
    assert written[0] == written[1]


def test_cli_missing_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "lambda = 100\n")
    rc = cli_main(["limits", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "beta" in capsys.readouterr().err


def test_cli_fock_checks(tmp_path, capsys):
    cfg = _write(tmp_path, "fock.cfg", "n_max = 5\nsites = 2\nbosons = 2\n")
    out = tmp_path / "fock_out"
    rc = cli_main(["fock", cfg, "--out", str(out)])
    assert rc == 0
    report = (out / "fock_checks.csv").read_text()
    assert "povm_resolution_residual" in report
    assert "false" not in report
    assert (out / "phase_density.csv").exists()


def test_cli_fock_tail_rule_uses_alpha_magnitude(tmp_path):
    """n_max = 5 is below the tail rule for |alpha| = 3 whatever its sign, so
    both signs fall back to the vacuum density."""
    densities = []
    for alpha in ("3.0", "-3.0"):
        cfg = _write(tmp_path, f"fock{alpha}.cfg", f"n_max = 5\nalpha = {alpha}\n")
        out = tmp_path / f"fock_out{alpha}"
        assert cli_main(["fock", cfg, "--out", str(out)]) == 0
        densities.append((out / "phase_density.csv").read_bytes())
    assert densities[0] == densities[1]


@pytest.mark.parametrize("key, value", [("n_max", "-1"), ("points", "-8"),
                                        ("alpha", "nan"), ("alpha", "inf"),
                                        ("alpha", "-inf")])
def test_cli_fock_rejects_bad_input_naming_the_key(key, value, tmp_path, capsys):
    """A negative n_max or points, or a non-finite alpha, is a config error
    (exit 2) whose message names the key, and no file is written."""
    cfg = _write(tmp_path, "fock.cfg", f"{key} = {value}\n")
    out = tmp_path / "o"
    assert cli_main(["fock", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert list(out.iterdir()) == []


def test_cli_out_naming_a_file_is_a_config_error(tmp_path, capsys):
    """--out naming a regular file exits 2 with a config error, and the file
    is left as it was."""
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    cfg = _write(tmp_path, "limits.cfg", "beta = 1\nlambda = 100\n")
    assert cli_main(["limits", cfg, "--out", str(afile)]) == 2
    assert "config error" in capsys.readouterr().err
    assert afile.read_text() == "kept\n"


def test_cli_numerical_failure_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "fock.cfg", "sites = 4\n")  # over the dense budget
    rc = cli_main(["fock", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_unwritable_output_is_a_config_error(tmp_path, capsys):
    """An output that cannot be written (here results.csv is a directory)
    exits 2 with a config error naming it, not a traceback, and no manifest
    is written."""
    out = tmp_path / "o"
    (out / "results.csv").mkdir(parents=True)
    cfg = _write(tmp_path, "limits.cfg", "beta = 1\nlambda = 100\n")
    assert cli_main(["limits", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "results.csv" in err
    assert not (out / "manifest.txt").exists()


def test_cli_fock_over_the_dense_budget_writes_nothing(tmp_path, capsys):
    """n_max = 512 needs a 4104-point phase grid at the default, over the
    dense budget: a numerical failure (exit 3) before anything is allocated
    or written."""
    cfg = _write(tmp_path, "fock.cfg", "n_max = 512\n")
    out = tmp_path / "o"
    assert cli_main(["fock", cfg, "--out", str(out)]) == 3
    assert "dense dimension 4104 exceeds budget" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_sense(tmp_path):
    cfg = _write(tmp_path, "sense.cfg",
                 "kind = fabry_perot\nreflectivity = 0.81\n"
                 "rms_position = 1.2e-10\nmessage_bandwidth = 1e3\n")
    out = tmp_path / "sense_out"
    rc = cli_main(["sense", cfg, "--out", str(out)])
    assert rc == 0
    body = (out / "sense_results.csv").read_text()
    rows = dict(line.split(",") for line in body.splitlines()[1:])
    assert float(rows["effective_passes"]) == pytest.approx(19.0, rel=1e-12)


def test_cli_simulate_deterministic(tmp_path):
    text = ("n_samples = 2048\nband_bins = 63\nbeta = 1.0\nlambda = 100\n"
            "trials = 4\nseed = 5\n")
    cfg = _write(tmp_path, "sim.cfg", text)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["simulate", cfg, "--out", str(out1)]) == 0
    assert cli_main(["simulate", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_cli_unknown_variant_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", "beta = 1.0\nlambda = 100\nvariant = squeezd_z\n")
    rc = cli_main(["simulate", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["band_bins = 53", "delay = 700"])
def test_cli_grid_too_short_exits_2(line, tmp_path, capsys):
    cfg = _write(tmp_path, "sim.cfg", f"n_samples = 4096\n{line}\nbeta = 1.0\nlambda = 100\n")
    rc = cli_main(["simulate", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "grid too short for the warm-up and edge exclusions" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.csv").exists()


def test_cli_design_dump(tmp_path, monkeypatch, design_dump_oracle):
    """design.txt holds the oracle writer's bytes for the CLI's own design,
    for an inline config and for the configs/ fixture."""
    designs = []

    def keep_design(design, path):
        designs.append(design)
        dump_design(design, path)

    monkeypatch.setattr(cli, "dump_design", keep_design)
    fixture = Path(__file__).resolve().parents[1] / "configs" / "design_fm_squeezed.cfg"
    for name, cfg in [("inline", _write(tmp_path, "design.cfg", "beta = 2.0\nlambda = 100\n")),
                      ("fixture", str(fixture))]:
        out = tmp_path / name
        assert cli_main(["design", cfg, "--out", str(out)]) == 0
        design_dump_oracle(designs[-1], tmp_path / f"{name}_oracle.txt")
        assert (out / "design.txt").read_bytes() == (tmp_path / f"{name}_oracle.txt").read_bytes()
    assert designs[-1].grid.n_samples == 16384 and designs[-1].mod.kind == "fm"


def test_cli_env_output_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "limits.cfg", "beta = 1.0\nlambda = 30\n")
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("QDEMOD_OUT", str(env_out))
    assert cli_main(["limits", cfg, "--out", str(tmp_path / "ignored")]) == 0
    assert (env_out / "results.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_sweep_small(tmp_path):
    text = ("n_samples = 2048\nband_bins = 63\nbetas = 1.0\nlambdas = 100\n"
            "trials = 4\nseed = 5\n")
    cfg = _write(tmp_path, "sweep.cfg", text)
    out = tmp_path / "sw"
    assert cli_main(["sweep", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2  # one cell


def test_cli_sweep_n_photon_column_only_for_budgeted_points(tmp_path):
    """Lambda sizes the r = 0 point and N the squeezed one; only the latter
    carries N in the n_photon column."""
    text = ("n_samples = 2048\nband_bins = 63\nbetas = 1.0\nlambdas = 100\n"
            "n_photon = 10\nrs = 0, 0.5\ntrials = 1\nseed = 5\n")
    out = tmp_path / "sw"
    assert cli_main(["sweep", _write(tmp_path, "sweep.cfg", text), "--out", str(out)]) == 0
    _assert_manifest_lists_every_output_once(out)
    rows = _csv_rows(out)
    assert [(float(r["lambda"]), float(r["r"])) for r in rows][0] == (100.0, 0.0)
    assert np.isnan(float(rows[0]["n_photon"]))
    assert float(rows[1]["n_photon"]) == 10.0 and float(rows[1]["r"]) == 0.5


def test_cli_coherent_point_is_sized_at_r_zero(tmp_path):
    """Coherent light carries no squeezing, so a coherent row at r = 0.5 is
    the coherent point at the same N = 10, Lambda = 4N = 40: it equals the
    r = 0 row in every column but run_id and r, the sweep coordinate."""
    text = ("n_samples = 2048\nband_bins = 63\nbetas = 1.0\nn_photon = 10\n"
            "rs = 0, 0.5\nvariant = coherent\ntrials = 1\nseed = 5\n")
    out = tmp_path / "sw"
    assert cli_main(["sweep", _write(tmp_path, "sweep.cfg", text), "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert float(rows[1]["r"]) == 0.5
    assert float(rows[1]["lambda"]) == 40.0
    other = [{k: v for k, v in row.items() if k not in ("run_id", "r")} for row in rows]
    assert other[0] == other[1]


def test_cli_given_lambda_sizes_the_point_in_limits_and_simulate(tmp_path):
    """With both lambda and n_photon set, lambda sizes the point and the
    n_photon column reads NaN, in limits as in simulate."""
    point = "mod_kind = pm\nbeta = 1.0\nlambda = 100\nn_photon = 10\n"
    runs = {"limits": "", "simulate": "n_samples = 2048\nband_bins = 63\ntrials = 1\n"}
    for command, extra in runs.items():
        out = tmp_path / command
        cfg = _write(tmp_path, f"{command}.cfg", point + extra)
        assert cli_main([command, cfg, "--out", str(out)]) == 0
        _assert_manifest_lists_every_output_once(out)
        row = _csv_rows(out)[0]
        assert float(row["lambda"]) == 100.0
        assert np.isnan(float(row["n_photon"]))


@pytest.mark.parametrize("variant, passes", [("phase_squeezed", "false"),
                                             ("squeezed_z", "true")])
def test_cli_pass_threshold_follows_the_light(variant, passes, tmp_path):
    """PM beta = 1, Lambda = 100, r = 0.5: sigma0^2 = ln(101)/100 = 0.046
    meets the 1/4 rule with feedback, but phase-squeezed light without
    feedback is held to exp(4r) sigma0^2 = 0.34."""
    text = (f"beta = 1.0\nlambda = 100\nr = 0.5\nvariant = {variant}\n"
            "trials = 1\nseed = 5\n")
    out = tmp_path / "o"
    assert cli_main(["simulate", _write(tmp_path, "sim.cfg", text), "--out", str(out)]) == 0
    rows = _csv_rows(out)
    assert float(rows[0]["sigma0_sq"]) == pytest.approx(np.log(101.0) / 100.0, rel=1e-12)
    assert [row["pass_threshold"] for row in rows] == [passes, passes]


# A point per quantity that a case sets to a bad value; a given lambda sizes
# the point, so the n_photon case gives no lambda.
_POINT = {"lambda": "beta = 1\nlambda = {}\n", "n_photon": "beta = 1\nn_photon = {}\n",
          "beta": "beta = {}\nlambda = 100\n"}
_SWEEP_POINT = {"lambda": "betas = 1\nlambdas = {}\n", "n_photon": "betas = 1\nn_photon = {}\n",
                "beta": "betas = {}\nlambdas = 100\n"}
_MONTE_CARLO = "n_samples = 2048\nband_bins = 63\ntrials = 1\n"
_BAD_POINT_BASES = {"limits": ("", _POINT), "simulate": (_MONTE_CARLO, _POINT),
                    "sweep": (_MONTE_CARLO, _SWEEP_POINT)}


@pytest.mark.parametrize("command", sorted(_BAD_POINT_BASES))
@pytest.mark.parametrize("key", ["lambda", "n_photon", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_cli_rejects_a_point_that_is_not_finite_and_positive(command, key, value,
                                                             tmp_path, capsys):
    """Lambda, N and beta must be finite and positive: anything else is a
    config error (exit 2) and no results.csv is written."""
    common, points = _BAD_POINT_BASES[command]
    cfg = _write(tmp_path, "bad.cfg", common + points[key].format(value))
    out = tmp_path / "o"
    assert cli_main([command, cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_GRID = "n_samples = 2048\nband_bins = 63\n"
_BANDWIDTH_BASES = {"design": _GRID + "beta = 1\nlambda = 100\n",
                    "simulate": _MONTE_CARLO + "beta = 1\nlambda = 100\n",
                    "sweep": _MONTE_CARLO + "betas = 1\nlambdas = 100\n"}


@pytest.mark.parametrize("command", sorted(_BANDWIDTH_BASES))
@pytest.mark.parametrize("message_kind", ["flat", "lorentzian"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_cli_rejects_a_bandwidth_that_is_not_finite_and_positive(command, message_kind, value,
                                                                 tmp_path, capsys):
    """The grid bandwidth B must be finite and positive (TimeGrid): anything
    else is a config error (exit 2) naming it, and no file is written."""
    text = _BANDWIDTH_BASES[command] + f"message_kind = {message_kind}\nbandwidth = {value}\n"
    out = tmp_path / "o"
    assert cli_main([command, _write(tmp_path, "bad.cfg", text), "--out", str(out)]) == 2
    assert "config error: bandwidth must be finite and positive" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_cli_huge_bandwidth_gives_the_unit_bandwidth_results(tmp_path):
    """The loop is the same in samples whatever B.  At B = 1e308, where the
    delay phase f d dt overflows, a sweep's Monte Carlo columns are finite and
    within 1e-12 of B = 1's, and design.txt holds no NaN.  A Lorentzian
    message, whose width squared overflows from B ~ 1e155 on, writes the
    same results.csv bytes at B = 1, 1e160 and 1e308."""
    rows = []
    for bandwidth in ("1", "1e308"):
        text = _GRID + f"trials = 4\nbetas = 1\nlambdas = 100\nbandwidth = {bandwidth}\n"
        out = tmp_path / f"sweep{bandwidth}"
        assert cli_main(["sweep", _write(tmp_path, "sweep.cfg", text), "--out", str(out)]) == 0
        rows.append(_csv_rows(out)[0])
    for column in ("snr_empirical", "snr_stderr", "sigma0_sq_empirical"):
        unit, huge = float(rows[0][column]), float(rows[1][column])
        assert np.isfinite(huge) and huge == pytest.approx(unit, rel=1e-12, abs=0)
    assert rows[1]["cycle_slips"] == rows[0]["cycle_slips"]
    text = _GRID + "beta = 1\nlambda = 100\nbandwidth = 1e308\n"
    out = tmp_path / "design"
    assert cli_main(["design", _write(tmp_path, "design.cfg", text), "--out", str(out)]) == 0
    assert "nan" not in (out / "design.txt").read_text()
    lorentzian = ("n_samples = 2048\nmessage_kind = lorentzian\nlorentz_ratio = 32\n"
                  "trials = 2\nbetas = 0.2\nlambdas = 100\n")
    csvs = set()
    for bandwidth in ("1", "1e160", "1e308"):
        cfg = _write(tmp_path, "lorentzian.cfg", lorentzian + f"bandwidth = {bandwidth}\n")
        out = tmp_path / f"lorentzian{bandwidth}"
        assert cli_main(["sweep", cfg, "--out", str(out)]) == 0
        csvs.add((out / "results.csv").read_bytes())
    assert len(csvs) == 1


@pytest.mark.parametrize("key", ["betas", "lambdas", "rs"])
@pytest.mark.parametrize("value", ["", ", ,"])
def test_empty_list_is_rejected_with_its_line(key, value, tmp_path, capsys):
    """A sweep list with no values is a config error naming its line, and a
    sweep given one exits 2 without a results.csv."""
    lines = {"betas": "1", "lambdas": "100", "rs": "0", key: value}
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    line_no = list(lines).index(key) + 1
    with pytest.raises(ConfigError, match=f"line {line_no}: key '{key}'"):
        parse_config_text(text, "sweep")
    out = tmp_path / "o"
    assert cli_main(["sweep", _write(tmp_path, "sweep.cfg", _MONTE_CARLO + text),
                     "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


_R_BASES = {"limits": "beta = 1\nlambda = 100\nr = {}\n",
            "design": "n_samples = 2048\nband_bins = 63\nbeta = 1\nlambda = 100\nr = {}\n",
            "simulate": _MONTE_CARLO + "beta = 1\nlambda = 100\nr = {}\n",
            "sweep": _MONTE_CARLO + "betas = 1\nn_photon = 10\nrs = {}\n"}


@pytest.mark.parametrize("command", sorted(_R_BASES))
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_rejects_an_r_that_is_not_finite_and_nonnegative(command, value, tmp_path,
                                                            capsys):
    """The squeeze parameter r must be finite and >= 0 in every command that
    takes it: anything else is a config error (exit 2) and no file is written."""
    cfg = _write(tmp_path, "bad.cfg", _R_BASES[command].format(value))
    out = tmp_path / "o"
    assert cli_main([command, cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("passes", "nan"), ("passes", "inf"), ("passes", "0.5"),
    ("wavelength", "nan"), ("wavelength", "0"), ("wavelength", "inf"),
    ("message_bandwidth", "nan"), ("message_bandwidth", "-1e3"),
    ("rms_position", "nan"), ("rms_position", "-1e-10"),
    ("rms_velocity", "inf"), ("rms_velocity", "0"),
    ("cavity_length", "nan"), ("cavity_length", "-0.3"),
    ("incidence", "nan"), ("incidence", "1.6"), ("incidence", "-inf"),
    ("reflectivity", "7"),
])
def test_cli_sense_rejects_geometry_that_is_not_finite_or_in_range(key, value, tmp_path,
                                                                  capsys):
    """A non-finite or out-of-range sense value, or a key the multipass
    sensor never reads, is a config error (exit 2), and no sense_results.csv
    is written."""
    point = {"kind": "multipass", "passes": "2", "rms_position": "1e-10",
             "rms_velocity": "1e-3", key: value}
    cfg = _write(tmp_path, "sense.cfg", "".join(f"{k} = {v}\n" for k, v in point.items()))
    out = tmp_path / "o"
    assert cli_main(["sense", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "sense_results.csv").exists()


def test_cli_fabry_perot_rejects_passes(tmp_path, capsys):
    """A Fabry-Perot sensor derives M from R, so a given passes is a config
    error (exit 2) naming the key, and no sense_results.csv is written."""
    text = "kind = fabry_perot\nreflectivity = 0.81\npasses = 2\nrms_position = 1e-10\n"
    out = tmp_path / "o"
    assert cli_main(["sense", _write(tmp_path, "sense.cfg", text), "--out", str(out)]) == 2
    assert "config error: Fabry-Perot takes no passes" in capsys.readouterr().err
    assert not (out / "sense_results.csv").exists()


def test_cli_lorentzian_budget_counts_the_squeezing_photons(tmp_path, capsys):
    """sinh^2 3 ~ 100 squeezing photons exceed N = 10, for a Lorentzian
    message as for a flat one."""
    text = "message_kind = lorentzian\nbeta = 0.2\nn_photon = 10\nr = 3\n"
    out = tmp_path / "o"
    assert cli_main(["design", _write(tmp_path, "d.cfg", text), "--out", str(out)]) == 2
    assert "photon budget too small for the requested squeezing" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_config_fixtures_parse_and_the_analytic_ones_run(tmp_path):
    """Every configs/ fixture parses under the schema its [section] names,
    and the four without a Monte Carlo run to exit 0, their manifests listing
    each output once."""
    ran = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")):
        text = path.read_text()
        command = re.search(r"^\[(\w+)\]", text, re.M).group(1)
        parse_config_text(text, command)
        if command not in ("simulate", "sweep"):
            assert cli_main([command, str(path), "--out", str(tmp_path / path.stem)]) == 0
            _assert_manifest_lists_every_output_once(tmp_path / path.stem)
            ran.add(path.stem)
    assert ran == {"limits_pm", "fock_checks", "sense_fabry_perot", "design_fm_squeezed"}


@pytest.mark.skipif(_tracker.load() is None,
                    reason="no C compiler: only the numpy loops exist")
@pytest.mark.parametrize("fixture", ["design_fm_squeezed", "simulate_squeezed_optimum"])
def test_fixture_bytes_are_the_same_on_both_tracker_paths(fixture, tmp_path, monkeypatch):
    """A configs/ fixture writes the same bytes in every output but the
    manifest with the compiled library and with the numpy loops
    (_tracker.load patched to None).  sweep_pm_sql is left out: it takes
    about 80 s on the numpy tracker against 1 s on the library."""
    path = Path(__file__).resolve().parents[1] / "configs" / f"{fixture}.cfg"
    command = re.search(r"^\[(\w+)\]", path.read_text(), re.M).group(1)
    numpy_calls, outputs = [], []
    for out in (tmp_path / "kernel", tmp_path / "numpy"):
        assert cli_main([command, str(path), "--out", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.txt"})
        monkeypatch.setattr(_tracker, "load", lambda: numpy_calls.append(1))
    assert numpy_calls and outputs[0] and outputs[0] == outputs[1]


def test_cli_sweep_matches_single_trial_aggregate(tmp_path):
    """A 1-cell sweep equals the simulate aggregate for the same config."""
    base = ("n_samples = 2048\nband_bins = 63\ntrials = 4\nseed = 5\n")
    sweep_cfg = _write(tmp_path, "sw.cfg", base + "betas = 1.0\nlambdas = 100\n")
    sim_cfg = _write(tmp_path, "sim.cfg", base + "beta = 1.0\nlambda = 100\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli_main(["sweep", sweep_cfg, "--out", str(out1)]) == 0
    assert cli_main(["simulate", sim_cfg, "--out", str(out2)]) == 0
    row1 = (out1 / "results.csv").read_text().splitlines()[1].split(",")[1:]
    row2 = (out2 / "results.csv").read_text().splitlines()[1].split(",")[1:]
    assert row1 == row2  # identical apart from the run id


def test_benchmark_tracer_finds_every_name():
    """perfbench's traced pass wraps names where their callers look them
    up: each must still exist, and restore() must put the originals back."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _ in tracing.TARGETS]
    finally:
        tracer.restore()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(owner, attr) is o
               for (owner, attr, _), o in zip(tracing.TARGETS, originals))


def test_benchmark_direct_calls_run(tmp_path, monkeypatch):
    """perfbench calls the library directly as well as through cli_main: a
    design op of its synthesis workload, read by _design_outputs, and the
    open-loop replay of run.traced_pass must run with the signatures they
    use."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    op = workloads._design_op("design_pm_sq_4096", 4096, "pm", True, 1.2, 100.0, 0.8)
    design = op.run(str(tmp_path))
    out = workloads._design_outputs(op.name, design)
    assert out.failure is None
    assert out.numbers["design_pm_sq_4096.wh_residual"][0] <= workloads.WH_RESIDUAL_TOL
    (trial,) = pll.simulate_batch(pll.PllConfig(design, 1, 5), [0], force_lock=True)
    assert trial.trial == 0 and np.isfinite(trial.mse)


def test_package_exports_resolve():
    """Every exported name resolves, every public name of the package is
    exported, and the only samplers are pll's two row-batched ones."""
    import qdemod
    assert all(hasattr(qdemod, name) for name in qdemod.__all__)
    exposed = {name for name, value in vars(qdemod).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exposed <= set(qdemod.__all__)
    samplers = {name for name in exposed if name.startswith(("sample", "Quadrature"))}
    assert samplers == {"sample_message", "sample_quadratures"}
    assert qdemod.sample_message is pll.sample_message
    assert qdemod.sample_quadratures is pll.sample_quadratures
