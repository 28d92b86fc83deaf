import ast
import importlib.util
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import maxhom
from maxhom import corrector, harness
from maxhom.cells import HomogenizationError
from maxhom.coeffs import PARAMS
from maxhom.harness import ConfigError, fit_slope, parse_config

CONST_SIM = """
mode = simulate
coeff.d = 2
coeff.n = 1
coeff.alpha = 0.5
coeff.beta = 2.0
coeff.a.family = constant
coeff.a.value = 1.0
coeff.b.family = constant
coeff.b.value = 1.0
sim.kind = homogenized
sim.n = 8
sim.t_final = 0.2
sim.dt = 0.05
"""

LAYERED_SWEEP = """
mode = sweep
coeff.d = 2
coeff.n = 1
coeff.alpha = 1.0
coeff.beta = 3.0
coeff.a.family = layered
coeff.a.offset = 2.0
coeff.a.amplitude = 1.0
coeff.b.family = layered
coeff.b.offset = 2.0
coeff.b.amplitude = 1.0
hom.cell_n = 32
sweep.epsilons = 0.25,0.125,0.0625
sweep.fine_ratio = 8
sweep.dt_ratio = 4
sweep.t_final = 0.125
sweep.hom_n = 32
data.g1 = cavity11
data.f = bubble_cos2t
"""


# ---------------------------------------------------------------------------
# config parsing

def test_parse_defaults_and_values():
    cfg = parse_config(CONST_SIM)
    assert cfg["mode"] == "simulate"
    assert cfg["sim.dt"] == 0.05
    assert cfg["data.g0"] == "zero"


def test_unknown_key_rejected():
    # an unknown key is named even when required keys are missing
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("mode = simulate\nbogus = 1")
    # the keys of deleted options are unknown like any other
    deleted = ["schedule.require_integer", "out", "sim.extent"] + [
        f"coeff.{w}.{k}" for w in "ab"
        for k in ("scale", "axis", "frequency", "axes", "phases", "base", "x_offset")]
    for key in ["bogus", "workers"] + deleted:
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(CONST_SIM + f"\n{key} = 1")


def test_readme_config_table_names_every_schema_key():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    table = readme.split("All keys and defaults:", 1)[1].split("\n\n", 2)[1]
    keys, read_by = [], {}
    for row in table.splitlines()[2:]:
        cells = row.split("|")
        runs = cells[3].strip()
        runs = set(harness.RUNS) if runs == "all" else {r.strip() for r in runs.split(",")}
        for name in re.findall(r"`([^`]+)`", cells[1]):
            names = sorted({name.replace("{a,b}", w) for w in "ab"})
            keys += names
            read_by.update(dict.fromkeys(names, runs))
    # each key once: a deleted key left in the table, or a key listed twice, fails
    assert sorted(keys) == sorted(harness.SCHEMA)
    # the "read by" column names the runs of each key's row in SCHEMA
    assert read_by == {key: set(row.runs) for key, row in harness.SCHEMA.items()}


def test_every_cfg_subscript_in_harness_names_a_schema_key():
    # a deleted key left in a branch that no test runs would raise KeyError
    # only when a run reaches it
    with open(harness.__file__) as fh:
        tree = ast.parse(fh.read())
    names = {node.slice.value for node in ast.walk(tree)
             if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
             and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}
    assert len(names) > 20 and names <= set(harness.SCHEMA), names - set(harness.SCHEMA)


def test_every_coefficient_part_key_is_a_family_param():
    # build_part reads a family's keys from its params: a coeff.<w>.* key that
    # is no family's param could never be read
    params = set().union(*(required | optional for required, optional in PARAMS.values()))
    for w in "ab":
        keys = {k.split(".", 2)[2] for k in harness.SCHEMA if k.startswith(f"coeff.{w}.")}
        assert keys - {"family"} <= params, keys - {"family"} - params


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(CONST_SIM + "\nsim.n = 4")


def test_missing_required_key():
    cfg = parse_config("mode = simulate\ncoeff.beta = 1\n"
                       "coeff.a.family = constant\ncoeff.b.family = constant")
    with pytest.raises(ConfigError, match="coeff.alpha is required"):
        harness.check_keys(cfg)


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("mode = simulate\nsim.n = notanint")


def test_unknown_selector_rejected(tmp_path):
    cfg = parse_config(CONST_SIM.replace("data.g0 = zero", "") + "\ndata.g0 = nosuch")
    with pytest.raises(ConfigError, match="data.g0 must be one of zero, "):
        harness.run(cfg, outdir=str(tmp_path))


def test_fingerprint_follows_the_config_not_the_output_directory(tmp_path):
    cfg1 = parse_config(CONST_SIM)
    cfg3 = parse_config(CONST_SIM.replace("sim.n = 8", "sim.n = 16"))
    assert harness.fingerprint(cfg1) != harness.fingerprint(cfg3)
    # the output directory is no config key: runs into two directories write one manifest
    for name in "ab":
        harness.run(cfg1, outdir=str(tmp_path / name))
    assert (tmp_path / "a" / "manifest.txt").read_bytes() == \
        (tmp_path / "b" / "manifest.txt").read_bytes()


# ---------------------------------------------------------------------------
# fit_slope

def test_fit_slope_exact_half_power():
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    pairs = [(e, 3.7 * e ** 0.5) for e in eps]
    assert fit_slope(pairs) == pytest.approx(0.5, abs=1e-12)


def test_fit_slope_two_point_doubling():
    assert fit_slope([(1 / 8, 2e-2), (1 / 16, 1e-2)]) == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_low_regularity_exponent():
    s = 1.0
    expo = s / (1 + s)
    pairs = [(e, 0.9 * e ** expo) for e in (1 / 4, 1 / 8, 1 / 16)]
    assert fit_slope(pairs) == pytest.approx(0.5, abs=1e-12)


def test_fit_slope_rejects_nonpositive():
    with pytest.raises(ConfigError):
        fit_slope([(0.1, 1.0), (0.05, -1.0)])
    with pytest.raises(ConfigError):
        fit_slope([(0.1, 1.0)])
    # one eps twice: a rank-1 fit once returned a minimum-norm "slope"
    with pytest.raises(ConfigError, match="distinct"):
        fit_slope([(0.1, 1.0), (0.1, 2.0)])


# ---------------------------------------------------------------------------
# pipelines

def test_homogenize_mode_constant_tensors(tmp_path):
    text = """
mode = homogenize
coeff.d = 2
coeff.n = 1
coeff.alpha = 0.5
coeff.beta = 3.0
coeff.a.family = constant
coeff.a.value = 1.5
coeff.b.family = constant
coeff.b.value = 2.0,0.25,0.25,1.0
hom.cell_n = 8
"""
    cfg = parse_config(text)
    harness.run(cfg, outdir=str(tmp_path))
    lines = open(tmp_path / "tensors.txt").read().splitlines()
    brow = next(l for l in lines if l.startswith("b level=0"))
    vals = [float(v) for v in brow.split()[3:]]
    assert np.allclose(vals, [2.0, 0.25, 0.25, 1.0], atol=1e-12)
    arow = next(l for l in lines if l.startswith("a level=0"))
    assert float(arow.split()[3]) == pytest.approx(1.5, abs=1e-12)
    assert harness.load_config(tmp_path / "manifest.txt") == cfg


def test_simulate_zero_data_zero_energy(tmp_path):
    cfg = parse_config(CONST_SIM)
    harness.run(cfg, outdir=str(tmp_path))
    rows = open(tmp_path / "trajectory.csv").read().splitlines()[1:]
    energies = [float(r.split(",")[1]) for r in rows]
    assert max(abs(e) for e in energies) == 0.0


def test_sweep_requires_three_epsilons(tmp_path):
    cfg = parse_config(LAYERED_SWEEP.replace("0.25,0.125,0.0625", "0.25,0.125"))
    with pytest.raises(ConfigError, match="3 epsilon"):
        harness.run(cfg, outdir=str(tmp_path))


def test_sweep_report_and_determinism(tmp_path):
    cfg = parse_config(LAYERED_SWEEP)
    r1 = harness.run(cfg, outdir=str(tmp_path / "a"))
    assert 0.35 <= r1.slope() <= 1.1
    assert r1.totals[0] > r1.totals[1] > r1.totals[2]
    r2 = harness.run(cfg, outdir=str(tmp_path / "b"))
    for name in ("report.csv", "errors.csv", "summary.json"):
        b1 = open(tmp_path / "a" / name, "rb").read()
        b2 = open(tmp_path / "b" / name, "rb").read()
        assert b1 == b2
    rep = open(tmp_path / "a" / "report.csv").read()
    assert "slope," in rep and "fingerprint," in rep
    import json
    doc = json.load(open(tmp_path / "a" / "summary.json"))
    assert doc["slope"] == r1.slope()
    assert doc["epsilons"] == [0.25, 0.125, 0.0625]


def test_folded_sweep_n3_decreases_and_reruns_bitwise(tmp_path):
    # three scales through the one level recursion of the folded corrector
    cfg = parse_config(FOLDED_N3_SWEEP)
    r1 = harness.run(cfg, outdir=str(tmp_path / "a"))
    assert not r1.partial and len(r1.e_ms) == 3
    assert r1.e_ms[0] > r1.e_ms[1] > r1.e_ms[2] > 0
    harness.run(cfg, outdir=str(tmp_path / "b"))
    for name in ("report.csv", "errors.csv", "tensors.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(CONST_SIM)
    assert harness.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = simulate\nnope = 1\n")
    assert harness.main(["simulate", "--config", str(bad)]) == 2
    # mode mismatch between config and subcommand
    assert harness.main(["sweep", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("key", ["sweep.fine_ratio", "sweep.dt_ratio",
                                 "sweep.snapshots_per_run", "sweep.hom_n"])
def test_cli_zero_sweep_key_exits_2(tmp_path, capsys, key):
    cfg_path = tmp_path / "s.cfg"
    kept = [l for l in LAYERED_SWEEP.splitlines() if not l.startswith(key)]
    cfg_path.write_text("\n".join(kept + [f"{key} = 0"]) + "\n")
    assert harness.main(["sweep", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("tol", ["0", "-1", "1"])
def test_cli_tol_outside_unit_interval_exits_2(tmp_path, capsys, tol):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(LAYERED_SWEEP + f"tol = {tol}\n")
    argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert harness.main(argv) == 2
    assert "tol must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


XDEP_HOM = """
mode = homogenize
coeff.d = 2
coeff.n = 1
coeff.alpha = 1.0
coeff.beta = 4.5
coeff.a.family = separable-product
coeff.a.factors = 2:1:1
coeff.a.x_amplitude = 0.5
coeff.b.family = separable-product
coeff.b.factors = 2:1:1
coeff.b.x_amplitude = 0.5
hom.cell_n = 8
"""
# (2 +- 1)^2 (1 + 0.5 sin(pi x_1) sin(pi x_2)) ranges over [1, 13.5]
XDEP_N2_HOM = (XDEP_HOM.replace("coeff.n = 1", "coeff.n = 2")
               .replace("coeff.beta = 4.5", "coeff.beta = 13.5")
               .replace("factors = 2:1:1", "factors = 2:1:1;2:1:0"))
SLOW_GRID_CONFIGS = {"layered-sweep": ("sweep", LAYERED_SWEEP),
                     "xdep": ("homogenize", XDEP_HOM),
                     "xdep-n2": ("homogenize", XDEP_N2_HOM)}


@pytest.mark.parametrize("config,line,key", [
    ("layered-sweep", "hom.slow_y = 0", "hom.slow_y"),   # n = 1 has no slow y
    ("layered-sweep", "hom.slow_y = 4", "hom.slow_y"),
    ("layered-sweep", "hom.slow_x = 0", "hom.slow_x"),
    ("xdep", "hom.slow_x = 1", "hom.slow_x"),            # x-dependent: >= 2
    ("xdep-n2", "hom.slow_y = 4,4", "hom.slow_y"),
    ("xdep-n2", "hom.slow_y = 0", "hom.slow_y"),
])
def test_cli_slow_grid_key_outside_spec_exits_2(tmp_path, capsys, config, line, key):
    mode, text = SLOW_GRID_CONFIGS[config]
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(text + line + "\n")
    out = tmp_path / "o"
    assert harness.main([mode, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_cli_slow_grid_keys_that_fit_run(tmp_path):
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(XDEP_HOM + "hom.slow_x = 2\n")
    assert harness.main(["homogenize", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "tensors.txt").exists()


def test_python_m_maxhom_runs_without_warnings(tmp_path):
    # the package runs as a module; -W error turns runpy's double-import
    # warning (or any other) into a failure
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(XDEP_HOM)
    src = os.path.dirname(os.path.dirname(os.path.abspath(maxhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "maxhom", "homogenize",
                           "--config", str(cfg_path), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "o" / "tensors.txt").exists()


def test_cli_numerical_failure_exit_code(tmp_path):
    # declared bounds the homogenized tensor cannot satisfy -> exit 3; an
    # expression has no closed-form range, so only the tensor check sees them
    text = """
mode = homogenize
coeff.d = 2
coeff.n = 1
coeff.alpha = 2.5
coeff.beta = 3.0
coeff.a.family = expression
coeff.a.code = 2.0 + 0.4 * np.sin(2*pi*ys[0][:, 0])
coeff.b.family = expression
coeff.b.code = 2.0 + 0.4 * np.sin(2*pi*ys[0][:, 0])
hom.cell_n = 8
"""
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(text)
    assert harness.main(["homogenize", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("mode,kind", [("simulate", "fine"), ("simulate", "homogenized"),
                                       ("homogenize", None), ("sweep", None)])
def test_cli_coefficient_outside_its_bounds_exits_2_before_assembly(tmp_path, capsys,
                                                                   monkeypatch, mode, kind):
    # a = 1 + 2 sin(2 pi y_1) ranges over [-1, 3] against a declared [1, 3]: the
    # fine simulate once exited 0, its homogenized twin 3 after the cell solves
    calls = []
    monkeypatch.setattr(harness, "homogenize", lambda *a, **k: calls.append("homogenize"))
    monkeypatch.setattr(harness.wave, "setup_problem", lambda *a, **k: calls.append("setup"))
    text = (LAYERED_SWEEP.replace("mode = sweep", f"mode = {mode}")
            .replace("coeff.a.offset = 2.0\ncoeff.a.amplitude = 1.0",
                     "coeff.a.offset = 1.0\ncoeff.a.amplitude = 2.0"))
    if mode != "sweep":   # the coefficient, then the keys the run reads
        text = text.split("hom.cell_n")[0] + {
            "fine": "sim.kind = fine\nsim.n = 16\nschedule.epsilon = 0.25\n",
            "homogenized": "sim.n = 16\nhom.cell_n = 32\n", None: "hom.cell_n = 32\n"}[kind]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "o"
    assert harness.main([mode, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: coeff.a: eigenvalues range over [-1, 3], "
                                       "outside [coeff.alpha, coeff.beta] = [1, 3]\n")
    assert calls == [] and not out.exists()


def refuse_corrector_at(monkeypatch, epsilons):
    """Make the pointwise corrector refuse (exit-3 class) the sweep legs at epsilons."""
    build = corrector.reconstruct_corrector

    def refusing(u0_traj, hom, schedule, *args, **kwargs):
        if schedule.epsilon in epsilons:
            raise corrector.CorrectorInputError(f"refused at eps={schedule.epsilon:g}")
        return build(u0_traj, hom, schedule, *args, **kwargs)

    monkeypatch.setattr(corrector, "reconstruct_corrector", refusing)


def test_sweep_reports_failed_leg_and_continues(tmp_path, monkeypatch):
    # a numerical failure of one leg is recorded, the other two legs still
    # make a report
    refuse_corrector_at(monkeypatch, {0.0625})
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(LAYERED_SWEEP)
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = open(out / "report.csv").read().splitlines()
    assert [r.split(",")[0] for r in rows[1:3]] == ["0.25", "0.125"]
    assert rows[-1] == "partial,1 failed runs,,,"
    assert "failure eps=0.0625" in open(out / "manifest.txt").read()


def test_sweep_without_two_legs_exits_with_cause(tmp_path, capsys, monkeypatch):
    # two of three legs fail: no slope can be fitted, the sweep exits 3 with
    # the first failure and writes no report
    refuse_corrector_at(monkeypatch, {0.125, 0.0625})
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(LAYERED_SWEEP)
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "refused at eps=0.125" in err
    assert not (out / "report.csv").exists()


def test_sweep_with_all_zero_data_exits_2_before_cell_solves(tmp_path, capsys, monkeypatch):
    # the solution is identically 0: once every cell solve and every leg ran before
    # the slope fit refused the zero errors, leaving a report without a slope row
    solves = []
    monkeypatch.setattr(harness, "homogenize", lambda *a, **k: solves.append(a))
    text = LAYERED_SWEEP.replace("data.g1 = cavity11", "data.g1 = zero")
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(text.replace("data.f = bubble_cos2t", "data.f = zero"))
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: data.g0, data.g1 and data.f are all zero")
    assert not out.exists()
    assert solves == []


def test_sweep_slope_failure_leaves_no_partial_report(tmp_path, capsys, monkeypatch):
    # legs with zero error cannot be fitted: errors.csv and a report.csv without
    # slope or fingerprint rows were once written before the fit failed
    def zero_leg(cfg, spec, hom, leg):
        errs = corrector.ErrorSeries(np.zeros(1), np.zeros(1), np.zeros(1))
        return leg[0], 0.0, 0.0, 0.0, errs, 0.0

    monkeypatch.setattr(harness, "_sweep_one", zero_leg)
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(LAYERED_SWEEP)
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "slope fit needs positive epsilons and errors" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["tensors.txt"]


def test_multiscale_lattice_that_does_not_tile_exits_2_before_cell_solves(tmp_path, capsys):
    # the unit box holds 2.5 eps-cells of eps = 0.4: the folded corrector could
    # not average over them, which is a config error
    text = LAYERED_SWEEP.replace("sweep.epsilons = 0.25,0.125,0.0625",
                                 "sweep.epsilons = 0.4,0.25,0.125\nsweep.multiscale = true")
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(text.replace("data.g1 = cavity11", "data.g1 = zero"))
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep.multiscale") and "sweep.epsilons" in err
    assert "eps 0.4" in err
    assert not out.exists()


XDEP_SWEEP = (XDEP_HOM.replace("mode = homogenize", "mode = sweep") + "hom.slow_x = 3\n"
              + LAYERED_SWEEP.split("hom.cell_n = 32\n")[1])
# coeff.beta covers coeff.a.x_amplitude = 0.5, which the folded corrector refuses
FOLDED_SWEEP = (LAYERED_SWEEP.replace("layered", "separable-product")
                .replace("coeff.beta = 3.0", "coeff.beta = 4.5")
                .replace("coeff.a.offset = 2.0\ncoeff.a.amplitude = 1.0", "coeff.a.factors = 2:1:0")
                .replace("coeff.b.offset = 2.0\ncoeff.b.amplitude = 1.0", "coeff.b.factors = 2:1:0")
                .replace("sweep.epsilons = 0.25,0.125,0.0625",
                         "sweep.epsilons = 0.5,0.25,0.125\nsweep.multiscale = true"))
# the three-scale folded sweep: 2:1:0 at every scale, whose b^0_xx closed form is sqrt(27)
FOLDED_N3_SWEEP = """
mode = sweep
tol = 1e-10
coeff.d = 2
coeff.n = 3
coeff.alpha = 1.0
coeff.beta = 27.0
coeff.a.family = separable-product
coeff.a.factors = 2:1:0;2:1:0;2:1:0
coeff.b.family = separable-product
coeff.b.factors = 2:1:0;2:1:0;2:1:0
schedule.ratios = 2,2
hom.cell_n = 16
hom.slow_y = 4,4
sweep.epsilons = 0.5,0.25,0.125
sweep.fine_ratio = 4
sweep.dt_ratio = 4
sweep.t_final = 0.125
sweep.hom_n = 64
sweep.snapshots_per_run = 8
sweep.multiscale = true
data.g1 = cavity11
data.f = bubble_cos2t
"""
RUN_KEY_CONFIGS = {"simulate": ("simulate", CONST_SIM), "sweep": ("sweep", LAYERED_SWEEP),
                   "xdep-simulate": ("simulate", XDEP_HOM.replace("homogenize", "simulate")
                                     + "sim.n = 8\nsim.t_final = 0.2\nsim.dt = 0.05\n"),
                   "xdep-fine-simulate": ("simulate", XDEP_HOM.replace("homogenize", "simulate")
                                          .replace("hom.cell_n = 8\n", "")
                                          + "sim.kind = fine\nschedule.epsilon = 0.25\n"
                                          "sim.n = 16\nsim.t_final = 0.2\nsim.dt = 0.05\n"),
                   "xdep-sweep": ("sweep", XDEP_SWEEP), "folded-sweep": ("sweep", FOLDED_SWEEP),
                   "folded-n3-sweep": ("sweep", FOLDED_N3_SWEEP)}


@pytest.mark.parametrize("config,key,value", [
    ("simulate", "sim.n", None),
    ("simulate", "sim.kind", "bogus"),
    ("simulate", "sim.store_every", "0"),
    ("simulate", "sim.probes", "100000"),   # once an IndexError after the time loop began
    ("simulate", "sim.probes", "-1"),       # once a silent probe of the last DOF
    ("simulate", "data.g0", "bogus"),
    ("sweep", "data.f", "bogus"),
    ("sweep", "data.g0", "bogus"),
    ("sweep", "sweep.t_final", "0.03"),     # one step is 0.0625 at eps 0.25
    # a final time that is not a whole number of steps: once run to the last
    # whole step before it, while the manifest named the final time
    ("sweep", "sweep.t_final", "0.1"),      # 1.6 steps at eps 0.25
    ("simulate", "sim.t_final", "0.21"),    # 4.2 steps of sim.dt = 0.05
    ("simulate", "sim.dt", "0.08"),         # 2.5 steps in sim.t_final = 0.2
    # the pointwise corrector's hypotheses and the fine resolution: once refused
    # per leg after its time loops (exit 3), or inside the first leg
    ("sweep", "data.g0", "cavity11"),
    ("sweep", "sweep.hom_n", "4"),          # h0 = 1/4 > eps at eps = 1/8, 1/16
    ("sweep", "sweep.hom_n", "8"),          # h0 = 1/8 > eps only at eps = 1/16
    ("sweep", "sweep.fine_ratio", "2"),     # h = eps/2 > eps/4
    # checked when the spec is built: once a TypeError traceback (exit 1), and
    # once refused only inside the first cell solve
    ("simulate", "coeff.a.value", "2,0,0,2"),   # 4 entries for the 1x1 2D curl coefficient
    ("simulate", "coeff.b.value", "2,1,0,2"),   # not symmetric
    # keys the family does not read: once silently ignored
    ("sweep", "coeff.a.factors", "2:1:1"),
    ("simulate", "coeff.b.phase", "1.0"),
    # h = 1/8 > eps/4: once refused inside wave.setup_problem, after the output
    # directory was made, by a message that named no key
    ("xdep-fine-simulate", "sim.n", "8"),
    # the folded corrector's hypotheses: once refused (exit 3) after the cell
    # solves and every leg's time loops, with tensors.txt written
    ("folded-sweep", "coeff.a.x_amplitude", "0.5"),
    ("folded-sweep", "coeff.d", "3"),
    # the folded tables average over nested subcells of the cell mesh: once
    # refused (exit 3) after the cell solves and every leg's time loops
    ("folded-n3-sweep", "hom.cell_n", "15"),
    ("folded-n3-sweep", "schedule.ratios", "2,3"),   # r_3 = 3 does not divide 16
    # once 18 cell solves instead of 2 for an x-independent spec, then exit 3
    # from the folded corrector after every leg's time loops
    ("folded-sweep", "hom.slow_x", "3"),
    # once three identical legs and a slope fitted to one eps (exit 0)
    ("sweep", "sweep.epsilons", "0.25,0.25,0.125"),
    # refused by the scale schedule with a message that named no key
    ("sweep", "sweep.epsilons", "0.25,0.125,1.5"),
    ("folded-n3-sweep", "schedule.ratios", "2,1"),
    # single-key rules of the key table: once refused by the mesh, the wave data
    # or the coefficient spec with a message that named no key
    ("simulate", "sim.n", "0"),
    ("simulate", "hom.cell_n", "0"),
    ("simulate", "sim.dt", "0"),
    ("simulate", "sim.dt", "-0.1"),
    ("simulate", "sim.t_final", "0"),
    ("simulate", "sim.dt", "0.3"),          # one step is longer than sim.t_final = 0.2
    ("simulate", "coeff.n", "0"),
    ("simulate", "coeff.d", "4"),
    # bounds: once refused by the coefficient spec with a message that named no key
    ("simulate", "coeff.alpha", "-1"),
    ("simulate", "coeff.beta", "0.25"),     # below coeff.alpha = 0.5
])
def test_cli_run_key_checked_before_cell_solves(tmp_path, capsys, monkeypatch, config, key,
                                                value):
    solves = []
    monkeypatch.setattr(harness, "homogenize", lambda *a, **k: solves.append(a))
    mode, text = RUN_KEY_CONFIGS[config]
    lines = [l for l in text.splitlines() if not l.startswith(key + " ")]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("\n".join(lines + ([f"{key} = {value}"] if value else [])) + "\n")
    out = tmp_path / "o"
    assert harness.main([mode, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()
    assert solves == []


def test_fine_setup_underresolved_rejected(tmp_path, capsys):
    # h = 1/8 > eps/4 at eps = 1/4: the message names the keys and the N that resolves eps
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(CONST_SIM.replace("sim.kind = homogenized", "sim.kind = fine")
                        + "schedule.epsilon = 0.25\n")
    out = tmp_path / "o"
    assert harness.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sim.n 8 with schedule.epsilon 0.25: ")
    assert "need N >= 16" in err
    assert not out.exists()


@pytest.mark.parametrize("config", ["xdep-sweep", "xdep-simulate", "xdep-fine-simulate",
                                    "folded-sweep", "folded-n3-sweep"])
def test_run_key_base_configs_reach_the_cell_solves(tmp_path, monkeypatch, config):
    # the bases of the cases above pass every check, so each case is refused for
    # its key; a fine run has no cell solves and stops at its assembly
    solves = []

    def stop(*args, **kwargs):
        solves.append(args)
        raise HomogenizationError("stopped at the cell solves")

    monkeypatch.setattr(harness, "homogenize", stop)
    monkeypatch.setattr(harness.wave, "setup_problem", stop)
    mode, text = RUN_KEY_CONFIGS[config]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text)
    assert harness.main([mode, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert len(solves) == 1


@pytest.mark.parametrize("key,value", [("data.g0", "cavity11"), ("data.g1", "bubble"),
                                       ("data.f", "bubble")])
def test_cli_field_of_another_dimension_exits_2_before_cell_solves(tmp_path, capsys, monkeypatch,
                                                                    key, value):
    # every builtin field but zero has two components: in 3D once an IndexError
    # or a ValueError after the cell solves (exit 1), with tensors.txt written
    solves = []
    monkeypatch.setattr(harness, "homogenize", lambda *a, **k: solves.append(a))
    cfg_path = tmp_path / "c.cfg"
    text = CONST_SIM.replace("coeff.d = 2", "coeff.d = 3").replace("sim.n = 8", "sim.n = 4")
    cfg_path.write_text(text + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert harness.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} = {value!r} has 2 components; coeff.d = 3 needs 3")
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("factors,fragment", [
    ("2:1:5", "axis 5"),              # once an IndexError traceback (exit 1)
    ("2:1:-1", "axis -1"),            # once read silently as the last axis
    ("2:1:0:0", "frequency 0"),
    ("2:1:0;2:1:0", "2 factors for 1 scales"),  # once found inside homogenize
])
def test_cli_factor_list_checked_before_cell_solves(tmp_path, capsys, monkeypatch, factors,
                                                    fragment):
    solves = []
    monkeypatch.setattr(harness, "homogenize", lambda *a, **k: solves.append(a))
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(XDEP_HOM.replace("coeff.a.factors = 2:1:1",
                                         f"coeff.a.factors = {factors}"))
    out = tmp_path / "o"
    assert harness.main(["homogenize", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coefficient a: ") and fragment in err
    assert not out.exists()
    assert solves == []


@pytest.mark.parametrize("factors", ["2:1", "2:1:1:1:0.5:7"])  # the 6th field was once dropped
def test_factor_needs_three_to_five_fields(factors):
    with pytest.raises(ConfigError, match=re.escape("needs offset:amplitude:axis[:frequency")):
        parse_config(XDEP_HOM.replace("factors = 2:1:1", f"factors = {factors}"))


# CONST_SIM's coefficient without its sim.* keys, which homogenize does not read
EXPRESSION_HOM = (CONST_SIM.split("sim.kind")[0].replace("mode = simulate", "mode = homogenize")
                  .replace("coeff.a.family = constant\ncoeff.a.value = 1.0",
                           "coeff.a.family = expression\ncoeff.a.code = {code}")
                  + "hom.cell_n = 8\n")


def test_cli_expression_outside_sandbox_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(EXPRESSION_HOM.format(code='__import__("os")'))
    out = tmp_path / "o"
    assert harness.main(["homogenize", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "coefficient expression may not use '__import__'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_whitelisted_expression_runs(tmp_path):
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(EXPRESSION_HOM.format(code="2.0 + np.sin(2*pi*ys[0][:, 0])")
                        .replace("coeff.beta = 2.0", "coeff.beta = 3.0"))
    out = tmp_path / "o"
    assert harness.main(["homogenize", "--config", str(cfg_path), "--out", str(out)]) == 0
    arow = next(l for l in open(out / "tensors.txt") if l.startswith("a level=0"))
    assert float(arow.split()[3]) == pytest.approx(np.sqrt(3.0), abs=1e-2)


def test_simulate_probes_at_the_ends_of_the_interior_edges(tmp_path):
    # CONST_SIM has 2 * 8 * 7 = 112 interior edges
    cfg = parse_config(CONST_SIM + "sim.probes = 0,111\n")
    traj = harness.run(cfg, outdir=str(tmp_path))
    assert traj.probe_values.shape == (len(traj.step_times), 2)


@pytest.mark.parametrize("multiscale", [False, True])
def test_sweep_leg_frees_wave_problems_before_the_corrector(monkeypatch, multiscale):
    from maxhom import corrector, wave

    cfg = parse_config(LAYERED_SWEEP + f"sweep.multiscale = {str(multiscale).lower()}\n")
    spec = harness.build_spec(cfg)
    hom = harness._homogenize(cfg, spec)
    problems, alive = [], []
    setup = wave.setup_problem

    def tracked_setup(*args, **kwargs):
        prob = setup(*args, **kwargs)
        problems.append(weakref.ref(prob))
        return prob

    def watch(fn):
        def run(*args, **kwargs):
            alive.extend(p() is not None for p in problems)
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(wave, "setup_problem", tracked_setup)
    for name in ("reconstruct_corrector", "multiscale_corrector_error"):
        monkeypatch.setattr(corrector, name, watch(getattr(corrector, name)))
    harness._sweep_one(cfg, spec, hom, harness._sweep_leg(cfg, 0.25))
    # the fine and the homogenized problem, both gone when the corrector starts
    assert len(problems) == 2 and alive == [False, False]


def test_simulate_fine_with_snapshots(tmp_path):
    text = """
mode = simulate
tol = 1e-10
coeff.d = 2
coeff.n = 1
coeff.alpha = 1.0
coeff.beta = 3.0
coeff.a.family = layered
coeff.a.offset = 2.0
coeff.a.amplitude = 1.0
coeff.b.family = layered
coeff.b.offset = 2.0
coeff.b.amplitude = 1.0
schedule.epsilon = 0.25
sim.kind = fine
sim.n = 16
sim.t_final = 0.1
sim.dt = 0.025
sim.snapshots = true
data.g1 = cavity11
"""
    from maxhom import wave

    cfg = parse_config(text)
    harness.run(cfg, outdir=str(tmp_path))
    snap = wave.read_snapshots(str(tmp_path / "snapshots.bin"))
    assert snap["N"] == 16 and snap["U"].shape[0] == snap["times"].shape[0]
    assert (tmp_path / "trajectory.csv").exists()


FINE_SIM = """
mode = simulate
tol = 1e-10
coeff.d = 2
coeff.n = 1
coeff.alpha = 1.0
coeff.beta = 3.0
coeff.a.family = layered
coeff.a.offset = 2.0
coeff.a.amplitude = 1.0
coeff.b.family = layered
coeff.b.offset = 2.0
coeff.b.amplitude = 1.0
schedule.epsilon = 0.25
sim.kind = fine
sim.n = 16
sim.t_final = 0.1
sim.dt = 0.025
sim.snapshots = true
data.g1 = cavity11
"""


# a value other than the default of every key that some run does not read
UNREAD_VALUES = {
    "schedule.epsilon": "0.25", "schedule.ratios": "2", "hom.cell_n": "16", "hom.slow_x": "2",
    "hom.slow_y": "4", "sim.kind": "fine", "sim.n": "8", "sim.t_final": "0.1",
    "sim.dt": "0.01", "sim.store_every": "2", "sim.probes": "0", "sim.snapshots": "true",
    "data.g0": "bubble", "data.g1": "bubble", "data.f": "bubble",
    "sweep.epsilons": "0.5,0.25,0.125", "sweep.fine_ratio": "4", "sweep.hom_n": "16",
    "sweep.t_final": "0.5", "sweep.dt_ratio": "4", "sweep.snapshots_per_run": "2",
    "sweep.multiscale": "true"}
RUN_CONFIGS = {"homogenize": ("homogenize", XDEP_HOM), "fine simulate": ("simulate", FINE_SIM),
               "homogenized simulate": ("simulate", CONST_SIM), "sweep": ("sweep", LAYERED_SWEEP)}


@pytest.mark.parametrize("run,keys", [
    *[pytest.param(run, {key: UNREAD_VALUES[key]}, id=f"{run}-{key}".replace(" ", "-"))
      for key, row in harness.SCHEMA.items() for run in harness.RUNS if run not in row.runs],
    # each once exited 0: the unread keys were parsed, written to the manifest
    # and fingerprinted, but never checked
    pytest.param("homogenized simulate", {"schedule.epsilon": "1.5", "schedule.ratios": "1",
                                          "sweep.epsilons": "0.3"}, id="homogenized-simulate-keys"),
    *[pytest.param("homogenize", {key: value}, id=f"homogenize-{key}-{value}")
      for key, value in (("sim.n", "0"), ("sim.kind", "bogus"), ("data.g0", "bogus"),
                         ("sweep.fine_ratio", "0"), ("sim.dt", "-1"))],
])
def test_cli_key_the_run_does_not_read_exits_2(tmp_path, capsys, monkeypatch, run, keys):
    solves = []
    monkeypatch.setattr(harness, "homogenize", lambda *a, **k: solves.append(a))
    mode, text = RUN_CONFIGS[run]
    lines = [l for l in text.splitlines() if l.split(" = ")[0] not in keys]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n")
    out = tmp_path / "o"
    assert harness.main([mode, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(key in err for key in keys), err
    assert not out.exists()
    assert solves == []


def test_fine_simulate_reduces_one_function_alike_in_every_family(tmp_path):
    # 2 + sin(2 pi y_1) as three families: the expression was once reduced with
    # 2 Gauss points per axis and the families with a sine factor with 3, so
    # that its K and M differed by 3.7e-4 relative; the domain mesh's rule is 3
    text = FINE_SIM.replace("sim.snapshots = true", "sim.snapshots = false")
    outputs = []
    for family, params in (("layered", "offset = 2.0\ncoeff.{w}.amplitude = 1.0"),
                           ("expression", "code = 2.0 + np.sin(2*pi*ys[0][:, 0])"),
                           ("separable-product", "factors = 2:1:0")):
        cfg = text
        for w in "ab":
            cfg = cfg.replace(f"coeff.{w}.family = layered\ncoeff.{w}.offset = 2.0\n"
                              f"coeff.{w}.amplitude = 1.0",
                              f"coeff.{w}.family = {family}\ncoeff.{w}." + params.format(w=w))
        harness.run(parse_config(cfg), outdir=str(tmp_path / family))
        outputs.append((tmp_path / family / "trajectory.csv").read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_simulate_failing_in_time_loop_leaves_no_snapshots(tmp_path, monkeypatch, capsys):
    # a fine run solves nothing before its time loop: the 3rd step's solve fails
    from maxhom import fem

    solve, calls = fem.solve_spd, []

    def failing_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise fem.SolveError("injected failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_spd", failing_solve)
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(FINE_SIM)
    out = tmp_path / "o"
    assert harness.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "injected failure" in capsys.readouterr().err
    assert len(calls) == 3 and os.listdir(out) == []


def test_simulate_without_snapshots_stores_none(tmp_path, monkeypatch, peak_bytes):
    # 32^2, 256 steps: the loop's peak does not grow with the stored steps
    from maxhom import wave

    integrate, peaks = wave.integrate, []

    def measured(*args, **kwargs):
        traj, peak = peak_bytes(lambda: integrate(*args, **kwargs))
        peaks.append(peak)
        return traj

    monkeypatch.setattr(wave, "integrate", measured)
    text = FINE_SIM.replace("sim.snapshots = true", "sim.snapshots = false")
    text = text.replace("sim.n = 16", "sim.n = 32").replace("sim.t_final = 0.1", "sim.t_final = 4.0")
    text = text.replace("sim.dt = 0.025", "sim.dt = 0.015625")
    for every in (256, 256, 1):  # the first run also fills the mesh's cached maps
        cfg = parse_config(text + f"sim.store_every = {every}\n")
        traj = harness.run(cfg, outdir=str(tmp_path / str(every)))
        assert traj.U is None and traj.V is None and len(traj.snap_steps) == 1 + 256 // every
        assert not (tmp_path / str(every) / "snapshots.bin").exists()
    row = 8 * traj.mesh.n_interior_edges
    assert peaks[2] - peaks[1] <= 2 * row, (peaks[2] - peaks[1]) / row


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps maxhom functions by name; a renamed or deleted
    # one breaks the benchmark's --trace runs
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c",
                           "import tracing; tracing.install(tracing.Tracer())"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _config_texts():
    """Every config of these tests, the acceptance tests and the benchmark workloads (seed 1)."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    mods = [sys.modules[__name__]]
    for name, path in (("acceptance", "tests/test_acceptance.py"),
                       ("workloads", "perfbench/workloads.py")):
        spec = importlib.util.spec_from_file_location(name, os.path.join(root, path))
        mods.append(importlib.util.module_from_spec(spec))
        spec.loader.exec_module(mods[-1])
    texts = {f"{mod.__name__}.{name}": text for mod in mods[:2]
             for name, text in vars(mod).items() if name.isupper() and isinstance(text, str)
             and "mode = " in text}
    texts["test_harness.EXPRESSION_HOM"] = EXPRESSION_HOM.format(code="2.0 + x[:, 0]")
    texts.update({f"test_harness.RUN_KEY_CONFIGS[{name}]": text
                  for name, (_, text) in RUN_KEY_CONFIGS.items()})
    texts.update({name: wl.config(1) for name, wl in mods[2].WORKLOADS.items()})
    return texts


def test_manifest_round_trips_through_parse_config(tmp_path):
    # factors were once written in alphabetical field order at 6 digits, number
    # tuples joined by ';', unset keys as None, and out as the config default;
    # the manifest sits in the output directory and does not name it
    texts = _config_texts()
    assert len(texts) >= 13
    for name, text in texts.items():
        cfg = parse_config(text)
        harness._write_manifest(str(tmp_path), cfg, ["runtime eps=0.5 = 1.000s"])
        back = harness.load_config(tmp_path / "manifest.txt")
        assert back == cfg, name
        assert harness.fingerprint(back) == harness.fingerprint(cfg), name
    # phases that differ in the 8th digit once shared a fingerprint
    cfgs = [parse_config(XDEP_HOM.replace("factors = 2:1:1", f"factors = 2:1:1:1:{phase}"))
            for phase in ("1.23456789", "1.23456712")]
    assert harness.fingerprint(cfgs[0]) != harness.fingerprint(cfgs[1])


def test_every_config_passes_the_key_check_of_its_mode():
    # a change to the key table that refused one of these configs would turn a
    # benchmark round, an acceptance gate or a test's base config into an exit 2
    texts = _config_texts()
    assert {"rate-sweep", "folded-sweep", "xdep-cavity"} <= set(texts)
    for name, text in texts.items():
        try:
            harness.check_keys(parse_config(text))
        except ConfigError as exc:
            pytest.fail(f"{name}: {exc}")
