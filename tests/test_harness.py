import os

import numpy as np
import pytest

from maxhom import harness
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
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("mode = simulate\nbogus = 1")
    with pytest.raises(ConfigError, match="unknown key 'workers'"):
        parse_config(CONST_SIM + "\nworkers = 2")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(CONST_SIM + "\nsim.n = 4")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="coeff.alpha"):
        parse_config("mode = simulate\ncoeff.beta = 1\n"
                     "coeff.a.family = constant\ncoeff.b.family = constant")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("mode = simulate\nsim.n = notanint")


def test_unknown_selector_rejected(tmp_path):
    cfg = parse_config(CONST_SIM.replace("data.g0 = zero", "") + "\ndata.g0 = nosuch")
    with pytest.raises(ConfigError, match="registry"):
        harness.run(cfg, outdir=str(tmp_path))


def test_fingerprint_ignores_execution_keys():
    cfg1 = parse_config(CONST_SIM)
    cfg2 = parse_config(CONST_SIM + "\nout = elsewhere")
    assert harness.fingerprint(cfg1) == harness.fingerprint(cfg2)
    cfg3 = parse_config(CONST_SIM.replace("sim.n = 8", "sim.n = 16"))
    assert harness.fingerprint(cfg1) != harness.fingerprint(cfg3)


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
    assert (tmp_path / "manifest.txt").exists()


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
    assert not (tmp_path / "o" / "tensors.txt").exists()


def test_cli_numerical_failure_exit_code(tmp_path):
    # declared bounds the homogenized tensor cannot satisfy -> exit 3
    text = """
mode = homogenize
coeff.d = 2
coeff.n = 1
coeff.alpha = 2.5
coeff.beta = 3.0
coeff.a.family = layered
coeff.a.offset = 2.0
coeff.a.amplitude = 0.4
coeff.b.family = layered
coeff.b.offset = 2.0
coeff.b.amplitude = 0.4
hom.cell_n = 8
"""
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(text)
    assert harness.main(["homogenize", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")]) == 3


def test_sweep_reports_failed_leg_and_continues(tmp_path):
    # hom_n = 8 gives h0 = 0.125 > eps = 0.0625: the corrector refuses that leg
    # (exit-3 class), the other two legs still make a report
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(LAYERED_SWEEP.replace("sweep.hom_n = 32", "sweep.hom_n = 8"))
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = open(out / "report.csv").read().splitlines()
    assert [r.split(",")[0] for r in rows[1:3]] == ["0.25", "0.125"]
    assert rows[-1] == "partial,1 failed runs,,,"
    assert "failure eps=0.0625" in open(out / "manifest.txt").read()


@pytest.mark.parametrize("edit,cause", [
    # refused on every leg by the config itself
    (("data.g1 = cavity11", "data.g1 = cavity11\ndata.g0 = cavity11"), "g0"),
    # hom_n = 4 gives h0 = 0.25 > eps on two of the three legs
    (("sweep.hom_n = 32", "sweep.hom_n = 4"), "eps"),
])
def test_sweep_without_two_legs_exits_with_cause(tmp_path, capsys, edit, cause):
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(LAYERED_SWEEP.replace(*edit))
    out = tmp_path / "o"
    assert harness.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and cause in err
    assert not (out / "report.csv").exists()


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
