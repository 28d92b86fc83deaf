"""Run configurations, pipeline orchestration and the command-line interface.

Config files are flat `key = value` text with dotted section names, strict
unknown-key rejection and no hidden defaults: the manifest always contains the
fully resolved configuration, and its canonical form is hashed into the run
fingerprint.  Reruns of the same config produce byte-identical CSV outputs
(the algorithms are deterministic; runtimes live only in manifest.txt).

CLI:  maxhom {homogenize|simulate|sweep} --config <path> [--out <dir>]
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from collections import namedtuple

import numpy as np

from . import corrector, fem, wave
from .cells import HomogenizationError, homogenize, sample_grids
from .coeffs import (PARAMS, CoefficientError, CoefficientPart, CoefficientSpec, ScaleSchedule,
                     fine_coefficients)
from .mesh import DomainMesh, MeshError
from .unfolding import lattice_cells


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# typed flat-key schema

def _parse_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_floats(s):
    return tuple(float(v) for v in s.split(",") if v.strip())


def _parse_ints(s):
    return tuple(int(v) for v in s.split(",") if v.strip())


_FACTOR_FIELDS = (("offset", float), ("amplitude", float), ("axis", int), ("frequency", int),
                  ("phase", float))


def _parse_factors(s):
    """Per-scale factors 'offset:amplitude:axis[:frequency[:phase]];...'."""
    out = []
    for part in s.split(";"):
        bits = part.split(":")
        if not 3 <= len(bits) <= 5:
            raise ConfigError(f"factor {part!r} needs offset:amplitude:axis[:frequency[:phase]]")
        out.append({k: parse(b) for (k, parse), b in zip(_FACTOR_FIELDS, bits)})
    return tuple(out)


def _cavity(m, n):
    def fn(x):
        return np.stack([-n * np.pi * np.cos(m * np.pi * x[:, 0]) * np.sin(n * np.pi * x[:, 1]),
                         m * np.pi * np.sin(m * np.pi * x[:, 0]) * np.cos(n * np.pi * x[:, 1])],
                        axis=1)
    return fn


def _bubble(x):
    s = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    return np.stack([s, s], axis=1)


FIELD_REGISTRY = {
    "zero": None,
    "cavity11": _cavity(1, 1),
    "cavity21": _cavity(2, 1),
    "bubble": _bubble,
}

FORCING_REGISTRY = {
    "zero": None,
    "bubble": wave.Forcing(_bubble),
    "bubble_cos2t": wave.Forcing(_bubble, lambda t: np.cos(2.0 * t)),
}


def _one_of(names):
    return f"be one of {', '.join(map(str, names))}", lambda v: v in names


_AT_LEAST_1 = ("be >= 1", lambda v: v >= 1)
_POSITIVE = ("be > 0", lambda v: v > 0)
_UNIT = ("lie in (0, 1)", lambda v: 0 < v < 1)

# a run is a mode, and a simulate's sim.kind
RUNS = ("homogenize", "fine simulate", "homogenized simulate", "sweep")
_SIM = ("fine simulate", "homogenized simulate")
_HOM = ("homogenize", "homogenized simulate", "sweep")   # the runs that solve the cell problems
_WAVE = _SIM + ("sweep",)                                  # the runs that solve wave problems

# A config key: its parser and default, the runs that read it, its rule there
# ("<key> must <text>" and the test of a set value), and whether they need it set.
Key = namedtuple("Key", "parse default runs rule required", defaults=(("", None), False))

SCHEMA = {
    "mode": Key(str, None, RUNS, _one_of(("homogenize", "simulate", "sweep")), required=True),
    "tol": Key(float, 1e-12, RUNS, _UNIT),
    "coeff.d": Key(int, 2, RUNS, _one_of((2, 3))),
    "coeff.n": Key(int, 1, RUNS, _AT_LEAST_1),
    "coeff.alpha": Key(float, None, RUNS, _POSITIVE, required=True),
    "coeff.beta": Key(float, None, RUNS, required=True),
    "schedule.epsilon": Key(float, None, ("fine simulate",), _UNIT, required=True),
    "schedule.ratios": Key(_parse_ints, (), ("fine simulate", "sweep"),
                           ("be integers >= 2", lambda v: all(r >= 2 for r in v))),
    "hom.cell_n": Key(int, 64, _HOM, _AT_LEAST_1),
    "hom.slow_x": Key(int, None, _HOM),
    "hom.slow_y": Key(_parse_ints, None, _HOM),
    "sim.kind": Key(str, "homogenized", _SIM, _one_of(("fine", "homogenized"))),
    "sim.n": Key(int, None, _SIM, _AT_LEAST_1, required=True),
    "sim.t_final": Key(float, 0.5, _SIM, _POSITIVE),
    "sim.dt": Key(float, None, _SIM, _POSITIVE),
    "sim.store_every": Key(int, 1, _SIM, _AT_LEAST_1),
    "sim.probes": Key(_parse_ints, None, _SIM),
    "sim.snapshots": Key(_parse_bool, False, _SIM),
    "data.g0": Key(str, "zero", _WAVE, _one_of(FIELD_REGISTRY)),
    "data.g1": Key(str, "zero", _WAVE, _one_of(FIELD_REGISTRY)),
    "data.f": Key(str, "zero", _WAVE, _one_of(FORCING_REGISTRY)),
    # a slope fit needs three legs or more, at distinct scales
    "sweep.epsilons": Key(_parse_floats, (), ("sweep",), (
        "hold 3 epsilons or more, distinct and each in (0, 1)",
        lambda v: len(set(v)) == len(v) >= 3 and all(0 < e < 1 for e in v))),
    "sweep.fine_ratio": Key(int, 32, ("sweep",), _AT_LEAST_1),
    "sweep.hom_n": Key(int, 64, ("sweep",), _AT_LEAST_1),
    "sweep.t_final": Key(float, 0.25, ("sweep",), _POSITIVE),
    "sweep.dt_ratio": Key(int, 16, ("sweep",), _AT_LEAST_1),
    "sweep.snapshots_per_run": Key(int, 8, ("sweep",), _AT_LEAST_1),
    "sweep.multiscale": Key(_parse_bool, False, ("sweep",)),
}

for _which in ("a", "b"):
    SCHEMA.update({
        f"coeff.{_which}.family": Key(str, None, RUNS, required=True),
        f"coeff.{_which}.value": Key(_parse_floats, None, RUNS),
        f"coeff.{_which}.offset": Key(float, None, RUNS),
        f"coeff.{_which}.amplitude": Key(float, None, RUNS),
        f"coeff.{_which}.phase": Key(float, 0.0, RUNS),
        f"coeff.{_which}.factors": Key(_parse_factors, None, RUNS),
        f"coeff.{_which}.x_amplitude": Key(float, 0.0, RUNS),
        f"coeff.{_which}.code": Key(str, None, RUNS),
    })


def parse_config(text):
    """Parse flat key-value text into a resolved dict (defaults applied); check_keys
    refuses what no run accepts."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = SCHEMA[key].parse(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return {key: raw.get(key, row.default) for key, row in SCHEMA.items()}


def check_keys(cfg):
    """Refuse, naming the key, a value outside its rule where the config's run reads
    it, or a set value of a key that the run does not read (it keeps its default)."""
    run = f"{cfg['sim.kind']} simulate" if cfg["mode"] == "simulate" else cfg["mode"]
    # mode and sim.kind choose the run: where they name none, they are what is refused
    read = [k for k in SCHEMA if run in SCHEMA[k].runs] if run in RUNS else ["mode", "sim.kind"]
    for key in read:
        (text, test), value = SCHEMA[key].rule, cfg[key]
        if value is None and SCHEMA[key].required:
            raise ConfigError(f"{key} is required")
        if value is not None and test and not test(value):
            raise ConfigError(f"{key} must {text}, got {value!r}")
    stray = [k for k in SCHEMA if k not in read and cfg[k] != SCHEMA[k].default]
    if stray:
        raise ConfigError(f"{', '.join(stray)}: not read by a {run} run, so each must keep "
                          "its default")


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _fmt_value(v):
    """v as its parser reads it back (floats at 17 significant digits)."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, tuple) and v and isinstance(v[0], dict):
        return ";".join(":".join(_fmt_value(f[k]) for k, _ in _FACTOR_FIELDS if k in f) for f in v)
    if isinstance(v, tuple):
        return ",".join(map(_fmt_value, v))
    return str(v)


def canonical_config(cfg):
    """cfg as text that parse_config reads back: one key a line in key order, an
    unset key as a comment line."""
    return "\n".join(f"# {k} unset" if cfg[k] is None else f"{k} = {_fmt_value(cfg[k])}"
                     for k in sorted(cfg))


def fingerprint(cfg):
    return hashlib.sha256(canonical_config(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# builders

def build_part(cfg, which):
    """The CoefficientPart of coeff.<which>; keys its family does not read keep their defaults."""
    prefix = f"coeff.{which}."
    fam = cfg[prefix + "family"]
    keys = [key[len(prefix):] for key in SCHEMA if key.startswith(prefix)]
    reads = [k for k in keys if k in set().union(*PARAMS.get(fam, ()))]  # its params' keys
    params = {k: cfg[prefix + k] for k in reads if cfg[prefix + k] is not None}
    try:
        part = CoefficientPart(fam, params)
    except CoefficientError as exc:
        raise ConfigError(f"coeff.{which}: {exc}") from None
    stray = [prefix + k for k in keys
             if k not in ["family"] + reads and cfg[prefix + k] != SCHEMA[prefix + k].default]
    if stray:
        raise ConfigError(f"{', '.join(stray)}: not read by family {fam!r} "
                          f"(it reads {', '.join(reads)})")
    return part


def build_spec(cfg):
    if cfg["coeff.beta"] < cfg["coeff.alpha"]:
        raise ConfigError(f"coeff.beta {cfg['coeff.beta']:g} is below coeff.alpha "
                          f"{cfg['coeff.alpha']:g}")
    return CoefficientSpec(cfg["coeff.d"], cfg["coeff.n"], a=build_part(cfg, "a"),
                           b=build_part(cfg, "b"), alpha=cfg["coeff.alpha"],
                           beta=cfg["coeff.beta"])


def build_schedule(cfg, epsilon=None):
    """The ScaleSchedule of schedule.epsilon, or of a sweep leg's epsilon."""
    ratios = cfg["schedule.ratios"]
    if 1 + len(ratios) != cfg["coeff.n"]:
        raise ConfigError("schedule.ratios must provide one ratio per extra scale")
    return ScaleSchedule(cfg["schedule.epsilon"] if epsilon is None else epsilon, ratios)


def _field(cfg, key, registry):
    """The registry entry cfg[key], refused unless it has coeff.d components."""
    name, d = cfg[key], cfg["coeff.d"]
    fn = registry[name]
    # the components are counted at one point
    k = None if fn is None else np.shape(getattr(fn, "space_fn", fn)(np.full((1, d), 0.5)))[-1]
    if k not in (None, d):
        raise ConfigError(f"{key} = {name!r} has {k} components; coeff.d = {d} needs {d}")
    return fn


def build_wave_data(cfg, dt, t_final, store_every, keys, probes=()):
    """The WaveData of one run; keys names the config keys that set t_final and dt."""
    try:
        return wave.WaveData(
            T=t_final, dt=dt,
            g0=_field(cfg, "data.g0", FIELD_REGISTRY),
            g1=_field(cfg, "data.g1", FIELD_REGISTRY),
            f=_field(cfg, "data.f", FORCING_REGISTRY),
            store_every=store_every, probe_edges=probes, tol=cfg["tol"])
    except wave.WaveSetupError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


# ---------------------------------------------------------------------------
# pipelines

def _write_manifest(outdir, cfg, extra_lines=()):
    import scipy

    path = os.path.join(outdir, "manifest.txt")
    with open(path, "w") as fh:
        fh.write("# maxhom run manifest\n")
        fh.write(f"# fingerprint = {fingerprint(cfg)}\n")
        fh.write(f"# versions = python {sys.version.split()[0]}, numpy {np.__version__}, "
                 f"scipy {scipy.__version__}\n")
        for line in extra_lines:
            fh.write(f"# {line}\n")
        fh.write("# resolved configuration\n")
        fh.write(canonical_config(cfg) + "\n")


def _homogenize(cfg, spec):
    """homogenize() after checking the slow-grid keys against the spec."""
    slow_x, slow_y = cfg["hom.slow_x"], cfg["hom.slow_y"]
    try:
        sample_grids(spec, slow_x, slow_y)
    except HomogenizationError as exc:
        raise ConfigError(f"hom.{exc}") from None   # the message starts with slow_x or slow_y
    return homogenize(spec, cfg["hom.cell_n"], slow_x=slow_x, slow_y=slow_y, tol=cfg["tol"])


def _x_keys(spec):
    """The coeff.* keys that make spec depend on x, comma-separated."""
    return ", ".join(f"coeff.{w}." + ("code" if part.family == "expression" else "x_amplitude")
                     for w, part in (("a", spec.a), ("b", spec.b)) if part.depends_on_x())


def _check_fine_resolution(mesh, schedule, keys):
    """Refuse a fine mesh that under-resolves the finest scale, h > eps_n/4; keys
    names the config keys that set the mesh and the schedule."""
    eps_n = schedule.epsilons[-1]
    if mesh.h > eps_n / 4 + 1e-12:
        needed = int(np.ceil(4 / eps_n))
        raise ConfigError(f"{keys}: the fine mesh under-resolves eps_n = {eps_n:g}, "
                          f"h = {mesh.h:g} > eps_n/4; need N >= {needed}")


def run_homogenize(cfg, outdir):
    spec = build_spec(cfg)
    hom = _homogenize(cfg, spec)
    os.makedirs(outdir, exist_ok=True)
    hom.export_text(os.path.join(outdir, "tensors.txt"))
    _write_manifest(outdir, cfg)
    return hom


def _drop_snapshots(k, u, v):
    """Snapshot sink of a simulate run without sim.snapshots: nothing is stored."""


def run_simulate(cfg, outdir):
    spec = build_spec(cfg)
    # every sim.* and data.* key is checked before the cell solves
    mesh = DomainMesh(cfg["coeff.d"], cfg["sim.n"])
    dt = cfg["sim.dt"] if cfg["sim.dt"] is not None else mesh.h / 2.0
    probes, n_int = cfg["sim.probes"], mesh.n_interior_edges
    if probes is None:
        probes = tuple(sorted({n_int // 7, n_int // 3, (5 * n_int) // 7})) if n_int else ()
    elif any(not 0 <= p < n_int for p in probes):
        raise ConfigError(f"sim.probes must lie in [0, {n_int}) (interior edges), "
                          f"got {','.join(map(str, probes))}")
    data = build_wave_data(cfg, dt, cfg["sim.t_final"], cfg["sim.store_every"],
                           f"sim.t_final {cfg['sim.t_final']:g} with sim.dt {dt:g}", probes)
    hom = None
    if cfg["sim.kind"] == "fine":
        schedule = build_schedule(cfg)
        _check_fine_resolution(mesh, schedule, f"sim.n {cfg['sim.n']} with schedule.epsilon "
                                               f"{cfg['schedule.epsilon']:g}")
        coefficients = fine_coefficients(spec, schedule)
    else:
        hom = _homogenize(cfg, spec)
        coefficients = hom.coefficients()
    os.makedirs(outdir, exist_ok=True)
    if hom is not None:
        hom.export_text(os.path.join(outdir, "tensors.txt"))
    prob = wave.setup_problem(mesh, data, coefficients)
    # snapshots stream to their file as the loop stores them; none are kept
    if cfg["sim.snapshots"]:
        sink = wave.export_snapshots(prob, os.path.join(outdir, "snapshots.bin"))
    else:
        sink = contextlib.nullcontext(_drop_snapshots)
    with sink as store:
        traj = wave.integrate(prob, sink=store)
    wave.export_trajectory_csv(traj, os.path.join(outdir, "trajectory.csv"))
    _write_manifest(outdir, cfg)
    return traj


def fit_slope(pairs):
    """Least-squares slope of log(error) against log(eps)."""
    pairs = list(pairs)
    if len({p[0] for p in pairs}) < 2:
        raise ConfigError("need (eps, error) pairs at two or more distinct eps for a slope")
    eps = np.array([p[0] for p in pairs], dtype=float)
    err = np.array([p[1] for p in pairs], dtype=float)
    if np.any(eps <= 0) or np.any(err <= 0):
        raise ConfigError("slope fit needs positive epsilons and errors")
    A = np.stack([np.log(eps), np.ones_like(eps)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(err), rcond=None)
    return float(coef[0])


class ConvergenceReport:
    """Per-eps corrector errors with the fitted log-log slope."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.fingerprint = fingerprint(cfg)
        self.eps = []
        self.e_vel = []
        self.e_curl = []
        self.e_ms = []
        self.runtimes = []
        self.failures = []

    @property
    def totals(self):
        return [v + c for v, c in zip(self.e_vel, self.e_curl)]

    @property
    def partial(self):
        return bool(self.failures)

    def slope(self):
        vals = self.e_ms if self.cfg["sweep.multiscale"] else self.totals
        return fit_slope(list(zip(self.eps, vals)))

    def write_csv(self, path):
        ms = self.cfg["sweep.multiscale"]
        with open(path, "w") as fh:
            fh.write("eps,E_vel,E_curl,E_total,E_ms\n")
            for i, e in enumerate(self.eps):
                row = [f"{e:.17g}", f"{self.e_vel[i]:.17g}", f"{self.e_curl[i]:.17g}",
                       f"{self.totals[i]:.17g}",
                       f"{self.e_ms[i]:.17g}" if ms else ""]
                fh.write(",".join(row) + "\n")
            fh.write(f"slope,{self.slope():.17g},,,\n")
            fh.write(f"fingerprint,{self.fingerprint},,,\n")
            if self.partial:
                fh.write(f"partial,{len(self.failures)} failed runs,,,\n")

    def write_summary_json(self, path):
        doc = {"epsilons": self.eps, "E_vel": self.e_vel, "E_curl": self.e_curl,
               "E_total": self.totals, "E_ms": self.e_ms, "slope": self.slope(),
               "fingerprint": self.fingerprint, "partial": self.partial}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _sweep_leg(cfg, eps):
    """(eps, schedule, fine mesh, wave data) of the leg at eps, keys checked."""
    schedule = build_schedule(cfg, epsilon=eps)
    eps_n = schedule.epsilons[-1]
    Nf = int(round(cfg["sweep.fine_ratio"] / eps_n))
    mesh = DomainMesh(cfg["coeff.d"], Nf)
    _check_fine_resolution(mesh, schedule, f"sweep.fine_ratio {cfg['sweep.fine_ratio']} "
                                           f"at eps {eps:g}")
    dt = eps_n / cfg["sweep.dt_ratio"]
    steps = int(round(cfg["sweep.t_final"] / dt))
    store_every = max(1, steps // cfg["sweep.snapshots_per_run"])
    data = build_wave_data(cfg, dt, cfg["sweep.t_final"], store_every,
                           f"sweep.t_final {cfg['sweep.t_final']:g} with sweep.dt_ratio "
                           f"{cfg['sweep.dt_ratio']} at eps {eps:g}")
    if not cfg["sweep.multiscale"]:
        # the hypotheses of the pointwise corrector (reconstruct_corrector)
        if cfg["coeff.n"] > 1:
            raise ConfigError(f"sweep.multiscale = false runs the pointwise corrector, which "
                              f"serves coeff.n = 1 only, got coeff.n = {cfg['coeff.n']}")
        if cfg["data.g0"] != "zero":
            raise ConfigError(f"data.g0 = {cfg['data.g0']}: the pointwise corrector of a "
                              "sweep needs data.g0 = zero")
        h0 = 1 / cfg["sweep.hom_n"]
        if h0 > eps + 1e-12:
            raise ConfigError(f"sweep.hom_n {cfg['sweep.hom_n']} gives a homogenized mesh "
                              f"h0={h0:g} coarser than eps={eps:g}")
    return eps, schedule, mesh, data


def _sweep_one(cfg, spec, hom, leg):
    t0 = time.perf_counter()
    eps, schedule, mesh, data = leg

    # no WaveProblem is kept: its matrices would stay alive through the corrector
    traj_f = wave.integrate(wave.setup_problem(mesh, data, fine_coefficients(spec, schedule)))
    hom_mesh = DomainMesh(cfg["coeff.d"], cfg["sweep.hom_n"])
    traj_h = wave.integrate(wave.setup_problem(hom_mesh, data, hom.coefficients()))

    if cfg["sweep.multiscale"]:
        errs = corrector.multiscale_corrector_error(traj_f, traj_h, hom, schedule, g1=data.g1)
        e_vel = e_curl = 0.0
        e_ms = errs.max_ms
    else:
        field = corrector.reconstruct_corrector(traj_h, hom, schedule, g1=data.g1,
                                                fine_mesh=mesh)
        errs = corrector.corrector_error(traj_f, field)
        e_vel, e_curl, e_ms = errs.max_vel, errs.max_curl, 0.0
    return eps, e_vel, e_curl, e_ms, errs, time.perf_counter() - t0


# failures the CLI reports with exit code 3; a sweep records them per eps
# and goes on with the remaining legs, unless fewer than two legs are left
# for the slope fit
NUMERICAL_FAILURES = (fem.SolveError, HomogenizationError, corrector.CorrectorInputError)


def run_sweep(cfg, outdir):
    eps_list = cfg["sweep.epsilons"]
    if all(cfg[key] == "zero" for key in ("data.g0", "data.g1", "data.f")):
        raise ConfigError("data.g0, data.g1 and data.f are all zero: the solution is "
                          "identically 0 and leaves no error to fit a slope to")
    if cfg["sweep.multiscale"]:
        # the hypotheses of the folded corrector (multiscale_corrector_error)
        if cfg["coeff.d"] != 2:
            raise ConfigError(f"sweep.multiscale: the folded corrector is 2D, got "
                              f"coeff.d = {cfg['coeff.d']}")
        # it averages over eps macro-cells, which must tile the unit box
        for e in eps_list:
            if lattice_cells(1.0, e) is None:
                raise ConfigError(f"sweep.multiscale needs eps-lattices that tile the unit "
                                  f"box: sweep.epsilons holds eps {e:g}, and 1/eps is not "
                                  "an integer")
    spec = build_spec(cfg)
    if cfg["sweep.multiscale"] and spec.depends_on_x():
        raise ConfigError(f"sweep.multiscale: the folded corrector needs an x-independent "
                          f"coefficient, got an x-dependent {_x_keys(spec)}")
    # every leg's keys are checked before the cell solves
    legs = [_sweep_leg(cfg, e) for e in eps_list]
    # the folded corrector's tables average over nested subcells of the cell mesh
    bad = [r for r in cfg["schedule.ratios"] if cfg["hom.cell_n"] % r]
    if cfg["sweep.multiscale"] and bad:
        raise ConfigError(f"sweep.multiscale: hom.cell_n {cfg['hom.cell_n']} is not divisible "
                          f"by the scale ratio {bad[0]} of schedule.ratios")
    hom = _homogenize(cfg, spec)
    os.makedirs(outdir, exist_ok=True)
    hom.export_text(os.path.join(outdir, "tensors.txt"))
    report = ConvergenceReport(cfg)
    series = []
    while legs:
        leg = legs.pop(0)   # a finished leg's mesh is not kept
        try:
            eps, e_vel, e_curl, e_ms, errs, rt = _sweep_one(cfg, spec, hom, leg)
        except NUMERICAL_FAILURES as exc:
            report.failures.append((leg[0], exc))
            continue
        report.eps.append(eps)
        report.e_vel.append(e_vel)
        report.e_curl.append(e_curl)
        report.e_ms.append(e_ms)
        report.runtimes.append(rt)
        series.append((eps, errs))
    if len(report.eps) < 2:
        # a cause that refuses (nearly) every leg, e.g. from the config itself
        raise report.failures[0][1]
    report.slope()   # a failed fit leaves no partial report behind
    with open(os.path.join(outdir, "errors.csv"), "w") as fh:
        fh.write("eps,t,E_vel,E_curl,E_ms\n")
        for eps, errs in series:
            for i, t in enumerate(errs.times):
                ms = errs.e_ms[i] if errs.e_ms is not None else 0.0
                fh.write(f"{eps:.17g},{t:.17g},{errs.e_vel[i]:.17g},"
                         f"{errs.e_curl[i]:.17g},{ms:.17g}\n")
    report.failures.sort(key=lambda f: -f[0])
    report.write_csv(os.path.join(outdir, "report.csv"))
    report.write_summary_json(os.path.join(outdir, "summary.json"))
    lines = [f"runtime eps={e:.17g} = {rt:.3f}s" for e, rt in zip(report.eps, report.runtimes)]
    lines += [f"failure eps={e:.17g}: {exc}" for e, exc in report.failures]
    _write_manifest(outdir, cfg, lines)
    return report


def run(cfg, outdir):
    """Dispatch a parsed config into outdir, which each mode makes once its keys
    are checked; returns the mode's primary result object."""
    check_keys(cfg)
    return {"homogenize": run_homogenize, "simulate": run_simulate,
            "sweep": run_sweep}[cfg["mode"]](cfg, outdir)


# ---------------------------------------------------------------------------
# CLI

def main(argv=None):
    parser = argparse.ArgumentParser(prog="maxhom",
                                     description="multiscale Maxwell homogenization runs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("homogenize", "simulate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["mode"] != args.command:
            raise ConfigError(
                f"config mode {cfg['mode']!r} does not match subcommand {args.command!r}")
        run(cfg, outdir=args.out)
    except (ConfigError, CoefficientError, MeshError, wave.WaveSetupError,
            fem.AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
