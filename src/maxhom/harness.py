"""Run configurations, pipeline orchestration and the command-line interface.

Config files are flat `key = value` text with dotted section names, strict
unknown-key rejection and no hidden defaults: the manifest always contains the
fully resolved configuration, and its canonical form is hashed into the run
fingerprint.  Reruns of the same config produce byte-identical CSV outputs
(the algorithms are deterministic; runtimes live only in manifest.txt).

CLI:  maxhom {homogenize|simulate|sweep} --config <path> [--out <dir>] [--tol <r>]
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import corrector, fem, wave
from .cells import HomogenizationError, homogenize
from .coeffs import PARAMS, CoefficientError, CoefficientPart, CoefficientSpec, ScaleSchedule
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


_REQUIRED = object()

SCHEMA = {
    "mode": (str, _REQUIRED),
    "out": (str, "out"),
    "tol": (float, 1e-12),
    "coeff.d": (int, 2),
    "coeff.n": (int, 1),
    "coeff.alpha": (float, _REQUIRED),
    "coeff.beta": (float, _REQUIRED),
    "schedule.epsilon": (float, None),
    "schedule.ratios": (_parse_ints, ()),
    "hom.cell_n": (int, 64),
    "hom.slow_x": (int, None),
    "hom.slow_y": (_parse_ints, None),
    "sim.kind": (str, "homogenized"),
    "sim.n": (int, None),
    "sim.extent": (float, 1.0),
    "sim.t_final": (float, 0.5),
    "sim.dt": (float, None),
    "sim.store_every": (int, 1),
    "sim.probes": (_parse_ints, None),
    "sim.quad": (int, None),
    "sim.snapshots": (_parse_bool, False),
    "data.g0": (str, "zero"),
    "data.g1": (str, "zero"),
    "data.f": (str, "zero"),
    "sweep.epsilons": (_parse_floats, ()),
    "sweep.fine_ratio": (int, 32),
    "sweep.hom_n": (int, 64),
    "sweep.t_final": (float, 0.25),
    "sweep.dt_ratio": (int, 16),
    "sweep.snapshots_per_run": (int, 8),
    "sweep.multiscale": (_parse_bool, False),
}

for _which in ("a", "b"):
    SCHEMA.update({
        f"coeff.{_which}.family": (str, _REQUIRED),
        f"coeff.{_which}.value": (_parse_floats, None),
        f"coeff.{_which}.offset": (float, None),
        f"coeff.{_which}.amplitude": (float, None),
        f"coeff.{_which}.phase": (float, 0.0),
        f"coeff.{_which}.factors": (_parse_factors, None),
        f"coeff.{_which}.x_amplitude": (float, 0.0),
        f"coeff.{_which}.code": (str, None),
    })


def parse_config(text):
    """Parse flat key-value text into a resolved dict (defaults applied)."""
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
        parser = SCHEMA[key][0]
        try:
            raw[key] = parser(val)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    cfg = {}
    for key, (_, default) in SCHEMA.items():
        if key in raw:
            cfg[key] = raw[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            cfg[key] = default
    if cfg["mode"] not in ("homogenize", "simulate", "sweep"):
        raise ConfigError(f"unknown mode {cfg['mode']!r}")
    return cfg


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


# execution-environment keys: left out of the canonical config, so that output
# paths change neither the fingerprint nor the size of the manifest
_NON_SEMANTIC = ("out",)


def canonical_config(cfg):
    """cfg without its execution keys, as text that parse_config reads back: one
    key a line in key order, an unset key as a comment line."""
    keys = sorted(k for k in cfg if k not in _NON_SEMANTIC)
    return "\n".join(f"# {k} unset" if cfg[k] is None else f"{k} = {_fmt_value(cfg[k])}"
                     for k in keys)


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
             if k not in ["family"] + reads and cfg[prefix + k] != SCHEMA[prefix + k][1]]
    if stray:
        raise ConfigError(f"{', '.join(stray)}: not read by family {fam!r} "
                          f"(it reads {', '.join(reads)})")
    return part


def build_spec(cfg):
    return CoefficientSpec(cfg["coeff.d"], cfg["coeff.n"], a=build_part(cfg, "a"),
                           b=build_part(cfg, "b"), alpha=cfg["coeff.alpha"],
                           beta=cfg["coeff.beta"])


def build_schedule(cfg, epsilon=None):
    eps = epsilon if epsilon is not None else cfg["schedule.epsilon"]
    if eps is None:
        raise ConfigError("schedule.epsilon is required")
    ratios = cfg["schedule.ratios"]
    if 1 + len(ratios) != cfg["coeff.n"]:
        raise ConfigError("schedule.ratios must provide one ratio per extra scale")
    return ScaleSchedule(eps, ratios)


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


def _field(cfg, key, registry):
    """The registry entry cfg[key], refused unless it has coeff.d components."""
    name, d = cfg[key], cfg["coeff.d"]
    if name not in registry:
        raise ConfigError(f"{key} = {name!r} is not in the builtin registry "
                          f"({', '.join(sorted(registry))})")
    fn = registry[name]
    # the components are counted at one point
    k = None if fn is None else np.shape(getattr(fn, "space_fn", fn)(np.full((1, d), 0.5)))[-1]
    if k not in (None, d):
        raise ConfigError(f"{key} = {name!r} has {k} components; coeff.d = {d} needs {d}")
    return fn


def _quad_rule(cfg, spec):
    """sim.quad, checked, or by default 3 when a part has a sine factor, else 2."""
    quad = cfg["sim.quad"]
    if quad is None:
        return 3 if spec.a.sine_factors() or spec.b.sine_factors() else 2
    if quad not in (1, 2, 3):
        raise ConfigError(f"sim.quad must be 1, 2 or 3, got {quad}")
    return quad


def build_wave_data(cfg, dt, t_final, store_every, probes=()):
    return wave.WaveData(
        T=t_final, dt=dt,
        g0=_field(cfg, "data.g0", FIELD_REGISTRY),
        g1=_field(cfg, "data.g1", FIELD_REGISTRY),
        f=_field(cfg, "data.f", FORCING_REGISTRY),
        store_every=store_every, probe_edges=probes, tol=cfg["tol"])


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
    n = spec.n_scales
    if slow_y is not None and (len(slow_y) != n - 1 or any(m < 1 for m in slow_y)):
        raise ConfigError(f"hom.slow_y needs {n - 1} entries (coeff.n - 1), each at least 1, "
                          f"got {','.join(map(str, slow_y)) or 'none'}")
    if slow_x is not None and (slow_x < 2 if spec.depends_on_x() else slow_x != 1):
        raise ConfigError(f"hom.slow_x must be at least 2 for an x-dependent spec and 1 for an "
                          f"x-independent one (b^0, a^0 do not depend on x), got {slow_x}")
    return homogenize(spec, cfg["hom.cell_n"], slow_x=slow_x, slow_y=slow_y, tol=cfg["tol"])


def _x_keys(spec):
    """The coeff.* keys that make spec depend on x, comma-separated."""
    return ", ".join(f"coeff.{w}." + ("code" if part.family == "expression" else "x_amplitude")
                     for w, part in (("a", spec.a), ("b", spec.b)) if part.depends_on_x())


def _check_x_samples(cfg, spec):
    """Refuse an x-dependent spec on a box other than the unit box of its x samples."""
    if spec.depends_on_x() and cfg["sim.extent"] != 1:
        raise ConfigError(f"sim.extent = {cfg['sim.extent']:g} with an x-dependent "
                          f"{_x_keys(spec)}: b^0, a^0 are sampled in x on the unit box, "
                          "so sim.extent must be 1")


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
    if cfg["sim.kind"] not in ("fine", "homogenized"):
        raise ConfigError(f"sim.kind must be fine or homogenized, got {cfg['sim.kind']!r}")
    if cfg["sim.n"] is None:
        raise ConfigError("sim.n is required in simulate mode")
    if cfg["sim.store_every"] < 1:
        raise ConfigError(f"sim.store_every must be at least 1, got {cfg['sim.store_every']}")
    mesh = DomainMesh(cfg["coeff.d"], cfg["sim.n"], cfg["sim.extent"])
    dt = cfg["sim.dt"] if cfg["sim.dt"] is not None else mesh.h / 2.0
    probes, n_int = cfg["sim.probes"], mesh.n_interior_edges
    if probes is None:
        probes = tuple(sorted({n_int // 7, n_int // 3, (5 * n_int) // 7})) if n_int else ()
    elif any(not 0 <= p < n_int for p in probes):
        raise ConfigError(f"sim.probes must lie in [0, {n_int}) (interior edges), "
                          f"got {','.join(map(str, probes))}")
    data = build_wave_data(cfg, dt, cfg["sim.t_final"], cfg["sim.store_every"], probes)
    quad = _quad_rule(cfg, spec)
    schedule = hom = None
    if cfg["sim.kind"] == "fine":
        schedule = build_schedule(cfg)
    else:
        _check_x_samples(cfg, spec)
        hom = _homogenize(cfg, spec)
    os.makedirs(outdir, exist_ok=True)
    if hom is not None:
        hom.export_text(os.path.join(outdir, "tensors.txt"))
    prob = wave.setup_problem(cfg["sim.kind"], mesh, data, spec=spec,
                              schedule=schedule, hom=hom, quad_rule=quad)
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
    if len(pairs) < 2:
        raise ConfigError("need at least two (eps, error) pairs for a slope")
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


def _sweep_leg(cfg, spec, eps):
    """(eps, schedule, fine mesh, wave data, quadrature rule) of the leg at eps, keys checked."""
    schedule = build_schedule(cfg, epsilon=eps)
    eps_n = schedule.epsilons[-1]
    Nf = int(round(cfg["sweep.fine_ratio"] / eps_n))
    mesh = DomainMesh(cfg["coeff.d"], Nf, cfg["sim.extent"])
    try:
        wave.check_fine_resolution(mesh, schedule)
    except wave.WaveSetupError as exc:
        raise ConfigError(f"sweep.fine_ratio {cfg['sweep.fine_ratio']} on sim.extent "
                          f"{cfg['sim.extent']:g} at eps {eps:g}: {exc}") from exc
    dt = eps_n / cfg["sweep.dt_ratio"]
    if cfg["sweep.t_final"] < dt:
        raise ConfigError(f"sweep.t_final {cfg['sweep.t_final']:g} is shorter than one step "
                          f"dt = {dt:g} at eps {eps:g}")
    steps = int(round(cfg["sweep.t_final"] / dt))
    store_every = max(1, steps // cfg["sweep.snapshots_per_run"])
    data = build_wave_data(cfg, dt, cfg["sweep.t_final"], store_every)
    if not cfg["sweep.multiscale"]:
        # the hypotheses of the pointwise corrector (reconstruct_corrector)
        if cfg["data.g0"] != "zero":
            raise ConfigError(f"data.g0 = {cfg['data.g0']}: the pointwise corrector of a "
                              "sweep needs data.g0 = zero")
        h0 = cfg["sim.extent"] / cfg["sweep.hom_n"]
        if h0 > eps + 1e-12:
            raise ConfigError(f"sweep.hom_n {cfg['sweep.hom_n']} gives a homogenized mesh "
                              f"h0={h0:g} coarser than eps={eps:g}")
    return eps, schedule, mesh, data, _quad_rule(cfg, spec)


def _sweep_one(cfg, spec, hom, leg):
    t0 = time.perf_counter()
    eps, schedule, mesh, data, quad = leg

    # no WaveProblem is kept: its matrices would stay alive through the corrector
    traj_f = wave.integrate(wave.setup_problem("fine", mesh, data, spec=spec,
                                               schedule=schedule, quad_rule=quad))
    hom_mesh = DomainMesh(cfg["coeff.d"], cfg["sweep.hom_n"], cfg["sim.extent"])
    traj_h = wave.integrate(wave.setup_problem("homogenized", hom_mesh, data, hom=hom,
                                               quad_rule=quad))

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
    if len(eps_list) < 3:
        raise ConfigError("sweep mode requires at least 3 epsilon values for a slope fit")
    for key in ("sweep.fine_ratio", "sweep.dt_ratio", "sweep.snapshots_per_run", "sweep.hom_n"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if all(cfg[key] == "zero" for key in ("data.g0", "data.g1", "data.f")):
        raise ConfigError("data.g0, data.g1 and data.f are all zero: the solution is "
                          "identically 0 and leaves no error to fit a slope to")
    if cfg["sweep.multiscale"]:
        # the hypotheses of the folded corrector (multiscale_corrector_error)
        if cfg["coeff.d"] != 2:
            raise ConfigError(f"sweep.multiscale: the folded corrector is 2D, got "
                              f"coeff.d = {cfg['coeff.d']}")
        # it averages over eps macro-cells, which must tile the box
        for e in eps_list:
            if lattice_cells(cfg["sim.extent"], e) is None:
                raise ConfigError(f"sweep.multiscale needs eps-lattices that tile the box: "
                                  f"sim.extent {cfg['sim.extent']:g} is not a multiple of "
                                  f"eps {e:g}")
    spec = build_spec(cfg)
    _check_x_samples(cfg, spec)
    if cfg["sweep.multiscale"] and spec.depends_on_x():
        raise ConfigError(f"sweep.multiscale: the folded corrector needs an x-independent "
                          f"coefficient, got an x-dependent {_x_keys(spec)}")
    # every leg's keys are checked before the cell solves
    legs = [_sweep_leg(cfg, spec, e) for e in eps_list]
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


def run(cfg, outdir=None):
    """Dispatch a parsed config; returns the mode's primary result object."""
    if not 0 < cfg["tol"] < 1:
        raise ConfigError(f"tol must lie in (0, 1), got {cfg['tol']:g}")
    outdir = outdir or cfg["out"]   # each mode makes it once its keys are checked
    mode = cfg["mode"]
    if mode == "homogenize":
        return run_homogenize(cfg, outdir)
    if mode == "simulate":
        return run_simulate(cfg, outdir)
    return run_sweep(cfg, outdir)


# ---------------------------------------------------------------------------
# CLI

def main(argv=None):
    parser = argparse.ArgumentParser(prog="maxhom",
                                     description="multiscale Maxwell homogenization runs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("homogenize", "simulate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["mode"] != args.command:
            raise ConfigError(
                f"config mode {cfg['mode']!r} does not match subcommand {args.command!r}")
        if args.tol is not None:
            cfg["tol"] = args.tol
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
