"""The three benchmark workloads: configs drawn from a seed, operation counts
and output checks.

A seed only draws the phases of the layered and separable factors, one per
scale, shared by `a` and `b`.  Phase shifts leave every closed form below
(harmonic and arithmetic means, Voigt-Reuss bounds) and the operation counts
(cell solves, CG solves, time steps, stamps) unchanged.  Sharing the phase
keeps a/b = 1, as in the acceptance configs: with independent phases the
local wave speed varies across the layers and the CG iteration count per
solve moved by up to a third between seeds.

Every check reads the files the run wrote and compares them with values
worked out here, or with properties the method must have; none compares
against a stored copy of an earlier output.
"""

import math
import random
import struct
from dataclasses import dataclass

SQRT3 = math.sqrt(3.0)


def _phase(rng):
    return repr(rng.uniform(0.0, 2.0 * math.pi))


def read_tensors(path):
    """Level-0 tensors from tensors.txt: {("a"|"b", sample): [entries]}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            which, level, sample, *vals = line.split()
            if level == "level=0":
                out[(which, int(sample.split("=")[1]))] = [float(v) for v in vals]
    return out


def read_report(path):
    """report.csv as (rows [(eps, E_total, E_ms)], slope, partial row or None)."""
    rows, slope, partial = [], None, None
    with open(path) as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if cells[0] == "slope":
                slope = float(cells[1])
            elif cells[0] == "partial":
                partial = cells[1]
            elif cells[0] != "fingerprint":
                e_ms = float(cells[4]) if cells[4] else None
                rows.append((float(cells[0]), float(cells[3]), e_ms))
    return rows, slope, partial


def lsq_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def sym2_eigs(b):
    """Eigenvalues of the symmetric 2x2 matrix [b00, b01, b10, b11]."""
    m, det = 0.5 * (b[0] + b[3]), b[0] * b[3] - b[1] * b[2]
    r = math.sqrt(max(m * m - det, 0.0))
    return m - r, m + r


@dataclass
class Sweep:
    """A convergence sweep: fine and homogenized runs per eps, then a corrector.

    The fields repeat the config values that the operation counts depend on.
    """

    template: str
    spans: set           # spans a traced round must record
    epsilons: tuple
    ratio: int           # eps_n = eps / ratio
    dt_ratio: int
    t_final: float
    snaps: int           # sweep.snapshots_per_run
    cell_solves: int
    cell_cg: int         # CG solves inside the cell solves

    csvs = ("report.csv", "errors.csv")

    def config(self, seed):
        rng = random.Random(seed)
        return self.template.format(p1=_phase(rng), p2=_phase(rng))

    def leg_ops(self, eps):
        """(CG solves, corrector stamps) of the sweep leg at eps."""
        steps = round(self.t_final / (eps / self.ratio / self.dt_ratio))
        every = max(1, steps // self.snaps)
        stamps = len(set(range(0, steps + 1, every)) | {steps})
        return 2 * steps, stamps

    def operations(self):
        """Operations one run attempts: sweep legs, cell solves, CG solves, stamps."""
        cg = self.cell_cg + sum(self.leg_ops(e)[0] for e in self.epsilons)
        stamps = sum(self.leg_ops(e)[1] for e in self.epsilons)
        return {"legs": len(self.epsilons), "cell_solves": self.cell_solves,
                "cg_solves": cg, "stamps": stamps}

    def failed_operations(self, outdir):
        """Operations lost to legs that report.csv marks as failed."""
        rows, _, _ = read_report(f"{outdir}/report.csv")
        done = {r[0] for r in rows}
        return sum(1 + sum(self.leg_ops(e)) for e in self.epsilons if e not in done)

    def _sweep_checks(self, outdir, column):
        rows, slope, partial = read_report(f"{outdir}/report.csv")
        errs = []
        if partial is not None:
            errs.append(f"partial row: {partial}")
        if [r[0] for r in rows] != list(self.epsilons):
            errs.append(f"reported eps {[r[0] for r in rows]} != {list(self.epsilons)}")
        vals = [r[column] for r in rows]
        if not all(a > b for a, b in zip(vals, vals[1:])):
            errs.append(f"errors {vals} not strictly decreasing in eps")
        return errs, rows, slope


class RateSweep(Sweep):
    def check(self, outdir):
        errs, rows, slope = self._sweep_checks(outdir, 1)
        t = read_tensors(f"{outdir}/tensors.txt")
        # layered along axis 0: harmonic mean sqrt(2^2 - 1) across, arithmetic 2 along
        if abs(t[("a", 0)][0] - SQRT3) > 1e-9:
            errs.append(f"a0 = {t[('a', 0)][0]!r} != sqrt(3)")
        for got, want in zip(t[("b", 0)], (SQRT3, 0.0, 0.0, 2.0)):
            if abs(got - want) > 1e-9:
                errs.append(f"b0 = {t[('b', 0)]} != diag(sqrt(3), 2)")
                break
        if len(rows) == len(self.epsilons):
            own = lsq_slope([r[0] for r in rows], [r[1] for r in rows])
            if abs(own - slope) > 1e-9:
                errs.append(f"reported slope {slope!r} != refit {own!r}")
            if not 0.35 <= own <= 1.1:
                errs.append(f"slope {own:.4f} outside [0.35, 1.1]")
        return errs


class FoldedSweep(Sweep):
    def check(self, outdir):
        errs, _, _ = self._sweep_checks(outdir, 2)
        t = read_tensors(f"{outdir}/tensors.txt")
        # product of two independent 2 + sin factors: harmonic mean 3, mean 4
        a0, b0 = t[("a", 0)][0], t[("b", 0)]
        for lam in (a0,) + sym2_eigs(b0):
            if not 3.0 - 1e-12 <= lam <= 4.0 + 1e-12:
                errs.append(f"eigenvalue {lam!r} outside the Voigt-Reuss bounds [3, 4]")
        if abs(b0[3] - 4.0) > 1e-9:
            errs.append(f"b0[1,1] = {b0[3]!r} != 4")
        return errs


@dataclass
class Cavity:
    """x-dependent homogenization, then a long homogenized cavity run with f = 0."""

    template: str
    spans: set
    slow_x: int
    n: int               # sim.n
    steps: int
    store_every: int
    x_amplitude: float

    csvs = ("trajectory.csv",)

    def config(self, seed):
        rng = random.Random(seed)
        return self.template.format(p1=_phase(rng))

    def operations(self):
        samples = self.slow_x ** 2
        # per x sample: one scalar cell solve (2 CG solves) and one curl (1)
        return {"legs": 0, "cell_solves": 2 * samples, "cg_solves": 3 * samples + self.steps,
                "stamps": 0}

    def failed_operations(self, outdir):
        return 0

    def check(self, outdir):
        errs = []
        t = read_tensors(f"{outdir}/tensors.txt")
        ax = [i / (self.slow_x - 1) for i in range(self.slow_x)]
        for si in range(self.slow_x ** 2):
            x1, x2 = ax[si // self.slow_x], ax[si % self.slow_x]
            s = 1.0 + self.x_amplitude * math.sin(math.pi * x1) * math.sin(math.pi * x2)
            want_b = (2.0 * s, 0.0, 0.0, SQRT3 * s)  # layered along axis 1
            if abs(t[("a", si)][0] - SQRT3 * s) > 1e-9 * s or any(
                    abs(g - w) > 1e-9 * s for g, w in zip(t[("b", si)], want_b)):
                errs.append(f"sample {si}: a0, b0 = {t[('a', si)]}, {t[('b', si)]} "
                            f"!= s(x) (sqrt3, diag(2, sqrt3)) with s = {s!r}")
        with open(f"{outdir}/trajectory.csv") as fh:
            next(fh)
            energy = [float(line.split(",")[1]) for line in fh]
        if len(energy) != self.steps + 1:
            errs.append(f"trajectory has {len(energy)} rows, expected {self.steps + 1}")
        drift = max(abs(e - energy[0]) for e in energy) / energy[0]
        if drift > 1e-8:
            errs.append(f"energy drift {drift:.3e} > 1e-8")
        errs += self._check_snapshots(f"{outdir}/snapshots.bin")
        return errs

    def _check_snapshots(self, path):
        n_int = 2 * self.n * (self.n - 1)
        n_snaps = self.steps // self.store_every + 1
        with open(path, "rb") as fh:
            head = fh.read(56)
            fh.seek(0, 2)
            size = fh.tell()
        want_size = 56 + 8 * n_snaps * (1 + 2 * n_int)
        if head[:8] != b"MXHMSNP1":
            return [f"snapshots.bin magic {head[:8]!r}"]
        d, N, nint, nsnap = struct.unpack("<4q", head[8:40])
        extent, dt = struct.unpack("<2d", head[40:56])
        if (d, N, nint, nsnap, extent, dt) != (2, self.n, n_int, n_snaps, 1.0, 0.5 / self.n):
            return [f"snapshots.bin header {(d, N, nint, nsnap, extent, dt)}"]
        if size != want_size:
            return [f"snapshots.bin has {size} bytes, expected {want_size}"]
        return []


RATE_SWEEP = """\
mode = sweep
tol = 1e-11
coeff.d = 2
coeff.n = 1
coeff.alpha = 1.0
coeff.beta = 3.0
coeff.a.family = layered
coeff.a.offset = 2.0
coeff.a.amplitude = 1.0
coeff.a.phase = {p1}
coeff.b.family = layered
coeff.b.offset = 2.0
coeff.b.amplitude = 1.0
coeff.b.phase = {p1}
hom.cell_n = 128
sweep.epsilons = 0.25,0.125,0.0625
sweep.fine_ratio = 16
sweep.dt_ratio = 16
sweep.t_final = 0.25
sweep.hom_n = 64
sweep.snapshots_per_run = 8
data.g1 = cavity11
data.f = bubble_cos2t
"""

FOLDED_SWEEP = """\
mode = sweep
tol = 1e-10
coeff.d = 2
coeff.n = 2
coeff.alpha = 1.0
coeff.beta = 9.0
coeff.a.family = separable-product
coeff.a.factors = 2:1:0:1:{p1};2:1:0:1:{p2}
coeff.b.family = separable-product
coeff.b.factors = 2:1:0:1:{p1};2:1:0:1:{p2}
schedule.ratios = 4
hom.cell_n = 32
hom.slow_y = 8
sweep.epsilons = 0.5,0.25,0.125
sweep.fine_ratio = 4
sweep.dt_ratio = 4
sweep.t_final = 0.125
sweep.hom_n = 64
sweep.snapshots_per_run = 2
sweep.multiscale = true
data.g1 = cavity11
data.f = bubble_cos2t
"""

XDEP_CAVITY = """\
mode = simulate
tol = 1e-12
coeff.d = 2
coeff.n = 1
coeff.alpha = 1.0
coeff.beta = 4.5
coeff.a.family = separable-product
coeff.a.factors = 2:1:1:1:{p1}
coeff.a.x_amplitude = 0.5
coeff.b.family = separable-product
coeff.b.factors = 2:1:1:1:{p1}
coeff.b.x_amplitude = 0.5
hom.cell_n = 64
hom.slow_x = 5
sim.kind = homogenized
sim.n = 64
sim.t_final = 8.0
sim.store_every = 4
sim.snapshots = true
data.g0 = cavity11
"""

# Spans each workload must record at least once; a missing one means a
# wrapper sits at a name the program does not look up.
_CORE = {"cells.homogenize", "cells.solve_scalar_cell", "cells.solve_curl_cell",
         "cells.scalar_level_tensor", "cells.curl_level_tensor", "fem.solve_spd",
         "fem.assemble_scalar_stiffness", "fem.assemble_curl_stiffness",
         "fem.assemble_vector_mass", "wave.setup_problem", "wave.integrate",
         "coeffs.eval_a", "coeffs.eval_b", "harness.export_text"}
_SWEEP = _CORE | {"fem.assemble_load", "fem.eval_edge_field", "fem.eval_edge_curl",
                  "fem.eval_nodal_gradient", "mesh.locate", "harness.write_csv",
                  "harness.write_summary_json"}

WORKLOADS = {
    "rate-sweep": RateSweep(
        RATE_SWEEP,
        _SWEEP | {"corrector.reconstruct_corrector", "corrector.corrector_error"},
        (0.25, 0.125, 0.0625), ratio=1, dt_ratio=16, t_final=0.25, snaps=8,
        cell_solves=2, cell_cg=3),
    "folded-sweep": FoldedSweep(
        FOLDED_SWEEP, _SWEEP | {"corrector.multiscale_corrector_error"},
        (0.5, 0.25, 0.125), ratio=4, dt_ratio=4, t_final=0.125, snaps=2,
        cell_solves=130, cell_cg=195),
    "xdep-cavity": Cavity(
        XDEP_CAVITY,
        _CORE | {"harness.export_trajectory_csv", "harness.export_snapshots"},
        slow_x=5, n=64, steps=1024, store_every=4, x_amplitude=0.5),
}
