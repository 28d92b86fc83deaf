"""Time-domain solver for b u_tt + curl(a curl u) = f with u x nu = 0.

Newmark average acceleration (beta=1/4, gamma=1/2), implemented in the
algebraically identical one-solve trapezoidal velocity form

    (M + dt^2/4 K) v_{n+1} = (M - dt^2/4 K) v_n + dt (F_{n+1/2} - K u_n)
    u_{n+1} = u_n + dt/2 (v_n + v_{n+1})

which conserves the discrete energy E = 1/2 (v'Mv + u'Ku) exactly for f = 0.
All systems live on interior edge DOFs (boundary circulations eliminated).
"""

from dataclasses import dataclass, field
import os
import struct

import numpy as np

from . import fem
from .coeffs import fine_callable
from .mesh import DomainMesh


class WaveSetupError(ValueError):
    pass


class Forcing:
    """Separable forcing theta(t) * F0(x); cheap because the load assembles once."""

    def __init__(self, space_fn, time_fn=None):
        self.space_fn = space_fn
        self.time_fn = time_fn or (lambda t: 1.0)


@dataclass
class WaveData:
    """Closed-form data and time parameters of one run.

    g0/g1: vectorized x -> (npts, d) (None means zero).  f: a Forcing or None.
    store_every thins the DOF snapshots (`snap_steps`); energies and probes
    are kept per step.
    """

    T: float
    dt: float
    g0: object = None
    g1: object = None
    f: object = None
    store_every: int = 1
    probe_edges: tuple = ()
    tol: float = 1e-12

    def __post_init__(self):
        if self.dt <= 0 or self.T < self.dt:
            raise WaveSetupError("need dt > 0 and T >= dt")
        if self.store_every < 1:
            raise WaveSetupError("store_every must be >= 1")
        if self.f is not None and not isinstance(self.f, Forcing):
            raise WaveSetupError(f"f must be a Forcing or None, got {type(self.f).__name__}")

    @property
    def n_steps(self):
        return int(round(self.T / self.dt))

    @property
    def snap_steps(self):
        """Steps whose (u, v) are stored: every store_every-th one and the last."""
        n = self.n_steps
        steps = np.arange(0, n + 1, self.store_every, dtype=np.int64)
        return steps if steps[-1] == n else np.append(steps, n)

    @property
    def snap_times(self):
        return self.snap_steps.astype(float) * self.dt


@dataclass
class WaveProblem:
    mesh: DomainMesh
    M: fem.SparseSymSystem
    K: fem.SparseSymSystem
    data: WaveData
    quad_rule: int = 2
    step_system: fem.SparseSymSystem = None
    f_load: np.ndarray = None   # static part of a separable forcing

    def __post_init__(self):
        dt = self.data.dt
        L = (self.M.A + (dt * dt / 4.0) * self.K.A).tocsr()
        self.step_system = fem.SparseSymSystem(self.M.n, L, nullspace="none")
        if self.data.f is not None:
            self.f_load = fem.assemble_load(self.mesh, self.data.f.space_fn,
                                            rule=self.quad_rule)

    def load_at(self, t):
        if self.data.f is None:
            return None
        return self.data.f.time_fn(t) * self.f_load

    def interpolate_initial(self, fn, name):
        """Edge-interpolate closed-form data; enforce the zero tangential trace."""
        if fn is None:
            return np.zeros(self.mesh.n_interior_edges)
        full = fem.edge_interpolate(self.mesh, fn)
        bmask = self.mesh.boundary_edge_mask
        scale = np.abs(full).max() + 1e-300
        if np.abs(full[bmask]).max() > 1e-8 * scale:
            raise WaveSetupError(
                f"{name} has a nonzero tangential trace on the boundary "
                f"(max {np.abs(full[bmask]).max():.3e} vs field scale {scale:.3e})")
        return full[self.mesh.interior_edges]


@dataclass
class WaveTrajectory:
    """Per-step energies/probes plus thinned DOF snapshots of (u, du/dt)."""

    mesh: DomainMesh
    dt: float
    step_times: np.ndarray
    energies: np.ndarray
    probe_values: np.ndarray
    snap_times: np.ndarray
    snap_steps: np.ndarray
    U: np.ndarray          # (n_snaps, n_interior), or None if a sink took them
    V: np.ndarray

    @property
    def n_snaps(self):
        return len(self.snap_times)


def check_fine_resolution(mesh, schedule):
    """Refuse a fine mesh that under-resolves the finest scale: h > eps_n/4."""
    eps_n = schedule.epsilons[-1]
    if mesh.h > eps_n / 4 + 1e-12:
        needed = int(np.ceil(4 * mesh.extent / eps_n))
        raise WaveSetupError(
            f"fine mesh under-resolves eps_n={eps_n:g}: h={mesh.h:g} > eps_n/4; "
            f"need N >= {needed}")


def _coefficient_callables(kind, mesh, spec=None, schedule=None, hom=None):
    if kind == "fine":
        if spec is None or schedule is None:
            raise WaveSetupError("fine runs need a coefficient spec and a schedule")
        check_fine_resolution(mesh, schedule)
        return fine_callable(spec, schedule, "a"), fine_callable(spec, schedule, "b")
    if kind == "homogenized":
        if hom is None:
            raise WaveSetupError("homogenized runs need a HomogenizationResult")
        return hom.coefficient("a"), hom.coefficient("b")
    raise WaveSetupError(f"unknown problem kind {kind!r}")


def setup_problem(kind, mesh, data, spec=None, schedule=None, hom=None, quad_rule=2):
    """Assemble mass/stiffness for a fine or homogenized run.

    quad_rule is the per-axis Gauss order of the coefficient reduction on the
    domain mesh (2 by default; the harness passes 3 when a coefficient part has
    a sine factor: the layered and separable-product families).
    """
    a_fn, b_fn = _coefficient_callables(kind, mesh, spec, schedule, hom)
    K, _ = fem.assemble_curl_stiffness(mesh, a_fn, rule=quad_rule)
    M, _ = fem.assemble_vector_mass(mesh, b_fn, rule=quad_rule)
    return WaveProblem(mesh, M, K, data, quad_rule)


def energy(problem, u, v):
    """Discrete energy 1/2 (v'Mv + u'Ku) >= 0 of an interior-DOF state."""
    return 0.5 * (v @ (problem.M.A @ v) + u @ (problem.K.A @ u))


def integrate(problem, u0=None, v0=None, sink=None):
    """Run the time loop; u0/v0 override the interpolated initial data.

    The k-th stored step, data.snap_steps[k], goes to sink(k, u, v).  The
    default sink keeps them all in preallocated (n_snaps, n) arrays, the
    trajectory's U, V; with any other sink (a snapshot file, or one that drops
    them) U and V are None.
    """
    data = problem.data
    mesh = problem.mesh
    dt = data.dt
    nsteps = data.n_steps
    u = problem.interpolate_initial(data.g0, "g0") if u0 is None else np.asarray(u0, float).copy()
    v = problem.interpolate_initial(data.g1, "g1") if v0 is None else np.asarray(v0, float).copy()

    snap_steps = data.snap_steps
    U = V = None
    if sink is None:
        U = np.empty((len(snap_steps), len(u)))
        V = np.empty((len(snap_steps), len(v)))

        def sink(k, u, v):
            U[k], V[k] = u, v

    store = snap_steps.tolist()
    probes = np.asarray(data.probe_edges, dtype=np.int64)
    step_times = np.arange(nsteps + 1) * dt
    energies = np.empty(nsteps + 1)
    probe_values = np.empty((nsteps + 1, len(probes)))
    k = 0

    Fb = problem.load_at(0.0)
    for n in range(nsteps + 1):
        Ku = problem.K.A @ u
        Mv = problem.M.A @ v
        energies[n] = 0.5 * (v @ Mv + u @ Ku)
        probe_values[n] = u[probes] if len(probes) else ()
        if n == store[k]:  # the last step is always stored, so k stays in range
            sink(k, u, v)
            k += 1
        if n == nsteps:
            break
        t_next = (n + 1) * dt
        rhs = Mv - (dt * dt / 4.0) * (problem.K.A @ v) - dt * Ku
        if Fb is not None:
            Fnext = problem.load_at(t_next)
            rhs = rhs + (dt / 2.0) * (Fb + Fnext)
            Fb = Fnext
        v_new = fem.solve_spd(problem.step_system, rhs, rel_tol=data.tol, x0=v)
        u = u + (dt / 2.0) * (v + v_new)
        v = v_new

    return WaveTrajectory(
        mesh=mesh, dt=dt, step_times=step_times, energies=energies,
        probe_values=probe_values, snap_times=data.snap_times, snap_steps=snap_steps,
        U=U, V=V)


# ---------------------------------------------------------------------------
# exports

def export_trajectory_csv(traj, path):
    """Per-step CSV: t, energy, probe edge values (17 significant digits)."""
    ncols = traj.probe_values.shape[1]
    header = "t,energy" + "".join(f",probe{i}" for i in range(ncols))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, t in enumerate(traj.step_times):
            row = [f"{t:.17g}", f"{traj.energies[i]:.17g}"]
            row += [f"{v:.17g}" for v in traj.probe_values[i]]
            fh.write(",".join(row) + "\n")


_SNAP_MAGIC = b"MXHMSNP1"


class _SnapshotWriter:
    """Snapshot sink that writes each (u, v) into its rows of the file as it comes.

    The file is written under `path + ".part"`.  Leaving the with-block
    renames it to `path` once every snapshot is in; an exception, or a
    snapshot missing, removes it, so a failed run leaves no snapshot file.
    """

    def __init__(self, path, mesh, data):
        self.path, self.part = path, path + ".part"
        self.n = mesh.n_interior_edges
        times = data.snap_times
        self.n_snaps = len(times)
        self.written = 0
        self.fh = open(self.part, "wb")
        self.fh.write(_SNAP_MAGIC)
        self.fh.write(struct.pack("<4q", mesh.d, mesh.N, self.n, self.n_snaps))
        self.fh.write(struct.pack("<2d", mesh.extent, data.dt))
        self.fh.write(times.astype("<f8"))
        self.u_row0 = self.fh.tell()
        self.v_row0 = self.u_row0 + 8 * self.n * self.n_snaps

    def __call__(self, k, u, v):
        for row0, a in ((self.u_row0, u), (self.v_row0, v)):
            self.fh.seek(row0 + 8 * self.n * k)
            # already little-endian float64 and contiguous: written without a copy
            self.fh.write(np.ascontiguousarray(a, dtype="<f8"))
        self.written += 1

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.fh.close()
        if exc_type is None and self.written == self.n_snaps:
            os.replace(self.part, self.path)
            return
        os.remove(self.part)
        if exc_type is None:
            raise WaveSetupError(f"{self.path}: {self.written} of {self.n_snaps} "
                                 f"snapshots were written")


def export_snapshots(problem, path):
    """Open `path` as the snapshot sink of problem's time loop.

        with export_snapshots(problem, path) as sink:
            traj = integrate(problem, sink=sink)

    Flat little-endian layout: magic 'MXHMSNP1'; int64 d, N, n_interior,
    n_snaps; float64 extent, dt; then snap_times (n_snaps float64), U
    (n_snaps * n_interior float64, C order), V (same).  The header and
    snap_times are written here, each row of U and V when its step is stored.
    """
    return _SnapshotWriter(path, problem.mesh, problem.data)


def read_snapshots(path):
    """Inverse of export_snapshots: returns a dict of arrays and parameters."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _SNAP_MAGIC:
            raise WaveSetupError("not a maxhom snapshot file")
        d, N, nint, nsnap = struct.unpack("<4q", fh.read(32))
        extent, dt = struct.unpack("<2d", fh.read(16))
        times = np.frombuffer(fh.read(8 * nsnap), dtype="<f8")
        U = np.frombuffer(fh.read(8 * nsnap * nint), dtype="<f8").reshape(nsnap, nint)
        V = np.frombuffer(fh.read(8 * nsnap * nint), dtype="<f8").reshape(nsnap, nint)
    return {"d": d, "N": N, "extent": extent, "dt": dt,
            "times": times, "U": U, "V": V}
