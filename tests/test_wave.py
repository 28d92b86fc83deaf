import ast
import os
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from maxhom import fem, wave
from maxhom.cells import HomogenizationError, homogenize
from maxhom.coeffs import CoefficientPart, CoefficientSpec, ScaleSchedule, fine_coefficients
from maxhom.mesh import DomainMesh

OMEGA11 = np.pi * np.sqrt(2.0)


def cavity11(x):
    return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                     np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)


def const_spec(value=1.0):
    return CoefficientSpec(2, 1, a=CoefficientPart("constant", {"value": value}),
                           b=CoefficientPart("constant", {"value": value}),
                           alpha=value / 2, beta=2 * value)


@pytest.fixture(scope="module")
def unit_hom():
    return homogenize(const_spec(), cell_N=4)


def rel_l2_error_at_T(traj, exact_fn, T):
    mesh = traj.mesh
    xq, wts = fem.quad_points(mesh, 2)
    flat = xq.reshape(-1, 2)
    wq = np.tile(wts, mesh.n_cells) * mesh.h ** 2
    uh = fem.eval_edge_field(mesh, fem.expand_interior(mesh, traj.U[-1]), flat)
    ue = exact_fn(flat)
    err = np.sqrt(np.sum(wq * np.sum((uh - ue) ** 2, axis=1)))
    ref = np.sqrt(np.sum(wq * np.sum(ue ** 2, axis=1)))
    return err / ref


# ---------------------------------------------------------------------------
# setup contracts

def test_setup_dimensions_match_interior_count(unit_hom):
    mesh = DomainMesh(2, 4)
    data = wave.WaveData(T=0.1, dt=0.05)
    prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
    assert prob.M.n == mesh.n_interior_edges
    assert prob.K.n == mesh.n_interior_edges


@pytest.mark.parametrize("d", [2, 3])
def test_step_matrix_is_data_arithmetic_on_the_shared_pattern(unit_hom, d):
    hom = unit_hom if d == 2 else homogenize(CoefficientSpec(
        3, 1, a=CoefficientPart("constant", {"value": 1.0}),
        b=CoefficientPart("constant", {"value": 2.0}), alpha=0.5, beta=2.5), cell_N=2)
    data = wave.WaveData(T=0.1, dt=0.05)
    prob = wave.setup_problem(DomainMesh(d, 4), data, hom.coefficients())
    K, M, L = prob.K.A, prob.M.A, prob.step_system.A
    for A in (K, L):
        assert np.shares_memory(A.indices, M.indices)
        assert np.shares_memory(A.indptr, M.indptr)
    assert np.array_equal(L.data, M.data + (data.dt ** 2 / 4.0) * K.data)
    assert (L - L.T).count_nonzero() == 0


def test_step_matrix_refuses_k_and_m_on_two_patterns(unit_hom):
    prob = wave.setup_problem(DomainMesh(2, 4), wave.WaveData(T=0.1, dt=0.05),
                              unit_hom.coefficients())
    diagonal = fem.SparseSymSystem(prob.M.n, sp.diags(prob.M.A.diagonal()).tocsr())
    with pytest.raises(wave.WaveSetupError, match="one pattern"):
        wave.WaveProblem(prob.mesh, diagonal, prob.K, prob.data)


def test_homogenized_x_dependent_coefficient_only_on_the_unit_box(unit_hom):
    # the x samples cover [0, 1]^d: an x-dependent b^0, a^0 refuses a box of
    # extent 2 (it was once rescaled to it), an x-independent one runs there
    par = {"factors": [{"offset": 2.0, "amplitude": 1.0, "axis": 1}], "x_amplitude": 0.5}
    spec = CoefficientSpec(2, 1, a=CoefficientPart("separable-product", dict(par)),
                           b=CoefficientPart("separable-product", dict(par)),
                           alpha=0.4, beta=4.6)
    xdep = homogenize(spec, cell_N=8, slow_x=3)
    data = wave.WaveData(T=0.1, dt=0.05)
    with pytest.raises(HomogenizationError, match="outside the unit box"):
        wave.setup_problem(DomainMesh(2, 8, 2.0), data, xdep.coefficients())
    prob = wave.setup_problem(DomainMesh(2, 8, 2.0), data, unit_hom.coefficients())
    assert np.all(np.isfinite(wave.integrate(prob).energies))
    wave.setup_problem(DomainMesh(2, 8), data, xdep.coefficients())


def test_wave_imports_only_fem_and_mesh():
    # the integrator takes its coefficient pair as callables: it knows no
    # coefficient spec, schedule or homogenization result
    tree = ast.parse(open(wave.__file__).read())
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.update([node.module] if node.module else [a.name for a in node.names])
    assert relative == {"fem", "mesh"}


def test_forcing_must_be_a_forcing():
    with pytest.raises(wave.WaveSetupError, match="Forcing"):
        wave.WaveData(T=0.1, dt=0.05, f=lambda t, x: np.zeros_like(x))


def test_fine_and_homogenized_agree_for_constants(unit_hom):
    mesh = DomainMesh(2, 16)
    data = wave.WaveData(T=0.1, dt=0.05)
    pf = wave.setup_problem(mesh, data, fine_coefficients(const_spec(), ScaleSchedule(0.25)))
    ph = wave.setup_problem(mesh, data, unit_hom.coefficients())
    assert abs(pf.M.A - ph.M.A).max() < 1e-14
    assert abs(pf.K.A - ph.K.A).max() < 1e-14


def test_nonzero_boundary_trace_rejected(unit_hom):
    mesh = DomainMesh(2, 8)
    data = wave.WaveData(T=0.1, dt=0.05, g0=lambda x: np.ones((len(x), 2)))
    prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
    with pytest.raises(wave.WaveSetupError, match="tangential trace"):
        wave.integrate(prob)


# ---------------------------------------------------------------------------
# integration

def test_zero_data_zero_trajectory(unit_hom):
    mesh = DomainMesh(2, 8)
    data = wave.WaveData(T=0.2, dt=0.05)
    traj = wave.integrate(wave.setup_problem(mesh, data, unit_hom.coefficients()))
    assert np.abs(traj.U).max() == 0.0
    assert np.abs(traj.energies).max() == 0.0


def test_cavity_mode_convergence(unit_hom):
    errs = []
    for N in (8, 16, 32):
        mesh = DomainMesh(2, N)
        data = wave.WaveData(T=0.5, dt=mesh.h / 2, g0=cavity11, store_every=10 ** 9)
        traj = wave.integrate(wave.setup_problem(mesh, data, unit_hom.coefficients()))
        errs.append(rel_l2_error_at_T(traj, lambda x: np.cos(OMEGA11 * 0.5) * cavity11(x), 0.5))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.9


def test_forced_long_time_average_matches_static_solve(unit_hom):
    # f = K z for a curl-compatible z: the trajectory oscillates about z
    mesh = DomainMesh(2, 8)
    data0 = wave.WaveData(T=0.1, dt=0.05)
    prob = wave.setup_problem(mesh, data0, unit_hom.coefficients())
    rng = np.random.default_rng(6)
    z = rng.standard_normal(prob.K.n)
    # project z onto the curl-compatible part (range of K) via a solve
    rhs = prob.K.A @ z
    z_comp = fem.solve_spd(fem.SparseSymSystem(prob.K.n, prob.K.A + 1e-8 * prob.M.A),
                           rhs, 1e-12)
    load = prob.K.A @ z_comp

    data = wave.WaveData(T=40.0, dt=0.05, store_every=1, tol=1e-11)
    prob2 = wave.setup_problem(mesh, data, unit_hom.coefficients())
    prob2.f_load = load
    prob2.data.f = wave.Forcing(None, lambda t: 1.0)
    traj = wave.integrate(prob2)
    mean_u = traj.U.mean(axis=0)
    scale = np.linalg.norm(z_comp)
    assert np.linalg.norm(mean_u - z_comp) < 0.05 * scale


# ---------------------------------------------------------------------------
# energy

def test_energy_zero_state(unit_hom):
    mesh = DomainMesh(2, 6)
    prob = wave.setup_problem(mesh, wave.WaveData(T=0.1, dt=0.05), unit_hom.coefficients())
    n = prob.M.n
    assert wave.energy(prob, np.zeros(n), np.zeros(n)) == 0.0


def test_energy_velocity_only_state(unit_hom):
    mesh = DomainMesh(2, 6)
    prob = wave.setup_problem(mesh, wave.WaveData(T=0.1, dt=0.05), unit_hom.coefficients())
    g1 = fem.edge_interpolate(mesh, cavity11)[mesh.interior_edges]
    e = wave.energy(prob, np.zeros(prob.M.n), g1)
    assert e == pytest.approx(0.5 * g1 @ (prob.M.A @ g1))
    assert e > 0


def test_energy_conservation_1000_steps(unit_hom):
    mesh = DomainMesh(2, 16)
    data = wave.WaveData(T=1000 / 64.0, dt=1 / 64.0, g0=cavity11,
                         store_every=10 ** 9, tol=1e-12)
    traj = wave.integrate(wave.setup_problem(mesh, data, unit_hom.coefficients()))
    drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
    assert drift <= 1e-8
    ratios = traj.energies / traj.energies[0]
    assert ratios.max() <= 1 + 1e-8 and ratios.min() >= 1 - 1e-8


def test_time_reversal(unit_hom):
    mesh = DomainMesh(2, 12)
    data = wave.WaveData(T=0.5, dt=1 / 48.0, g0=cavity11, store_every=10 ** 9, tol=1e-12)
    prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
    fwd = wave.integrate(prob)
    back = wave.integrate(prob, u0=fwd.U[-1], v0=-fwd.V[-1])
    u0 = prob.interpolate_initial(cavity11, "g0")
    scale = np.linalg.norm(u0)
    assert np.linalg.norm(back.U[-1] - u0) <= 1e-6 * scale
    assert np.linalg.norm(back.V[-1]) <= 1e-6 * scale * OMEGA11


@st.composite
def free_wave_cases(draw):
    """A fine problem with f = 0 over a random constant or layered spec, random
    interior initial state, N <= 8 and at most 20 steps (eps = 1/2 and
    h = extent/N <= eps/4)."""
    N = draw(st.integers(4, 8))
    extent = draw(st.floats(0.25, N / 8))
    parts, lo, hi = [], [], []
    for _ in range(2):
        if draw(st.booleans()):
            value = draw(st.floats(0.5, 4.0))
            parts.append(CoefficientPart("constant", {"value": value}))
            lo.append(value)
            hi.append(value)
        else:
            offset = draw(st.floats(1.0, 3.0))
            amp = draw(st.floats(0.0, 0.9)) * offset
            parts.append(CoefficientPart("layered", {
                "scale": 1, "axis": draw(st.integers(0, 1)), "offset": offset,
                "amplitude": amp, "phase": draw(st.floats(0.0, 1.0))}))
            lo.append(offset - amp)
            hi.append(offset + amp)
    spec = CoefficientSpec(2, 1, a=parts[0], b=parts[1], alpha=min(lo), beta=max(hi))
    steps = draw(st.integers(1, 20))
    dt = draw(st.floats(0.01, 0.2))
    data = wave.WaveData(T=steps * dt, dt=dt, store_every=steps, tol=1e-12)
    prob = wave.setup_problem(DomainMesh(2, N, extent), data,
                              fine_coefficients(spec, ScaleSchedule(0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return prob, rng.standard_normal(prob.M.n), rng.standard_normal(prob.M.n)


@settings(max_examples=40, deadline=None)
@given(free_wave_cases())
def test_energy_conserved_for_random_specs(case):
    prob, u0, v0 = case
    traj = wave.integrate(prob, u0=u0, v0=v0)
    assert np.abs(traj.energies - traj.energies[0]).max() <= 1e-9 * traj.energies[0]


@settings(max_examples=40, deadline=None)
@given(free_wave_cases())
def test_time_reversal_for_random_specs(case):
    # the CG contract bounds each step's residual at 1e-12; the state error of
    # up to 40 solves with step matrices of condition number up to ~500 stays
    # below 4e-9 of the state (300 examples), a broken reversal is O(dt^2)
    prob, u0, v0 = case
    fwd = wave.integrate(prob, u0=u0, v0=v0)
    back = wave.integrate(prob, u0=fwd.U[-1], v0=-fwd.V[-1])
    assert np.abs(back.U[-1] - u0).max() <= 1e-7 * np.abs(u0).max()
    assert np.abs(back.V[-1] + v0).max() <= 1e-7 * np.abs(v0).max()


def test_apriori_bound_uniform_in_eps():
    # the stability constant of fine runs must not blow up along the eps sweep
    lay = {"scale": 1, "axis": 0, "offset": 2.0, "amplitude": 1.0}
    spec = CoefficientSpec(2, 1, a=CoefficientPart("layered", dict(lay)),
                           b=CoefficientPart("layered", dict(lay)), alpha=1.0, beta=3.0)
    fsp = wave.Forcing(lambda p: np.stack([np.sin(np.pi * p[:, 0])] * 2, axis=1),
                       lambda t: 1.0)
    ratios = []
    for eps, N in ((0.25, 16), (0.125, 32)):
        mesh = DomainMesh(2, N)
        data = wave.WaveData(T=0.5, dt=mesh.h, g1=cavity11, f=fsp, store_every=4)
        prob = wave.setup_problem(mesh, data, fine_coefficients(spec, ScaleSchedule(eps)))
        traj = wave.integrate(prob)
        state = max(np.sqrt(2 * e) for e in traj.energies)
        g1n = np.sqrt(prob.interpolate_initial(cavity11, "g1") @ (
            prob.M.A @ prob.interpolate_initial(cavity11, "g1")))
        ratios.append(state / g1n)
    assert max(ratios) / min(ratios) < 1.5
    assert all(np.isfinite(r) for r in ratios)


# ---------------------------------------------------------------------------
# exports

def stream(prob, path):
    """integrate(prob) with its snapshots written to path as the loop stores them."""
    with wave.export_snapshots(prob, path) as sink:
        return wave.integrate(prob, sink=sink)


def test_trajectory_csv_and_snapshot_roundtrip(tmp_path, unit_hom):
    mesh = DomainMesh(2, 6)
    data = wave.WaveData(T=0.2, dt=0.05, g0=cavity11, store_every=2,
                         probe_edges=(0, 5))
    traj = wave.integrate(wave.setup_problem(mesh, data, unit_hom.coefficients()))
    csv_path = os.path.join(tmp_path, "trajectory.csv")
    wave.export_trajectory_csv(traj, csv_path)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "t,energy,probe0,probe1"
    assert len(lines) == 1 + len(traj.step_times)
    assert float(lines[1].split(",")[1]) == traj.energies[0]

    bin_path = os.path.join(tmp_path, "snapshots.bin")
    stream(wave.setup_problem(mesh, data, unit_hom.coefficients()), bin_path)
    back = wave.read_snapshots(bin_path)
    assert back["N"] == 6 and back["d"] == 2
    assert np.array_equal(back["U"], traj.U)
    assert np.array_equal(back["V"], traj.V)
    assert np.array_equal(back["times"], traj.snap_times)


def test_thinned_snapshots_are_rows_of_every_step(unit_hom):
    # 7 steps kept every 3rd step: rows 0, 3, 6 and the final step 7
    mesh = DomainMesh(2, 6)
    data = dict(T=0.35, dt=0.05, g0=cavity11, f=wave.Forcing(cavity11, np.cos), tol=1e-11)
    every = wave.integrate(wave.setup_problem(mesh, wave.WaveData(store_every=1, **data),
                                              unit_hom.coefficients()))
    thin = wave.integrate(wave.setup_problem(mesh, wave.WaveData(store_every=3, **data),
                                             unit_hom.coefficients()))
    assert thin.snap_steps.tolist() == [0, 3, 6, 7]
    assert np.array_equal(thin.U, every.U[thin.snap_steps])
    assert np.array_equal(thin.V, every.V[thin.snap_steps])
    assert np.array_equal(thin.snap_times, every.snap_times[thin.snap_steps])


def test_snapshot_bytes_match_struct_layout(tmp_path, unit_hom):
    mesh = DomainMesh(2, 5, 1.25)
    data = wave.WaveData(T=0.15, dt=0.05, g0=lambda x: cavity11(x / 1.25), store_every=2)
    prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
    traj = wave.integrate(prob)
    path = os.path.join(tmp_path, "snapshots.bin")
    stream(prob, path)
    n_snaps, n = traj.U.shape
    ref = b"MXHMSNP1" + struct.pack("<4q", 2, 5, n, n_snaps) + struct.pack("<2d", 1.25, 0.05)
    for a in (traj.snap_times, traj.U.ravel(), traj.V.ravel()):
        ref += struct.pack(f"<{len(a)}d", *a)
    assert open(path, "rb").read() == ref


@pytest.mark.parametrize("store_every", [2, 3], ids=["divides", "extra-last"])
def test_streamed_snapshots_equal_kept_ones(tmp_path, unit_hom, store_every):
    # 8 steps: every 2nd gives rows 0..8, every 3rd rows 0, 3, 6 and the final 8
    mesh = DomainMesh(2, 6)
    data = wave.WaveData(T=0.4, dt=0.05, g0=cavity11, f=wave.Forcing(cavity11, np.cos),
                         store_every=store_every, tol=1e-11)
    prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
    kept = wave.integrate(prob)
    path = os.path.join(tmp_path, "snapshots.bin")
    streamed = stream(prob, path)
    assert streamed.U is None and streamed.V is None
    assert np.array_equal(streamed.snap_steps, kept.snap_steps)
    assert kept.snap_steps[-1] == 8 and (store_every == 2) == (len(kept.snap_steps) == 5)
    back = wave.read_snapshots(path)
    assert np.array_equal(back["times"], kept.snap_times)
    assert np.array_equal(back["U"], kept.U)
    assert np.array_equal(back["V"], kept.V)
    assert np.array_equal(streamed.energies, kept.energies)
    assert os.listdir(tmp_path) == ["snapshots.bin"]


def test_snapshot_file_removed_unless_complete(tmp_path, unit_hom):
    mesh = DomainMesh(2, 4)
    data = wave.WaveData(T=0.2, dt=0.05, g0=cavity11, store_every=1)
    prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
    path = os.path.join(tmp_path, "snapshots.bin")
    with pytest.raises(RuntimeError, match="stop"):
        with wave.export_snapshots(prob, path) as sink:
            sink(0, np.zeros(mesh.n_interior_edges), np.zeros(mesh.n_interior_edges))
            raise RuntimeError("stop")
    assert os.listdir(tmp_path) == []
    with pytest.raises(wave.WaveSetupError, match="1 of 5 snapshots"):
        with wave.export_snapshots(prob, path) as sink:
            sink(0, np.zeros(mesh.n_interior_edges), np.zeros(mesh.n_interior_edges))
    assert os.listdir(tmp_path) == []


def test_streamed_integrate_memory_does_not_grow_with_snapshots(tmp_path, unit_hom, peak_bytes):
    # 32^2, 256 steps: kept in memory, 257 snapshots take 2 * 257 rows
    mesh = DomainMesh(2, 32)
    row = 8 * mesh.n_interior_edges

    def peak(store_every, streamed=True):
        data = wave.WaveData(T=4.0, dt=1 / 64, g0=cavity11, store_every=store_every)
        prob = wave.setup_problem(mesh, data, unit_hom.coefficients())
        if streamed:
            return peak_bytes(lambda: stream(prob, os.path.join(tmp_path, "snapshots.bin")))
        return peak_bytes(lambda: wave.integrate(prob))

    peak(256)  # fills the mesh's cached maps, which the runs below reuse
    _, two = peak(256)
    traj, every = peak(1)
    assert traj.U is None and len(traj.snap_steps) == 257
    assert abs(every - two) <= 2 * row, (every - two) / row
    _, kept = peak(1, streamed=False)
    assert kept >= every + 2 * 256 * row


def test_3d_wave_smoke():
    spec3 = CoefficientSpec(3, 1, a=CoefficientPart("constant", {"value": 1.0}),
                            b=CoefficientPart("constant", {"value": 1.0}),
                            alpha=0.5, beta=2.0)
    hom3 = homogenize(spec3, cell_N=2)
    mesh = DomainMesh(3, 4)

    def g0(x):  # tangential trace vanishes on all faces of the unit cube
        s = np.sin(np.pi * x)
        out = np.empty_like(x)
        out[:, 0] = s[:, 1] * s[:, 2]
        out[:, 1] = s[:, 0] * s[:, 2]
        out[:, 2] = s[:, 0] * s[:, 1]
        return out

    data = wave.WaveData(T=0.2, dt=0.05, g0=g0, store_every=2, tol=1e-11)
    traj = wave.integrate(wave.setup_problem(mesh, data, hom3.coefficients()))
    assert traj.U.shape[1] == mesh.n_interior_edges
    drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
    assert drift < 1e-9
