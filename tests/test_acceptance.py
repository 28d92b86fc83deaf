"""Acceptance gates, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is self-contained and deterministic.  The rate sweep
(criterion 8) is the long pole at a few minutes of wall time.
"""

import dataclasses
import time

import numpy as np
import pytest

from maxhom import fem, harness, wave
from maxhom import corrector as corr
from maxhom import unfolding as uf
from maxhom.cells import (curl_level_tensor, homogenize, scalar_level_tensor,
                          solve_curl_cell, solve_scalar_cell)
from maxhom.coeffs import CoefficientPart, CoefficientSpec, ScaleSchedule
from maxhom.mesh import CellMesh, DomainMesh

SQRT3 = np.sqrt(3.0)
LAYERED = {"scale": 1, "axis": 0, "offset": 2.0, "amplitude": 1.0}


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def layered_scalar(y):
    return 2.0 + np.sin(2 * np.pi * y[:, 0])


def layered_matrix(y):
    return layered_scalar(y)[:, None, None] * np.eye(2)


RATE_SWEEP_CONFIG = """
# criterion 8: smooth two-scale benchmark, g0 = 0, smooth g1 and f
mode = sweep
tol = 1e-11
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
hom.cell_n = 128
sweep.epsilons = 0.125,0.0625,0.03125
sweep.fine_ratio = 32
sweep.dt_ratio = 16
sweep.t_final = 0.25
sweep.hom_n = 64
sweep.snapshots_per_run = 8
data.g1 = cavity11
data.f = bubble_cos2t
"""

MULTISCALE_SWEEP_CONFIG = """
# criterion 9: n = 2 separable benchmark with ratio r2 = 4
mode = sweep
tol = 1e-10
coeff.d = 2
coeff.n = 2
coeff.alpha = 1.0
coeff.beta = 9.0
coeff.a.family = separable-product
coeff.a.factors = 2:1:0;2:1:0
coeff.b.family = separable-product
coeff.b.factors = 2:1:0;2:1:0
schedule.ratios = 4
hom.cell_n = 32
hom.slow_y = 8
sweep.epsilons = 0.25,0.125,0.0625
sweep.fine_ratio = 8
sweep.dt_ratio = 4
sweep.t_final = 0.125
sweep.hom_n = 64
sweep.snapshots_per_run = 8
sweep.multiscale = true
data.g1 = cavity11
data.f = bubble_cos2t
"""


# criterion 11: the rate-sweep shape of the benchmark, layered a and b
ABLATION_SWEEP_CONFIG = RATE_SWEEP_CONFIG.replace(
    "sweep.epsilons = 0.125,0.0625,0.03125", "sweep.epsilons = 0.25,0.125,0.0625").replace(
    "sweep.fine_ratio = 32", "sweep.fine_ratio = 16")


@pytest.fixture(scope="module")
def multiscale_report(tmp_path_factory):
    cfg = harness.parse_config(MULTISCALE_SWEEP_CONFIG)
    out = tmp_path_factory.mktemp("crit9")
    rep = harness.run(cfg, outdir=str(out))
    return cfg, out, rep


def test_criterion_01_curl_homogenization_closed_form():
    errs = {}
    t0 = time.perf_counter()
    for N in (128, 256):
        mesh = CellMesh(2, N)
        Nc, abar = solve_curl_cell(lambda y: layered_scalar(y)[:, None, None], mesh, tol=1e-12)
        errs[N] = abs(curl_level_tensor(mesh, abar, Nc)[0, 0] - SQRT3)
    elapsed = time.perf_counter() - t0
    ok = errs[128] <= 1e-4 and errs[256] <= 1e-5 and elapsed < 10.0
    report(1, ok, f"|a0-sqrt3| = {errs[128]:.2e} @128, {errs[256]:.2e} @256 "
                  f"(gates 1e-4/1e-5), runtime {elapsed:.1f}s < 10s")


def test_criterion_02_layered_b0_closed_form():
    mesh = CellMesh(2, 128)
    W, cbar = solve_scalar_cell(layered_matrix, mesh, tol=1e-12)
    b0 = scalar_level_tensor(mesh, cbar, W)
    err = np.abs(b0 - np.diag([SQRT3, 2.0])).max()
    report(2, err <= 1e-4, f"||b0 - diag(sqrt3, 2)||_max = {err:.2e} @128 (gate 1e-4)")


def test_criterion_03_trivial_collapse():
    a_val, b_val = 1.5, np.array([[2.0, 0.3], [0.3, 1.0]])
    spec = CoefficientSpec(2, 1, a=CoefficientPart("constant", {"value": a_val}),
                           b=CoefficientPart("constant", {"value": b_val}),
                           alpha=0.5, beta=3.0)
    res = homogenize(spec, cell_N=16)
    w_max = max(np.abs(W).max() for k, W in res.cells.items() if k[0] == "b")
    mesh = res.mesh
    s = fem.edge_ref(2)["CVEC"][0]
    q_max = max(np.abs((Nc[0][mesh.cell_edges] @ s) / mesh.h ** 2).max()
                for k, Nc in res.cells.items() if k[0] == "a")
    ea = abs(res.a0[0, 0, 0] - a_val)
    eb = np.abs(res.b0[0] - b_val).max()
    ok = w_max <= 1e-10 and q_max <= 1e-10 and ea <= 1e-10 and eb <= 1e-10
    report(3, ok, f"|w| = {w_max:.1e}, |curl N| = {q_max:.1e}, "
                  f"|a0-a| = {ea:.1e}, |b0-b| = {eb:.1e} (gates 1e-10)")


def test_criterion_04_recursion_degeneracy():
    inner = {"scale": 2, "axis": 0, "offset": 2.0, "amplitude": 1.0}
    spec2 = CoefficientSpec(2, 2, a=CoefficientPart("layered", dict(inner)),
                            b=CoefficientPart("layered", dict(inner)),
                            alpha=1.0, beta=3.0)
    spec1 = CoefficientSpec(2, 1, a=CoefficientPart("layered", dict(LAYERED)),
                            b=CoefficientPart("layered", dict(LAYERED)),
                            alpha=1.0, beta=3.0)
    r2 = homogenize(spec2, cell_N=32, slow_y=4, tol=1e-12)
    r1 = homogenize(spec1, cell_N=32, tol=1e-12)
    db = np.abs(r2.b0[0] - r1.b0[0]).max()
    da = abs(r2.a0[0, 0, 0] - r1.a0[0, 0, 0])
    ok = db <= 1e-10 and da <= 1e-10
    report(4, ok, f"two-level vs one-level paths: |db| = {db:.1e}, |da| = {da:.1e} "
                  f"(gates 1e-10)")


def test_criterion_05_cavity_mode_accuracy():
    spec = CoefficientSpec(2, 1, a=CoefficientPart("constant", {"value": 1.0}),
                           b=CoefficientPart("constant", {"value": 1.0}),
                           alpha=0.5, beta=2.0)
    hom = homogenize(spec, cell_N=4)
    omega = np.pi * np.sqrt(2.0)

    def mode(x):
        return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                         np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)

    errs, coarsest_time = [], None
    for N in (16, 32, 64):
        mesh = DomainMesh(2, N)
        data = wave.WaveData(T=0.5, dt=mesh.h / 2, g0=mode, store_every=10 ** 9,
                             tol=1e-12)
        t0 = time.perf_counter()
        traj = wave.integrate(wave.setup_problem("homogenized", mesh, data, hom=hom))
        if N == 16:
            coarsest_time = time.perf_counter() - t0
        xq, wts = fem.quad_points(mesh, 2)
        flat = xq.reshape(-1, 2)
        wq = np.tile(wts, mesh.n_cells) * mesh.h ** 2
        uh = fem.eval_edge_field(mesh, fem.expand_interior(mesh, traj.U[-1]), flat)
        ue = np.cos(omega * 0.5) * mode(flat)
        num = np.sqrt(np.sum(wq * np.sum((uh - ue) ** 2, axis=1)))
        den = np.sqrt(np.sum(wq * np.sum(ue ** 2, axis=1)))
        errs.append(num / den)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(e2 < e1 for e1, e2 in zip(errs, errs[1:])) and min(orders) >= 0.9 \
        and coarsest_time < 30.0
    report(5, ok, f"rel L2 errors {[f'{e:.3e}' for e in errs]}, observed orders "
                  f"{[f'{o:.2f}' for o in orders]} (gate >= 0.9), "
                  f"coarsest {coarsest_time:.1f}s < 30s")


def test_criterion_06_energy_conservation():
    spec = CoefficientSpec(2, 1, a=CoefficientPart("constant", {"value": 1.0}),
                           b=CoefficientPart("constant", {"value": 1.0}),
                           alpha=0.5, beta=2.0)
    hom = homogenize(spec, cell_N=4)

    def mode(x):
        return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                         np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)

    mesh = DomainMesh(2, 16)
    data = wave.WaveData(T=1000 / 64.0, dt=1 / 64.0, g0=mode, store_every=10 ** 9,
                         tol=1e-12)
    traj = wave.integrate(wave.setup_problem("homogenized", mesh, data, hom=hom))
    drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
    report(6, drift <= 1e-8,
           f"|E(t)-E(0)|/E(0) = {drift:.2e} over 1000 steps (gate 1e-8)")


def test_criterion_07_unfolding_identities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    # n = 1, lattice-aligned piecewise constants
    vals = 1.0 + rng.random((8, 8))
    pc1 = lambda p: vals[tuple(np.minimum((p * 8).astype(int), 7).T)]
    s1 = ScaleSchedule(1 / 8)
    u1 = uf.unfold(pc1, s1, 2, 3)
    exact = vals.mean()
    worst = max(worst, abs(u1.integral() - exact) / abs(exact))
    worst = max(worst, abs(uf.fold_integral(u1, s1, 2, 3) - exact) / abs(exact))
    # n = 2 with integer ratio 4
    vals2 = 1.0 + rng.random((16, 16))
    pc2 = lambda p: vals2[tuple(np.minimum((p * 16).astype(int), 15).T)]
    s2 = ScaleSchedule(1 / 4, (4,))
    u2 = uf.unfold(pc2, s2, 2, 2)
    exact2 = vals2.mean()
    worst = max(worst, abs(u2.integral() - exact2) / abs(exact2))
    worst = max(worst, abs(uf.fold_integral(u2, s2, 2, 2) - exact2) / abs(exact2))
    report(7, worst <= 1e-12,
           f"unfold/fold integral identities, worst relative error {worst:.2e} "
           f"(gate 1e-12, n = 1 and 2)")


@pytest.mark.slow
def test_criterion_08_homogenization_rate(tmp_path):
    cfg = harness.parse_config(RATE_SWEEP_CONFIG)
    t0 = time.perf_counter()
    rep = harness.run(cfg, outdir=str(tmp_path))
    elapsed = time.perf_counter() - t0
    slope = rep.slope()
    totals = rep.totals
    decreasing = all(a > b for a, b in zip(totals, totals[1:]))
    ok = 0.35 <= slope <= 1.1 and decreasing and elapsed < 600.0 and not rep.partial
    report(8, ok, f"E_vel+E_curl = {[f'{t:.4f}' for t in totals]} over eps "
                  f"{rep.eps}, slope {slope:.3f} in [0.35, 1.1], "
                  f"sweep {elapsed:.0f}s < 600s")


def test_criterion_09_multiscale_corrector(multiscale_report):
    cfg, out, rep = multiscale_report
    ems = rep.e_ms
    decreasing = all(a > b for a, b in zip(ems, ems[1:]))
    ok = decreasing and not rep.partial and len(ems) == 3
    report(9, ok, f"E_ms = {[f'{e:.4f}' for e in ems]} over eps {rep.eps}, "
                  f"strictly decreasing (no rate gated)")


def test_criterion_10_reproducibility(multiscale_report, tmp_path):
    cfg, first_out, _ = multiscale_report
    harness.run(cfg, outdir=str(tmp_path))
    b1 = open(first_out / "report.csv", "rb").read()
    b2 = open(tmp_path / "report.csv", "rb").read()
    ok = b1 == b2
    report(10, ok, f"rerun report.csv byte-identical ({len(b1)} bytes)")


def ablation_errors(cfg, eps_list):
    """Per eps: max E_vel and E_curl of the full pointwise corrector, of the one
    with P = 0 and of the one with G = I, on the same fine and homogenized runs."""
    spec = harness.build_spec(cfg)
    hom = harness._homogenize(cfg, spec)
    out = []
    for eps in eps_list:
        _, schedule, mesh, data, quad = harness._sweep_leg(cfg, spec, eps)
        fine = wave.integrate(wave.setup_problem("fine", mesh, data, spec=spec,
                                                 schedule=schedule, quad_rule=quad))
        coarse = wave.integrate(wave.setup_problem(
            "homogenized", DomainMesh(2, cfg["sweep.hom_n"]), data, hom=hom, quad_rule=quad))
        full = corr.reconstruct_corrector(coarse, hom, schedule, g1=data.g1, fine_mesh=mesh)
        no_p = dataclasses.replace(full, P=np.zeros_like(full.P))
        no_g = dataclasses.replace(full, G=np.broadcast_to(np.eye(1), full.G.shape).copy())
        errs = [corr.corrector_error(fine, f) for f in (full, no_p, no_g)]
        out.append((full, [(e.max_vel, e.max_curl) for e in errs]))
    return out


def test_criterion_11_corrector_terms_are_needed():
    # The L^2 corrector terms P = grad_y w (velocity) and G = I + curl_y N (curl)
    # are what make the error decay: without either, that error stays near its
    # largest-eps value.  Measured: full E_vel 0.311, 0.148, 0.079 and E_curl
    # 0.286, 0.171, 0.133; E_vel with P = 0 0.393, 0.353, 0.347 and E_curl with
    # G = I 0.866, 0.822, 0.808.
    t0 = time.perf_counter()
    eps = (0.25, 0.125, 0.0625)
    runs = ablation_errors(harness.parse_config(ABLATION_SWEEP_CONFIG), eps)
    vel, curl = [e[0][0] for _, e in runs], [e[0][1] for _, e in runs]
    vel_no_p, curl_no_g = [e[1][0] for _, e in runs], [e[2][1] for _, e in runs]
    decay = all(a > b for a, b in zip(vel, vel[1:])) and vel[0] > 2.5 * vel[-1] \
        and all(a > b for a, b in zip(curl, curl[1:])) and curl[0] > 1.5 * curl[-1]
    flat = min(vel_no_p) > 0.75 * vel_no_p[0] and min(curl_no_g) > 0.75 * curl_no_g[0] \
        and vel_no_p[-1] > 2.5 * vel[-1] and curl_no_g[-1] > 3.0 * curl[-1]
    # constant b: grad_y w = 0, so dropping P changes no bit of E_vel
    const_b = ABLATION_SWEEP_CONFIG.replace(
        "coeff.b.family = layered\ncoeff.b.offset = 2.0\ncoeff.b.amplitude = 1.0",
        "coeff.b.family = constant\ncoeff.b.value = 2.0")
    (field, errs), = ablation_errors(harness.parse_config(const_b), eps[:1])
    exact = np.all(field.P == 0.0) and errs[0][0] == errs[1][0]
    elapsed = time.perf_counter() - t0
    ok = decay and flat and exact and elapsed < 15.0
    report(11, ok, f"E_vel {[f'{e:.3f}' for e in vel]} vs P = 0 {[f'{e:.3f}' for e in vel_no_p]}, "
                   f"E_curl {[f'{e:.3f}' for e in curl]} vs G = I "
                   f"{[f'{e:.3f}' for e in curl_no_g]} over eps {list(eps)}; constant b: P = 0 "
                   f"exactly, E_vel equal bitwise: {exact}; {elapsed:.1f}s < 15s")
