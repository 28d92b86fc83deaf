import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxhom import fem, wave
from maxhom import corrector as corr
from maxhom import unfolding as uf
from maxhom.cells import homogenize
from maxhom.coeffs import CoefficientPart, CoefficientSpec, ScaleSchedule
from maxhom.mesh import DomainMesh

LAYERED = {"scale": 1, "axis": 0, "offset": 2.0, "amplitude": 1.0}
SQRT3 = np.sqrt(3.0)


def cavity11(x):
    return np.stack([-np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
                     np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])], axis=1)


def bubble_forcing():
    return wave.Forcing(
        lambda p: np.stack([np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])] * 2, axis=1),
        lambda t: np.cos(2.0 * t))


def layered_spec():
    return CoefficientSpec(2, 1, a=CoefficientPart("layered", dict(LAYERED)),
                           b=CoefficientPart("layered", dict(LAYERED)),
                           alpha=1.0, beta=3.0)


def const_spec():
    return CoefficientSpec(2, 1, a=CoefficientPart("constant", {"value": 2.0}),
                           b=CoefficientPart("constant", {"value": 2.0}),
                           alpha=1.0, beta=3.0)


@pytest.fixture(scope="module")
def layered_setup():
    """Shared eps=1/8 layered fine/homogenized runs (the workhorse fixture)."""
    spec = layered_spec()
    hom = homogenize(spec, cell_N=64)
    sched = ScaleSchedule(1 / 8)
    fine_mesh = DomainMesh(2, 128)
    data = wave.WaveData(T=0.25, dt=1 / 64, g1=cavity11, f=bubble_forcing(),
                         store_every=2, tol=1e-11)
    tf = wave.integrate(wave.setup_problem("fine", fine_mesh, data, spec=spec,
                                           schedule=sched, quad_rule=3))
    hm = DomainMesh(2, 32)
    th = wave.integrate(wave.setup_problem("homogenized", hm, data, hom=hom))
    return spec, hom, sched, fine_mesh, tf, th


# ---------------------------------------------------------------------------
# pointwise corrector

def test_constant_coefficients_collapse_bitwise():
    # cell fields vanish identically, so the corrector IS the homogenized field
    spec = const_spec()
    hom = homogenize(spec, cell_N=8)
    sched = ScaleSchedule(1 / 4)
    mesh = DomainMesh(2, 32)
    data = wave.WaveData(T=0.2, dt=0.05, g1=cavity11, store_every=2)
    th = wave.integrate(wave.setup_problem("homogenized", mesh, data, hom=hom))
    field = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=mesh)
    assert np.abs(field.P).max() == 0.0
    assert np.array_equal(field.G, np.ones((len(field.G), 1, 1)))
    v_c, q_c = field.eval_stamp(1)
    cells0, local0 = mesh.locate(field.xq)
    du0 = fem.eval_edge_field(mesh, fem.expand_interior(mesh, th.V[1]), None, cells0, local0)
    cu0 = fem.eval_edge_curl(mesh, fem.expand_interior(mesh, th.U[1]), None, cells0, local0)
    assert np.array_equal(v_c, du0)
    assert np.array_equal(q_c, cu0)


def test_t0_formula_collapse(layered_setup):
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    # with g1 taken as the homogenized run's own interpolated initial velocity,
    # du0/dt(0) - g1 = 0 pointwise and the velocity corrector collapses exactly
    v0_full = fem.expand_interior(th.mesh, th.V[0])
    g1_interp = lambda x: fem.eval_edge_field(th.mesh, v0_full, x)
    field = corr.reconstruct_corrector(th, hom, sched, g1=g1_interp, fine_mesh=fine_mesh)
    v_c, _ = field.eval_stamp(0)
    assert np.abs(v_c - field.g1_vals).max() < 1e-12
    # against the exact g1 the collapse holds at the interpolation level O(h0)
    field2 = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=fine_mesh)
    v_c2, _ = field2.eval_stamp(0)
    rel = np.abs(v_c2 - cavity11(field2.xq)).max() / np.abs(field2.g1_vals).max()
    assert rel < 0.1


def test_layered_curl_corrector_closed_form(layered_setup):
    # corrector curl field = (sqrt3 / a(y1)) curl u0 in the 2D layered case
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    field = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=fine_mesh)
    y = field.xq / sched.epsilon
    y -= np.floor(y)
    cells, _ = hom.mesh.locate(y)
    ymid = hom.mesh.cell_centers[cells, 0]
    a_mid = 2.0 + np.sin(2 * np.pi * ymid)
    assert np.abs(field.G[:, 0, 0] - SQRT3 / a_mid).max() < 1e-9
    i = 2
    _, q_c = field.eval_stamp(i)
    cells0, local0 = th.mesh.locate(field.xq)
    cu0 = fem.eval_edge_curl(th.mesh, fem.expand_interior(th.mesh, th.U[i]),
                             None, cells0, local0)
    assert q_c.shape == cu0.shape == (len(a_mid), 1)
    assert np.allclose(q_c, (SQRT3 / a_mid)[:, None] * cu0,
                       atol=1e-8 * max(1, np.abs(cu0).max()))


def test_identical_trajectories_zero_error(layered_setup):
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    chom = homogenize(const_spec(), cell_N=8)
    field = corr.reconstruct_corrector(tf, chom, sched, g1=cavity11, fine_mesh=fine_mesh)
    errs = corr.corrector_error(tf, field)
    # corrector built FROM the fine run compared against itself: velocity part
    # collapses (P=0) so both errors vanish (to the rounding of re-evaluating
    # the same DOF vector along two quadrature index paths)
    assert errs.max_vel < 1e-12
    assert errs.max_curl < 1e-12


def test_constant_case_discretization_level():
    # fine run with constant coefficients vs its own homogenized run: errors at
    # the c(h + dt) level, far below O(1) field scales
    spec = const_spec()
    hom = homogenize(spec, cell_N=8)
    sched = ScaleSchedule(1 / 8)
    fm = DomainMesh(2, 64)
    data = wave.WaveData(T=0.25, dt=1 / 64, g1=cavity11, f=bubble_forcing(),
                         store_every=4, tol=1e-11)
    tf = wave.integrate(wave.setup_problem("fine", fm, data, spec=spec, schedule=sched))
    hm = DomainMesh(2, 32)
    th = wave.integrate(wave.setup_problem("homogenized", hm, data, hom=hom))
    field = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=fm)
    errs = corr.corrector_error(tf, field)
    vel_scale = np.sqrt(np.sum(field.wq * np.sum(cavity11(field.xq) ** 2, axis=1)))
    assert errs.max_vel < 0.05 * vel_scale
    assert errs.max_curl < 0.05 * (2 * np.pi ** 2)  # curl scale of the mode
    assert errs.total == errs.max_vel + errs.max_curl
    assert np.all(errs.e_vel >= 0) and np.all(errs.e_curl >= 0)
    assert errs.max_vel == errs.e_vel.max()


def test_g0_nonzero_refused(layered_setup):
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    with pytest.raises(corr.CorrectorInputError, match="g0"):
        corr.reconstruct_corrector(th, hom, sched, g1=cavity11, g0=cavity11,
                                   fine_mesh=fine_mesh)


def test_g0_vanishing_at_the_centre_refused(layered_setup):
    # g0 is zero at the centre of the box (the one point once probed), not elsewhere
    spec, hom, sched, fine_mesh, tf, th = layered_setup

    def g0(x):
        s = (x[:, 0] - 0.5) * x[:, 1] * (1.0 - x[:, 1])
        return np.stack([s, s], axis=1)

    assert np.abs(g0(np.full((1, 2), 0.5))).max() == 0.0
    with pytest.raises(corr.CorrectorInputError, match="g0"):
        corr.reconstruct_corrector(th, hom, sched, g1=cavity11, g0=g0, fine_mesh=fine_mesh)
    zero = lambda x: np.zeros_like(x)
    field = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, g0=zero,
                                       fine_mesh=fine_mesh)
    assert field.xq.shape[1] == 2


def test_coarse_homogenized_mesh_refused():
    spec = layered_spec()
    hom = homogenize(spec, cell_N=16)
    sched = ScaleSchedule(1 / 8)
    mesh = DomainMesh(2, 64)
    data = wave.WaveData(T=0.1, dt=0.05, g1=cavity11, store_every=1)
    th = wave.integrate(wave.setup_problem("homogenized", DomainMesh(2, 4), data, hom=hom))
    with pytest.raises(corr.CorrectorInputError, match="alias"):
        corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=mesh)


def test_mismatched_grids_refused(layered_setup):
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    other = DomainMesh(2, 96)
    field = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=other)
    with pytest.raises(corr.CorrectorInputError, match="mesh"):
        corr.corrector_error(tf, field)


# ---------------------------------------------------------------------------
# unfolding operators (criterion-7 machinery)

def test_unfold_constant_exact():
    s = ScaleSchedule(1 / 4)
    u = uf.unfold(lambda p: np.ones(len(p)), s, 2, 4)
    assert np.all(u.values == 1.0)
    assert u.integral() == pytest.approx(1.0, abs=1e-15)


def test_unfold_identity_piecewise_constant_n1_n2():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((4, 4))
    pc = lambda p: vals[tuple(np.minimum((p / 0.25).astype(int), 3).T)]
    s1 = ScaleSchedule(1 / 4)
    u1 = uf.unfold(pc, s1, 2, 3)
    assert abs(u1.integral() - vals.mean()) <= 1e-12 * abs(vals.mean())

    vals2 = rng.standard_normal((16, 16))
    pc2 = lambda p: vals2[tuple(np.minimum((p / 0.0625).astype(int), 15).T)]
    s2 = ScaleSchedule(1 / 4, (4,))
    u2 = uf.unfold(pc2, s2, 2, 2)
    assert abs(u2.integral() - vals2.mean()) <= 1e-12 * abs(vals2.mean())
    assert abs(uf.fold_integral(u2, s2, 2, 2) - vals2.mean()) \
        <= 1e-12 * abs(vals2.mean())


def test_fold_unfold_composition_on_lattice():
    # brute force over a 4x4 eps-lattice of random piecewise constants
    rng = np.random.default_rng(12)
    vals = rng.standard_normal((4, 4))
    pc = lambda p: vals[tuple(np.minimum((p / 0.25).astype(int), 3).T)]
    s = ScaleSchedule(1 / 4)
    u = uf.unfold(pc, s, 2, 5)
    pts = rng.random((500, 2))
    assert np.array_equal(uf.fold(u, s, 2, 5, pts), pc(pts))


def test_fold_x_only_field_and_constant():
    s = ScaleSchedule(1 / 4)
    shape = uf.grid_shape(s, 2, 3)
    rng = np.random.default_rng(13)
    psi = rng.standard_normal((4, 4))
    vals = np.broadcast_to(psi[:, :, None, None], shape)
    pts = rng.random((200, 2))
    idx = np.minimum((pts / 0.25).astype(int), 3)
    assert np.array_equal(uf.fold(vals, s, 2, 3, pts), psi[idx[:, 0], idx[:, 1]])
    const = np.full(shape, 2.5)
    assert np.all(uf.fold(const, s, 2, 3, pts) == 2.5)


def test_unfold_smooth_quadrature_refinement():
    s = ScaleSchedule(1 / 4)
    errs = [abs(uf.unfold(lambda p: np.sin(np.pi * p[:, 0]), s, 2, m).integral() - 2 / np.pi)
            for m in (2, 4, 8)]
    assert errs[1] < errs[0] and errs[2] < errs[1]


@st.composite
def lattice_fields(draw):
    """A random eps-lattice and a random field constant on its finest sample cells."""
    L = draw(st.integers(2, 6))  # eps = 1/L lies in (0, 1)
    n = draw(st.sampled_from([1, 2]))
    ratios = (draw(st.sampled_from([2, 3, 4])),) if n == 2 else ()
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return ScaleSchedule(1 / L, ratios), m, rng


def finest_cells(schedule, m):
    """Sample cells per axis: the eps_n-cells of the lattice, each split m ways."""
    return int(round(m / schedule.epsilons[-1]))


@settings(max_examples=60, deadline=None)
@given(lattice_fields())
def test_fold_unfold_recovers_piecewise_constant_fields(case):
    s, m, rng = case
    K = finest_cells(s, m)
    vals = rng.standard_normal((K, K))
    phi = lambda p: vals[tuple(np.minimum((p * K).astype(np.int64), K - 1).T)]
    # random points kept away from the cell faces, where the nested floors of
    # fold and the single floor of phi could round to different sides
    idx = rng.integers(0, K, (300, 2))
    pts = (idx + rng.uniform(0.05, 0.95, (300, 2))) / K
    folded = uf.fold(uf.unfold(phi, s, 2, m), s, 2, m, pts)
    assert np.array_equal(folded, vals[idx[:, 0], idx[:, 1]])


@settings(max_examples=60, deadline=None)
@given(lattice_fields())
def test_fold_integral_equals_field_mean(case):
    s, m, rng = case
    K = finest_cells(s, m)
    vals = rng.standard_normal((K, K))
    phi = lambda p: vals[tuple(np.minimum((p * K).astype(np.int64), K - 1).T)]
    u = uf.unfold(phi, s, 2, m)
    scale = np.abs(vals).mean()
    assert abs(uf.fold_integral(u, s, 2, m) - vals.mean()) <= 1e-13 * scale
    assert abs(u.integral() - vals.mean()) <= 1e-13 * scale


def test_unfold_requires_integer_lattice():
    s = ScaleSchedule(0.3)
    with pytest.raises(uf.UnfoldingError):
        uf.unfold(lambda p: np.ones(len(p)), s, 2, 2)


# ---------------------------------------------------------------------------
# folded multiscale corrector

def test_ems_close_to_pointwise_n1(layered_setup):
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    field = corr.reconstruct_corrector(th, hom, sched, g1=cavity11, fine_mesh=fine_mesh)
    errs = corr.corrector_error(tf, field)
    ems = corr.multiscale_corrector_error(tf, th, hom, sched, g1=cavity11)
    ratio = ems.max_ms / errs.total
    assert 0.5 < ratio < 2.0
    assert np.all(ems.e_ms >= 0)


def test_ems_constant_coefficients_discretization_level():
    spec = const_spec()
    hom = homogenize(spec, cell_N=8)
    sched = ScaleSchedule(1 / 8)
    fm = DomainMesh(2, 64)
    data = wave.WaveData(T=0.25, dt=1 / 64, g1=cavity11, store_every=4, tol=1e-11)
    tf = wave.integrate(wave.setup_problem("fine", fm, data, spec=spec, schedule=sched))
    th = wave.integrate(wave.setup_problem("homogenized", DomainMesh(2, 32), data, hom=hom))
    ems = corr.multiscale_corrector_error(tf, th, hom, sched, g1=cavity11)
    # folding averages the slow fields over eps-cells: O(eps |grad|) + O(h)
    assert ems.max_ms < 1.5  # vs O(10) field scales


@pytest.fixture(scope="module")
def n2_setup():
    """Two-scale separable spec, eps = 1/4, r2 = 4: fine and homogenized runs."""
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0},
           {"offset": 2.0, "amplitude": 1.0, "axis": 0}]
    spec = CoefficientSpec(2, 2,
                           a=CoefficientPart("separable-product", {"factors": fac}),
                           b=CoefficientPart("separable-product", {"factors": fac}),
                           alpha=1.0, beta=9.0)
    hom = homogenize(spec, cell_N=16, slow_y=4)
    sched = ScaleSchedule(1 / 4, (4,))
    fm = DomainMesh(2, 64)
    data = wave.WaveData(T=0.125, dt=1 / 64, g1=cavity11, store_every=4, tol=1e-10)
    tf = wave.integrate(wave.setup_problem("fine", fm, data, spec=spec,
                                           schedule=sched, quad_rule=3))
    th = wave.integrate(wave.setup_problem("homogenized", DomainMesh(2, 32), data, hom=hom))
    return hom, sched, tf, th


@pytest.mark.parametrize("eps", [0.25, 0.5])
def test_macro_bins_refuse_lattice_that_does_not_tile(eps):
    # extent 1.125 holds 4.5 (eps = 1/4) or 2.25 (eps = 1/2) eps-cells per axis:
    # clamping the leftover strip into the last row of bins would merge
    # macro-cells of different areas
    mesh = DomainMesh(2, 18, 1.125)
    xq = corr._fine_quadrature(mesh, 2)[0]
    with pytest.raises(corr.CorrectorInputError, match="extent 1.125.*eps " + str(eps)):
        corr._macro_bins(xq, eps, mesh.extent)


@st.composite
def tiling_lattices(draw):
    """(d, eps, cells per axis L, fine cells per eps-cell p): extent = L eps tiles."""
    d = draw(st.sampled_from([2, 3]))
    q = draw(st.integers(2, 8))
    L = draw(st.integers(1, 4 if d == 3 else 10))
    p = draw(st.integers(1, 2 if d == 3 else 3))
    return d, 1 / q, L, p


@settings(max_examples=40, deadline=None)
@given(tiling_lattices())
@example((2, 1 / 8, 9, 2))   # extent 1.125: a 9 x 9 lattice
def test_macro_bins_tiling_lattice_gives_equal_areas(case):
    d, eps, L, p = case
    mesh = DomainMesh(d, L * p, L * eps)
    xq, wq = corr._fine_quadrature(mesh, 2)
    bins, nbins = corr._macro_bins(xq, eps, mesh.extent)
    assert nbins == L ** d
    assert np.allclose(np.bincount(bins, weights=wq, minlength=nbins), eps ** d,
                       rtol=1e-12, atol=0)
    # on the unit box the bins are the macro cells that fold reads: a field
    # whose macro group holds the flat cell number folds to the bin index
    s = ScaleSchedule(eps)
    q = uf.lattice_cells(1.0, eps)
    unit = DomainMesh(d, q * p)
    xq = corr._fine_quadrature(unit, 2)[0]
    numbered = np.arange(q ** d, dtype=float).reshape((q,) * d + (1,) * d)
    folded = uf.fold(np.broadcast_to(numbered, uf.grid_shape(s, d, 1)), s, d, 1, xq)
    assert np.array_equal(folded, corr._macro_bins(xq, eps, 1.0)[0])


def test_ems_n2_smoke(n2_setup):
    hom, sched, tf, th = n2_setup
    ems = corr.multiscale_corrector_error(tf, th, hom, sched, g1=cavity11)
    assert np.all(np.isfinite(ems.e_ms))
    assert ems.max_ms > 0


def hat_weight(grid, y, q):
    """Weight of sample q of a periodic slow grid at points y (npts, d): the product
    over the axes of the periodic hat of width 1/res centred on the sample."""
    w = np.ones(len(y))
    if grid.res == 1:
        return w
    for a, qa in enumerate(np.unravel_index(q, (grid.res,) * grid.d)):
        t = (y[:, a] * grid.res - qa) % grid.res
        w *= np.maximum(0.0, 1.0 - np.minimum(t, grid.res - t))
    return w


def cell_factor_at(hom, level, sample, y):
    """I + grad_y w and I + curl_y N of one cached cell solution at points y."""
    d = hom.d
    W, Nc = hom.cell_solution("b", level, sample), hom.cell_solution("a", level, sample)
    P = np.stack([fem.eval_nodal_gradient(hom.mesh, W[r], y) for r in range(d)], axis=-1)
    C = np.stack([fem.eval_edge_curl(hom.mesh, Nc[r], y) for r in range(len(Nc))], axis=-1)
    return np.eye(d) + P, np.eye(len(Nc)) + C


def folded_factors_oracle(hom, schedule, xq):
    """Folded factors (P, G) of n >= 2 at the points xq, with explicit loops.

    For every nested subcell (floor(r_2 y_1), ..., floor(r_n y_{n-1})) the cell
    centres of each y_j in it are listed, the running product of the slow levels
    is formed on their product grid with every sample of each level, and its
    average times the hat weight of every level-n sample is taken; level n is
    then summed over every sample at y_n.
    """
    d, n, ratios, grids = hom.d, schedule.n_scales, schedule.ratios, hom.y_grids
    centres = hom.mesh.cell_centers
    sizes = [g.size for g in grids]
    nsamples = int(np.prod(sizes))
    eps = schedule.epsilons
    ys = [xq / e - np.floor(xq / e) for e in eps]
    sub_of_point = [tuple(np.minimum(np.floor(y * r).astype(int), r - 1).T)
                    for y, r in zip(ys, ratios)]
    P = -np.broadcast_to(np.eye(d), (len(xq), d, d)).copy()
    G = np.zeros((len(xq), 1, 1))
    levels_n = [cell_factor_at(hom, n, nu, ys[-1]) for nu in range(nsamples)]
    for sub in itertools.product(*[list(itertools.product(range(r), repeat=d))
                                   for r in ratios]):
        members = [np.flatnonzero(np.all(np.floor(centres * r).astype(int) == np.array(s),
                                         axis=1)) for s, r in zip(sub, ratios)]
        mesh_idx = [m.ravel() for m in np.meshgrid(*members, indexing="ij")]
        yj = [centres[i] for i in mesh_idx]
        prod_b = np.broadcast_to(np.eye(d), (len(yj[0]), d, d))
        prod_a = np.ones((len(yj[0]), 1, 1))
        for level in range(1, n):
            Mb, Ma = 0.0, 0.0
            for mu in range(int(np.prod(sizes[:level - 1]))):
                lam = np.ones(len(yj[0]))
                for g, q, y in zip(grids, np.unravel_index(mu, sizes[:level - 1]), yj):
                    lam = lam * hat_weight(g, y, q)
                Fb, Fa = cell_factor_at(hom, level, mu, yj[level - 1])
                Mb = Mb + lam[:, None, None] * Fb
                Ma = Ma + lam[:, None, None] * Fa
            prod_b, prod_a = Mb @ prod_b, Ma @ prod_a
        at = np.ones(len(xq), dtype=bool)
        for s, k in zip(sub, sub_of_point):
            for a in range(d):
                at &= k[a] == s[a]
        for nu in range(nsamples):
            lam = np.ones(len(yj[0]))
            for g, q, y in zip(grids, np.unravel_index(nu, sizes), yj):
                lam = lam * hat_weight(g, y, q)
            A = (lam[:, None, None] * prod_b).mean(axis=0)
            C = (lam[:, None, None] * prod_a).mean(axis=0)
            Fb, Fa = levels_n[nu]
            P[at] += Fb[at] @ A
            G[at] += Fa[at] @ C
    return P, G


def folded_error_oracle(fine_traj, u0_traj, hom, schedule, g1):
    """Reference E_ms, the macro-cell averages formed anew at every stamp.

    Averages du0, du0 - g1 and curl u0 over the eps macro-cells at each stamp
    and applies the factors: for n = 1 the level-1 factors at y_1, for n >= 2
    those of folded_factors_oracle.
    """
    mesh = fine_traj.mesh
    d = mesh.d
    xq, wq = corr._fine_quadrature(mesh, 2)
    pts_ref, _ = fem.gauss_rule(d, 2)
    cells = np.repeat(np.arange(mesh.n_cells), len(pts_ref))
    local = np.tile(pts_ref, (mesh.n_cells, 1))
    g1_vals = g1(xq)
    mc, nmc = corr._macro_bins(xq, schedule.epsilon, mesh.extent)

    def bin_average(values):
        wsum = np.bincount(mc, weights=wq, minlength=nmc)
        out = np.empty((nmc, values.shape[1]))
        for k in range(values.shape[1]):
            out[:, k] = np.bincount(mc, weights=wq * values[:, k], minlength=nmc) / wsum
        return out[mc]

    cells0, local0 = u0_traj.mesh.locate(xq)
    if schedule.n_scales == 1:
        y1 = xq / schedule.epsilon
        y1 -= np.floor(y1)
        P, G = corr.cell_factors(hom, y1)
    else:
        P, G = folded_factors_oracle(hom, schedule, xq)
    e_ms = np.empty(fine_traj.n_snaps)
    for i in range(fine_traj.n_snaps):
        v0 = fem.expand_interior(u0_traj.mesh, u0_traj.V[i])
        u0 = fem.expand_interior(u0_traj.mesh, u0_traj.U[i])
        du0 = fem.eval_edge_field(u0_traj.mesh, v0, None, cells0, local0)
        cu0 = fem.eval_edge_curl(u0_traj.mesh, u0, None, cells0, local0)
        v_fold = bin_average(du0) + np.einsum("pjr,pr->pj", P, bin_average(du0 - g1_vals))
        c_fold = G[:, 0] * bin_average(cu0)
        duf = fem.eval_edge_field(mesh, fem.expand_interior(mesh, fine_traj.V[i]),
                                  None, cells, local)
        cuf = fem.eval_edge_curl(mesh, fem.expand_interior(mesh, fine_traj.U[i]),
                                 None, cells, local)
        e_ms[i] = corr._l2(wq, duf - v_fold) + corr._l2(wq, cuf - c_fold)
    return e_ms


def test_ems_n2_matches_per_stamp_oracle(n2_setup):
    # the factors are built once and summed in another order: rounding only
    hom, sched, tf, th = n2_setup
    ems = corr.multiscale_corrector_error(tf, th, hom, sched, g1=cavity11)
    ref = folded_error_oracle(tf, th, hom, sched, cavity11)
    assert np.all(np.abs(ems.e_ms - ref) <= 1e-12 * np.abs(ref))
    assert np.all(ems.e_vel == 0.0) and np.all(ems.e_curl == 0.0)


@pytest.fixture(scope="module")
def n3_setup():
    """Three-scale spec, eps = 1/2, ratios (2, 2), slow_y (3, 3): fine and homogenized runs."""
    # each scale's factor varies along both axes, so the levels' factors do not commute
    code = ("(2 + np.sin(2 * pi * ys[0][:, 0]) * np.cos(2 * pi * ys[0][:, 1]))"
            " * (2 + 0.5 * np.sin(2 * pi * (ys[1][:, 0] + 2 * ys[1][:, 1])))"
            " * (1.5 + 0.5 * np.cos(2 * pi * ys[2][:, 1]) * np.sin(2 * pi * ys[2][:, 0]))")
    part = CoefficientPart("expression", {"code": code})
    spec = CoefficientSpec(2, 3, a=part, b=part, alpha=0.5, beta=18.0)
    hom = homogenize(spec, cell_N=8, slow_y=[3, 3], tol=1e-10)
    sched = ScaleSchedule(1 / 2, (2, 2))
    fm = DomainMesh(2, 32)
    data = wave.WaveData(T=0.125, dt=1 / 64, g1=cavity11, f=bubble_forcing(), store_every=4,
                         tol=1e-10)
    tf = wave.integrate(wave.setup_problem("fine", fm, data, spec=spec,
                                           schedule=sched, quad_rule=3))
    th = wave.integrate(wave.setup_problem("homogenized", DomainMesh(2, 16), data, hom=hom))
    return hom, sched, tf, th


def test_ems_n3_matches_per_stamp_oracle(n3_setup):
    hom, sched, tf, th = n3_setup
    xq = corr._fine_quadrature(tf.mesh, corr._QUAD_RULE)[0]
    P, G = corr._fold_factors(hom, sched, xq)
    P_ref, G_ref = folded_factors_oracle(hom, sched, xq)
    assert np.abs(P - P_ref).max() <= 1e-12 and np.abs(G - G_ref).max() <= 1e-12
    assert np.abs(P).max() > 0.1   # the slow levels' products do not commute: order counts
    ems = corr.multiscale_corrector_error(tf, th, hom, sched, g1=cavity11)
    ref = folded_error_oracle(tf, th, hom, sched, cavity11)
    assert np.all(ref > 0)
    assert np.all(np.abs(ems.e_ms - ref) <= 1e-12 * np.abs(ref))


def test_fold_factors_evaluate_each_slow_level_sample_once(n3_setup, monkeypatch):
    # the slow levels' fields depend on y_i only: each (level, sample) of
    # level i < n is evaluated once, at the cell centres, not at every point
    # of the nested grid
    hom, sched, tf, th = n3_setup
    calls = []
    fields = corr._cell_fields

    def counting(hom, level, sample, cells, local):
        calls.append((level, sample, len(cells)))
        return fields(hom, level, sample, cells, local)

    monkeypatch.setattr(corr, "_cell_fields", counting)
    corr._fold_factors(hom, sched, corr._fine_quadrature(tf.mesh, corr._QUAD_RULE)[0])
    slow = [(level, s, npts) for level, s, npts in calls if level < sched.n_scales]
    samples = [(level, s) for level in range(1, sched.n_scales)
               for s in range(int(np.prod([g.size for g in hom.y_grids[:level - 1]])))]
    assert sorted(slow) == [(level, s, hom.mesh.n_cells) for level, s in samples]


def folded_factors(hom, sched, xq):
    """The factors of multiscale_corrector_error at points xq, for every n."""
    if sched.n_scales == 1:
        return corr.cell_factors(hom, sched.fast_variables(xq)[0])
    return corr._fold_factors(hom, sched, xq)


@st.composite
def unit_factor_specs(draw):
    """n scales of zero-amplitude sine factors: a constant coefficient in n variables."""
    n = draw(st.sampled_from([1, 2, 3]))
    ratios = tuple(draw(st.sampled_from([2, 3])) for _ in range(n - 1))
    slow_y = [draw(st.integers(1, 3)) for _ in range(n - 1)]
    fac = [{"offset": draw(st.sampled_from([1.0, 1.5, 2.0])), "amplitude": 0.0,
            "axis": draw(st.integers(0, 1)), "phase": draw(st.floats(0.0, 6.0))}
           for _ in range(n)]
    part = CoefficientPart("separable-product", {"factors": fac})
    return CoefficientSpec(2, n, a=part, b=part, alpha=0.5, beta=10.0), ratios, slow_y


@settings(max_examples=12, deadline=None)
@given(unit_factor_specs())
def test_folded_factors_of_unit_factors_are_identity(case):
    # every cell solution vanishes, so every level's product is I and P = 0, G = I
    spec, ratios, slow_y = case
    hom = homogenize(spec, cell_N=6, slow_y=slow_y or None, tol=1e-12)
    sched = ScaleSchedule(1 / 3, ratios)
    xq = np.random.default_rng(24).random((200, 2))
    P, G = folded_factors(hom, sched, xq)
    assert np.abs(P).max() <= 1e-13
    assert np.abs(G - np.eye(1)).max() <= 1e-13


def test_ems_n1_bitwise_per_stamp_oracle(layered_setup):
    spec, hom, sched, fine_mesh, tf, th = layered_setup
    ems = corr.multiscale_corrector_error(tf, th, hom, sched, g1=cavity11)
    assert np.array_equal(ems.e_ms, folded_error_oracle(tf, th, hom, sched, cavity11))


# ---------------------------------------------------------------------------
# n = 2 folded factors from one eps-period of fine cells

def separable_spec(phases=(0.0, 0.0)):
    """One factor 2 + sin(2 pi y_i[0] + phase) per scale i, with one phase per scale."""
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0, "phase": ph} for ph in phases]
    return CoefficientSpec(2, len(phases),
                           a=CoefficientPart("separable-product", {"factors": fac}),
                           b=CoefficientPart("separable-product", {"factors": fac}),
                           alpha=1.0, beta=3.0 ** len(phases))


@pytest.fixture(scope="module")
def folded_sweep_hom():
    """Cell solutions of the benchmark's folded sweep: cell_n 32, slow_y 8, r2 = 4."""
    return homogenize(separable_spec((0.3, 1.1)), cell_N=32, slow_y=8, tol=1e-10)


def assert_period_factors_match(hom, sched, mesh, atol=1e-12):
    xq = corr._fine_quadrature(mesh, corr._QUAD_RULE)[0]
    xt, rows = corr._period_points(mesh, sched.epsilon)
    P, G = corr._fold_factors(hom, sched, xt)
    P, G = P[rows], G[rows]
    P_ref, G_ref = corr._fold_factors(hom, sched, xq)
    assert P.shape == P_ref.shape and G.shape == G_ref.shape
    assert np.abs(P - P_ref).max() <= atol
    assert np.abs(G - G_ref).max() <= atol


def test_period_factors_folded_sweep(folded_sweep_hom):
    # eps = 1/4, eps_2 = 1/16, fine_ratio 4: N = 64, one period is 16^2 cells
    sched = ScaleSchedule(1 / 4, (4,))
    mesh = DomainMesh(2, 64)
    xt, rows = corr._period_points(mesh, sched.epsilon)
    assert len(xt) == 16 ** 2 * 4 and rows.max() == len(xt) - 1
    assert_period_factors_match(folded_sweep_hom, sched, mesh)


@pytest.mark.parametrize("N,extent", [(30, 1.0), (18, 1.125)])
def test_period_factors_whole_mesh_fallback(folded_sweep_hom, N, extent):
    # eps/h = 7.5 is not an integer; eps/h = 4 does not divide N = 18:
    # the table then covers every point (p = N), row k for point k
    sched = ScaleSchedule(1 / 4, (4,))
    mesh = DomainMesh(2, N, extent)
    xq = corr._fine_quadrature(mesh, corr._QUAD_RULE)[0]
    xt, rows = corr._period_points(mesh, sched.epsilon)
    assert np.array_equal(xt, xq) and np.array_equal(rows, np.arange(len(xq)))
    assert_period_factors_match(folded_sweep_hom, sched, mesh)


def test_period_factors_keep_face_pick(monkeypatch):
    # midpoint rule, eps = 1/4, r2 = 2, h = 1/16, cell_N = 4: every y2 sits on
    # a cell-mesh face (y2 = 1/4, 3/4), where grad_y w jumps; the table must
    # take the same side as the per-point path
    monkeypatch.setattr(corr, "_QUAD_RULE", 1)
    hom = homogenize(separable_spec((0.0, 0.7)), cell_N=4, slow_y=2)
    sched = ScaleSchedule(1 / 4, (2,))
    mesh = DomainMesh(2, 16)
    xq = corr._fine_quadrature(mesh, 1)[0]
    y2 = sched.fast_variables(xq)[1] * hom.cell_N
    assert np.all(y2 == np.round(y2))
    assert len(corr._period_points(mesh, sched.epsilon)[0]) == 4 ** 2
    assert_period_factors_match(hom, sched, mesh)
    # the other side of the face gives other factors
    P_below, _ = corr._fold_factors(hom, sched, xq - 1e-9)
    P_ref, _ = corr._fold_factors(hom, sched, xq)
    assert np.abs(P_below - P_ref).max() > 1e-3


# ---------------------------------------------------------------------------
# boundary layer

def test_boundary_layer_measure():
    # |D^eps| = 4 eps - 4 eps^2 = 1 - (1-2 eps)^2 for the mesh-aligned frame
    mesh = DomainMesh(2, 16)
    eps = 4 * mesh.h
    dist = np.minimum(mesh.node_coords, mesh.extent - mesh.node_coords).min(axis=1)
    in_closed_layer = dist[mesh.cell_nodes] <= eps + 1e-12
    measure = np.all(in_closed_layer, axis=1).sum() * mesh.h ** 2
    assert measure == pytest.approx(4 * eps - 4 * eps ** 2, abs=1e-12)


def test_x_dependent_cell_field_sampler():
    # separable a(x, y) = m(x) f(y): the cell solutions are x-independent
    # (coefficient scaling), so the x-interpolated sampler must reproduce the
    # single-sample gradients at and between samples
    from maxhom.cells import homogenize as hmg

    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0}]
    par = {"factors": fac, "x_amplitude": 0.5}
    spec = CoefficientSpec(2, 1, a=CoefficientPart("separable-product", dict(par)),
                           b=CoefficientPart("separable-product", dict(par)),
                           alpha=0.4, beta=4.6)
    hom = hmg(spec, cell_N=32, slow_x=3)
    rng = np.random.default_rng(20)
    y = rng.random((50, 2))
    x_between = rng.random((50, 2))
    P, G = corr.cell_factors(hom, y, slow=x_between)
    sol0 = hom.cell_solution("b", 1, 0)
    P_ref = np.zeros((50, 2, 2))
    for r in range(2):
        P_ref[:, :, r] = fem.eval_nodal_gradient(hom.mesh, sol0[r], y)
    assert np.abs(P - P_ref).max() < 1e-9
    ymid = hom.mesh.cell_centers[hom.mesh.locate(y)[0], 0]
    assert G.shape == (50, 1, 1)
    assert np.abs(G[:, 0, 0] - SQRT3 / (2.0 + np.sin(2 * np.pi * ymid))).max() < 1e-9


# ---------------------------------------------------------------------------
# working-set bounds

def x_dependent_spec():
    par = {"factors": [{"offset": 2.0, "amplitude": 1.0, "axis": 1, "phase": 0.4}],
           "x_amplitude": 0.5}
    return CoefficientSpec(2, 1, a=CoefficientPart("separable-product", dict(par)),
                           b=CoefficientPart("separable-product", dict(par)),
                           alpha=0.4, beta=4.6)


@pytest.mark.parametrize("case", ["layered", "layered-slow", "x-dependent", "3d"])
def test_cell_factors_blocks_bitwise(monkeypatch, case):
    # every point is computed on its own: blocks of 7 points give the result
    # of one block over all of them, bit for bit
    if case == "3d":
        lay = CoefficientPart("layered", dict(LAYERED))
        hom = homogenize(CoefficientSpec(3, 1, a=lay, b=lay, alpha=1.0, beta=3.0), cell_N=4)
    elif case == "x-dependent":
        hom = homogenize(x_dependent_spec(), cell_N=16, slow_x=3)
    else:
        hom = homogenize(layered_spec(), cell_N=16)
    rng = np.random.default_rng(21)
    y = rng.random((50, hom.d))
    slow = rng.random((50, hom.d)) if case in ("layered-slow", "x-dependent") else None
    monkeypatch.setattr(fem, "POINT_BLOCK", 7)
    P, G = corr.cell_factors(hom, y, slow=slow)
    monkeypatch.setattr(fem, "POINT_BLOCK", 10 ** 9)
    P_one, G_one = corr.cell_factors(hom, y, slow=slow)
    assert np.array_equal(P, P_one) and np.array_equal(G, G_one)
    assert np.abs(P).max() > 0


def random_trajectory(mesh, rng, snaps=3):
    n = mesh.n_interior_edges
    t = 0.1 * np.arange(snaps)
    return wave.WaveTrajectory(mesh=mesh, dt=0.1, step_times=t, energies=np.zeros(snaps),
                               probe_values=np.zeros((snaps, 0)), snap_times=t,
                               snap_steps=np.arange(snaps), U=rng.standard_normal((snaps, n)),
                               V=rng.standard_normal((snaps, n)))


@pytest.mark.parametrize("case", ["layered", "x-dependent", "3d", "folded-n1", "folded-n2",
                                  "folded-n3"])
def test_stamp_loop_blocks_bitwise(monkeypatch, case):
    # the whole corrector (factors, tables, locate, stamps) in blocks of 7
    # points and in one block gives the same bits; 1,600 and 1,000 points leave
    # a short last block of 4 and 6
    rng = np.random.default_rng(23)
    if case == "3d":
        lay = CoefficientPart("layered", dict(LAYERED))
        hom = homogenize(CoefficientSpec(3, 1, a=lay, b=lay, alpha=1.0, beta=3.0), cell_N=4)
        sched, g1 = ScaleSchedule(1 / 2), np.sin
        fine_mesh, coarse_mesh = DomainMesh(3, 5), DomainMesh(3, 4)
    else:
        if case == "x-dependent":
            hom = homogenize(x_dependent_spec(), cell_N=16, slow_x=3)
        elif case == "folded-n2":
            hom = homogenize(separable_spec((0.3, 1.1)), cell_N=8, slow_y=2, tol=1e-10)
        elif case == "folded-n3":
            hom = homogenize(separable_spec((0.3, 1.1, 0.7)), cell_N=4, slow_y=3, tol=1e-10)
        else:
            hom = homogenize(layered_spec(), cell_N=16)
        ratios = {"folded-n2": (2,), "folded-n3": (2, 2)}.get(case, ())
        sched, g1 = ScaleSchedule(1 / 4, ratios), cavity11
        fine_mesh, coarse_mesh = DomainMesh(2, 20), DomainMesh(2, 8)
    fine = random_trajectory(fine_mesh, rng)
    coarse = random_trajectory(coarse_mesh, rng)

    def errors():
        if case.startswith("folded"):
            return corr.multiscale_corrector_error(fine, coarse, hom, sched, g1=g1).e_ms
        field = corr.reconstruct_corrector(coarse, hom, sched, g1=g1, fine_mesh=fine_mesh)
        assert len(field.wq) % 7 != 0
        errs = corr.corrector_error(fine, field)
        return np.concatenate([errs.e_vel, errs.e_curl])

    monkeypatch.setattr(fem, "POINT_BLOCK", 7)
    blocked = errors()
    monkeypatch.setattr(fem, "POINT_BLOCK", 10 ** 9)
    assert np.array_equal(blocked, errors())
    assert np.all(blocked > 0)


@pytest.fixture(scope="module")
def corrector_128():
    """Random fine (128^2) and homogenized (32^2) trajectories and layered cell fields."""
    hom = homogenize(layered_spec(), cell_N=32)
    rng = np.random.default_rng(22)
    fine = random_trajectory(DomainMesh(2, 128), rng)
    coarse = random_trajectory(DomainMesh(2, 32), rng)
    return hom, fine, coarse


# Peak bytes per fine quadrature point of the pointwise corrector (build plus
# stamp loop) on 128^2: about 185 measured, the budget leaves a 30% margin.
# Building P, G in one piece and keeping each stamp's fields alive through
# the next stamp took 349; evaluating the homogenized fields of all points
# at once took 229.
_CORRECTOR_BYTES_PER_POINT = 240
# Peak bytes per point of the stamp loop alone: about 77 measured when it
# runs first in the process (65 after the test above), the budget leaves a
# 30% margin.  Evaluating the homogenized fields of all points at once, with
# the differences and squares of the norms in new arrays, took 113.
_STAMP_LOOP_BYTES_PER_POINT = 100


def test_corrector_peak_memory_per_quadrature_point(corrector_128, peak_bytes):
    hom, fine, coarse = corrector_128

    def build_and_score():
        field = corr.reconstruct_corrector(coarse, hom, ScaleSchedule(1 / 8), g1=cavity11,
                                           fine_mesh=fine.mesh)
        return field, corr.corrector_error(fine, field)

    (field, errs), peak = peak_bytes(build_and_score)
    assert np.all(np.isfinite(errs.e_vel))
    assert peak <= _CORRECTOR_BYTES_PER_POINT * len(field.wq)


def test_stamp_loop_peak_memory_per_quadrature_point(corrector_128, peak_bytes):
    hom, fine, coarse = corrector_128
    field = corr.reconstruct_corrector(coarse, hom, ScaleSchedule(1 / 8), g1=cavity11,
                                       fine_mesh=fine.mesh)
    errs, peak = peak_bytes(lambda: corr.corrector_error(fine, field))
    assert np.all(np.isfinite(errs.e_vel))
    assert peak <= _STAMP_LOOP_BYTES_PER_POINT * len(field.wq)
