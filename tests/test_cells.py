import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from maxhom import fem
from maxhom.cells import (HomogenizationError, SampleGrid, _energy_tensor, curl_level_tensor,
                          homogenize, scalar_level_tensor, solve_curl_cell, solve_scalar_cell)
from maxhom.coeffs import CoefficientPart, CoefficientSpec
from maxhom.mesh import CellMesh

SQRT3 = np.sqrt(3.0)
LAYERED = {"scale": 1, "axis": 0, "offset": 2.0, "amplitude": 1.0}


def layered_matrix(x):
    return (2.0 + np.sin(2 * np.pi * x[:, 0]))[:, None, None] * np.eye(2)


def layered_scalar(x):
    """The 2D curl coefficient 2 + sin(2 pi x1): one component, (npts, 1, 1)."""
    return (2.0 + np.sin(2 * np.pi * x[:, 0]))[:, None, None]


def layered_spec(n=1, d=2):
    return CoefficientSpec(d, n, a=CoefficientPart("layered", dict(LAYERED)),
                           b=CoefficientPart("layered", dict(LAYERED)),
                           alpha=1.0, beta=3.0)


# ---------------------------------------------------------------------------
# flux-form oracles: Galerkin-equal to the energy form the program computes

def scalar_level_tensor_flux(mesh, cbar, W):
    """Flux-form tensor int_Y C (e^k + grad w^k) . e^j dy."""
    d, h = mesh.d, mesh.h
    ref = fem.nodal_ref(d)
    Wc = W[:, mesh.cell_nodes]
    V = np.einsum("ai,kci->kca", ref["GVEC"], Wc)
    vol = h ** d * mesh.n_cells
    T = np.empty((d, d))
    for j in range(d):
        for k in range(d):
            t = h ** d * cbar[:, j, k] + h ** (d - 1) * np.einsum(
                "ca,ca->c", cbar[:, j, :], V[k])
            T[j, k] = t.sum() / vol
    return T


def curl_level_tensor_flux(mesh, abar, Nc):
    """Flux-form curl tensor: (m, m), 1 x 1 in 2D, 3 x 3 in 3D."""
    d, h = mesh.d, mesh.h
    ref = fem.edge_ref(d)
    m = len(ref["CVEC"])
    CV = np.einsum("ai,lci->lca", ref["CVEC"], Nc[:, mesh.cell_edges])
    vol = h ** d * mesh.n_cells
    T = np.empty((m, m))
    for p in range(m):
        for q in range(m):
            t = h ** d * abar[:, p, q] + h ** (d - 2) * np.einsum(
                "ca,ca->c", abar[:, p, :], CV[q])
            T[p, q] = t.sum() / vol
    return T


# ---------------------------------------------------------------------------
# contraction oracles: the per-entry einsum forms of the energy-form tensors

def energy_tensor_oracle(mesh, coef, local, ref_vec, ref_mat, order):
    """Energy-form tensor through one three-operand einsum over all cells."""
    d, h = mesh.d, mesh.h
    V = np.einsum("ai,kci->kca", ref_vec, local)
    G = np.einsum("abij,mci,kcj->mkcab", ref_mat, local, local)
    vol = h ** d * mesh.n_cells
    T = np.empty((d, d))
    for j in range(d):
        for k in range(d):
            t = h ** d * coef[:, j, k]
            t = t + h ** (d - order) * np.einsum("ca,ca->c", coef[:, :, j], V[k])
            t = t + h ** (d - order) * np.einsum("ca,ca->c", coef[:, :, k], V[j])
            t = t + h ** (d - 2 * order) * np.einsum("cab,cab->c", coef, G[j, k])
            T[j, k] = t.sum() / vol
    return 0.5 * (T + T.T)


def curl_level_tensor_2d_oracle(mesh, abar, Nc):
    """Closed form of the 2D one-component curl tensor: mean of abar (1 + curl_y N)^2."""
    s = fem.edge_ref(2)["CVEC"][0]
    q = (Nc[0][mesh.cell_edges] @ s) / mesh.h ** 2
    w = mesh.h ** mesh.d
    return float(np.sum(w * abar[:, 0, 0] * (1.0 + q) ** 2) / (w * mesh.n_cells))


@st.composite
def contraction_cases(draw):
    """(mesh, element kind, random seed) for the level-tensor contraction."""
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["nodal", "edge"]))
    N = draw(st.integers(1, 4 if d == 3 else 8))
    return CellMesh(d, N), kind, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(contraction_cases())
def test_energy_tensor_matches_einsum_oracle(case):
    mesh, kind, seed = case
    rng = np.random.default_rng(seed)
    d, nc = mesh.d, mesh.n_cells
    scale = 10.0 ** rng.uniform(-2, 2)
    if kind == "edge" and d == 2:
        abar = scale * rng.uniform(0.1, 10.0, (nc, 1, 1))
        Nc = rng.standard_normal((1, mesh.n_edges)) * 10.0 ** rng.uniform(-3, 0)
        ref = curl_level_tensor_2d_oracle(mesh, abar, Nc)
        assert abs(curl_level_tensor(mesh, abar, Nc)[0, 0] - ref) <= 1e-13 * abs(ref)
        return
    A = rng.standard_normal((nc, d, d))
    coef = scale * (A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d))   # SPD per cell
    if kind == "nodal":
        ent, order, r = mesh.cell_nodes, 1, fem.nodal_ref(d)
        ref_vec, ref_mat = r["GVEC"], r["GRAD"]
    else:
        ent, order, r = mesh.cell_edges, 2, fem.edge_ref(3)
        ref_vec, ref_mat = r["CVEC"], r["CURL"]
    W = rng.standard_normal((d, ent.max() + 1)) * 10.0 ** rng.uniform(-3, 0)
    local = W[:, ent]
    ref = energy_tensor_oracle(mesh, coef, local, ref_vec, ref_mat, order)
    got = _energy_tensor(mesh, coef, local, ref_vec, ref_mat, order)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(got, got.T)


# ---------------------------------------------------------------------------
# the slow-variable sample grid: multilinear corner weights

@st.composite
def grid_points(draw, min_m=1):
    """(d, m, points in [0, 1]^d) for a (m,)*d sample grid."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(min_m, 6))
    npts = draw(st.integers(1, 8))
    pts = draw(hnp.arrays(np.float64, (npts, d), elements=st.floats(0.0, 1.0)))
    return d, m, pts


def dense_weights(pts, m, periodic):
    """Corner weights at pts scattered into an (npts, m^d) matrix."""
    out = np.zeros((len(pts), m ** pts.shape[1]))
    for flat, w in SampleGrid(pts.shape[1], m, periodic).corners(pts):
        np.add.at(out, (np.arange(len(pts)), flat), w)
    return out


@settings(max_examples=60, deadline=None)
@given(grid_points(), st.booleans())
def test_corner_weights_nonnegative_partition_of_unity(case, periodic):
    d, m, pts = case
    corners = SampleGrid(d, m, periodic).corners(pts)
    assert len(corners) == (1 if m == 1 else 2 ** d)
    for flat, w in corners:
        assert w.min() >= 0.0
        assert 0 <= flat.min() and flat.max() < m ** d
    assert np.abs(sum(w for _, w in corners) - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(grid_points(min_m=2), hnp.arrays(np.float64, 4, elements=st.floats(-10.0, 10.0)))
def test_clamped_corner_weights_reproduce_affine_functions(case, coef):
    d, m, pts = case
    c0, c = coef[0], coef[1:d + 1]
    z = pts * (m - 1)
    got = np.zeros(len(z))
    for flat, w in SampleGrid(d, m, periodic=False).corners(pts):
        j = np.stack(np.unravel_index(flat, (m,) * d), axis=1)
        got += w * (c0 + j @ c)
    assert np.abs(got - (c0 + z @ c)).max() <= 1e-12 * (1.0 + 10.0 * (d + 1) * m)


@settings(max_examples=60, deadline=None)
@given(grid_points(), hnp.arrays(np.int64, 3, elements=st.integers(-4, 4)))
def test_periodic_corner_weights_invariant_under_integer_shift(case, shift):
    d, m, pts = case
    shifted = pts + shift[:d]
    assert np.abs(dense_weights(pts, m, True)
                  - dense_weights(shifted, m, True)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(grid_points(), st.booleans(), st.integers(0, 2**32 - 1))
def test_interpolation_at_the_samples_returns_them(case, periodic, seed):
    d, m, _ = case
    grid = SampleGrid(d, m, periodic)
    values = np.random.default_rng(seed).uniform(-10.0, 10.0, (grid.size, 2, 2))
    assert grid.points.shape == (grid.size, d)
    assert np.abs(grid.interpolate(values, grid.points) - values).max() <= 1e-12


def test_x_grid_refuses_a_point_outside_the_unit_box():
    grid = SampleGrid(2, 3, periodic=False)
    values = np.arange(9.0)
    assert grid.interpolate(values, [[1.0 + 1e-13, 0.0]])[0] == values[6]
    with pytest.raises(HomogenizationError, match="outside the unit box"):
        grid.interpolate(values, [[0.5, 0.5], [1.8, 1.8]])
    with pytest.raises(HomogenizationError, match="outside the unit box"):
        grid.corners([[-0.01, 0.5]])
    # one sample covers any point; a periodic grid wraps
    assert SampleGrid(2, 1, periodic=False).interpolate([7.0], [[1.8, -3.0]])[0] == 7.0
    assert np.array_equal(SampleGrid(2, 3, periodic=True).interpolate(values, [[1.0, 2.0]]),
                          values[[0]])


# ---------------------------------------------------------------------------
# scalar cell problems

def test_constant_coefficient_gives_zero_correctors():
    mesh = CellMesh(2, 8)
    W, cbar = solve_scalar_cell(lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)), mesh)
    assert np.abs(W).max() == 0.0
    T = scalar_level_tensor(mesh, cbar, W)
    assert np.allclose(T, np.eye(2), atol=1e-14)


def test_layered_scalar_cell_closed_form_gradient():
    # dw1/dy1 per column equals c/b(y) - 1 with c the harmonic mean; the
    # midpoint-sampled coefficient makes this exact at column midpoints
    mesh = CellMesh(2, 32)
    W, cbar = solve_scalar_cell(layered_matrix, mesh)
    centers = mesh.cell_centers
    grads = fem.eval_nodal_gradient(mesh, W[0], centers)
    bmid = 2.0 + np.sin(2 * np.pi * centers[:, 0])
    c = 1.0 / np.mean(1.0 / bmid[np.isclose(centers[:, 1], centers[0, 1])])
    assert np.abs(grads[:, 0] - (c / bmid - 1.0)).max() < 1e-9
    assert np.abs(grads[:, 1]).max() < 1e-9          # depends on y1 only
    assert np.abs(W[1]).max() < 1e-12                # e2 direction needs no corrector
    assert abs(np.mean(W[0])) < 1e-12                # quotient-space representative


def test_along_layer_rhs_gives_no_nullspace_warning():
    # layered along y2, the k = 0 right-hand side cancels to rounding noise
    # (norm ~1e-16): that is no nullspace component and must not be reported
    mesh = CellMesh(2, 64)
    along = lambda y: (2.0 + np.sin(2 * np.pi * y[:, 1]))[:, None, None] * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W, _ = solve_scalar_cell(along, mesh)
    assert np.abs(W[0]).max() < 1e-12


def test_layered_level_tensor_harmonic_arithmetic():
    mesh = CellMesh(2, 64)
    W, cbar = solve_scalar_cell(layered_matrix, mesh)
    T = scalar_level_tensor(mesh, cbar, W)
    assert abs(T[0, 0] - SQRT3) < 1e-12
    assert abs(T[1, 1] - 2.0) < 1e-12
    assert abs(T[0, 1]) < 1e-12
    # flux form is Galerkin-identical
    assert np.abs(T - scalar_level_tensor_flux(mesh, cbar, W)).max() < 1e-10


def test_reflection_symmetry_of_level_tensor():
    mesh = CellMesh(2, 32)
    reflected = lambda x: layered_matrix(1.0 - x)
    W1, c1 = solve_scalar_cell(layered_matrix, mesh)
    W2, c2 = solve_scalar_cell(reflected, mesh)
    T1 = scalar_level_tensor(mesh, c1, W1)
    T2 = scalar_level_tensor(mesh, c2, W2)
    assert np.abs(T1 - T2).max() < 1e-12


def test_smooth_coefficient_self_convergence():
    # genuinely 2D profile: tensor self-converges at ~O(h^2), fields at ~O(h)
    def b(x):
        v = 2.0 + 0.8 * np.sin(2 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1])
        return v[:, None, None] * np.eye(2)

    tensors = {}
    grads = {}
    probe = np.array([[0.31, 0.17], [0.62, 0.84], [0.11, 0.55]])
    for N in (16, 32, 64):
        mesh = CellMesh(2, N)
        W, cbar = solve_scalar_cell(b, mesh)
        tensors[N] = scalar_level_tensor(mesh, cbar, W)
        grads[N] = fem.eval_nodal_gradient(mesh, W[0], probe)
    e1 = np.abs(tensors[16] - tensors[64]).max()
    e2 = np.abs(tensors[32] - tensors[64]).max()
    rate_tensor = np.log2(e1 / e2)
    assert rate_tensor > 1.5  # ~O(h^2)
    g1 = np.abs(grads[16] - grads[64]).max()
    g2 = np.abs(grads[32] - grads[64]).max()
    assert np.log2(g1 / g2) > 0.7  # energy-type quantity, ~O(h)


# ---------------------------------------------------------------------------
# curl cell problems

def test_constant_curl_cell_collapses():
    mesh = CellMesh(2, 8)
    Nc, abar = solve_curl_cell(lambda x: 1.5 * np.ones((len(x), 1, 1)), mesh)
    s = fem.edge_ref(2)["CVEC"][0]
    q = (Nc[0][mesh.cell_edges] @ s) / mesh.h ** 2
    assert np.abs(q).max() < 1e-12
    assert abs(curl_level_tensor(mesh, abar, Nc)[0, 0] - 1.5) < 1e-14


def test_2d_constant_flux_identity():
    # a (1 + curl_y N) must be a single constant = the harmonic mean
    mesh = CellMesh(2, 64)
    Nc, abar = solve_curl_cell(layered_scalar, mesh)
    s = fem.edge_ref(2)["CVEC"][0]
    q = (Nc[0][mesh.cell_edges] @ s) / mesh.h ** 2
    flux = abar[:, 0, 0] * (1.0 + q)
    assert flux.std() < 1e-10
    assert abs(flux.mean() - SQRT3) < 1e-12
    # curl_y N matches sqrt3 / a(y1) - 1 at the midpoint-sampled coefficient
    centers = mesh.cell_centers
    amid = 2.0 + np.sin(2 * np.pi * centers[:, 0])
    assert np.abs(q - (SQRT3 / amid - 1.0)).max() < 1e-10


def test_2d_harmonic_mean_and_homogeneity():
    mesh = CellMesh(2, 128)
    Nc, abar = solve_curl_cell(layered_scalar, mesh)
    a0 = curl_level_tensor(mesh, abar, Nc)[0, 0]
    assert abs(a0 - SQRT3) < 1e-12
    Nc2, abar2 = solve_curl_cell(lambda x: 2.0 * layered_scalar(x), mesh)
    assert abs(curl_level_tensor(mesh, abar2, Nc2)[0, 0] - 2.0 * a0) < 1e-11
    assert abs(curl_level_tensor_flux(mesh, abar, Nc)[0, 0] - a0) < 1e-10


def test_3d_layered_closed_forms():
    # layered media in H(curl): arithmetic mean along the layering axis,
    # harmonic mean in the transverse components (self-convergent reference
    # values, here exact closed forms of the 2+sin profile)
    def a3(x):
        return (2.0 + np.sin(2 * np.pi * x[:, 0]))[:, None, None] * np.eye(3)

    mesh = CellMesh(3, 12)
    Nc, abar = solve_curl_cell(a3, mesh, tol=1e-11)
    a0 = curl_level_tensor(mesh, abar, Nc)
    assert np.abs(a0 - np.diag([2.0, SQRT3, SQRT3])).max() < 1e-5
    W, cbar = solve_scalar_cell(a3, mesh, tol=1e-11)
    b0 = scalar_level_tensor(mesh, cbar, W)
    assert np.abs(b0 - np.diag([SQRT3, 2.0, 2.0])).max() < 1e-5


# ---------------------------------------------------------------------------
# the full recursion

def test_homogenize_constant_is_exact():
    spec = CoefficientSpec(
        2, 1, a=CoefficientPart("constant", {"value": 1.5}),
        b=CoefficientPart("constant", {"value": [[2.0, 0.3], [0.3, 1.0]]}),
        alpha=0.5, beta=3.0)
    res = homogenize(spec, cell_N=8)
    assert np.abs(res.b0[0] - [[2.0, 0.3], [0.3, 1.0]]).max() < 1e-12
    assert abs(res.a0[0, 0, 0] - 1.5) < 1e-12


@pytest.mark.parametrize("x_dependent,slow_x,slow_y", [
    pytest.param(False, 3, None, id="False-3"), pytest.param(False, 2, None, id="False-2"),
    pytest.param(True, 1, None, id="True-1"),
    # a slow-y resolution below 1 once failed inside the recursion of an n = 2
    # spec: a ValueError from a reshape for 0, an IndexError for -1
    pytest.param(False, None, [0], id="slow_y-0"),
    pytest.param(False, None, [-1], id="slow_y-minus1"),
])
def test_homogenize_refuses_slow_x_that_does_not_fit_the_spec(monkeypatch, x_dependent, slow_x,
                                                              slow_y):
    # an x-independent spec once ran one cell pair per x sample (18 for slow_x = 3
    # against 2), and an x-dependent one needs two samples per axis at least
    factors = [{"offset": 2.0, "amplitude": 1.0, "axis": 0}] * (1 if slow_y is None else 2)
    par = {"factors": factors, "x_amplitude": 0.5 if x_dependent else 0.0}
    spec = CoefficientSpec(2, len(factors), a=CoefficientPart("separable-product", dict(par)),
                           b=CoefficientPart("separable-product", dict(par)),
                           alpha=0.4, beta=4.6 ** len(factors))
    solves = []
    monkeypatch.setattr(fem, "solve_spd", lambda *a, **k: solves.append(a))
    match = f"slow_x = {slow_x}" if slow_y is None else re.escape(f"slow_y = {slow_y}")
    with pytest.raises(HomogenizationError, match=match):
        homogenize(spec, cell_N=8, slow_x=slow_x, slow_y=slow_y)
    assert solves == []


def test_homogenize_x_dependent_sampling():
    # a(x, y) = (1 + 0.5 sin(pi x1) sin(pi x2)) (2 + sin 2 pi y1):
    # pointwise in x this is a layered problem, so a0(x) = sqrt3 * x-factor
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0}]
    par = {"factors": fac, "x_amplitude": 0.5}
    spec = CoefficientSpec(2, 1, a=CoefficientPart("separable-product", dict(par)),
                           b=CoefficientPart("separable-product", dict(par)),
                           alpha=0.4, beta=4.6)
    res = homogenize(spec, cell_N=32, slow_x=4)
    xs = res.x_grid.points
    factor = 1.0 + 0.5 * np.sin(np.pi * xs[:, 0]) * np.sin(np.pi * xs[:, 1])
    assert np.abs(res.a0[:, 0, 0] - SQRT3 * factor).max() < 1e-10
    assert np.abs(res.b0[:, 0, 0] - SQRT3 * factor).max() < 1e-10
    assert np.abs(res.b0[:, 1, 1] - 2.0 * factor).max() < 1e-10
    # interpolation between samples stays within the sampled range
    probe = res.coefficient("a")(np.array([[0.4, 0.6], [0.21, 0.77]]))
    assert probe.min() >= res.a0.min() - 1e-12
    assert probe.max() <= res.a0.max() + 1e-12


def test_3d_two_level_curl_rhs_at_the_rounding_floor_gives_zero_corrector():
    # the y_1 samples 0 and 1/2 of the level-1 factor 2 + sin(2 pi y_11) are
    # both 2, so a^1 is constant up to the rounding of its interpolation and
    # the level-1 curl right-hand sides sit at their rounding floor (norms
    # ~1e-15 against ~28 of the summed |per-cell terms|): once a CG breakdown
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0}] * 2
    part = lambda: CoefficientPart("separable-product", {"factors": [dict(f) for f in fac]})
    spec = CoefficientSpec(3, 2, a=part(), b=part(), alpha=1.0, beta=9.0)
    res = homogenize(spec, cell_N=16, slow_y=2)
    assert np.abs(res.a0[0] - np.diag([4.0, 2 * SQRT3, 2 * SQRT3])).max() < 1e-8
    assert np.abs(res.b0[0] - np.diag([2 * SQRT3, 4.0, 4.0])).max() < 1e-8
    assert all(np.abs(res.cell_solution("a", 1, 0)[l]).max() == 0.0 for l in range(3))


def test_two_level_degenerate_scale_matches_single_level():
    inner = {"scale": 2, "axis": 0, "offset": 2.0, "amplitude": 1.0}
    spec2 = CoefficientSpec(2, 2, a=CoefficientPart("layered", dict(inner)),
                            b=CoefficientPart("layered", dict(inner)),
                            alpha=1.0, beta=3.0)
    spec1 = layered_spec()
    r2 = homogenize(spec2, cell_N=32, slow_y=4)
    r1 = homogenize(spec1, cell_N=32)
    assert np.abs(r2.b0[0] - r1.b0[0]).max() < 1e-10
    assert abs(r2.a0[0, 0, 0] - r1.a0[0, 0, 0]) < 1e-10


def test_two_level_separable_against_brute_force():
    fac = [{"offset": 2.0, "amplitude": 1.0, "axis": 0},
           {"offset": 2.0, "amplitude": 1.0, "axis": 0}]
    spec = CoefficientSpec(2, 2, a=CoefficientPart("separable-product", {"factors": fac}),
                           b=CoefficientPart("separable-product", {"factors": fac}),
                           alpha=1.0, beta=9.0)
    res = homogenize(spec, cell_N=48, slow_y=12)
    # level-2 tensor samples carry the closed form (2 + sin 2 pi y11) diag(sqrt3, 2)
    b1 = res.tensors[("b", 1)][0]  # (ny1, 2, 2)
    y1 = np.arange(12 * 12).reshape(-1)
    pts = np.stack(np.unravel_index(y1, (12, 12)), axis=1) / 12.0
    f = 2.0 + np.sin(2 * np.pi * pts[:, 0])
    assert np.abs(b1[:, 0, 0] - SQRT3 * f).max() < 1e-8
    assert np.abs(b1[:, 1, 1] - 2.0 * f).max() < 1e-8
    a1 = res.tensors[("a", 1)][0, :, 0, 0]
    assert np.abs(a1 - SQRT3 * f).max() < 1e-8

    # brute-force reference: collapse the two scales onto one lattice with an
    # integer ratio r; the fine-grid single-scale solve is the oracle
    r = 8
    mesh = CellMesh(2, 256)
    coll_s = lambda y: layered_scalar(y) * (2.0 + np.sin(2 * np.pi * r * y[:, 0]))[:, None, None]
    coll_m = lambda y: coll_s(y) * np.eye(2)
    Wb, cb = solve_scalar_cell(coll_m, mesh)
    b0_bf = scalar_level_tensor(mesh, cb, Wb)
    Nc, ab = solve_curl_cell(coll_s, mesh)
    a0_bf = curl_level_tensor(mesh, ab, Nc)
    # the residual gap is the multilinear interpolation error of the slow grid
    # (~(1/12)^2 relative) plus the r-ratio decorrelation (~1e-3)
    assert np.abs(res.b0[0] - b0_bf).max() < 5e-2
    assert abs(res.a0[0, 0, 0] - a0_bf[0, 0]) < 5e-2
    assert np.abs(b0_bf - np.diag([3.0, 4.0])).max() < 2e-3


def test_tensor_bounds_symmetry_and_mean_zero():
    spec = layered_spec()
    res = homogenize(spec, cell_N=32)
    rng = np.random.default_rng(7)
    for (which, level), vals in res.tensors.items():
        mats = vals.reshape((-1,) + vals.shape[-2:])
        for T in mats:
            assert np.abs(T - T.T).max() <= 1e-12
            for _ in range(100):
                xi = rng.standard_normal(T.shape[0])
                q = xi @ T @ xi
                n2 = xi @ xi
                assert spec.alpha * n2 - 1e-9 <= q <= spec.beta * n2 + 1e-9
    for key, W in res.cells.items():
        if key[0] == "b":
            assert np.abs(W.mean(axis=1)).max() <= 1e-12


def test_bound_violation_reported_with_location():
    spec = CoefficientSpec(2, 1, a=CoefficientPart("layered", dict(LAYERED)),
                           b=CoefficientPart("layered", dict(LAYERED)),
                           alpha=2.5, beta=3.0)  # harmonic mean sqrt3 < 2.5
    with pytest.raises(HomogenizationError, match="sample"):
        homogenize(spec, cell_N=16)


def test_export_text_full_precision(tmp_path):
    res = homogenize(layered_spec(), cell_N=16)
    path = os.path.join(tmp_path, "tensors.txt")
    res.export_text(path)
    lines = [l for l in open(path) if l.startswith("b level=0")]
    vals = [float(v) for v in lines[0].split()[3:]]
    assert vals[0] == float(res.b0[0][0, 0])  # round-trips through repr


def test_result_mesh_is_the_solve_mesh():
    res = homogenize(layered_spec(), cell_N=8)
    assert res.mesh is res.mesh
    assert res.mesh == CellMesh(2, 8)


@st.composite
def layered_parts(draw):
    offset = draw(st.floats(0.5, 4.0))
    amplitude = offset * draw(st.floats(0.0, 0.9))
    return {"scale": 1, "axis": draw(st.integers(0, 1)), "offset": offset,
            "amplitude": amplitude, "phase": draw(st.floats(0.0, 2 * np.pi))}


@settings(max_examples=40, deadline=None)
@given(layered_parts(), layered_parts())
def test_homogenized_tensors_within_mean_bounds(a_par, b_par):
    # Voigt-Reuss: the eigenvalues of b^0 (and the 2D one-component a^0) lie between
    # the harmonic and arithmetic means of the reduced cell coefficient cbar
    alpha = min(p["offset"] - p["amplitude"] for p in (a_par, b_par))
    beta = max(p["offset"] + p["amplitude"] for p in (a_par, b_par))
    spec = CoefficientSpec(2, 1, a=CoefficientPart("layered", a_par),
                           b=CoefficientPart("layered", b_par), alpha=alpha, beta=beta)
    res = homogenize(spec, cell_N=16)
    b0, a0 = res.b0[0], res.a0[0, 0, 0]
    assert np.array_equal(b0, b0.T)
    cbar_b = fem.cell_coefficient(res.mesh, lambda y: spec.eval_b(0 * y, [y]), 1)[:, 0, 0]
    cbar_a = fem.cell_coefficient(res.mesh, lambda y: spec.eval_a(0 * y, [y]), 1)[:, 0, 0]
    for eigs, cbar in ((np.linalg.eigvalsh(b0), cbar_b), (np.array([a0]), cbar_a)):
        slack = 1e-9 * cbar.mean()
        assert eigs.min() >= 1.0 / np.mean(1.0 / cbar) - slack
        assert eigs.max() <= cbar.mean() + slack
        assert alpha - slack <= eigs.min() and eigs.max() <= beta + slack
