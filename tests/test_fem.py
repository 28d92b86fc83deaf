import numpy as np
import pytest
import scipy.sparse as sp

from maxhom import fem
from maxhom.mesh import CellMesh, DomainMesh


def ones(x):
    return np.ones(len(x))


def eye_fn(d):
    return lambda x: np.broadcast_to(np.eye(d), (len(x), d, d)).copy()


# ---------------------------------------------------------------------------
# reference tensors against closed forms

def test_edge_reference_closed_forms_2d():
    ref = fem.edge_ref(2)
    M = ref["MASS"]
    assert np.allclose(M[0, 0][:2, :2], [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-13)
    assert np.allclose(M[1, 1][2:, 2:], [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-13)
    assert np.abs(M[0, 0][2:, 2:]).max() == 0.0
    assert np.allclose(M[0, 1][:2, 2:], 0.25, atol=1e-13)
    assert np.array_equal(ref["CVEC"][0], [1, -1, -1, 1])


def test_nodal_reference_closed_forms_2d():
    nr = fem.nodal_ref(2)
    expect = np.array([[1 / 3, 1 / 6, -1 / 3, -1 / 6], [1 / 6, 1 / 3, -1 / 6, -1 / 3],
                       [-1 / 3, -1 / 6, 1 / 3, 1 / 6], [-1 / 6, -1 / 3, 1 / 6, 1 / 3]])
    assert np.allclose(nr["GRAD"][0, 0], expect, atol=1e-13)
    assert np.allclose(nr["GVEC"][0], [-0.5, -0.5, 0.5, 0.5], atol=1e-13)
    # constant-coefficient Laplacian element: classic bilinear values
    K = nr["GRAD"][0, 0] + nr["GRAD"][1, 1]
    assert np.allclose(np.diag(K), 2 / 3, atol=1e-13)
    assert K[0, 3] == pytest.approx(-1 / 3, abs=1e-13)


def test_3d_edge_basis_partitions_constants():
    pts = np.random.default_rng(0).random((5, 3))
    eb = fem.edge_basis(3, pts)
    for f in range(3):
        s = eb[4 * f:4 * (f + 1)].sum(axis=0)
        expect = np.zeros((3, 5))
        expect[f] = 1.0
        assert np.allclose(s, expect, atol=1e-13)
    cb = fem.edge_curl_basis(3, pts)
    assert np.abs(cb[:4].sum(axis=0)).max() < 1e-13


def test_coefficient_reduction_gauss_exactness():
    # a p-point rule averages polynomials of degree <= 2p-1 exactly per cell
    mesh = DomainMesh(2, 3)
    h = mesh.h
    for rule, deg in ((1, 1), (2, 3), (3, 5)):
        fn = lambda x: x[:, 0] ** deg
        avg = fem.cell_coefficient(mesh, fn, rule)
        lo = mesh.cell_centers[:, 0] - h / 2
        exact = ((lo + h) ** (deg + 1) - lo ** (deg + 1)) / ((deg + 1) * h)
        assert np.allclose(avg, exact, atol=1e-13)


def wavy_scalar(x):
    return 2.0 + np.sin(7.0 * x[:, 0]) * np.cos(5.0 * x[:, -1])


def wavy_tensor(x):
    s, c = np.sin(3.0 * x[:, 0]), np.cos(4.0 * x[:, -1])
    out = (2.0 + s)[:, None, None] * np.eye(x.shape[1])
    out[:, 0, 1] = out[:, 1, 0] = 0.5 * c
    return out


@pytest.mark.parametrize("coef_fn", [wavy_scalar, wavy_tensor], ids=["scalar", "tensor"])
@pytest.mark.parametrize("mesh", [DomainMesh(2, 9), DomainMesh(3, 4)], ids=["2d", "3d"])
def test_cell_coefficient_blocks_bitwise(monkeypatch, mesh, coef_fn):
    # blocks of 7 cells (81 and 64 cells: a short last block of 4 and 1) give
    # the bits of one block over every cell
    nq = 3 ** mesh.d
    monkeypatch.setattr(fem, "POINT_BLOCK", 7 * nq)
    blocked = fem.cell_coefficient(mesh, coef_fn, 3)
    monkeypatch.setattr(fem, "POINT_BLOCK", 10 ** 9)
    whole = fem.cell_coefficient(mesh, coef_fn, 3)
    assert blocked.shape == whole.shape == (mesh.n_cells,) + coef_fn(mesh.cell_centers).shape[1:]
    assert np.array_equal(blocked, whole)


def test_cell_coefficient_forms_only_the_points_of_a_block(peak_bytes):
    # each block maps its own cells' Gauss points: no (ncells, nq, d) array of
    # every point (the whole-mesh layout took 224 and 191 B a cell at 256^2)
    mesh = DomainMesh(2, 256)
    mesh.cell_centers

    def scalar(x):
        return 2.0 + np.sin(2 * np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1])

    def tensor(x):
        return scalar(x)[:, None, None] * np.array([[1.0, 0.1], [0.1, 2.0]])

    for coef_fn in (scalar, tensor):
        _, peak = peak_bytes(lambda: fem.cell_coefficient(mesh, coef_fn, 3))
        assert peak < 120 * mesh.n_cells, peak / mesh.n_cells


def whole_mesh_load(mesh, f_fn, rule):
    """The load vector reduced over every cell's Gauss points in one pass."""
    d = mesh.d
    pts, wts = fem.gauss_rule(d, rule)
    xq, _ = fem.quad_points(mesh, rule)
    fv = f_fn(xq.reshape(-1, d)).reshape(xq.shape)
    per_cell = mesh.h ** (d - 1) * np.einsum("cqa,iaq,q->ci", fv, fem.edge_basis(d, pts), wts)
    full = np.zeros(mesh.n_edges)
    np.add.at(full, mesh.cell_edges.ravel(), per_cell.ravel())
    return full[mesh.interior_edges]


def wavy_load(x):
    return np.stack([np.sin(np.pi * x[:, j]) * np.cos(3.0 * x[:, 0] + j)
                     for j in range(x.shape[1])], axis=1)


@pytest.mark.parametrize("rule", [2, 3])
@pytest.mark.parametrize("mesh", [DomainMesh(2, 9), DomainMesh(3, 4)], ids=["2d", "3d"])
def test_assemble_load_blocks_bitwise(monkeypatch, mesh, rule):
    # blocks of 7 cells (12 and 10 blocks, a short last one) add the same
    # bits as one pass over every cell
    monkeypatch.setattr(fem, "POINT_BLOCK", 7 * rule ** mesh.d)
    assert len(fem.point_blocks(mesh.n_cells, rule ** mesh.d)) > 1
    blocked = fem.assemble_load(mesh, wavy_load, rule=rule)
    assert blocked.shape == (mesh.n_interior_edges,)
    assert np.array_equal(blocked, whole_mesh_load(mesh, wavy_load, rule))


def test_assemble_load_forms_only_the_points_of_a_block(peak_bytes):
    # the whole-mesh layout took about 430 B a cell at 256^2 for a load
    # vector of 16 B a cell
    mesh = DomainMesh(2, 256)
    mesh.cell_centers, mesh.cell_edges, mesh.interior_edges
    _, peak = peak_bytes(lambda: fem.assemble_load(mesh, wavy_load, rule=3))
    assert peak < 80 * mesh.n_cells, peak / mesh.n_cells


# ---------------------------------------------------------------------------
# assembly oracles

def hand_assemble_scalar(mesh, coef=1.0):
    """Independent loop-and-scatter assembly of the periodic scalar stiffness."""
    nr = fem.nodal_ref(mesh.d)
    eloc = coef * (nr["GRAD"][0, 0] + nr["GRAD"][1, 1]) * mesh.h ** (mesh.d - 2)
    A = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for c in range(mesh.n_cells):
        dofs = mesh.cell_nodes[c]
        for i in range(len(dofs)):
            for j in range(len(dofs)):
                A[dofs[i], dofs[j]] += eloc[i, j]
    return A


def test_scalar_stiffness_matches_hand_assembly():
    mesh = CellMesh(2, 2)
    system, _ = fem.assemble_scalar_stiffness(mesh, eye_fn(2))
    assert np.allclose(system.A.toarray(), hand_assemble_scalar(mesh), atol=1e-13)


def test_scalar_stiffness_nullspace_and_linearity():
    mesh = CellMesh(2, 4)
    sys1, _ = fem.assemble_scalar_stiffness(mesh, eye_fn(2))
    assert np.abs(sys1.A @ np.ones(mesh.n_nodes)).max() < 1e-13
    sys2, _ = fem.assemble_scalar_stiffness(
        mesh, lambda x: 2.0 * np.broadcast_to(np.eye(2), (len(x), 2, 2)))
    assert abs(sys2.A - 2 * sys1.A).max() < 1e-13
    assert (sys1.A != sys1.A.T).nnz == 0  # exact symmetry


def test_curl_stiffness_single_cell_hand_computation():
    # one periodic cell: both x-edges and both y-edges identify, circulations
    # cancel, so the assembled 2x2 curl-curl matrix is exactly zero
    mesh = CellMesh(2, 1)
    system, _ = fem.assemble_curl_stiffness(mesh, ones)
    K = np.zeros((2, 2))
    s = fem.edge_ref(2)["CVEC"][0]
    dofs = mesh.cell_edges[0]
    for i in range(4):
        for j in range(4):
            K[dofs[i], dofs[j]] += s[i] * s[j] / mesh.h ** 2
    assert np.array_equal(system.A.toarray(), K)
    assert np.abs(K).max() == 0.0


def test_curl_stiffness_domain_empty_and_scaling():
    sys1, _ = fem.assemble_curl_stiffness(DomainMesh(2, 1), ones)
    assert sys1.n == 0
    mesh = DomainMesh(2, 3)
    a1, _ = fem.assemble_curl_stiffness(mesh, ones)
    a2, _ = fem.assemble_curl_stiffness(mesh, lambda x: 2 * np.ones(len(x)))
    assert abs(a2.A - 2 * a1.A).max() < 1e-13


def test_vector_mass_spd_small():
    for N in (2, 3, 4):
        mesh = DomainMesh(2, N)
        M, _ = fem.assemble_vector_mass(mesh, eye_fn(2))
        eigs = np.linalg.eigvalsh(M.A.toarray())
        assert eigs.min() > 0
    mesh3 = DomainMesh(3, 2)
    M3, _ = fem.assemble_vector_mass(mesh3, eye_fn(3))
    assert np.linalg.eigvalsh(M3.A.toarray()).min() > 0


def test_mass_quadratic_form_positive():
    mesh = DomainMesh(2, 4)
    M, _ = fem.assemble_vector_mass(mesh, eye_fn(2))
    rng = np.random.default_rng(1)
    for _ in range(5):
        c = rng.standard_normal(M.n)
        assert c @ (M.A @ c) >= 0
    M2, _ = fem.assemble_vector_mass(
        mesh, lambda x: 2.0 * np.broadcast_to(np.eye(2), (len(x), 2, 2)))
    assert abs(M2.A - 2 * M.A).max() < 1e-13


# ---------------------------------------------------------------------------
# solver contract

def test_solve_identity():
    syst = fem.SparseSymSystem(4, sp.identity(4, format="csr"))
    e1 = np.array([1.0, 0, 0, 0])
    assert np.allclose(fem.solve_spd(syst, e1, 1e-12), e1, atol=1e-12)


def test_solve_periodic_laplacian_zero_rhs():
    mesh = CellMesh(2, 4)
    system, _ = fem.assemble_scalar_stiffness(mesh, eye_fn(2))
    x = fem.solve_spd(system, np.zeros(system.n), 1e-10)
    assert np.array_equal(x, np.zeros(system.n))


def test_solve_matches_dense_oracle():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50 * np.eye(50)
    syst = fem.SparseSymSystem(50, sp.csr_matrix(A))
    b = rng.standard_normal(50)
    x = fem.solve_spd(syst, b, 1e-12)
    assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-9
    # verified residual contract, recomputed independently
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b) * (1 + 1e-9)


def test_solve_nonconvergence_reports(monkeypatch):
    monkeypatch.setattr(fem, "CG_CAP_FACTOR", 0)
    rng = np.random.default_rng(3)
    B = rng.standard_normal((60, 60))
    A = sp.csr_matrix(B @ B.T + 1e-8 * np.eye(60))
    syst = fem.SparseSymSystem(60, A)
    with pytest.raises(fem.SolveError, match="residual"):
        fem.solve_spd(syst, rng.standard_normal(60), 1e-14)


class _CountingMatrix:
    """A matrix that counts its products with vectors."""

    def __init__(self, A):
        self.A, self.matvecs = A, 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.A @ x

    def diagonal(self):
        return self.A.diagonal()


def test_solve_stagnation_stops_early():
    # condition number 1e12 at rel_tol 1e-12: the residual norm never falls
    # below ||b||, and only the cap of 20 n + 10 = 8,010 iterations ended it
    n = 400
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = _CountingMatrix(sp.csr_matrix((Q * np.logspace(0, 12, n)) @ Q.T))
    with pytest.raises(fem.SolveError, match="stagnated"):
        fem.solve_spd(fem.SparseSymSystem(n, A), rng.standard_normal(n), 1e-12)
    assert A.matvecs <= fem.CG_STAGNATION_WINDOW + 1 < fem.CG_CAP_FACTOR * n + 10


def test_solve_projects_nullspace_component():
    mesh = CellMesh(2, 3)
    system, _ = fem.assemble_scalar_stiffness(mesh, eye_fn(2))
    rhs = np.full(system.n, 3.0)  # pure nullspace component
    with pytest.warns(UserWarning):
        x = fem.solve_spd(system, rhs, 1e-10)
    assert np.abs(x).max() < 1e-12


def test_patch_test_constant_coefficient():
    # with constant b the cell-problem right-hand side vanishes identically
    mesh = CellMesh(2, 5)
    _, cbar = fem.assemble_scalar_stiffness(mesh, eye_fn(2))
    rhs = fem.scalar_cell_rhs(mesh, cbar)
    assert np.abs(rhs).max() < 1e-13


# ---------------------------------------------------------------------------
# interpolation and evaluation

def test_edge_interpolation_constant_field_exact():
    mesh = DomainMesh(2, 3)
    vals = fem.edge_interpolate(mesh, lambda x: np.tile([2.0, -1.0], (len(x), 1)))
    mids, fam = mesh.edge_midpoints_and_family
    expect = np.where(fam == 0, 2.0, -1.0) * mesh.h
    assert np.allclose(vals, expect, atol=1e-14)
    # constant fields are reproduced exactly by the edge element
    pts = np.random.default_rng(4).random((20, 2))
    out = fem.eval_edge_field(mesh, vals, pts)
    assert np.allclose(out, [2.0, -1.0], atol=1e-12)
    assert np.abs(fem.eval_edge_curl(mesh, vals, pts)).max() < 1e-12


def test_eval_edge_curl_stokes():
    # circulation / h^2 for a single-cell indicator state
    mesh = DomainMesh(2, 2)
    vals = np.zeros(mesh.n_edges)
    vals[mesh.cell_edges[0]] = [1.0, -1.0, -1.0, 1.0]  # b, t, l, r circulations
    pts = np.array([[0.2, 0.2]])
    curl = fem.eval_edge_curl(mesh, vals, pts)
    # bottom + right - top - left circulations = 4, cell area h^2
    assert curl[0] == pytest.approx(4.0 / mesh.h ** 2)


@pytest.mark.parametrize("mesh", [CellMesh(2, 5), DomainMesh(2, 4, 1.5), DomainMesh(3, 3)],
                         ids=["cell-2d", "domain-2d", "domain-3d"])
def test_stacked_eval_equals_single_field_bitwise(mesh):
    # a (k, n) stack of fields gives each output a trailing axis of length k
    rng = np.random.default_rng(31)
    extent = getattr(mesh, "extent", 1.0)
    pts = extent * rng.random((57, mesh.d))
    cells, local = mesh.locate(pts)
    for evaluate, n in ((fem.eval_edge_field, mesh.n_edges), (fem.eval_edge_curl, mesh.n_edges),
                        (fem.eval_nodal_field, mesh.n_nodes),
                        (fem.eval_nodal_gradient, mesh.n_nodes)):
        stack = rng.standard_normal((3, n))
        out = evaluate(mesh, stack, None, cells, local)
        assert out.shape[-1] == 3
        for r in range(3):
            single = evaluate(mesh, stack[r], None, cells, local)
            assert out[..., r].shape == single.shape
            assert np.array_equal(out[..., r], single)
        assert np.array_equal(evaluate(mesh, stack, pts), out)


def test_nodal_gradient_eval():
    mesh = CellMesh(2, 4)
    # nodal samples of a periodic-free linear function restricted per cell are
    # reproduced with exact gradients inside each cell
    nodes = np.indices((4, 4)).reshape(2, -1).T * mesh.h
    vals = 2.0 * nodes[:, 0] + 3.0 * nodes[:, 1]
    pts = np.array([[0.1, 0.05]])  # strictly inside the first cell
    g = fem.eval_nodal_gradient(mesh, vals, pts)
    assert np.allclose(g, [[2.0, 3.0]], atol=1e-12)


@pytest.mark.parametrize("rule", [1, 2, 3])
@pytest.mark.parametrize("mesh", [DomainMesh(2, 5), DomainMesh(2, 6, 1.7), DomainMesh(3, 3, 0.8)],
                         ids=["2d", "2d-extent", "3d-extent"])
def test_gauss_table_eval_equals_located_eval_bitwise(monkeypatch, mesh, rule):
    # every cell's Gauss points in quad_points order, evaluated per point at
    # (cell, reference point) as the fine quadrature of the correctors did;
    # blocks of 7 cells (25, 36 and 27 cells: a short last block) and one
    # block over every cell give those bits
    rng = np.random.default_rng(40 + rule)
    values, curl_values = rng.standard_normal((2, mesh.n_edges))
    xq, _ = fem.quad_points(mesh, rule)
    ref_pts, _ = fem.gauss_rule(mesh.d, rule)
    cells = np.repeat(np.arange(mesh.n_cells), len(ref_pts))
    local = np.tile(ref_pts, (mesh.n_cells, 1))
    for block in (7 * len(ref_pts), 10 ** 9):
        monkeypatch.setattr(fem, "POINT_BLOCK", block)
        field, curl = fem.eval_edge_gauss(mesh, rule, values, curl_values)
        assert field.shape == (xq.shape[0] * xq.shape[1], mesh.d)
        assert np.array_equal(field, fem.eval_edge_field(mesh, values, None, cells, local))
        assert np.array_equal(curl, fem.eval_edge_curl(mesh, curl_values, None, cells, local))
    # the same points located from their coordinates agree to rounding
    assert np.allclose(field, fem.eval_edge_field(mesh, values, xq.reshape(-1, mesh.d)),
                       rtol=1e-12, atol=1e-12 * np.abs(field).max())


@pytest.mark.parametrize("d,m", [(2, 1), (3, 3)])
def test_edge_curl_has_m_components(d, m):
    # the curl of an edge field has m components in 2D and 3D alike
    mesh = DomainMesh(d, 3, 1.25)
    rng = np.random.default_rng(33)
    pts = 1.25 * rng.random((5, d))
    nloc = mesh.cell_edges.shape[1]
    assert fem.edge_curl_basis(d, pts).shape == (nloc, m, 5)
    ref = fem.edge_ref(d)
    assert ref["CURL"].shape == (m, m, nloc, nloc) and ref["CVEC"].shape == (m, nloc)
    values = rng.standard_normal(mesh.n_edges)
    assert fem.eval_edge_curl(mesh, values, pts).shape == (5, m)
    stack = rng.standard_normal((4, mesh.n_edges))
    assert fem.eval_edge_curl(mesh, stack, pts).shape == (5, m, 4)
    assert fem.eval_edge_gauss(mesh, 2, values, values)[1].shape == (mesh.n_cells * 2 ** d, m)


def constant_curl_2d(mesh, values, cells):
    """The 2D curl as each cell's circulation / h^2: (npts,) per field."""
    dofs = np.take(values, mesh.cell_edges[cells], -1)
    return np.einsum("...pi,i->p...", dofs, np.array([1.0, -1.0, -1.0, 1.0])) / mesh.h ** 2


@pytest.mark.parametrize("mesh", [CellMesh(2, 6), DomainMesh(2, 5, 1.5)],
                         ids=["cell", "domain-extent"])
def test_2d_curl_equals_cell_circulation_bitwise(monkeypatch, mesh):
    # the one-component curl keeps the bits of the constant per-cell circulation
    rng = np.random.default_rng(34)
    pts = getattr(mesh, "extent", 1.0) * rng.random((23, 2))
    cells, _ = mesh.locate(pts)
    for values in (rng.standard_normal(mesh.n_edges), rng.standard_normal((3, mesh.n_edges))):
        expect = constant_curl_2d(mesh, values, cells)
        assert np.array_equal(fem.eval_edge_curl(mesh, values, pts)[:, 0], expect)
        assert np.array_equal(fem.eval_edge_curl(mesh, values, pts[:1])[:, 0], expect[:1])
    values, curl_values = rng.standard_normal((2, mesh.n_edges))
    per_cell = constant_curl_2d(mesh, curl_values, np.arange(mesh.n_cells))
    for rule in (1, 2, 3):
        nq = rule ** 2
        monkeypatch.setattr(fem, "POINT_BLOCK", 7 * nq)
        _, curl = fem.eval_edge_gauss(mesh, rule, values, curl_values)
        assert curl.shape == (mesh.n_cells * nq, 1)
        assert np.array_equal(curl[:, 0], np.repeat(per_cell, nq))


@pytest.mark.parametrize("mesh", [CellMesh(2, 5), DomainMesh(2, 4, 1.5), DomainMesh(3, 3)],
                         ids=["cell-2d", "domain-2d", "domain-3d"])
def test_eval_of_a_point_does_not_depend_on_its_batch(mesh):
    # one point at a time, in pairs, and all at once give the same bits
    rng = np.random.default_rng(32)
    pts = getattr(mesh, "extent", 1.0) * rng.random((9, mesh.d))
    cells, local = mesh.locate(pts)
    for evaluate, n in ((fem.eval_edge_field, mesh.n_edges), (fem.eval_edge_curl, mesh.n_edges),
                        (fem.eval_nodal_field, mesh.n_nodes),
                        (fem.eval_nodal_gradient, mesh.n_nodes)):
        for values in (rng.standard_normal(n), rng.standard_normal((2, n))):
            whole = evaluate(mesh, values, None, cells, local)
            for size in (1, 2):
                parts = [evaluate(mesh, values, None, cells[s:s + size], local[s:s + size])
                         for s in range(0, len(pts), size)]
                assert np.array_equal(np.concatenate(parts), whole)
