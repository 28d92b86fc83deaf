"""Element matrices, sparse assembly and the SPD solve contract.

Elements are the minimal conforming pair on tensor-product cells:
multilinear nodal elements for H^1 and lowest-order edge elements for
H(curl) (one DOF per edge, the tangential circulation, oriented along the
global +axis direction).  Element integrals separate into exact reference
tensors (polynomial basis products, integrated once with a high-order Gauss
rule) contracted with a per-cell constant coefficient; the coefficient is
reduced per cell by sampling at tensor-product Gauss points, and the mesh
decides how many (assembly_rule): the midpoint on a periodic cell mesh,
which is superconvergent for smooth periodic coefficients, and 3 points per
axis on a domain mesh, where a period of a fine coefficient may span as few
as 4 cells (h <= eps_n / 4).

Scalings for a cubic cell of size h (reference = unit cube):
  nodal gradient  = ref / h          edge basis = ref / h
  edge curl       = ref / h^2
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .mesh import edge_local_layout, grid_points, node_corner_layout


class SolveError(RuntimeError):
    """Iterative solve failed to meet its residual contract."""


class AssemblyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quadrature and reference bases

_GAUSS_01 = {
    1: (np.array([0.5]), np.array([1.0])),
    2: (np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)]),
        np.array([0.5, 0.5])),
    3: (np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)]),
        np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])),
}


def gauss_rule(d, order):
    """Tensor-product Gauss points/weights on the unit cube: (nq, d), (nq,)."""
    if order not in _GAUSS_01:
        raise AssemblyError(f"unsupported quadrature order {order}")
    p1, w1 = _GAUSS_01[order]
    return grid_points(*[p1] * d), np.prod(grid_points(*[w1] * d), axis=1)


def _lin(c, s):
    return 1.0 - s if c == 0 else s


def _dlin(c):
    return -1.0 if c == 0 else 1.0


def nodal_basis(d, xi):
    """Multilinear basis values at local points xi (npts, d) -> (2^d, npts)."""
    xi = np.atleast_2d(xi)
    corners = node_corner_layout(d)
    out = np.ones((len(corners), xi.shape[0]))
    for i, c in enumerate(corners):
        for a in range(d):
            out[i] *= _lin(c[a], xi[:, a])
    return out


def nodal_grads(d, xi):
    """Reference gradients: (d, 2^d, npts); physical gradient = value / h."""
    xi = np.atleast_2d(xi)
    corners = node_corner_layout(d)
    out = np.ones((d, len(corners), xi.shape[0]))
    for i, c in enumerate(corners):
        for a in range(d):
            term = np.ones(xi.shape[0])
            for bax in range(d):
                term = term * (_dlin(c[bax]) if bax == a else _lin(c[bax], xi[:, bax]))
            out[a, i] = term
    return out


def edge_basis(d, xi):
    """Reference edge basis values: (n_edges_per_cell, d, npts); physical = / h."""
    xi = np.atleast_2d(xi)
    layout = edge_local_layout(d)
    out = np.zeros((len(layout), d, xi.shape[0]))
    for i, (f, off) in enumerate(layout):
        g = np.ones(xi.shape[0])
        for a in range(d):
            if a != f:
                g = g * _lin(off[a], xi[:, a])
        out[i, f] = g
    return out


def edge_curl_basis(d, xi):
    """Reference curls (n_edges_per_cell, m, npts): m = 1 in 2D, 3 in 3D; physical = / h^2.

    The 2D curl is constant on a cell, and its table is a broadcast view of
    the four constants (stride 0 along the points).  With that view einsum
    gives the bits of contracting the constants once per cell; a contiguous
    copy makes it sum in another order and moves curl values by an ulp.
    """
    xi = np.atleast_2d(xi)
    layout = edge_local_layout(d)
    if d == 2:
        # curl (g(x2), 0) = -dg/dx2 ; curl (0, g(x1)) = dg/dx1
        s = np.array([_dlin(off[1 - f]) * (-1.0 if f == 0 else 1.0) for f, off in layout])
        return np.broadcast_to(s[:, None, None], (len(layout), 1, xi.shape[0]))
    out = np.zeros((len(layout), 3, xi.shape[0]))
    ef = np.eye(3)
    for i, (f, off) in enumerate(layout):
        grad = np.zeros((xi.shape[0], 3))
        others = [a for a in range(3) if a != f]
        for a in others:
            term = np.full(xi.shape[0], _dlin(off[a]))
            for bax in others:
                if bax != a:
                    term = term * _lin(off[bax], xi[:, bax])
            grad[:, a] = term
        out[i] = np.cross(grad, ef[f]).T
    return out


@lru_cache(maxsize=None)
def nodal_ref(d):
    """Exact reference tensors for the nodal element.

    GRAD[a, b, i, j] = int dN_i/dxi_a dN_j/dxi_b ; GVEC[a, i] = int dN_i/dxi_a.
    """
    pts, wts = gauss_rule(d, 3)
    g = nodal_grads(d, pts)
    grad = np.einsum("aiq,bjq,q->abij", g, g, wts)
    gvec = np.einsum("aiq,q->ai", g, wts)
    return {"GRAD": grad, "GVEC": gvec}


@lru_cache(maxsize=None)
def edge_ref(d):
    """Exact reference tensors for the edge element.

    MASS[a, b, i, j] = int E_i,a E_j,b ; CURL[a, b, i, j] = int curl_a E_i curl_b E_j ;
    CVEC[a, i] = int curl_a E_i, with a, b < m (one curl component in 2D).
    """
    pts, wts = gauss_rule(d, 3)
    e = edge_basis(d, pts)
    c = edge_curl_basis(d, pts)
    return {"MASS": np.einsum("iaq,jbq,q->abij", e, e, wts),
            "CURL": np.einsum("iaq,jbq,q->abij", c, c, wts),
            "CVEC": np.einsum("iaq,q->ai", c, wts)}


# ---------------------------------------------------------------------------
# blocks of points

# Points per block of every per-point loop (coefficient reduction, Gauss-point
# evaluation, the corrector's factors and stamps): the temporaries of a block
# take a few MB whatever the size of the mesh.  Each point is computed on its
# own, so the block size moves no bit of a result (cell_coefficient keeps its
# one position-dependent BLAS product out of the blocks).
POINT_BLOCK = 1 << 14


def point_blocks(n, per=1):
    """Slices of range(n) covering about POINT_BLOCK points, `per` points an item."""
    step = max(1, POINT_BLOCK // per)
    return [slice(start, start + step) for start in range(0, n, step)]


# ---------------------------------------------------------------------------
# coefficient reduction and quadrature point layout

def _cell_points(mesh, pts, cells):
    """Reference points pts (nq, d) mapped into the given cells: (ncells, nq, d)."""
    return mesh.cell_centers[cells][:, None, :] + (pts[None, :, :] - 0.5) * mesh.h


def quad_points(mesh, rule):
    """Physical quadrature points (ncells, nq, d) and reference weights (nq,)."""
    pts, wts = gauss_rule(mesh.d, rule)
    return _cell_points(mesh, pts, slice(None)), wts


def assembly_rule(mesh):
    """Gauss points per axis of the assemblers' coefficient reduction: 1 on a
    periodic cell mesh, 3 on a domain mesh."""
    return 1 if mesh.periodic else 3


def cell_coefficient(mesh, coef_fn, rule):
    """Reduce a coefficient to one constant per cell (Gauss-weighted average).

    coef_fn maps (npts, d) points to (npts, m, m) matrices; returns (ncells, m, m).
    """
    pts, wts = gauss_rule(mesh.d, rule)
    (nq, d), ncells = pts.shape, mesh.n_cells
    cbar = None
    for blk in point_blocks(ncells, nq):
        vals = coef_fn(_cell_points(mesh, pts, blk).reshape(-1, d))
        m = vals.shape[-1]
        # BLAS rounds a row of a matrix-vector product by its position in the
        # matrix: one-component values stay per point and are reduced in one
        # product over every cell below, which keeps the bits of every 2D
        # curl coefficient (einsum sums them in another order)
        if m == 1:
            vals = vals.reshape(-1, nq)
        else:
            vals = np.einsum("cqab,q->cab", vals.reshape(-1, nq, m, m), wts)
        if cbar is None:
            cbar = np.empty((ncells,) + vals.shape[1:])
        cbar[blk] = vals
    return (cbar @ wts)[:, None, None] if cbar.ndim == 2 else cbar


# ---------------------------------------------------------------------------
# sparse symmetric systems

@dataclass
class SparseSymSystem:
    """Symmetric sparse operator with a declared nullspace.

    nullspace: "none" (SPD), "constants" (periodic scalar problems; handled by
    projection in solve_spd) or "gradients" (periodic curl-curl; recorded, not
    eliminated -- right-hand sides must be curl-compatible).
    """

    n: int
    A: sp.csr_matrix
    nullspace: str = "none"

    def __post_init__(self):
        if self.nullspace not in ("none", "constants", "gradients"):
            raise AssemblyError(f"unknown nullspace tag {self.nullspace!r}")

    @property
    def diag(self):
        if not hasattr(self, "_diag"):
            d = self.A.diagonal()
            self._diag = np.where(d > 0, d, 1.0)
        return self._diag


@dataclass(frozen=True)
class BlockPattern:
    """The CSR pattern of one DOF numbering's cell-block couplings.

    Entry k of the raveled (ncells, nloc, nloc) element matrices adds into
    slot[k] of the matrix data; an entry that couples an eliminated DOF goes
    to the dummy slot nnz, which no matrix keeps.  Each matrix entry sums its
    cell terms in cell order (np.bincount), so symmetric element matrices
    give an exactly symmetric matrix whenever a cell's local DOFs are
    distinct (every mesh with N >= 2).  The matrices built on a pattern share
    its indptr and indices; the caller that assembles holds the pattern for
    as long as it assembles (cells.homogenize for its cell mesh,
    wave.setup_problem for its domain mesh), not the mesh.
    """

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    @property
    def n(self):
        return len(self.indptr) - 1

    @property
    def nnz(self):
        return len(self.indices)

    def sum_blocks(self, eloc):
        """Sum per-cell blocks eloc (ncells, nloc, nloc) into an (n, n) CSR matrix."""
        if eloc.size != len(self.slot):
            raise AssemblyError(f"{eloc.shape} element matrices on a pattern of "
                                f"{len(self.slot)} block entries")
        data = np.bincount(self.slot, weights=eloc.ravel(), minlength=self.nnz + 1)
        return sp.csr_matrix((data[:self.nnz], self.indices, self.indptr),
                             shape=(self.n, self.n))


def block_pattern(dof_map, n):
    """The BlockPattern of per-cell blocks over dof_map (ncells, nloc) ids in [-1, n).

    A DOF id of -1 is eliminated: every block entry in its row or column goes
    to the dummy slot.
    """
    nloc = dof_map.shape[1]
    if dof_map.size * nloc >= 2 ** 31:
        raise AssemblyError("more block entries than int32 slots")
    # one int64 key r n + c per block entry (r, c), in CSR order; the
    # eliminated entries get n^2 and sort last
    dofs = dof_map.astype(np.int64)
    key = (dofs * n)[:, :, None] + dofs[:, None, :]
    kept = dofs >= 0
    key[~(kept[:, :, None] & kept[:, None, :])] = n * n
    key = key.ravel()
    order = np.argsort(key, kind="stable")   # runs of cell order sort faster
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    slot = np.empty(len(key), dtype=np.int32)
    slot[order] = np.cumsum(first, dtype=np.int32) - 1
    del order
    key = key[first]
    key = key[key < n * n]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return BlockPattern(indptr, (key % n).astype(np.int32), slot)


def nodal_pattern(mesh):
    """The pattern of the nodal element on a periodic CellMesh."""
    return block_pattern(mesh.cell_nodes, mesh.n_nodes)


def edge_pattern(mesh):
    """The pattern of the edge element: every edge of a CellMesh, the interior
    edges of a DomainMesh (boundary edges eliminated)."""
    if mesh.periodic:
        return block_pattern(mesh.cell_edges, mesh.n_edges)
    return block_pattern(mesh.interior_index[mesh.cell_edges], mesh.n_interior_edges)


def element_matrices(coef, ref_mat):
    """Per-cell element matrices E[c] = sum_ab coef[c, a, b] ref_mat[a, b]: (ncells, ni, nj).

    coef: (ncells, m, m) per-cell constant coefficient; ref_mat[a, b, i, j]
    integrates D_a phi_i D_b psi_j over the reference cell for m-component
    operators D (e.g. the nodal gradient or the edge curl).
    """
    ncells, m = coef.shape[0], coef.shape[1]
    return (coef.reshape(ncells, m * m) @ ref_mat.reshape(m * m, -1)
            ).reshape((ncells,) + ref_mat.shape[2:])


def _assemble(mesh, coef, ref_mat, order, pattern, n):
    """CSR matrix (n, n) on pattern of the blocks h^(d - 2 order) E[c], each
    symmetrized; D phi scales as h^-order."""
    if pattern.n != n:
        raise AssemblyError(f"a pattern of {pattern.n} DOFs for a matrix of {n}")
    eloc = element_matrices(coef, ref_mat)
    eloc *= mesh.h ** (mesh.d - 2 * order)
    sym = eloc + eloc.transpose(0, 2, 1)
    del eloc
    sym *= 0.5
    return pattern.sum_blocks(sym)


def _cell_rhs(mesh, coef, ref_vec, order, dof_map, n):
    """Right-hand sides -int (C e^k) . D phi_i for every k: (m, n).

    Per cell they are the element matrices of the form (C e^k) . D phi_i,
    whose reference tensor is delta_bk ref_vec[a, i] (D phi scales as h^-order).
    A right-hand side at the rounding floor of its own sum (norm at most 64
    eps times the norm of the summed |per-cell terms|) vanishes in exact
    arithmetic, e.g. along the layers of a layered coefficient, and is set to
    0: its corrector is then 0 with no CG iteration.
    """
    m = len(ref_vec)
    per_cell = -mesh.h ** (mesh.d - order) * element_matrices(
        coef, np.einsum("bk,ai->abki", np.eye(m), ref_vec))
    dofs = dof_map.ravel()
    rhs = np.empty((m, n))
    for k in range(m):
        rhs[k] = np.bincount(dofs, weights=per_cell[:, k].ravel(), minlength=n)
        scale = np.bincount(dofs, weights=np.abs(per_cell[:, k]).ravel(), minlength=n)
        if np.linalg.norm(rhs[k]) <= 64 * np.finfo(float).eps * np.linalg.norm(scale):
            rhs[k] = 0.0
    return rhs


def assemble_scalar_stiffness(mesh, coef_fn, pattern=None):
    """Periodic bilinear form int_Y (C grad phi_i) . grad phi_j on a CellMesh.

    pattern: the mesh's nodal_pattern, built here when None.
    """
    if not mesh.periodic:
        raise AssemblyError("scalar stiffness is assembled on periodic cell meshes")
    cbar = cell_coefficient(mesh, coef_fn, assembly_rule(mesh))
    A = _assemble(mesh, cbar, nodal_ref(mesh.d)["GRAD"], 1,
                  pattern or nodal_pattern(mesh), mesh.n_nodes)
    return SparseSymSystem(mesh.n_nodes, A, nullspace="constants"), cbar


def scalar_cell_rhs(mesh, cbar):
    """Right-hand sides -int (C e^k) . grad phi_i for all k: (d, n_nodes).

    A right-hand side at the rounding floor of its own sum is set to 0 (see
    _cell_rhs), so w^k = 0 with no CG iteration.
    """
    return _cell_rhs(mesh, cbar, nodal_ref(mesh.d)["GVEC"], 1, mesh.cell_nodes, mesh.n_nodes)


def assemble_curl_stiffness(mesh, coef_fn, pattern=None):
    """Bilinear form int (A curl phi_i) . curl phi_j with edge elements.

    The curl has m = 1 component in 2D and 3 in 3D; abar is returned as
    (ncells, m, m).  CellMesh: periodic, nullspace = discrete gradients
    (recorded only).  DomainMesh: boundary edges eliminated (u x nu = 0);
    returns the system on interior DOFs.  pattern: the mesh's edge_pattern,
    built here when None.
    """
    abar = cell_coefficient(mesh, coef_fn, assembly_rule(mesh))
    n = mesh.n_edges if mesh.periodic else mesh.n_interior_edges
    A = _assemble(mesh, abar, edge_ref(mesh.d)["CURL"], 2, pattern or edge_pattern(mesh), n)
    return SparseSymSystem(n, A, nullspace="gradients"), abar


def curl_cell_rhs(mesh, abar):
    """Right-hand sides -int (A e^l) . curl phi_i for the curl cell problems: (m, n_edges).

    abar: (ncells, m, m) as assemble_curl_stiffness returns it.  A right-hand
    side at the rounding floor of its own sum is set to 0 (see _cell_rhs), so
    N^l = 0: CG on the curl-curl operator, singular on gradients, breaks down
    on such rounding noise.
    """
    return _cell_rhs(mesh, abar, edge_ref(mesh.d)["CVEC"], 2, mesh.cell_edges, mesh.n_edges)


def assemble_vector_mass(mesh, coef_fn, pattern=None):
    """Positive definite form int_D (B phi_i) . phi_j on interior edge DOFs.

    pattern: the mesh's edge_pattern (that of its curl stiffness), built here
    when None.
    """
    if mesh.periodic:
        raise AssemblyError("the vector mass matrix lives on a DomainMesh")
    bbar = cell_coefficient(mesh, coef_fn, assembly_rule(mesh))
    n = mesh.n_interior_edges
    A = _assemble(mesh, bbar, edge_ref(mesh.d)["MASS"], 1, pattern or edge_pattern(mesh), n)
    return SparseSymSystem(n, A, nullspace="none"), bbar


def assemble_load(mesh, f_fn):
    """Load vector int_D f . phi_i on interior edge DOFs; f_fn maps (npts, d) -> (npts, d)."""
    d, h = mesh.d, mesh.h
    pts, wts = gauss_rule(d, assembly_rule(mesh))
    eb = edge_basis(d, pts)  # (nloc, d, nq)
    full = np.zeros(mesh.n_edges)
    # one block of cells at a time, added in cell order: the bits of one pass
    for blk in point_blocks(mesh.n_cells, len(wts)):
        xq = _cell_points(mesh, pts, blk)
        fv = f_fn(xq.reshape(-1, d)).reshape(xq.shape)
        per_cell = h ** (d - 1) * np.einsum("cqa,iaq,q->ci", fv, eb, wts)
        np.add.at(full, mesh.cell_edges[blk].ravel(), per_cell.ravel())
    return full[mesh.interior_edges]


def edge_interpolate(mesh, vec_fn):
    """Tangential line-integral interpolation of a closed-form vector field.

    Returns the full edge vector (boundary entries included).
    """
    mids, fam = mesh.edge_midpoints_and_family
    p1, w1 = _GAUSS_01[2]
    dofs = np.zeros(mesh.n_edges)
    for q, w in zip(p1, w1):
        pts = mids.copy()
        pts[np.arange(mesh.n_edges), fam] += (q - 0.5) * mesh.h
        vals = vec_fn(pts)
        dofs += w * mesh.h * vals[np.arange(mesh.n_edges), fam]
    return dofs


# Field evaluation at located points.  `values` is one DOF vector (n,) or a
# stack (k, n) of them; a stack gives each output a trailing axis of length
# k, and each of its slices equals the single-field result bitwise.  The
# local DOFs are gathered with np.take, which keeps a stack C-ordered: fancy
# indexing would put k innermost, and einsum would then sum in another order.
# A point's value does not depend on the points evaluated with it: einsum sums
# the nodal basis of a lone point in another order than that of two or more,
# so the nodal evaluations repeat a lone point and return one row.

def _eval_edge(mesh, basis, order, values, points, cells, local):
    """Contract the local DOFs with a reference basis (nloc, m, npts) scaling as h^-order."""
    if cells is None:
        cells, local = mesh.locate(points)
    dofs = np.take(values, mesh.cell_edges[cells], axis=-1)  # (npts, nloc) per field
    return np.einsum("...pi,iap->pa...", dofs, basis(mesh.d, local)) / mesh.h ** order


def eval_edge_field(mesh, values, points, cells=None, local=None):
    """Evaluate an edge field (full DOF vector) at points: (npts, d)."""
    return _eval_edge(mesh, edge_basis, 1, values, points, cells, local)


def eval_edge_curl(mesh, values, points, cells=None, local=None):
    """Evaluate the curl of an edge field: (npts, m), m = 1 in 2D and 3 in 3D."""
    return _eval_edge(mesh, edge_curl_basis, 2, values, points, cells, local)


def eval_edge_gauss(mesh, rule, values, curl_values):
    """An edge field and the curl of another at every cell's Gauss points of a rule.

    values, curl_values: full DOF vectors.  Returns the (ncells * nq, d) field
    values of `values` and the (ncells * nq, m) curl of `curl_values`, with
    the points in quad_points order.  The bases are tabulated once at the nq
    reference points, and every point equals eval_edge_field /
    eval_edge_curl at its cell and reference point bitwise.
    """
    d, h = mesh.d, mesh.h
    pts, _ = gauss_rule(d, rule)
    nq = len(pts)
    eb, cb = edge_basis(d, pts), edge_curl_basis(d, pts)
    field = np.empty((mesh.n_cells, nq, d))
    curl = np.empty((mesh.n_cells, nq, cb.shape[1]))
    for blk in point_blocks(mesh.n_cells, nq):
        dofs = np.take(values, mesh.cell_edges[blk], axis=-1)
        field[blk] = np.einsum("ci,iaq->cqa", dofs, eb) / h
        dofs = np.take(curl_values, mesh.cell_edges[blk], axis=-1)
        curl[blk] = np.einsum("ci,iaq->cqa", dofs, cb) / h ** 2
    return field.reshape(-1, d), curl.reshape(-1, cb.shape[1])


def eval_nodal_field(mesh, values, points, cells=None, local=None):
    if cells is None:
        cells, local = mesh.locate(points)
    npts = len(cells)
    if npts == 1:
        cells, local = np.repeat(cells, 2), np.repeat(local, 2, axis=0)
    dofs = np.take(values, mesh.cell_nodes[cells], axis=-1)
    nb = nodal_basis(mesh.d, local)
    return np.einsum("...pi,ip->p...", dofs, nb)[:npts]


def eval_nodal_gradient(mesh, values, points, cells=None, local=None):
    """Gradient of a nodal field at points: (npts, d)."""
    if cells is None:
        cells, local = mesh.locate(points)
    npts = len(cells)
    if npts == 1:
        cells, local = np.repeat(cells, 2), np.repeat(local, 2, axis=0)
    dofs = np.take(values, mesh.cell_nodes[cells], axis=-1)
    ng = nodal_grads(mesh.d, local)
    return np.einsum("...pi,aip->pa...", dofs, ng)[:npts] / mesh.h


def expand_interior(mesh, interior_values):
    """Pad an interior-DOF vector with zero boundary DOFs."""
    full = np.zeros(mesh.n_edges)
    full[mesh.interior_edges] = interior_values
    return full


# ---------------------------------------------------------------------------
# solver

# CG gives up after CG_CAP_FACTOR * n + 10 iterations, or once
# CG_STAGNATION_WINDOW iterations in a row find no residual norm below the best
# so far; the largest such run seen in a converging solve is a few dozen.
CG_CAP_FACTOR = 20
CG_STAGNATION_WINDOW = 1000


def _contract_bound(anorm, x, normb, rel_tol):
    """The residual bound of the solve contract at an iterate x: max(rel_tol ||b||, floor).

    The floor, a few ulps of ||A|| (||x|| + ||b|| / ||A||), is the rounding
    of forming b - A x itself.
    """
    floor = 64 * np.finfo(float).eps * anorm * (np.linalg.norm(x) + normb / anorm)
    return max(rel_tol * normb, floor)


def solve_spd(system, rhs, rel_tol=1e-10, x0=None, guess=None):
    """Jacobi-preconditioned CG meeting ||A x - rhs|| <= rel_tol ||rhs||.

    For nullspace == "constants" the rhs and iterates are projected onto the
    mean-zero complement (quotient-space representative); for "gradients" the
    rhs must be compatible by construction and the kernel component of x is
    left untouched (only curls of the solution are observable).

    When the rhs itself sits at the rounding floor of forming b - A x (it can
    vanish exactly, e.g. at a time-reversal turning point), the relative
    contract is numerically meaningless and an absolute floor of a few ulps of
    ||A|| (||x0|| + ||x||) is accepted instead.  CG stops on the true residual:
    when the recursive one meets the bound and b - A x does not, CG restarts
    from x with b - A x, within the same iteration cap.  A solve whose residual
    norm stagnates (see CG_STAGNATION_WINDOW) raises SolveError.

    x0 starts CG.  guess is a candidate answer, e.g. the solution of a scalar
    multiple of this problem: when it already meets the contract (one
    product with A) it is returned, projected, with no CG iteration;
    otherwise the solve runs as without it.
    """
    if not (0 < rel_tol < 1):
        raise SolveError("rel_tol must lie in (0, 1)")
    A, n = system.A, system.n
    if n == 0:
        return np.zeros(0)
    project = system.nullspace == "constants"
    b = np.asarray(rhs, dtype=float).copy()
    anorm = float(system.diag.max())
    if project:
        mean = b.mean()
        # an rhs that vanishes in exact arithmetic keeps a mean of rounding
        # size, a few ulps of ||A||; only a mean above that floor is reported
        if abs(mean) > max(1e-8 * np.linalg.norm(b) / np.sqrt(n),
                           64 * np.finfo(float).eps * anorm):
            import warnings

            warnings.warn("rhs has a large nullspace component; projecting", stacklevel=2)
        b -= mean
    normb = np.linalg.norm(b)
    if normb == 0.0:
        return np.zeros(n)

    def start(v):
        v = np.asarray(v, dtype=float).copy()
        if project:
            v -= v.mean()
        return v

    if guess is not None:
        x = start(guess)
        if np.linalg.norm(b - A @ x) <= _contract_bound(anorm, x, normb, rel_tol):
            return x
    x = np.zeros(n) if x0 is None else start(x0)
    bound = _contract_bound(anorm, x, normb, rel_tol)
    minv = 1.0 / system.diag

    def precondition(r):
        z = minv * r
        if project:
            z -= z.mean()
        return z

    r = b - A @ x
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    best, stalled = np.inf, 0
    for _ in range(CG_CAP_FACTOR * n + 10):
        rnorm = np.linalg.norm(r)
        if rnorm <= bound:
            # the recursive residual can drift from the true one: stop only on
            # b - A x, else restart from x with it
            r = b - A @ x
            rnorm = np.linalg.norm(r)
            # keep the warm-start-scale floor: rounding enters while the iterate is large
            bound = max(bound, _contract_bound(anorm, x, normb, rel_tol))
            if rnorm <= bound * (1 + 1e-9):
                break
            z = precondition(r)
            p = z.copy()
            rz = r @ z
        if rnorm < best:
            best, stalled = rnorm, 0
        else:
            stalled += 1
            if stalled >= CG_STAGNATION_WINDOW:
                raise SolveError(
                    f"CG stagnated: no residual decrease in {stalled} iterations "
                    f"(best {best:.3e} > {rel_tol:.1e} * {normb:.3e})")
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise SolveError("CG breakdown: operator not positive on the search space")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        res = np.linalg.norm(b - A @ x)
        bound = max(bound, _contract_bound(anorm, x, normb, rel_tol))
        if res > bound * (1 + 1e-9):
            raise SolveError(
                f"CG did not converge: residual {res:.3e} > {rel_tol:.1e} * {normb:.3e}")
    if project:
        x -= x.mean()
    return x
