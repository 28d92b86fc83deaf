"""Cell problems and the recursive homogenized tensors b^i, a^i down to b^0, a^0.

The recursion peels scales from the innermost (level n) outwards: at level i
the cell problems run over y_i with the slower variables (x, y_1..y_{i-1})
frozen at tensor-product sample points, and the resulting level tensor is
stored on that sample grid and interpolated multilinearly when it becomes the
coefficient of level i-1.  Tensors are computed in the symmetrized energy
form, which is Galerkin-identical to the flux form and exactly symmetric.
"""

from dataclasses import dataclass, field
import itertools

import numpy as np

from . import fem
from .coeffs import sym_eigenvalues
from .mesh import CellMesh


class HomogenizationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# multilinear interpolation on one d-dimensional sample grid

def multilinear_corners(z, m, periodic):
    """Corner (flat index, weight) pairs of multilinear interpolation on the (m,)*d grid.

    z: (npts, d) coordinates in grid units (sample j sits at z = j).  Periodic
    grids wrap the corner indices modulo m; clamped grids keep the lower corner
    in [0, m - 2], so z = m - 1 falls on the far face of the last cell.  A
    one-sample grid (m == 1) has a single corner of weight 1.
    """
    npts, d = z.shape
    if m == 1:
        return [(np.zeros(npts, dtype=np.int64), np.ones(npts))]
    base = np.floor(z).astype(np.int64)
    if not periodic:
        base = np.minimum(base, m - 2)
    frac = z - base
    out = []
    for corner in itertools.product((0, 1), repeat=d):
        idx = base + np.array(corner)
        if periodic:
            idx = np.mod(idx, m)
        flat = np.ravel_multi_index(idx.T, (m,) * d)
        w = np.ones(npts)
        for a, c in enumerate(corner):
            w = w * (frac[:, a] if c else 1.0 - frac[:, a])
        out.append((flat, w))
    return out


class GridInterp:
    """Multilinear interpolation of samples on the (m,)*d grid.

    periodic: samples at j/m on the unit cell, wrapped; otherwise samples at
    j L/(m-1) on [0, L]^d (L = extent), with points clamped to the box.
    """

    def __init__(self, d, m, values, periodic, extent=1.0):
        self.d, self.m, self.periodic, self.extent = d, m, periodic, extent
        self.values = np.asarray(values)
        if self.values.shape[0] != m ** d:
            raise HomogenizationError("sample count does not match grid resolution")

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.periodic:
            z = pts * self.m
        else:
            z = np.clip(pts / self.extent, 0.0, 1.0) * (self.m - 1)
        out = None
        for flat, w in multilinear_corners(z, self.m, self.periodic):
            contrib = self.values[flat] * w.reshape((-1,) + (1,) * (self.values.ndim - 1))
            out = contrib if out is None else out + contrib
        return out


def periodic_grid_points(d, m):
    """Flattened (m^d, d) sample points j/m of the periodic grid."""
    ax = np.arange(m) / m
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def box_grid_points(d, m, extent=1.0):
    ax = np.linspace(0.0, extent, m) if m > 1 else np.array([0.5 * extent])
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


# ---------------------------------------------------------------------------
# single-level cell solves and level tensors

def solve_scalar_cell(coef_fn, mesh, tol=1e-12):
    """Solve the d scalar cell problems div_y(C (e^k + grad w^k)) = 0 on Y.

    Returns (W, cbar): W is (d, n_nodes) with mean-zero w^k, cbar the reduced
    per-cell coefficient used in both the solve and the level tensor.
    """
    system, cbar = fem.assemble_scalar_stiffness(mesh, coef_fn, rule=1)
    rhs = fem.scalar_cell_rhs(mesh, cbar)
    W = np.empty((mesh.d, mesh.n_nodes))
    for k in range(mesh.d):
        W[k] = fem.solve_spd(system, rhs[k], rel_tol=tol)
    return W, cbar


def solve_curl_cell(coef_fn, mesh, tol=1e-12):
    """Solve the curl cell problems curl_y(A (e^l + curl N^l)) = 0 on Y.

    Returns (Nc, abar): Nc is (1, n_edges) in 2D (scalar curl index) or
    (3, n_edges) in 3D.  The gradient kernel of the periodic curl-curl
    operator is left in place; only curls of N are used downstream.
    """
    system, abar = fem.assemble_curl_stiffness(mesh, coef_fn, rule=1)
    rhs = fem.curl_cell_rhs(mesh, abar)
    Nc = np.empty_like(rhs)
    for l in range(rhs.shape[0]):
        Nc[l] = fem.solve_spd(system, rhs[l], rel_tol=tol)
    return Nc, abar


def _energy_tensor(mesh, coef, local, ref_vec, ref_mat, order):
    """Symmetrized int_Y (e^j + D u^j) . C (e^k + D u^k) dy / |Y| for j, k < d.

    local: (d, ncells, nloc) per-cell dofs of the correctors u^j; ref_vec[a, i]
    and ref_mat[a, b, i, j] integrate D_a phi_i and D_a phi_i D_b phi_j over the
    reference cell, and D scales as h^-order (1: nodal gradient, 2: edge curl).
    """
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


def scalar_level_tensor(mesh, cbar, W):
    """Energy-form level tensor: int_Y (e^j + grad w^j) . C (e^k + grad w^k) dy."""
    ref = fem.nodal_ref(mesh.d)
    return _energy_tensor(mesh, cbar, W[:, mesh.cell_nodes], ref["GVEC"], ref["GRAD"], 1)


def curl_level_tensor(mesh, abar, Nc):
    """Energy-form curl level tensor; scalar in 2D, 3x3 in 3D."""
    d, h = mesh.d, mesh.h
    if d == 2:
        s = fem.edge_ref(2)["CURLS"]
        q = (Nc[0][mesh.cell_edges] @ s) / h ** 2
        w = h ** d
        return float(np.sum(w * abar * (1.0 + q) ** 2) / (w * mesh.n_cells))
    ref = fem.edge_ref(3)
    return _energy_tensor(mesh, abar, Nc[:, mesh.cell_edges], ref["CVEC"], ref["CURL"], 2)


# ---------------------------------------------------------------------------
# the recursion

@dataclass
class CellSolution:
    """Cached cell fields at one (level, slow-variable sample point)."""

    w: np.ndarray = None        # (d, n_nodes), mean-zero
    n_curl: np.ndarray = None   # (1, n_edges) in 2D / (3, n_edges) in 3D


@dataclass
class HomogenizationResult:
    """Level tensors on their sample grids plus the cached cell solutions.

    tensors[("b", i)] has shape (nx, ny_1, ..., ny_i) + (d, d); the 2D curl
    tensors a^i are scalar fields with trailing shape ().  b0/a0 are the
    level-0 fields over the x sample grid.
    """

    spec: object
    cell_N: int
    x_res: int
    y_res: tuple
    x_points: np.ndarray
    tensors: dict
    cells: dict = field(default_factory=dict)

    def __post_init__(self):
        self._mesh = CellMesh(self.d, self.cell_N)

    @property
    def d(self):
        return self.spec.d

    @property
    def mesh(self):
        """The cell mesh of every cell solve and cached cell solution."""
        return self._mesh

    def _level0(self, which):
        vals = self.tensors[(which, 0)]
        return vals.reshape((self.x_res ** self.d,) + vals.shape[1:])

    def b0_interp(self, extent=1.0):
        return GridInterp(self.d, self.x_res, self._level0("b"), periodic=False,
                          extent=extent)

    def a0_interp(self, extent=1.0):
        return GridInterp(self.d, self.x_res, self._level0("a"), periodic=False,
                          extent=extent)

    @property
    def b0(self):
        """b^0 at the x sample points: (nx, d, d)."""
        return self._level0("b")

    @property
    def a0(self):
        """a^0 at the x sample points: (nx,) in 2D, (nx, 3, 3) in 3D."""
        return self._level0("a")

    def cell_solution(self, which, level, sample_index):
        return self.cells[(which, level, sample_index)]

    def export_text(self, path):
        """Full-precision structured text dump for regression snapshots."""
        lines = [f"# homogenized tensors: d={self.d} n={self.spec.n_scales} "
                 f"cell_N={self.cell_N} x_res={self.x_res} y_res={list(self.y_res)}"]
        for (which, level) in sorted(self.tensors, key=lambda k: (k[0], -k[1])):
            vals = self.tensors[(which, level)]
            tdim = (self.d * self.d) if (which == "b" or self.d == 3) else 1
            flat = vals.reshape(-1, tdim)
            for si, row in enumerate(flat):
                entries = " ".join(f"{v:.17g}" for v in row)
                lines.append(f"{which} level={level} sample={si} {entries}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _require_bounds(T, spec, which, level, sample, d):
    vals = np.atleast_1d(np.asarray(T))
    if vals.ndim == 1:
        eigs = vals
    else:
        eigs = sym_eigenvalues(vals[None, ...]).ravel()
    slack = 1e-7 * max(1.0, spec.beta)
    if eigs.min() < spec.alpha - slack or eigs.max() > spec.beta + slack:
        raise HomogenizationError(
            f"tensor {which}^{level} at sample {sample} has eigenvalues in "
            f"[{eigs.min():.8g}, {eigs.max():.8g}], outside [{spec.alpha}, {spec.beta}]")


def homogenize(spec, cell_N, slow_x=None, slow_y=None, tol=1e-12):
    """Run the full recursion; returns a HomogenizationResult.

    slow_x: per-axis x sample resolution (defaults to 1 when the spec is
    x-independent, else 5).  slow_y: per-axis resolutions of the slow y_i
    grids for levels 1..n-1 (int or list; default 8).
    """
    d, n = spec.d, spec.n_scales
    if slow_x is None:
        slow_x = 5 if spec.depends_on_x() else 1
    if spec.depends_on_x() and slow_x < 2:
        raise HomogenizationError("x-dependent spec needs slow_x >= 2")
    if slow_y is None:
        slow_y = 8
    y_res = list(slow_y) if np.iterable(slow_y) else [int(slow_y)] * (n - 1)
    if len(y_res) != n - 1:
        raise HomogenizationError(f"need {n - 1} slow-y resolutions, got {len(y_res)}")

    x_pts = box_grid_points(d, slow_x)
    y_pts = [periodic_grid_points(d, m) for m in y_res]
    result = HomogenizationResult(spec, cell_N, slow_x, tuple(y_res), x_pts, {})
    mesh = result.mesh

    for which in ("b", "a"):
        scalar_tensor = which == "a" and d == 2
        upper = None  # tensor samples of level i over (x, y_1..y_i)
        for level in range(n, 0, -1):
            slow_grids = [x_pts] + y_pts[: level - 1]
            shapes = [len(g) for g in slow_grids]
            tshape = () if scalar_tensor else (d, d)
            T = np.empty(tuple(shapes) + tshape)
            if level < n:
                m = y_res[level - 1]
                flatu = upper.reshape((-1, m ** d) + tshape)
            for si, multi in enumerate(itertools.product(*[range(s) for s in shapes])):
                anchor_x = slow_grids[0][multi[0]]
                anchor_ys = [slow_grids[j][multi[j]] for j in range(1, level)]
                if level == n:
                    def coef_fn(y, ax=anchor_x, ays=anchor_ys):
                        npts = len(y)
                        x = np.broadcast_to(ax, (npts, d))
                        ys = [np.broadcast_to(v, (npts, d)) for v in ays] + [y]
                        return spec.eval_a(x, ys) if which == "a" else spec.eval_b(x, ys)
                else:
                    coef_fn = GridInterp(d, y_res[level - 1], flatu[si], periodic=True)
                key = (which, level, si)
                if which == "b":
                    W, cbar = solve_scalar_cell(coef_fn, mesh, tol)
                    Ti = scalar_level_tensor(mesh, cbar, W)
                    result.cells[key] = CellSolution(w=W)
                else:
                    Nc, abar = solve_curl_cell(coef_fn, mesh, tol)
                    Ti = curl_level_tensor(mesh, abar, Nc)
                    result.cells[key] = CellSolution(n_curl=Nc)
                _require_bounds(Ti, spec, which, level - 1, si, d)
                T[multi] = Ti
            result.tensors[(which, level - 1)] = T
            upper = T
    return result
