"""Cell problems and the recursive homogenized tensors b^i, a^i down to b^0, a^0.

The recursion peels scales from the innermost (level n) outwards: at level i
the cell problems run over y_i with the slower variables (x, y_1..y_{i-1})
frozen at tensor-product sample points, and the resulting level tensor is
stored on that sample grid and interpolated multilinearly when it becomes the
coefficient of level i-1 (one SampleGrid per slow variable; the x samples
cover the unit box [0, 1]^d).  Tensors are computed in the symmetrized energy
form, which is Galerkin-identical to the flux form and exactly symmetric.
"""

from dataclasses import dataclass
import functools
import itertools

import numpy as np

from . import fem
from .mesh import CellMesh, grid_points


class HomogenizationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the slow-variable sample grids

@dataclass(frozen=True)
class SampleGrid:
    """The (res,)*d grid of slow-variable samples, with multilinear interpolation.

    periodic (a y_i grid): samples at j/res on the unit cell, corners wrapped
    modulo res.  Otherwise (the x grid): samples at j/(res - 1) on the unit box
    [0, 1]^d (one sample: its centre), the lower corner kept in [0, res - 2],
    and a point outside the box refused.  A one-sample grid has a single
    corner of weight 1 at any point.
    """

    d: int
    res: int
    periodic: bool

    @property
    def size(self):
        return self.res ** self.d

    @property
    def points(self):
        """The (size, d) sample points, C-ordered as the flat sample index."""
        if self.periodic:
            axis = np.arange(self.res) / self.res
        else:
            axis = np.linspace(0.0, 1.0, self.res) if self.res > 1 else np.array([0.5])
        return grid_points(*[axis] * self.d)

    def corners(self, pts):
        """Corner (flat index, weight) pairs of multilinear interpolation at pts (npts, d)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        npts, d, res = len(pts), self.d, self.res
        if res == 1:
            return [(np.zeros(npts, dtype=np.int64), np.ones(npts))]
        if self.periodic:
            z = pts * res
            base = np.floor(z).astype(np.int64)
        else:
            if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
                raise HomogenizationError(f"a point in [{pts.min():g}, {pts.max():g}] lies "
                                          f"outside the unit box of the x samples")
            z = np.clip(pts, 0.0, 1.0) * (res - 1)
            base = np.minimum(np.floor(z).astype(np.int64), res - 2)
        frac = z - base
        out = []
        for corner in itertools.product((0, 1), repeat=d):
            flat = np.ravel_multi_index((base + np.array(corner)).T, (res,) * d,
                                        mode="wrap" if self.periodic else "raise")
            w = np.ones(npts)
            for a, c in enumerate(corner):
                w = w * (frac[:, a] if c else 1.0 - frac[:, a])
            out.append((flat, w))
        return out

    def interpolate(self, values, pts):
        """Multilinear interpolation at pts (npts, d) of values (size, ...) at the samples."""
        values = np.asarray(values)
        if len(values) != self.size:
            raise HomogenizationError("sample count does not match grid resolution")
        out = None
        for flat, w in self.corners(pts):
            contrib = values[flat] * w.reshape((-1,) + (1,) * (values.ndim - 1))
            out = contrib if out is None else out + contrib
        return out


# ---------------------------------------------------------------------------
# single-level cell solves and level tensors

def solve_scalar_cell(coef_fn, mesh, tol=1e-12, guess=None, pattern=None):
    """Solve the d scalar cell problems div_y(C (e^k + grad w^k)) = 0 on Y.

    Returns (W, cbar): W is (d, n_nodes) with mean-zero w^k, cbar the reduced
    per-cell coefficient used in both the solve and the level tensor.
    guess: a (d, n_nodes) candidate W, each row taken as it is when it
    already meets the solve contract (fem.solve_spd).  pattern: the mesh's
    fem.nodal_pattern, built per call when None.
    """
    system, cbar = fem.assemble_scalar_stiffness(mesh, coef_fn, pattern)
    return _solve_rows(system, fem.scalar_cell_rhs(mesh, cbar), tol, guess), cbar


def solve_curl_cell(coef_fn, mesh, tol=1e-12, guess=None, pattern=None):
    """Solve the curl cell problems curl_y(A (e^l + curl N^l)) = 0 on Y.

    Returns (Nc, abar): Nc is (m, n_edges) and abar (ncells, m, m), with
    m = 1 curl component in 2D and 3 in 3D.  The gradient kernel of the
    periodic curl-curl operator is left in place; only curls of N are used
    downstream.  guess: a candidate Nc, as for solve_scalar_cell.  pattern:
    the mesh's fem.edge_pattern, built per call when None.
    """
    system, abar = fem.assemble_curl_stiffness(mesh, coef_fn, pattern)
    return _solve_rows(system, fem.curl_cell_rhs(mesh, abar), tol, guess), abar


def _solve_rows(system, rhs, tol, guess):
    """One fem.solve_spd per right-hand-side row, each offered its row of guess."""
    return np.stack([fem.solve_spd(system, rhs[k], rel_tol=tol,
                                   guess=None if guess is None else guess[k])
                     for k in range(len(rhs))])


def _energy_tensor(mesh, coef, local, ref_vec, ref_mat, order):
    """Symmetrized int_Y (e^j + D u^j) . C (e^k + D u^k) dy / |Y| for j, k < m.

    coef: (ncells, m, m); local: (m, ncells, nloc) per-cell dofs of the
    correctors u^j; ref_vec[a, i] and ref_mat[a, b, i, j] integrate D_a phi_i
    and D_a phi_i D_b phi_j over the reference cell, and D scales as h^-order
    (1: nodal gradient, 2: edge curl).  Each cell's terms go through its
    element matrix E[c] = coef[c] : ref_mat and are combined before the cell
    sum, which runs pairwise along a contiguous cell axis.
    """
    d, h = mesh.d, mesh.h
    E = fem.element_matrices(coef, ref_mat)
    L = local.transpose(1, 0, 2)                        # (ncells, m, nloc)
    quad = np.matmul(np.matmul(L, E), L.transpose(0, 2, 1))
    lin = np.matmul(np.matmul(L, ref_vec.T), coef)      # lin[c, k, j] = V^k . C e^j
    t = h ** d * coef
    t = t + h ** (d - order) * lin.transpose(0, 2, 1)
    t = t + h ** (d - order) * lin
    t = t + h ** (d - 2 * order) * quad
    T = np.ascontiguousarray(t.transpose(1, 2, 0)).sum(axis=-1) / (h ** d * mesh.n_cells)
    return 0.5 * (T + T.T)


def scalar_level_tensor(mesh, cbar, W):
    """Energy-form level tensor: int_Y (e^j + grad w^j) . C (e^k + grad w^k) dy."""
    ref = fem.nodal_ref(mesh.d)
    return _energy_tensor(mesh, cbar, W[:, mesh.cell_nodes], ref["GVEC"], ref["GRAD"], 1)


def curl_level_tensor(mesh, abar, Nc):
    """Energy-form curl level tensor: (m, m), 1 x 1 in 2D (one curl component), 3 x 3 in 3D."""
    ref = fem.edge_ref(mesh.d)
    return _energy_tensor(mesh, abar, Nc[:, mesh.cell_edges], ref["CVEC"], ref["CURL"], 2)


# ---------------------------------------------------------------------------
# the recursion

@dataclass(frozen=True)
class HomogenizationResult:
    """Level tensors on their sample grids plus the cell solutions, written by homogenize.

    x_grid samples x on the unit box and y_grids[j - 1] samples y_j.
    tensors[("b", i)] has shape (nx, ny_1, ..., ny_i) + (d, d), the sizes of
    those grids, and tensors[("a", i)] the same sample shape + (m, m), m =
    d(d-1)/2 curl components (1 in 2D, 3 in 3D).  b0/a0 are the level-0 fields
    at the x samples and coefficients() their interpolants.  cells[("b",
    level, sample)] is the mean-zero W (d, n_nodes) of that cell solve and
    cells[("a", level, sample)] its Nc (m, n_edges).  The fields are never
    reassigned; the correctors only read them.
    """

    spec: object
    cell_N: int
    x_grid: SampleGrid
    y_grids: tuple
    tensors: dict
    cells: dict

    def __post_init__(self):
        object.__setattr__(self, "_mesh", CellMesh(self.d, self.cell_N))

    @property
    def d(self):
        return self.spec.d

    @property
    def mesh(self):
        """The cell mesh of every cell solve and cell solution."""
        return self._mesh

    def _level0(self, which):
        vals = self.tensors[(which, 0)]
        return vals.reshape((self.x_grid.size,) + vals.shape[1:])

    def coefficients(self):
        """(a^0, b^0) as functions of x (npts, d) in the unit box, interpolated on x_grid."""
        return tuple(functools.partial(self.x_grid.interpolate, self._level0(which))
                     for which in ("a", "b"))

    @property
    def b0(self):
        """b^0 at the x sample points: (nx, d, d)."""
        return self._level0("b")

    @property
    def a0(self):
        """a^0 at the x sample points: (nx, m, m), (nx, 1, 1) in 2D."""
        return self._level0("a")

    def export_text(self, path):
        """Full-precision structured text dump for regression snapshots."""
        lines = [f"# homogenized tensors: d={self.d} n={self.spec.n_scales} "
                 f"cell_N={self.cell_N} x_res={self.x_grid.res} "
                 f"y_res={[g.res for g in self.y_grids]}"]
        for (which, level) in sorted(self.tensors, key=lambda k: (k[0], -k[1])):
            vals = self.tensors[(which, level)]
            for si, row in enumerate(vals.reshape(-1, vals.shape[-1] ** 2)):
                entries = " ".join(f"{v:.17g}" for v in row)
                lines.append(f"{which} level={level} sample={si} {entries}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _require_bounds(T, spec, which, level, sample):
    eigs = np.linalg.eigvalsh(T)
    slack = 1e-7 * max(1.0, spec.beta)
    if eigs.min() < spec.alpha - slack or eigs.max() > spec.beta + slack:
        raise HomogenizationError(
            f"tensor {which}^{level} at sample {sample} has eigenvalues in "
            f"[{eigs.min():.8g}, {eigs.max():.8g}], outside [{spec.alpha}, {spec.beta}]")


def sample_grids(spec, slow_x=None, slow_y=None):
    """The x grid and the slow y_i grids of homogenize: (x_grid, y_grids).

    slow_x: per-axis x sample resolution, 1 for an x-independent spec and at
    least 2 (default 5) otherwise.  slow_y: per-axis resolutions of the slow y_i
    grids for levels 1..n-1 (int or list; default 8), each at least 1.  A value
    that does not fit the spec raises HomogenizationError, whose message starts
    with the argument's name.
    """
    d, n = spec.d, spec.n_scales
    if slow_x is None:
        slow_x = 5 if spec.depends_on_x() else 1
    if (slow_x < 2 if spec.depends_on_x() else slow_x != 1):
        raise HomogenizationError(f"slow_x = {slow_x}: an x-dependent spec needs at least 2 "
                                  "x samples, an x-independent one exactly 1 (b^0, a^0 do "
                                  "not depend on x)")
    if slow_y is None:
        slow_y = 8
    y_res = list(slow_y) if np.iterable(slow_y) else [int(slow_y)] * (n - 1)
    if len(y_res) != n - 1 or any(m < 1 for m in y_res):
        raise HomogenizationError(f"slow_y = {y_res}: needs {n - 1} resolutions (one per "
                                  "scale but the innermost), each at least 1")
    return (SampleGrid(d, slow_x, periodic=False),
            tuple(SampleGrid(d, m, periodic=True) for m in y_res))


def homogenize(spec, cell_N, slow_x=None, slow_y=None, tol=1e-12):
    """Run the full recursion; returns a HomogenizationResult.

    slow_x, slow_y: the sample resolutions, as sample_grids reads them.

    Each cell solve is offered the previous sample's solution at its level as
    a guess.  Where the samples' problems are scalar multiples of one another
    (a coefficient that is a product of per-scale factors, s(x) and a base
    matrix), that solution already solves the next problem, and every sample
    after the first runs no CG iteration; otherwise the guess costs one
    operator product and each solve runs from zero.

    Every sample's cell matrix is summed on one pattern of the cell mesh per
    tensor (fem.nodal_pattern for b, fem.edge_pattern for a), held only
    while that tensor's samples are solved.
    """
    d, n = spec.d, spec.n_scales
    x_grid, y_grids = sample_grids(spec, slow_x, slow_y)
    result = HomogenizationResult(spec, cell_N, x_grid, y_grids, {}, {})
    mesh = result.mesh

    # b acts on d-vectors, a on curls of d(d-1)/2 components; the solvers and
    # level tensors are looked up as module globals at each call
    kinds = (("b", d, fem.nodal_pattern, spec.eval_b, solve_scalar_cell, scalar_level_tensor),
             ("a", d * (d - 1) // 2, fem.edge_pattern, spec.eval_a, solve_curl_cell,
              curl_level_tensor))
    for which, k, build_pattern, eval_fn, solve_cell, level_tensor in kinds:
        pattern = build_pattern(mesh)
        tshape = (k, k)
        upper = None  # tensor samples of level i over (x, y_1..y_i)
        for level in range(n, 0, -1):
            slow_pts = [g.points for g in (x_grid,) + y_grids[: level - 1]]
            shapes = [len(p) for p in slow_pts]
            T = np.empty(tuple(shapes) + tshape)
            if level < n:
                y_grid = y_grids[level - 1]
                flatu = upper.reshape((-1, y_grid.size) + tshape)
            prev = None   # the previous sample's cell solution at this level
            for si, multi in enumerate(itertools.product(*[range(s) for s in shapes])):
                anchor_x, *anchor_ys = [p[j] for p, j in zip(slow_pts, multi)]
                if level == n:
                    def coef_fn(y, ax=anchor_x, ays=anchor_ys):
                        npts = len(y)
                        x = np.broadcast_to(ax, (npts, d))
                        ys = [np.broadcast_to(v, (npts, d)) for v in ays] + [y]
                        return eval_fn(x, ys)
                else:
                    coef_fn = functools.partial(y_grid.interpolate, flatu[si])
                prev, reduced = solve_cell(coef_fn, mesh, tol, prev, pattern)
                Ti = level_tensor(mesh, reduced, prev)
                result.cells[(which, level, si)] = prev
                _require_bounds(Ti, spec, which, level - 1, si)
                T[multi] = Ti
            result.tensors[(which, level - 1)] = T
            upper = T
    return result
