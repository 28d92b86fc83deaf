"""First-order correctors, folded multiscale correctors and error norms.

The corrector pair compared against a fine-scale run is

    velocity:  du0/dt + grad_y w^r(x, x/eps) (du0_r/dt - g1_r)
    curl:      curl u0 + curl_y N^r(x, x/eps) (curl u0)_r

(the curl has m = 1 component in 2D and 3 in 3D), valid under the
g0 = 0 hypothesis; the time-dependent part of the scalar corrector potential
enters only through the -g1 shift of the velocity.  This pointwise corrector
and the folded one (the summed corrector averaged with U^n_eps) both read
v = A(du0/dt) + P A(du0/dt - g1), q = G A(curl u0), where A is the identity or
the average over eps macro-cells.  The factors P, G do not depend on time and
are built once per run (folded, n >= 2: the slow levels' cell fields, each
evaluated once per sample at the cell centres, blended over the slow grids and
multiplied level by level as arrays on the nested grid of cell centres, then
averaged over the nested subcells, times exact samples of the innermost cell
fields, on the quadrature points of one eps-period of fine cells); one stamp
loop serves both.  The eps macro-cells of A and the nested subcells of the
tables are cells of the one eps-lattice of maxhom.unfolding (lattice_cells,
lattice_index), the cells that unfolding.fold reads.

Error norms are L^2(D) per stored stamp, via the fine mesh's Gauss grid; the
reported L^infty(0,T) value is the maximum over stored stamps.
"""

from dataclasses import dataclass, field
import functools
import itertools

import numpy as np

from . import fem
from .mesh import DomainMesh, grid_points
from .unfolding import lattice_cells, lattice_index

# Gauss points per axis of the fine-mesh quadrature that carries the correctors
_QUAD_RULE = 2


class CorrectorInputError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# cached cell fields at points

def _cell_fields(hom, level, sample, cells, local):
    """grad_y w^r and curl_y N^r of the cached cell solutions at (level, sample).

    cells, local: the points located on hom.mesh.  Returns (npts, d, d) and
    (npts, m, m), with the field index r last.
    """
    mesh = hom.mesh
    dw = fem.eval_nodal_gradient(mesh, hom.cell_solution("b", level, sample), None,
                                 cells, local)
    cn = fem.eval_edge_curl(mesh, hom.cell_solution("a", level, sample), None, cells, local)
    return dw, cn


def cell_factors(hom, y, slow=None):
    """Factors (P, G) of the level-1 cell fields at fast points y (npts, d).

    P[:, j, r] = d w^r / d y_j (npts, d, d) and G = I + columns curl_y N^r
    (npts, m, m).  The fields may depend on x (x-dependent specs): the <= 2^d
    x-grid corner solutions are combined multilinearly at the x values `slow`,
    which lie in the unit box of hom.x_grid.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float))
    P, G = np.zeros((len(y),) + hom.b0.shape[1:]), np.zeros((len(y),) + hom.a0.shape[1:])
    for blk in fem.point_blocks(len(y)):
        cells, local = hom.mesh.locate(y[blk])
        z = np.zeros((len(cells), hom.d)) if slow is None else slow[blk]
        for flat, wgt in hom.x_grid.corners(z):
            for si in np.unique(flat):
                sel = flat == si
                fields = _cell_fields(hom, 1, int(si), cells[sel], local[sel])
                for out, F in zip((P[blk], G[blk]), fields):
                    out[sel] += wgt[sel, None, None] * F
    G += np.eye(G.shape[-1])
    return P, G


# ---------------------------------------------------------------------------
# quadrature layout of a fine mesh

def _fine_quadrature(mesh, rule):
    """Quad points of every cell (npts, d) and their weights (npts,)."""
    xq, wts = fem.quad_points(mesh, rule)
    wq = np.tile(wts, mesh.n_cells) * mesh.h ** mesh.d
    return xq.reshape(-1, mesh.d), wq


def _l2(wq, diff):
    """sqrt(sum_p wq |diff_p|^2) of diff (npts, m); squares diff in place."""
    diff *= diff
    sq = np.sum(diff, axis=1)
    sq *= wq
    return float(np.sqrt(np.sum(sq)))


# ---------------------------------------------------------------------------
# corrector fields and the stamp loop

@dataclass
class CorrectorField:
    """Velocity/curl corrector fields at the fine quadrature points, per stored stamp."""

    times: np.ndarray
    fine_mesh: DomainMesh
    u0_traj: object
    xq: np.ndarray
    wq: np.ndarray
    P: np.ndarray          # (npts, d, d) grad_y w matrix at x/eps
    G: np.ndarray          # (npts, m, m) I + curl_y N matrix at x/eps
    g1_vals: np.ndarray    # (npts, d)
    # macro-cell averaging A of the folded corrector: (bin of each point,
    # quadrature weight of each bin); None for the pointwise corrector
    macro: tuple = field(default=None, repr=False)
    rule = _QUAD_RULE

    def __post_init__(self):
        npts, d = self.xq.shape
        cells, local = np.empty(npts, dtype=np.int64), np.empty((npts, d))
        for blk in fem.point_blocks(npts):
            cells[blk], local[blk] = self.u0_traj.mesh.locate(self.xq[blk])
        self._loc0 = cells, local

    def _bin_average(self, values):
        """Weighted macro-cell average of per-point values: (bins, ...) per bin."""
        bins, wsum = self.macro
        cols = values.reshape(len(values), -1).T
        avg = np.stack([np.bincount(bins, weights=self.wq * c, minlength=len(wsum))
                        for c in cols], axis=1) / wsum[:, None]
        return avg.reshape((len(wsum),) + values.shape[1:])

    def eval_stamp(self, i):
        """Corrector fields at stored stamp i: (v_c (npts, d), q_c (npts, m)).

        Every per-point stage runs in blocks of points; only the folded
        corrector's macro-cell averages read all points at once.
        """
        mesh0 = self.u0_traj.mesh
        v0 = fem.expand_interior(mesh0, self.u0_traj.V[i])
        u0 = fem.expand_interior(mesh0, self.u0_traj.U[i])
        cells0, local0 = self._loc0
        npts, d = self.xq.shape
        blocks = fem.point_blocks(npts)
        v_c = np.empty((npts, d))
        q_c = np.empty((npts, self.G.shape[-1]))

        def at_points(blk):
            """du0, du0 - g1 and curl u0 at the points of a block."""
            du0 = fem.eval_edge_field(mesh0, v0, None, cells0[blk], local0[blk])
            cu0 = fem.eval_edge_curl(mesh0, u0, None, cells0[blk], local0[blk])
            return du0, du0 - self.g1_vals[blk], cu0

        if self.macro is None:
            fields = at_points
        else:
            # the macro-cell average needs every point: the blocks fill whole
            # arrays (v_c and q_c hold du0 and curl u0 until they are averaged)
            diff = np.empty((npts, d))
            for blk in blocks:
                v_c[blk], diff[blk], q_c[blk] = at_points(blk)
            avgs = [self._bin_average(a) for a in (v_c, diff, q_c)]
            del diff
            bins = self.macro[0]

            def fields(blk):
                """The macro-cell averages at the points of a block."""
                return tuple(a[bins[blk]] for a in avgs)

        for blk in blocks:
            du0, diff, cu0 = fields(blk)
            v_c[blk] = du0 + np.einsum("pjr,pr->pj", self.P[blk], diff)
            q_c[blk] = np.einsum("pjr,pr->pj", self.G[blk], cu0)
        return v_c, q_c


def _stamp_errors(fine_traj, corr):
    """L^2(D) velocity and curl errors of a corrector at every stored stamp."""
    if fine_traj.mesh != corr.fine_mesh:
        raise CorrectorInputError("fine trajectory and corrector live on different meshes")
    if len(fine_traj.snap_times) != len(corr.times) or \
            not np.allclose(fine_traj.snap_times, corr.times, atol=1e-12):
        raise CorrectorInputError("fine trajectory and corrector use different time grids")
    mesh = fine_traj.mesh
    e_vel = np.empty(len(corr.times))
    e_curl = np.empty(len(corr.times))
    for i in range(len(corr.times)):
        v_c, q_c = corr.eval_stamp(i)
        duf, cuf = fem.eval_edge_gauss(mesh, corr.rule,
                                       fem.expand_interior(mesh, fine_traj.V[i]),
                                       fem.expand_interior(mesh, fine_traj.U[i]))
        duf -= v_c
        cuf -= q_c
        e_vel[i] = _l2(corr.wq, duf)
        e_curl[i] = _l2(corr.wq, cuf)
        # free this stamp's fields before the next stamp is evaluated
        del v_c, q_c, duf, cuf
    return e_vel, e_curl


# ---------------------------------------------------------------------------
# pointwise (two-scale) corrector

def reconstruct_corrector(u0_traj, hom, schedule, g1=None, g0=None, *, fine_mesh):
    """Build the first-order corrector of a homogenized trajectory.

    Requires g0 = 0 (pass None or a zero field); refuses otherwise, matching
    the hypothesis under which the corrector bound holds.  g0 is checked at
    every fine quadrature point of the corrector.
    """
    if u0_traj.mesh.h > schedule.epsilon + 1e-12:
        raise CorrectorInputError(
            f"homogenized mesh h0={u0_traj.mesh.h:g} coarser than eps={schedule.epsilon:g}; "
            "products with the cell fields would alias")
    xq, wq = _fine_quadrature(fine_mesh, _QUAD_RULE)
    if g0 is not None and np.any(np.asarray(g0(xq), dtype=float) != 0):
        raise CorrectorInputError(
            "corrector reconstruction requires g0 = 0 (nonzero initial data "
            "breaks the corrector hypothesis)")
    y = schedule.fast_variables(xq)[0]
    P, G = cell_factors(hom, y, slow=xq)
    g1_vals = g1(xq) if g1 is not None else np.zeros_like(xq)
    return CorrectorField(times=u0_traj.snap_times, fine_mesh=fine_mesh,
                          u0_traj=u0_traj, xq=xq, wq=wq, P=P, G=G, g1_vals=g1_vals)


@dataclass
class ErrorSeries:
    times: np.ndarray
    e_vel: np.ndarray
    e_curl: np.ndarray
    e_ms: np.ndarray = None

    @property
    def max_vel(self):
        return float(self.e_vel.max())

    @property
    def max_curl(self):
        return float(self.e_curl.max())

    @property
    def total(self):
        """L^infty-in-time velocity + curl error (the rate-fit quantity)."""
        return self.max_vel + self.max_curl

    @property
    def max_ms(self):
        return float(self.e_ms.max())


def corrector_error(fine_traj, corr):
    """L^2(D) velocity/curl corrector errors per stored stamp."""
    e_vel, e_curl = _stamp_errors(fine_traj, corr)
    return ErrorSeries(corr.times.copy(), e_vel, e_curl)


# ---------------------------------------------------------------------------
# folded multiscale corrector

def _macro_bins(xq, eps, extent):
    """eps macro-cell index of each point and the macro-cell count.

    The macro-cells are the eps-lattice cells, so the lattice must tile the
    domain: a leftover strip would fall into the last row of bins.
    """
    L = lattice_cells(extent, eps)
    if L is None:
        raise CorrectorInputError(
            f"the eps-lattice does not tile the domain: extent {extent:g} is not a "
            f"multiple of eps {eps:g}")
    return lattice_index(xq / eps, L), L ** xq.shape[1]


def _fold_factors(hom, schedule, xq):
    """Factors (P, G) of the folded corrector at the points xq, n >= 2 (2D).

    The slow levels run on the nested grid of cell centres y_1..y_{n-1}, one
    array axis per level: level i < n multiplies a running product by
    sum_mu Lam_mu(y_<i) (I + F_(i,mu)(y_i)), F = grad_y w (for the table A) or
    curl_y N (for C) and Lam the joint hat weights of y_grids[:i - 1].  The
    level-i fields are evaluated once per sample at the cell centres and
    blended by SampleGrid.interpolate, one grid (one nested axis) at a time.
    A[k, nu] and C[k, nu] average Lam_nu(y_<n) times the product over the
    nested subcell k = (floor(r_2 y_1), .., floor(r_n y_{n-1})), added corner
    by corner in nested C order.  With P_nu, N_nu the level-n cell fields of
    sample nu at y_n: P = sum_nu A[k, nu] - I + sum_nu P_nu A[k, nu] and
    G = sum_nu (I + curl_y N_nu) C[k, nu], summed over C[k, nu] != 0.
    """
    d, Q, n, ratios = hom.d, hom.cell_N, schedule.n_scales, schedule.ratios
    if any(Q % r for r in ratios):
        raise CorrectorInputError("cell resolution must be divisible by every scale ratio")
    centres, grids = hom.mesh.cell_centers, hom.y_grids
    cells, local = hom.mesh.locate(centres)
    sizes, dims = [g.size for g in grids], tuple(r ** d for r in ratios)

    def subcell(ys):
        return [lattice_index(y * r, r) for y, r in zip(ys, ratios)]

    prods = None   # (len(centres),) * (level - 1) + (m, m) for the grad and the curl
    for level in range(1, n):
        samples = [_cell_fields(hom, level, s, cells, local)
                   for s in range(int(np.prod(sizes[:level - 1])))]
        new = []
        for i, F in enumerate(zip(*samples)):
            F = np.stack(F).reshape(tuple(sizes[:level - 1]) + F[0].shape)
            for a, g in enumerate(grids[:level - 1]):
                F = np.moveaxis(g.interpolate(np.moveaxis(F, a, 0), centres), 0, a)
            F += np.eye(F.shape[-1])
            new.append(F if prods is None else np.matmul(F, prods[i][..., None, :, :]))
        prods = new
    k = np.ravel_multi_index(np.ix_(*subcell([centres] * (n - 1))), dims).ravel()
    prods = [p.reshape((len(k),) + p.shape[-2:]) for p in prods]
    count = float(np.prod([(Q // r) ** d for r in ratios]))   # points per subcell
    A, C = [np.zeros((int(np.prod(dims)), int(np.prod(sizes))) + p.shape[1:]) for p in prods]
    for combo in itertools.product(*[g.corners(centres) for g in grids]):
        flat, lam = zip(*combo)
        row = k * A.shape[1] + np.ravel_multi_index(np.ix_(*flat), sizes).ravel()   # (k, nu)
        lam = functools.reduce(np.multiply, np.ix_(*lam)).ravel()
        for table, p in zip((A, C), prods):
            # one flat index per entry: the fast path of add.at, summing in the same order
            vals = (lam[:, None, None] * p / count).reshape(len(row), -1)
            for j in range(vals.shape[1]):
                np.add.at(table.reshape(-1), row * vals.shape[1] + j, vals[:, j])

    *ys, yn = schedule.fast_variables(xq)
    k = np.ravel_multi_index(subcell(ys), dims)
    cells, local = hom.mesh.locate(yn)
    P = (A.sum(axis=1) - np.eye(d))[k]   # subcell average of the slow product, minus I
    G = np.zeros((len(xq),) + C.shape[2:])
    support = (np.abs(C) > 1e-14).any(axis=(2, 3))
    for nu in np.flatnonzero(support.any(axis=0)):
        sel = support[k, nu]
        Pn, Cn = _cell_fields(hom, n, int(nu), cells[sel], local[sel])
        G[sel] += np.matmul(np.eye(G.shape[-1]) + Cn, C[k[sel], nu])
        P[sel] += np.matmul(Pn, A[k[sel], nu])
    return P, G


def _period_points(mesh, eps):
    """Quadrature points of one eps-period of fine cells, and each point's row there.

    The period is p = eps/h cells per axis; when eps/h is not an integer or N
    is not a multiple of p, p = N and the table holds every point.  The points
    are those of fem.quad_points in the cells i < p (C order), so they are the
    fine quadrature points of those cells.  rows[k] is the table row of fine
    quadrature point k: (cell multi-index mod p, Gauss point).
    """
    d, N = mesh.d, mesh.N
    p = lattice_cells(eps, mesh.h)
    if p is None or N % p:
        p = N
    pts, _ = fem.gauss_rule(d, _QUAD_RULE)
    period = np.ravel_multi_index(grid_points(*[np.arange(p)] * d).T, (N,) * d)
    xt = fem._cell_points(mesh, pts, period)
    period_cell = np.ravel_multi_index((grid_points(*[np.arange(N)] * d) % p).T, (p,) * d)
    rows = period_cell[:, None] * len(pts) + np.arange(len(pts))
    return xt.reshape(-1, d), rows.ravel()


def multiscale_corrector_error(fine_traj, u0_traj, hom, schedule, g1=None):
    """Folded corrector error per stamp (any number of scales n, 2D).

    E_ms(t) = ||du^eps/dt - U(du0/dt + sum grad_y du_i/dt)||_{L^2}
            + ||curl u^eps - U(curl u0 + sum curl_y u_i)||_{L^2}.
    """
    if hom.spec.depends_on_x():
        raise CorrectorInputError("the folded corrector supports x-independent specs only")
    mesh = fine_traj.mesh
    if mesh.d != 2:
        raise CorrectorInputError("the folded corrector driver is 2D")
    xq, wq = _fine_quadrature(mesh, _QUAD_RULE)
    bins, nbins = _macro_bins(xq, schedule.epsilon, mesh.extent)
    if schedule.n_scales == 1:
        P, G = cell_factors(hom, schedule.fast_variables(xq)[0])
    else:   # y_1..y_n repeat every eps: one period of points is built, each point reads its row
        xt, rows = _period_points(mesh, schedule.epsilon)
        P, G = _fold_factors(hom, schedule, xt)
        P, G = P[rows], G[rows]
    g1_vals = g1(xq) if g1 is not None else np.zeros_like(xq)
    corr = CorrectorField(times=u0_traj.snap_times, fine_mesh=mesh, u0_traj=u0_traj,
                          xq=xq, wq=wq, P=P, G=G, g1_vals=g1_vals,
                          macro=(bins, np.bincount(bins, weights=wq, minlength=nbins)))
    e_vel, e_curl = _stamp_errors(fine_traj, corr)
    return ErrorSeries(fine_traj.snap_times.copy(), np.zeros_like(e_vel),
                       np.zeros_like(e_vel), e_vel + e_curl)
