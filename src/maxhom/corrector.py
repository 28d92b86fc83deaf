"""First-order correctors, folded multiscale correctors and error norms.

The corrector pair compared against a fine-scale run is

    velocity:  du0/dt + grad_y w^r(x, x/eps) (du0_r/dt - g1_r)
    curl:      curl u0 + curl_y N^r(x, x/eps) (curl u0)_r

(in 2D the curl line collapses to (1 + curl_y N(y)) curl u0), valid under the
g0 = 0 hypothesis; the time-dependent part of the scalar corrector potential
enters only through the -g1 shift of the velocity.  The multiscale variant
folds the summed corrector with the averaging operator U^n_eps, evaluated
here through the separable structure of the corrector (macro-cell averages of
the slow factors, subcell averages across the middle scale, exact sampling of
the innermost cell fields).

Error norms are L^2(D) per stored stamp, via the fine mesh's Gauss grid; the
reported L^infty(0,T) value is the maximum over stored stamps.
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .cells import multilinear_corners
from .mesh import DomainMesh


class CorrectorInputError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# cached cell-field samplers

class CellFieldSampler:
    """Evaluates grad_y w^r and (1 + curl_y N) of cached level solutions.

    Level fields may depend on x (level 1 of an x-dependent spec): the sampler
    combines the <= 2^d x-grid corner solutions multilinearly.  For levels >= 2
    the slow variable is the next-coarser y; pass its values as `slow`.
    """

    def __init__(self, hom, level=1):
        self.hom = hom
        self.level = level
        self.d = hom.d
        self.mesh = hom.mesh

    def _slow_corners(self, npts, slow):
        """Multilinear corner indices/weights on the slow sample grid."""
        if self.level == 1:
            res, periodic = self.hom.x_res, False
            slow_pts = slow if slow is not None else np.zeros((npts, self.d))
        else:
            res = self.hom.y_res[self.level - 2]
            periodic = True
            if self.hom.x_res != 1:
                raise CorrectorInputError(
                    "level >= 2 field sampling supports x-independent specs only")
            if slow is None:
                raise CorrectorInputError("levels >= 2 need slow-variable values")
            slow_pts = slow
        z = np.asarray(slow_pts, dtype=float) * (res if periodic else res - 1)
        return multilinear_corners(z, res, periodic)

    def grad_w_matrix(self, y_pts, slow=None):
        """P[:, j, r] = d w^r / d y_j at fast points (npts, d)."""
        cells, local = self.mesh.locate(y_pts)
        npts = len(np.atleast_2d(y_pts))
        P = np.zeros((npts, self.d, self.d))
        for flat, wgt in self._slow_corners(npts, slow):
            for si in np.unique(flat):
                sel = flat == si
                sol = self.hom.cell_solution("b", self.level, int(si))
                for r in range(self.d):
                    g = fem.eval_nodal_gradient(self.mesh, sol.w[r], None,
                                                cells[sel], local[sel])
                    P[sel, :, r] += wgt[sel, None] * g
        return P

    def curl_factor(self, y_pts, slow=None):
        """2D: scalar 1 + curl_y N; 3D: matrix I + columns curl_y N^r."""
        cells, local = self.mesh.locate(y_pts)
        npts = len(np.atleast_2d(y_pts))
        corners = self._slow_corners(npts, slow)
        if self.d == 2:
            G = np.zeros(npts)
            s = fem.edge_ref(2)["CURLS"]
            for flat, wgt in corners:
                for si in np.unique(flat):
                    sel = flat == si
                    sol = self.hom.cell_solution("a", self.level, int(si))
                    q = (sol.n_curl[0][self.mesh.cell_edges[cells[sel]]] @ s) / self.mesh.h ** 2
                    G[sel] += wgt[sel] * q
            return 1.0 + G
        G = np.zeros((npts, 3, 3))
        for flat, wgt in corners:
            for si in np.unique(flat):
                sel = flat == si
                sol = self.hom.cell_solution("a", self.level, int(si))
                for r in range(3):
                    c = fem.eval_edge_curl(self.mesh, sol.n_curl[r], None,
                                           cells[sel], local[sel])
                    G[sel, :, r] += wgt[sel, None] * c
        return np.eye(3) + G


# ---------------------------------------------------------------------------
# quadrature layout of a fine mesh

def _fine_quadrature(mesh, rule):
    """Quad points of every cell, their weights and (cells, local) indices."""
    xq, wts = fem.quad_points(mesh, rule)
    nq = xq.shape[1]
    flat = xq.reshape(-1, mesh.d)
    cells = np.repeat(np.arange(mesh.n_cells), nq)
    pts_ref, _ = fem.gauss_rule(mesh.d, rule)
    local = np.tile(pts_ref, (mesh.n_cells, 1))
    wq = np.tile(wts, mesh.n_cells) * mesh.h ** mesh.d
    return flat, wq, cells, local


def _l2(wq, diff):
    if diff.ndim == 1:
        return float(np.sqrt(np.sum(wq * diff * diff)))
    return float(np.sqrt(np.sum(wq * np.sum(diff * diff, axis=1))))


# ---------------------------------------------------------------------------
# pointwise (two-scale) corrector

@dataclass
class CorrectorField:
    """Velocity/curl corrector fields, evaluated lazily per stored stamp."""

    times: np.ndarray
    fine_mesh: DomainMesh
    u0_traj: object
    xq: np.ndarray
    wq: np.ndarray
    P: np.ndarray          # (npts, d, d) grad_y w matrix at x/eps
    G: np.ndarray          # (npts,) in 2D / (npts, 3, 3) in 3D
    g1_vals: np.ndarray    # (npts, d)
    rule: int = 2
    tau: np.ndarray = None  # optional boundary cutoff at the quad points

    def eval_stamp(self, i):
        """Corrector fields at stored stamp i: (v_c (npts,d), q_c)."""
        mesh0 = self.u0_traj.mesh
        v0 = fem.expand_interior(mesh0, self.u0_traj.V[i])
        u0 = fem.expand_interior(mesh0, self.u0_traj.U[i])
        if not hasattr(self, "_loc0"):
            self._loc0 = mesh0.locate(self.xq)
        cells0, local0 = self._loc0
        du0 = fem.eval_edge_field(mesh0, v0, None, cells0, local0)
        cu0 = fem.eval_edge_curl(mesh0, u0, None, cells0, local0)
        diff = du0 - self.g1_vals
        P = self.P if self.tau is None else self.tau[:, None, None] * self.P
        v_c = du0 + np.einsum("pjr,pr->pj", P, diff)
        if self.fine_mesh.d == 2:
            G = self.G if self.tau is None else 1.0 + self.tau * (self.G - 1.0)
            q_c = G * cu0
        else:
            G = self.G
            if self.tau is not None:
                G = np.eye(3) + self.tau[:, None, None] * (self.G - np.eye(3))
            q_c = np.einsum("pjr,pr->pj", G, cu0)
        return v_c, q_c


def reconstruct_corrector(u0_traj, hom, schedule, g1=None, g0=None,
                          fine_mesh=None, rule=2, cutoff_eps=None):
    """Build the first-order corrector of a homogenized trajectory.

    Requires g0 = 0 (pass None or a zero field); refuses otherwise, matching
    the hypothesis under which the corrector bound holds.  cutoff_eps, when
    given, tapers the oscillatory terms with the boundary cutoff field
    (diagnostic variant; the plain corrector is the reported one).
    """
    if g0 is not None:
        probe = np.asarray(g0(np.full((1, hom.d), 0.5)), dtype=float)
        if np.abs(probe).max() > 0:
            raise CorrectorInputError(
                "corrector reconstruction requires g0 = 0 (nonzero initial data "
                "breaks the corrector hypothesis)")
    if fine_mesh is None:
        raise CorrectorInputError("pass the fine mesh whose quadrature carries the corrector")
    if u0_traj.mesh.h > schedule.epsilon + 1e-12:
        raise CorrectorInputError(
            f"homogenized mesh h0={u0_traj.mesh.h:g} coarser than eps={schedule.epsilon:g}; "
            "products with the cell fields would alias")
    xq, wq, _, _ = _fine_quadrature(fine_mesh, rule)
    y = xq / schedule.epsilon
    y -= np.floor(y)
    sampler = CellFieldSampler(hom, level=1)
    slow = xq if hom.x_res > 1 else None
    P = sampler.grad_w_matrix(y, slow=slow)
    G = sampler.curl_factor(y, slow=slow)
    g1_vals = g1(xq) if g1 is not None else np.zeros_like(xq)
    tau = None
    if cutoff_eps is not None:
        tau_nodal = cutoff_field(fine_mesh, cutoff_eps)
        cells, local = fine_mesh.locate(xq)
        tau = fem.eval_nodal_field(fine_mesh, tau_nodal, None, cells, local)
    return CorrectorField(times=u0_traj.snap_times, fine_mesh=fine_mesh,
                          u0_traj=u0_traj, xq=xq, wq=wq, P=P, G=G,
                          g1_vals=g1_vals, rule=rule, tau=tau)


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
    if fine_traj.mesh != corr.fine_mesh:
        raise CorrectorInputError("fine trajectory and corrector live on different meshes")
    if len(fine_traj.snap_times) != len(corr.times) or \
            not np.allclose(fine_traj.snap_times, corr.times, atol=1e-12):
        raise CorrectorInputError("fine trajectory and corrector use different time grids")
    mesh = fine_traj.mesh
    _, wq, cells, local = _fine_quadrature(mesh, corr.rule)
    e_vel = np.empty(len(corr.times))
    e_curl = np.empty(len(corr.times))
    for i in range(len(corr.times)):
        v_c, q_c = corr.eval_stamp(i)
        vf = fem.expand_interior(mesh, fine_traj.V[i])
        uf_ = fem.expand_interior(mesh, fine_traj.U[i])
        duf = fem.eval_edge_field(mesh, vf, None, cells, local)
        cuf = fem.eval_edge_curl(mesh, uf_, None, cells, local)
        e_vel[i] = _l2(wq, duf - v_c)
        e_curl[i] = _l2(wq, cuf - q_c)
    return ErrorSeries(corr.times.copy(), e_vel, e_curl)


# ---------------------------------------------------------------------------
# folded multiscale corrector

def _bin_average(values, wq, bins, nbins):
    """Weighted average of per-point values over integer bins."""
    wsum = np.bincount(bins, weights=wq, minlength=nbins)
    if values.ndim == 1:
        s = np.bincount(bins, weights=wq * values, minlength=nbins)
        return s / wsum
    out = np.empty((nbins, values.shape[1]))
    for k in range(values.shape[1]):
        out[:, k] = np.bincount(bins, weights=wq * values[:, k], minlength=nbins) / wsum
    return out


def _macro_bins(xq, eps, extent):
    L = int(round(extent / eps))
    idx = np.minimum((xq / eps).astype(np.int64), L - 1)
    return np.ravel_multi_index(idx.T, (L,) * xq.shape[1]), L ** xq.shape[1]


def multiscale_corrector_error(fine_traj, u0_traj, hom, schedule, g1=None, rule=2):
    """Folded corrector error per stamp (n = 1 or 2, 2D).

    E_ms(t) = ||du^eps/dt - U(du0/dt + sum grad_y du_i/dt)||_{L^2}
            + ||curl u^eps - U(curl u0 + sum curl_y u_i)||_{L^2}.
    """
    if hom.x_res != 1:
        raise CorrectorInputError("the folded corrector supports x-independent specs only")
    n = schedule.n_scales
    if n > 2:
        raise CorrectorInputError("folded correctors implemented for n <= 2")
    mesh = fine_traj.mesh
    d = mesh.d
    if d != 2:
        raise CorrectorInputError("the folded corrector driver is 2D")
    if len(fine_traj.snap_times) != len(u0_traj.snap_times) or \
            not np.allclose(fine_traj.snap_times, u0_traj.snap_times, atol=1e-12):
        raise CorrectorInputError("fine and homogenized trajectories use different time grids")
    xq, wq, cells, local = _fine_quadrature(mesh, rule)
    g1_vals = g1(xq) if g1 is not None else np.zeros_like(xq)
    mc, nmc = _macro_bins(xq, schedule.epsilon, mesh.extent)
    cells0, local0 = u0_traj.mesh.locate(xq)

    eps = schedule.epsilons
    y1 = xq / eps[0]
    y1 -= np.floor(y1)
    sampler1 = CellFieldSampler(hom, level=1)
    if n == 1:
        P1 = sampler1.grad_w_matrix(y1)
        G1 = sampler1.curl_factor(y1)
    else:
        r2 = schedule.ratios[0]
        m1 = hom.y_res[0]
        T, S = _subcell_tables(hom, r2, m1)
        sub = np.minimum((y1 * r2).astype(np.int64), r2 - 1)
        k2 = np.ravel_multi_index(sub.T, (r2,) * d)
        y2 = xq / eps[1]
        y2 -= np.floor(y2)
        cells2, local2 = hom.mesh.locate(y2)
        s_ref = fem.edge_ref(2)["CURLS"]

    e_ms = np.empty(fine_traj.n_snaps)
    for i in range(fine_traj.n_snaps):
        v0 = fem.expand_interior(u0_traj.mesh, u0_traj.V[i])
        u0 = fem.expand_interior(u0_traj.mesh, u0_traj.U[i])
        du0 = fem.eval_edge_field(u0_traj.mesh, v0, None, cells0, local0)
        cu0 = fem.eval_edge_curl(u0_traj.mesh, u0, None, cells0, local0)
        du0_avg = _bin_average(du0, wq, mc, nmc)[mc]
        diff_avg = _bin_average(du0 - g1_vals, wq, mc, nmc)[mc]
        cu0_avg = _bin_average(cu0, wq, mc, nmc)[mc]
        if n == 1:
            v_fold = du0_avg + np.einsum("pjr,pr->pj", P1, diff_avg)
            c_fold = G1 * cu0_avg
        else:
            v_fold = du0_avg.copy()
            c_fold = np.zeros(len(xq))
            avgP = T.sum(axis=1) - np.eye(d)   # subcell average of P1
            v_fold += np.einsum("pjr,pr->pj", avgP[k2], diff_avg)
            factor = np.zeros(len(xq))
            for k in range(r2 ** d):
                sel = k2 == k
                if not np.any(sel):
                    continue
                for nu in np.flatnonzero(np.abs(S[k]) > 1e-14):
                    sol_a = hom.cell_solution("a", 2, int(nu))
                    q2 = (sol_a.n_curl[0][hom.mesh.cell_edges[cells2[sel]]] @ s_ref) \
                        / hom.mesh.h ** 2
                    factor[sel] += (1.0 + q2) * S[k, nu]
                    sol_b = hom.cell_solution("b", 2, int(nu))
                    P2 = np.zeros((int(sel.sum()), d, d))
                    for r in range(d):
                        P2[:, :, r] = fem.eval_nodal_gradient(
                            hom.mesh, sol_b.w[r], None, cells2[sel], local2[sel])
                    v_fold[sel] += np.einsum("pjr,rs,ps->pj", P2, T[k, nu], diff_avg[sel])
            c_fold = factor * cu0_avg
        vf = fem.expand_interior(mesh, fine_traj.V[i])
        ufull = fem.expand_interior(mesh, fine_traj.U[i])
        duf = fem.eval_edge_field(mesh, vf, None, cells, local)
        cuf = fem.eval_edge_curl(mesh, ufull, None, cells, local)
        e_ms[i] = _l2(wq, duf - v_fold) + _l2(wq, cuf - c_fold)
    return ErrorSeries(fine_traj.snap_times.copy(), np.zeros_like(e_ms),
                       np.zeros_like(e_ms), e_ms)


def _subcell_tables(hom, r2, m1):
    """Subcell-averaged slow-factor tables for the n=2 folded corrector.

    T[k, nu] = avg over y1-subcell k of lambda_nu(y1) (I + P1(y1))  (d x d)
    S[k, nu] = avg over y1-subcell k of lambda_nu(y1) G1(y1)        (scalar)

    where lambda_nu are the multilinear hat weights of the level-2 slow
    sample grid (resolution m1 per axis).
    """
    d = hom.d
    Q = hom.cell_N
    if Q % r2 != 0:
        raise CorrectorInputError("cell resolution must be divisible by the scale ratio")
    mesh = hom.mesh
    pts = mesh.cell_centers
    sampler = CellFieldSampler(hom, level=1)
    P1 = sampler.grad_w_matrix(pts)
    G1 = sampler.curl_factor(pts)
    sub = np.minimum((pts * r2).astype(np.int64), r2 - 1)
    k_flat = np.ravel_multi_index(sub.T, (r2,) * d)
    nsub = r2 ** d
    count = np.bincount(k_flat, minlength=nsub).astype(float)
    T = np.zeros((nsub, m1 ** d, d, d))
    S = np.zeros((nsub, m1 ** d))
    eye = np.eye(d)
    for nu, lam in multilinear_corners(pts * m1, m1, periodic=True):
        contrib = lam[:, None, None] * (eye + P1)
        np.add.at(T, (k_flat, nu), contrib / count[k_flat, None, None])
        np.add.at(S, (k_flat, nu), lam * G1 / count[k_flat])
    return T, S


# ---------------------------------------------------------------------------
# boundary cutoff

def cutoff_field(mesh, epsilon):
    """Nodal cutoff: 1 outside the eps-neighbourhood of the boundary, linear ramp.

    Piecewise multilinear with eps |grad tau| <= 2; needs eps >= 2h so the
    ramp is representable on the mesh.
    """
    if epsilon < 2 * mesh.h - 1e-12:
        raise CorrectorInputError(f"cutoff width {epsilon:g} below 2h = {2 * mesh.h:g}")
    x = mesh.node_coords
    dist = np.minimum(x, mesh.extent - x).min(axis=1)
    return np.clip(dist / epsilon, 0.0, 1.0)


def export_errors_csv(errors, path):
    """CSV (t, E_vel, E_curl[, E_ms]) at 17 significant digits."""
    has_ms = errors.e_ms is not None
    with open(path, "w") as fh:
        fh.write("t,E_vel,E_curl" + (",E_ms" if has_ms else "") + "\n")
        for i, t in enumerate(errors.times):
            row = [f"{t:.17g}", f"{errors.e_vel[i]:.17g}", f"{errors.e_curl[i]:.17g}"]
            if has_ms:
                row.append(f"{errors.e_ms[i]:.17g}")
            fh.write(",".join(row) + "\n")
