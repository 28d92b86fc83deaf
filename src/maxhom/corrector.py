"""First-order correctors, folded multiscale correctors and error norms.

The corrector pair compared against a fine-scale run is

    velocity:  du0/dt + grad_y w^r(x, x/eps) (du0_r/dt - g1_r)
    curl:      curl u0 + curl_y N^r(x, x/eps) (curl u0)_r

(in 2D the curl line collapses to (1 + curl_y N(y)) curl u0), valid under the
g0 = 0 hypothesis; the time-dependent part of the scalar corrector potential
enters only through the -g1 shift of the velocity.  This pointwise corrector
and the folded one (the summed corrector averaged with U^n_eps) both read
v = A(du0/dt) + P A(du0/dt - g1), q = G A(curl u0), where A is the identity or
the average over eps macro-cells.  The factors P, G do not depend on time and
are built once per run (folded, n = 2: subcell averages of the slow factors
and exact samples of the innermost cell fields); one stamp loop serves both.

Error norms are L^2(D) per stored stamp, via the fine mesh's Gauss grid; the
reported L^infty(0,T) value is the maximum over stored stamps.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .cells import multilinear_corners
from .mesh import DomainMesh

# Gauss points per axis of the fine-mesh quadrature that carries the correctors
_QUAD_RULE = 2


class CorrectorInputError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# cached cell-field samplers

class CellFieldSampler:
    """Evaluates grad_y w^r and (1 + curl_y N) of the cached level-1 solutions.

    The fields may depend on x (x-dependent specs): the sampler combines the
    <= 2^d x-grid corner solutions multilinearly at the x values `slow`.
    """

    def __init__(self, hom):
        self.hom = hom
        self.d = hom.d
        self.mesh = hom.mesh

    def _interpolate(self, which, y_pts, slow):
        """out[..., r] = slow-interpolated D f^r at fast points.

        which = "b": D f^r = grad_y w^r, out (npts, d, d).  which = "a":
        D f^r = curl_y N^r, out (npts, 1) in 2D and (npts, 3, 3) in 3D.
        """
        cells, local = self.mesh.locate(y_pts)
        npts = len(cells)
        if which == "b":
            evaluate, shape = fem.eval_nodal_gradient, (self.d, self.d)
        else:
            evaluate, shape = fem.eval_edge_curl, (1,) if self.d == 2 else (3, 3)
        res = self.hom.x_res
        z = np.zeros((npts, self.d)) if slow is None else np.asarray(slow, dtype=float)
        out = np.zeros((npts,) + shape)
        for flat, wgt in multilinear_corners(z * (res - 1), res, periodic=False):
            for si in np.unique(flat):
                sel = flat == si
                sol = self.hom.cell_solution(which, 1, int(si))
                for r, f in enumerate(sol.w if which == "b" else sol.n_curl):
                    c = evaluate(self.mesh, f, None, cells[sel], local[sel])
                    out[sel, ..., r] += wgt[sel].reshape((-1,) + (1,) * (c.ndim - 1)) * c
        return out

    def grad_w_matrix(self, y_pts, slow=None):
        """P[:, j, r] = d w^r / d y_j at fast points (npts, d)."""
        return self._interpolate("b", y_pts, slow)

    def curl_factor(self, y_pts, slow=None):
        """2D: scalar 1 + curl_y N; 3D: matrix I + columns curl_y N^r."""
        G = self._interpolate("a", y_pts, slow)
        return 1.0 + G[:, 0] if self.d == 2 else np.eye(3) + G


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
    G: np.ndarray          # (npts,) in 2D / (npts, 3, 3) in 3D
    g1_vals: np.ndarray    # (npts, d)
    # macro-cell averaging A of the folded corrector: (bin of each point,
    # quadrature weight of each bin); None for the pointwise corrector
    _macro: tuple = field(default=None, init=False, repr=False)
    rule = _QUAD_RULE

    def __post_init__(self):
        self._loc0 = self.u0_traj.mesh.locate(self.xq)

    def _average(self, values):
        """Weighted macro-cell average of per-point values, back at the points."""
        bins, wsum = self._macro
        cols = values.reshape(len(values), -1).T
        avg = np.stack([np.bincount(bins, weights=self.wq * c, minlength=len(wsum))
                        for c in cols], axis=1) / wsum[:, None]
        return avg[bins].reshape(values.shape)

    def eval_stamp(self, i):
        """Corrector fields at stored stamp i: (v_c (npts,d), q_c)."""
        mesh0 = self.u0_traj.mesh
        v0 = fem.expand_interior(mesh0, self.u0_traj.V[i])
        u0 = fem.expand_interior(mesh0, self.u0_traj.U[i])
        cells0, local0 = self._loc0
        du0 = fem.eval_edge_field(mesh0, v0, None, cells0, local0)
        cu0 = fem.eval_edge_curl(mesh0, u0, None, cells0, local0)
        diff = du0 - self.g1_vals
        if self._macro is not None:
            du0, diff, cu0 = (self._average(a) for a in (du0, diff, cu0))
        v_c = du0 + np.einsum("pjr,pr->pj", self.P, diff)
        if self.fine_mesh.d == 2:
            q_c = self.G * cu0
        else:
            q_c = np.einsum("pjr,pr->pj", self.G, cu0)
        return v_c, q_c


def _stamp_errors(fine_traj, corr):
    """L^2(D) velocity and curl errors of a corrector at every stored stamp."""
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
    return e_vel, e_curl


# ---------------------------------------------------------------------------
# pointwise (two-scale) corrector

def reconstruct_corrector(u0_traj, hom, schedule, g1=None, g0=None,
                          fine_mesh=None, cutoff_eps=None):
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
    xq, wq, _, _ = _fine_quadrature(fine_mesh, _QUAD_RULE)
    y = schedule.fast_variables(xq)[0]
    sampler = CellFieldSampler(hom)
    slow = xq if hom.x_res > 1 else None
    P = sampler.grad_w_matrix(y, slow=slow)
    G = sampler.curl_factor(y, slow=slow)
    g1_vals = g1(xq) if g1 is not None else np.zeros_like(xq)
    if cutoff_eps is not None:
        cells, local = fine_mesh.locate(xq)
        tau = fem.eval_nodal_field(fine_mesh, cutoff_field(fine_mesh, cutoff_eps), None,
                                   cells, local)
        P = tau[:, None, None] * P
        eye = 1.0 if G.ndim == 1 else np.eye(3)
        G = eye + tau.reshape((-1,) + (1,) * (G.ndim - 1)) * (G - eye)
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
    L = int(round(extent / eps))
    idx = np.minimum((xq / eps).astype(np.int64), L - 1)
    return np.ravel_multi_index(idx.T, (L,) * xq.shape[1]), L ** xq.shape[1]


def _fold_factors(hom, schedule, xq):
    """Factors (P, G) of the folded corrector at the points xq (2D).

    n = 1: P1, G1 at y1.  n = 2, with T, S the subcell tables of the y1-subcell
    k2 of each point and P2_nu, N2_nu the level-2 cell fields of sample nu:
    P = sum_nu T[k2, nu] - I + sum_nu P2_nu(y2) T[k2, nu] and
    G = sum_nu (1 + curl_y N2_nu(y2)) S[k2, nu], summed over S[k2, nu] != 0.
    """
    d = hom.d
    y1, *y2 = schedule.fast_variables(xq)
    if schedule.n_scales == 1:
        sampler = CellFieldSampler(hom)
        return sampler.grad_w_matrix(y1), sampler.curl_factor(y1)
    r2 = schedule.ratios[0]
    T, S = _subcell_tables(hom, r2, hom.y_res[0])
    sub = np.minimum((y1 * r2).astype(np.int64), r2 - 1)
    k2 = np.ravel_multi_index(sub.T, (r2,) * d)
    mesh = hom.mesh
    cells2, local2 = mesh.locate(y2[0])
    P = (T.sum(axis=1) - np.eye(d))[k2]   # subcell average of P1
    G = np.zeros(len(xq))
    support = np.abs(S) > 1e-14
    for nu in np.flatnonzero(support.any(axis=0)):
        sel = support[k2, nu]
        c2, l2 = cells2[sel], local2[sel]
        q2 = fem.eval_edge_curl(mesh, hom.cell_solution("a", 2, int(nu)).n_curl[0],
                                None, c2, l2)
        G[sel] += (1.0 + q2) * S[k2[sel], nu]
        w2 = hom.cell_solution("b", 2, int(nu)).w
        P2 = np.stack([fem.eval_nodal_gradient(mesh, w, None, c2, l2) for w in w2],
                      axis=2)
        P[sel] += np.einsum("pjr,prs->pjs", P2, T[k2[sel], nu])
    return P, G


def multiscale_corrector_error(fine_traj, u0_traj, hom, schedule, g1=None):
    """Folded corrector error per stamp (n = 1 or 2, 2D).

    E_ms(t) = ||du^eps/dt - U(du0/dt + sum grad_y du_i/dt)||_{L^2}
            + ||curl u^eps - U(curl u0 + sum curl_y u_i)||_{L^2}.
    """
    if hom.x_res != 1:
        raise CorrectorInputError("the folded corrector supports x-independent specs only")
    if schedule.n_scales > 2:
        raise CorrectorInputError("folded correctors implemented for n <= 2")
    mesh = fine_traj.mesh
    if mesh.d != 2:
        raise CorrectorInputError("the folded corrector driver is 2D")
    xq, wq, _, _ = _fine_quadrature(mesh, _QUAD_RULE)
    P, G = _fold_factors(hom, schedule, xq)
    g1_vals = g1(xq) if g1 is not None else np.zeros_like(xq)
    corr = CorrectorField(times=u0_traj.snap_times, fine_mesh=mesh, u0_traj=u0_traj,
                          xq=xq, wq=wq, P=P, G=G, g1_vals=g1_vals)
    bins, nbins = _macro_bins(xq, schedule.epsilon, mesh.extent)
    corr._macro = (bins, np.bincount(bins, weights=wq, minlength=nbins))
    e_vel, e_curl = _stamp_errors(fine_traj, corr)
    return ErrorSeries(fine_traj.snap_times.copy(), np.zeros_like(e_vel),
                       np.zeros_like(e_vel), e_vel + e_curl)


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
    sampler = CellFieldSampler(hom)
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
