"""Periodic unfolding/folding operators on lattice-aligned product grids.

The unfolding map splits a point of D into its eps_1-lattice cell, the nested
eps_i-subcell indices, and the position at the finest scale; the folding
operator is its averaging right-inverse.  Both need 1/eps_1 and every
eps_{i-1}/eps_i to be integers, so on the unit box the lattice tiles D exactly
and the integral identities hold to rounding for lattice-aligned fields.

An UnfoldedField stores values on the induced product grid with one axis group
per scale plus a trailing sample group:

    shape = (L1,)*d + (r_2,)*d + ... + (r_n,)*d + (m,)*d,   L1 = 1/eps_1,

holding phi(eps_1 i_1 + eps_2 i_2 + ... + eps_n i_n + eps_n (q+1/2)/m) per axis:
the leading group is the macro cell of each (x, y) pair (the eps-lattice
bookkeeping), the middle groups the nested subcells ([y_i / (eps_{i+1}/eps_i)]
quantization), the trailing group samples y_n at cell centers.

lattice_cells and lattice_index are the package's one eps-lattice count and
cell index: fold reads its axis groups through them, and the folded corrector
takes its eps macro-cells and y_1-subcells from them.
"""

from dataclasses import dataclass

import numpy as np


class UnfoldingError(ValueError):
    pass


def lattice_cells(extent, eps):
    """eps-lattice cells per axis of [0, extent]^d, or None when they do not tile it."""
    ratio = extent / eps if eps > 0 else 0.0
    L = int(round(ratio))
    return L if L >= 1 and abs(ratio - L) <= 1e-9 * ratio else None


def lattice_index(z, k):
    """Flat C-order index of scaled points z >= 0 (npts, d) in a k^d grid of unit
    cells: floor(z) per axis, clamped to k - 1 (the far face is in the last cell)."""
    cell = np.minimum(z.astype(np.int64), k - 1)
    return np.ravel_multi_index(cell.T, (k,) * z.shape[1])


def _macro_count(schedule):
    L = lattice_cells(1.0, schedule.epsilon)
    if L is None:
        raise UnfoldingError("unfolding needs 1/eps_1 to be an integer")
    return L


def _group_sizes(schedule, m):
    """Cells per axis of each axis group: L1, r_2, ..., r_n and m samples."""
    return (_macro_count(schedule), *schedule.ratios, m)


def grid_shape(schedule, d, m):
    return tuple(k for k in _group_sizes(schedule, m) for _ in range(d))


def sample_points(schedule, d, m):
    """Sample positions aligned with values.ravel(): (prod(shape), d)."""
    shape = grid_shape(schedule, d, m)
    eps = schedule.epsilons
    n = schedule.n_scales
    idx = np.indices(shape).reshape(len(shape), -1).astype(float)
    pts = np.empty((idx.shape[1], d))
    for a in range(d):
        pos = np.zeros(idx.shape[1])
        for level in range(n):
            pos += eps[level] * idx[level * d + a]
        pos += eps[n - 1] * (idx[n * d + a] + 0.5) / m
        pts[:, a] = pos
    return pts


@dataclass
class UnfoldedField:
    schedule: object
    d: int
    m: int
    values: np.ndarray

    def integral(self):
        """Integral over D^{eps_1} x Y_1 x ... x Y_n; equals int_D phi for
        lattice-aligned fields (the lattice tiles D exactly)."""
        vol = (_macro_count(self.schedule) * self.schedule.epsilon) ** self.d
        return float(self.values.mean() * vol)


def unfold(phi_fn, schedule, d, m):
    """T^n_eps applied to a vectorized field on D = [0,1]^d."""
    shape = grid_shape(schedule, d, m)
    pts = sample_points(schedule, d, m)
    values = np.asarray(phi_fn(pts), dtype=float).reshape(shape)
    return UnfoldedField(schedule, d, m, values)


def _fold_indices(schedule, m, points):
    """Flat index of each point in every axis group: the eps_1-lattice cell of x,
    then the lattice cell of y_i among the r_{i+1} subcells (y_n: m samples)."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    sizes = _group_sizes(schedule, m)
    ys = schedule.fast_variables(x)
    scaled = [x / schedule.epsilon] + [y * k for y, k in zip(ys, sizes[1:])]
    return tuple(lattice_index(z, k) for z, k in zip(scaled, sizes))


def fold(values, schedule, d, m, points):
    """U^n_eps of a product-grid field, evaluated at points of D: (npts,).

    values: array shaped like grid_shape(schedule, d, m) (an UnfoldedField's
    values, possibly modified, or any field sampled on that product grid).
    The stored axis groups are piecewise constant by construction, so the
    t-averages of the operator reduce to indexing; the trailing fast axis is
    sampled piecewise-constant.
    """
    if isinstance(values, UnfoldedField):
        values = values.values
    shape = grid_shape(schedule, d, m)
    if tuple(values.shape) != shape:
        raise UnfoldingError(f"expected product-grid shape {shape}, got {values.shape}")
    groups = tuple(k ** d for k in _group_sizes(schedule, m))
    return values.reshape(groups)[_fold_indices(schedule, m, points)]


def fold_integral(values, schedule, d, m):
    """int_{D^{eps_1}} U(Phi) dx evaluated at the aligned sample grid."""
    pts = sample_points(schedule, d, m)
    folded = fold(values, schedule, d, m, pts)
    vol = (_macro_count(schedule) * schedule.epsilon) ** d
    return float(folded.mean() * vol)
