"""Structured uniform meshes with nodal and edge DOF numbering.

StructuredMesh holds the one numbering of both meshes.  CellMesh lives on
the unit cell Y with full periodic identification (N^d distinct nodes,
d*N^d distinct edges).  DomainMesh lives on a box [0, L]^d and flags edges
whose tangential direction lies in the boundary (the essential condition
u x nu = 0 eliminates exactly those).  grid_points builds every
tensor-product point grid.

Cells are enumerated in C order (last axis fastest); cell (i_1..i_d) covers
prod_a [i_a h, (i_a+1) h].  Per-cell entity ordering is fixed by
node_corner_layout / edge_local_layout and shared with the reference
element tensors in fem.py.
"""

from dataclasses import dataclass
from functools import cached_property
import itertools

import numpy as np


class MeshError(ValueError):
    pass


def node_corner_layout(d):
    """Corner offsets of a cell, C order: shape (2^d, d)."""
    return np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.int64)


def edge_local_layout(d):
    """Per-cell edge ordering: list of (family, corner offset) with offset[family] == 0.

    Edges are grouped by family (axis of the tangent); within a family the
    transverse corners run in C order over the other axes, ascending.
    """
    layout = []
    for f in range(d):
        others = [a for a in range(d) if a != f]
        for corner in itertools.product((0, 1), repeat=d - 1):
            off = np.zeros(d, dtype=np.int64)
            for a, c in zip(others, corner):
                off[a] = c
            layout.append((f, off))
    return layout


def grid_points(*axes):
    """Tensor-product points of 1D axes in C order (last axis fastest): (prod len, len(axes))."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _cell_multi_indices(dims):
    """(ncells, d) multi-indices in C order for a dims grid."""
    return grid_points(*(np.arange(n) for n in dims))


@dataclass(frozen=True)
class StructuredMesh:
    """The numbering shared by CellMesh and DomainMesh: N^d cells of size h = extent / N.

    Nodes, and the edges of each family f (tangent along axis f), are numbered
    in C order over their index grids, family f after families < f.  A
    periodic mesh (class attribute `periodic`) identifies opposite faces: every
    grid is N per axis and ids wrap mod N.  Otherwise the node grid is N + 1
    per axis and the family-f grid is N along f and N + 1 across.  Subclasses
    give `periodic` and `extent`.
    """

    d: int
    N: int

    periodic = False

    def __post_init__(self):
        if self.d not in (2, 3):
            raise MeshError("dimension must be 2 or 3")
        if self.N < 1:
            raise MeshError("need at least one subdivision")

    @property
    def h(self):
        return self.extent / self.N

    @property
    def n_cells(self):
        return self.N ** self.d

    @property
    def _node_dims(self):
        return (self.N if self.periodic else self.N + 1,) * self.d

    def _edge_dims(self, family):
        return tuple(self.N if self.periodic or a == family else self.N + 1
                     for a in range(self.d))

    @cached_property
    def _edge_offsets(self):
        sizes = [int(np.prod(self._edge_dims(f))) for f in range(self.d)]
        return np.concatenate([[0], np.cumsum(sizes)])

    @property
    def n_nodes(self):
        return self._node_dims[0] ** self.d

    @property
    def n_edges(self):
        return int(self._edge_offsets[-1])

    def _index(self, multi):
        return np.mod(multi, self.N) if self.periodic else np.asarray(multi)

    def node_id(self, multi):
        """Global node ids for (npts, d) integer multi-indices (wrapped when periodic)."""
        return np.ravel_multi_index(self._index(multi).T, self._node_dims)

    def edge_id(self, family, multi):
        return self._edge_offsets[family] + np.ravel_multi_index(self._index(multi).T,
                                                                 self._edge_dims(family))

    @cached_property
    def cell_nodes(self):
        cells = _cell_multi_indices((self.N,) * self.d)
        return np.stack([self.node_id(cells + c) for c in node_corner_layout(self.d)], axis=1)

    @cached_property
    def cell_edges(self):
        cells = _cell_multi_indices((self.N,) * self.d)
        ids = [self.edge_id(f, cells + off) for f, off in edge_local_layout(self.d)]
        return np.stack(ids, axis=1)

    @cached_property
    def cell_centers(self):
        cells = _cell_multi_indices((self.N,) * self.d)
        return (cells + 0.5) * self.h


@dataclass(frozen=True)
class CellMesh(StructuredMesh):
    """Periodic tensor-product mesh of the unit cell Y = [0,1)^d."""

    periodic = True
    extent = 1.0

    def locate(self, x):
        """Wrap points into [0,1)^d and return (cell ids, local coords)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x = x - np.floor(x)
        idx = np.minimum((x / self.h).astype(np.int64), self.N - 1)
        local = x / self.h - idx
        # keep local inside [0,1]; wrapped points sit in well-defined cells
        local = np.clip(local, 0.0, 1.0)
        cells = np.ravel_multi_index(idx.T, (self.N,) * self.d)
        return cells, local


@dataclass(frozen=True)
class DomainMesh(StructuredMesh):
    """Tensor-product mesh of the box [0, extent]^d with boundary-edge flags."""

    extent: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.extent <= 0:
            raise MeshError("extent must be positive")

    @cached_property
    def node_coords(self):
        return _cell_multi_indices(self._node_dims) * self.h

    @cached_property
    def boundary_edge_mask(self):
        """True for edges whose tangential direction lies in the boundary."""
        mask = np.empty(self.n_edges, dtype=bool)
        for f in range(self.d):
            dims = self._edge_dims(f)
            multi = _cell_multi_indices(dims)
            on = np.zeros(len(multi), dtype=bool)
            for a in range(self.d):
                if a != f:
                    on |= (multi[:, a] == 0) | (multi[:, a] == self.N)
            mask[self._edge_offsets[f]:self._edge_offsets[f + 1]] = on
        return mask

    @cached_property
    def interior_edges(self):
        return np.flatnonzero(~self.boundary_edge_mask)

    @cached_property
    def interior_index(self):
        """Full edge id -> interior dof index, -1 on boundary edges."""
        idx = np.full(self.n_edges, -1, dtype=np.int64)
        idx[self.interior_edges] = np.arange(len(self.interior_edges))
        return idx

    @property
    def n_interior_edges(self):
        return len(self.interior_edges)

    @cached_property
    def edge_midpoints_and_family(self):
        """(n_edges, d) midpoints and (n_edges,) tangent family per edge."""
        mids = np.empty((self.n_edges, self.d))
        fam = np.empty(self.n_edges, dtype=np.int64)
        for f in range(self.d):
            dims = self._edge_dims(f)
            multi = _cell_multi_indices(dims).astype(float)
            multi[:, f] += 0.5
            sl = slice(self._edge_offsets[f], self._edge_offsets[f + 1])
            mids[sl] = multi * self.h
            fam[sl] = f
        return mids, fam

    def locate(self, x):
        """(cell ids, local coords) with lower-cell tie-break on interior faces."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        tol = 1e-12 * max(1.0, self.extent)
        if np.any(x < -tol) or np.any(x > self.extent + tol):
            raise MeshError("point outside mesh extents")
        z = np.clip(x, 0.0, self.extent) / self.h
        idx = np.floor(z).astype(np.int64)
        on_face = (z == idx) & (idx > 0)
        idx = np.where(on_face, idx - 1, idx)
        idx = np.minimum(idx, self.N - 1)
        local = np.clip(z - idx, 0.0, 1.0)
        cells = np.ravel_multi_index(idx.T, (self.N,) * self.d)
        return cells, local
