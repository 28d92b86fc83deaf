import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import maxhom
from maxhom.mesh import (CellMesh, DomainMesh, MeshError, edge_local_layout, grid_points,
                         node_corner_layout)


@pytest.mark.parametrize("d,N,nodes,edges", [
    (2, 1, 1, 2), (2, 2, 4, 8), (2, 3, 9, 18),
    (3, 1, 1, 3), (3, 2, 8, 24),
])
def test_cell_mesh_counts(d, N, nodes, edges):
    m = CellMesh(d, N)
    assert m.n_nodes == nodes and m.n_edges == edges
    assert m.cell_nodes.max() == nodes - 1
    assert m.cell_edges.max() == edges - 1


@pytest.mark.parametrize("d,N,total,boundary", [
    (2, 1, 4, 4), (2, 2, 12, 8), (2, 4, 40, 16),
    (3, 1, 12, 12), (3, 2, 54, 48),
])
def test_domain_mesh_counts(d, N, total, boundary):
    m = DomainMesh(d, N)
    assert m.n_edges == total
    assert int(m.boundary_edge_mask.sum()) == boundary
    assert m.n_interior_edges + boundary == total


@pytest.mark.parametrize("N", range(1, 9))
def test_euler_counts_exhaustive_2d(N):
    c = CellMesh(2, N)
    assert len(np.unique(c.cell_edges)) == 2 * N * N
    # every periodic edge belongs to exactly two cells
    counts = np.bincount(c.cell_edges.ravel(), minlength=c.n_edges)
    assert np.all(counts == 2)
    dm = DomainMesh(2, N)
    assert dm.n_edges == 2 * N * (N + 1)


def test_periodic_wrap_identification():
    m = CellMesh(2, 4)
    # the right edge of the last cell in a row is the left edge of the first
    cells = m.cell_edges.reshape(4, 4, -1)
    # layout: [x at off2=0, x at off2=1, y at off1=0, y at off1=1]
    assert cells[3, 0, 3] == cells[0, 0, 2]
    # the top edge of the last cell in a column wraps to the bottom of the first
    assert cells[0, 3, 1] == cells[0, 0, 0]


def test_locate_basic():
    m = DomainMesh(2, 4)
    cell, local = m.locate([[0.3, 0.3]])
    assert cell[0] == np.ravel_multi_index((1, 1), (4, 4))
    assert np.allclose(local[0], [0.2, 0.2], atol=1e-12)


def test_locate_tie_break_lower():
    m = DomainMesh(2, 4)
    cell, local = m.locate([[0.5, 0.1]])
    assert cell[0] == np.ravel_multi_index((1, 0), (4, 4))
    assert local[0, 0] == pytest.approx(1.0)


def test_locate_far_corner():
    m = DomainMesh(2, 4)
    cell, local = m.locate([[1.0, 1.0]])
    assert cell[0] == np.ravel_multi_index((3, 3), (4, 4))
    assert np.allclose(local[0], [1.0, 1.0])


def test_locate_outside_raises():
    m = DomainMesh(2, 4)
    with pytest.raises(MeshError):
        m.locate([[1.5, 0.5]])


def test_locate_round_trip_random():
    rng = np.random.default_rng(0)
    for mesh in (DomainMesh(2, 7), DomainMesh(3, 3)):
        x = rng.random((200, mesh.d))
        cells, local = mesh.locate(x)
        idx = np.stack(np.unravel_index(cells, (mesh.N,) * mesh.d), axis=1)
        recon = (idx + local) * mesh.h
        assert np.abs(recon - x).max() <= mesh.h * 1e-12 + 1e-15


def test_cell_mesh_locate_wraps():
    m = CellMesh(2, 4)
    cells, local = m.locate([[1.25, -0.25]])
    assert cells[0] == np.ravel_multi_index((1, 3), (4, 4))


def test_invalid_construction():
    with pytest.raises(MeshError):
        CellMesh(2, 0)
    with pytest.raises(MeshError):
        DomainMesh(4, 2)


def test_boundary_edges_are_tangential():
    m = DomainMesh(2, 3)
    mids, fam = m.edge_midpoints_and_family
    onb = m.boundary_edge_mask
    for e in np.flatnonzero(onb):
        f = fam[e]
        t = [a for a in range(2) if a != f][0]
        assert mids[e, t] in (0.0, 1.0)


# ---------------------------------------------------------------------------
# the shared numbering

@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from((2, 3)), N=st.integers(1, 6), periodic=st.booleans())
def test_edges_join_their_cell_nodes(d, N, periodic):
    # local edge (f, off) of a cell runs from its corner off to corner off + e_f,
    # and every global edge id gets one ordered node pair from all its cells
    m = CellMesh(d, N) if periodic else DomainMesh(d, N)
    corners = [tuple(c) for c in node_corner_layout(d)]
    ends = {}
    for i, (f, off) in enumerate(edge_local_layout(d)):
        start = m.cell_nodes[:, corners.index(tuple(off))]
        stop = m.cell_nodes[:, corners.index(tuple(off + np.eye(d, dtype=np.int64)[f]))]
        for e, pair in zip(m.cell_edges[:, i].tolist(), zip(start.tolist(), stop.tolist())):
            assert ends.setdefault(e, pair) == pair
        if not periodic:
            step = m.node_coords[stop] - m.node_coords[start]
            assert np.allclose(step, m.h * np.eye(d)[f], rtol=0, atol=1e-12)
    assert sorted(ends) == list(range(m.n_edges))
    assert np.array_equal(np.unique(m.cell_nodes), np.arange(m.n_nodes))


@settings(max_examples=50, deadline=None)
@given(lens=st.lists(st.integers(1, 5), min_size=1, max_size=4), data=st.data())
def test_grid_points_are_c_ordered_products(lens, data):
    axes = [data.draw(hnp.arrays(float, n, elements=st.floats(-10, 10))) for n in lens]
    pts = grid_points(*axes)
    assert pts.shape == (int(np.prod(lens)), len(lens))
    for k in range(len(pts)):
        multi = np.unravel_index(k, lens)
        assert [pts[k, a] for a in range(len(lens))] == [axes[a][multi[a]]
                                                         for a in range(len(lens))]


def test_meshes_compare_by_class_and_fields():
    assert CellMesh(2, 3) == CellMesh(2, 3) and hash(CellMesh(2, 3)) == hash(CellMesh(2, 3))
    assert CellMesh(2, 3) != DomainMesh(2, 3)
    assert DomainMesh(2, 3) != DomainMesh(2, 4)
    assert CellMesh(3, 2).periodic and not DomainMesh(3, 2).periodic
    # both meshes live on the unit box or cell: (d, N) is the whole mesh
    for cls in (CellMesh, DomainMesh):
        assert [f.name for f in dataclasses.fields(cls)] == ["d", "N"]
        assert cls(3, 2).h == 0.5 and cls(2, 7).h == 1 / 7
    with pytest.raises(TypeError):
        DomainMesh(2, 4, 1.5)


def test_no_module_reads_a_box_side():
    # every problem is posed on the unit box and no mesh has an `extent`: a
    # read of one left in a path that no test runs would raise AttributeError
    # only when a run reaches it
    attrs = {}
    for path in pathlib.Path(maxhom.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(f"{path.name}:{node.lineno}")
    assert "h" in attrs and "N" in attrs   # the walk sees the mesh reads
    assert "extent" not in attrs, attrs["extent"]
