"""Mesh, nesting, oversampling patch and partition-of-unity tests."""

import numpy as np
import pytest

from mslab import grid
from mslab.errors import CoverGap, PatchEmptyInterior


def node_index(mesh, i, j):
    """Lexicographic node numbering, x fastest."""
    return j * (mesh.n + 1) + i


def elem_index(mesh, i, j):
    return j * mesh.n + i


def test_mesh_counts_and_coords():
    mesh = grid.StructuredMesh(4)
    assert mesh.n_nodes == 25
    assert mesh.n_elems == 16
    assert mesh.h == 0.25
    assert node_index(mesh, 2, 1) == 7
    np.testing.assert_allclose(mesh.coords[7], [0.5, 0.25])
    for i, j in [(0, 0), (4, 0), (1, 3), (4, 4)]:
        np.testing.assert_allclose(mesh.coords[node_index(mesh, i, j)], [i / 4, j / 4])


def test_elem_connectivity_ccw():
    mesh = grid.StructuredMesh(3)
    # element (1, 1): LL node (1,1)=5, LR 6, UR 10, UL 9
    e = elem_index(mesh, 1, 1)
    np.testing.assert_array_equal(mesh.elem_nodes[e], [5, 6, 10, 9])
    # every element's LL corner is node (i, j)
    for j in range(3):
        for i in range(3):
            assert mesh.elem_nodes[elem_index(mesh, i, j), 0] == node_index(mesh, i, j)


def test_boundary_mask():
    mesh = grid.StructuredMesh(3)
    inner = ~mesh.boundary
    assert inner.sum() == 4      # the (n-1)^2 interior nodes
    for i in (5, 6, 9, 10):
        assert inner[i]


def test_nested_pair_requires_divisibility():
    with pytest.raises(ValueError):
        grid.NestedPair(3, 10)
    pair = grid.NestedPair(4, 16)
    assert pair.r == 4
    assert pair.H == 0.25
    assert pair.h == 0.0625


def test_box_indices_lexicographic():
    np.testing.assert_array_equal(grid.box_indices(1, 3, 2, 4, 5), [11, 12, 16, 17])
    assert grid.box_indices(2, 2, 0, 3, 5).size == 0


def test_patch_box_growth_and_clipping():
    pair = grid.NestedPair(5, 10)
    # interior element: full (2m+1)^2 box
    p = grid.Patch(pair, 12, 1)
    assert p.box == (1, 3, 1, 3)
    assert p.coarse_elems.size == 9
    # corner element: clipped box
    p0 = grid.Patch(pair, 0, 1)
    assert p0.box == (0, 1, 0, 1)
    assert p0.coarse_elems.size == 4
    # m larger than the domain: whole mesh
    pall = grid.Patch(pair, 12, 10)
    assert pall.box == (0, 4, 0, 4)
    assert pall.coarse_elems.size == 25


def test_patch_includes_diagonal_neighbours():
    pair = grid.NestedPair(5, 10)
    p = grid.Patch(pair, 12, 1)
    # element 12 is (2,2); diagonal neighbour (1,1) has index 6
    assert 6 in p.coarse_elems


def test_patch_interior_excludes_box_and_domain_boundary():
    pair = grid.NestedPair(4, 8)
    p = grid.Patch(pair, 0, 1)        # box (0,1,0,1): fine nodes 0..4 each axis
    coords = pair.fine.coords[p.interior_nodes]
    assert np.all(coords > 0.0)
    assert np.all(coords < 0.5 + 1e-15)
    # nodes on the box edge x=0.5 are excluded
    assert np.all(coords[:, 0] < 0.5 - 1e-15)
    assert np.all(coords[:, 1] < 0.5 - 1e-15)


@pytest.mark.parametrize("n_coarse, n_fine, m", [(4, 16, 1), (4, 16, 2), (5, 10, 0), (3, 12, 3)])
def test_interior_box_agrees_with_interior_nodes(n_coarse, n_fine, m):
    """On every patch, interior_box's inclusive ranges, x fastest, are the
    interior nodes, and they stop one fine node short of each box edge."""
    pair = grid.NestedPair(n_coarse, n_fine)
    n, r = pair.fine.n, pair.r
    for p in grid.build_all_patches(pair, m):
        x0, x1, y0, y1 = p.interior_box
        jj, ii = np.divmod(p.interior_nodes, n + 1)
        assert np.array_equal(ii, np.tile(np.arange(x0, x1 + 1), y1 - y0 + 1))
        assert np.array_equal(jj, np.repeat(np.arange(y0, y1 + 1), x1 - x0 + 1))
        ilo, ihi, jlo, jhi = p.box
        assert (x0 - 1, x1 + 1, y0 - 1, y1 + 1) == (ilo * r, (ihi + 1) * r,
                                                    jlo * r, (jhi + 1) * r)


def test_patch_m0_single_cell():
    pair = grid.NestedPair(4, 12)           # r = 3, so a single cell has interior nodes
    p = grid.Patch(pair, 5, 0)
    assert p.coarse_elems.size == 1
    assert p.interior_nodes.size == 4       # (r-1)^2


def test_patch_empty_interior_raises():
    pair = grid.NestedPair(4, 4)            # r = 1: a single cell has no interior node
    with pytest.raises(PatchEmptyInterior):
        grid.Patch(pair, 5, 0)


def test_interior_dofs_block2():
    pair = grid.NestedPair(4, 12)
    p = grid.Patch(pair, 5, 0)
    d = p.interior_dofs(2)
    assert d.size == 2 * p.interior_nodes.size
    np.testing.assert_array_equal(d[0::2], 2 * p.interior_nodes)
    np.testing.assert_array_equal(d[1::2], 2 * p.interior_nodes + 1)


def test_pou_sums_to_one():
    pair = grid.NestedPair(4, 12)
    patches = grid.build_all_patches(pair, 1)
    pou = grid.build_pou(pair, patches)
    total = np.zeros(pou.n_nodes)
    for idx, val in pou.weights:
        total[idx] += val
    np.testing.assert_allclose(total, 1.0, atol=1e-13)


def test_pou_supported_inside_patch():
    pair = grid.NestedPair(4, 12)
    patches = grid.build_all_patches(pair, 1)
    pou = grid.build_pou(pair, patches)
    for i, p in enumerate(patches):
        chi = pou.dense(i)
        outside = np.setdiff1d(np.arange(pair.fine.n_nodes), p.fine_nodes)
        assert np.all(chi[outside] == 0.0)


def test_pou_cover_gap_detected():
    pair = grid.NestedPair(4, 12)
    patches = [grid.Patch(pair, 0, 1)]        # single patch cannot cover
    with pytest.raises(CoverGap):
        grid.build_pou(pair, patches)
