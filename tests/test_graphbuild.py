import math

import numpy as np
import pytest

import nucsplit.graphbuild as graphbuild
from nucsplit.binarize import binarize
from nucsplit.graphbuild import ComponentGraph, EdgeWeightConfig, build_graph, csr_from_edges
from nucsplit.histmodel import HistogramModel, background_posterior
from nucsplit.partition import _contract, _cut_of, _Level
from nucsplit.volume import Component, Volume, connected_components
from oracles import csr_from_edges_lexsort, cut_weight, edge_arrays, graph_from_edge_list, voxel_blocks


def comps_of(mask, spacing=(1.0, 1.0, 1.0)):
    return connected_components(Volume(mask.astype(np.uint8), spacing))


def solid_volume(shape_zyx, spacing=(1.0, 1.0, 1.0), fill=100.0):
    data = np.full(shape_zyx, fill, dtype=np.float32)
    return Volume(data, spacing)


def full_component(v):
    comps = comps_of(np.ones(v.data.shape, dtype=bool), v.spacing)
    assert len(comps) == 1
    return comps[0]


def brute_adjacencies(coords):
    filled = {tuple(p) for p in coords.tolist()}
    index = {tuple(p): i for i, p in enumerate(coords.tolist())}
    out = set()
    for p in filled:
        for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            q = (p[0] + d[0], p[1] + d[1], p[2] + d[2])
            if q in filled:
                out.add((min(index[p], index[q]), max(index[p], index[q])))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        EdgeWeightConfig(scheme="fancy")
    with pytest.raises(ValueError):
        EdgeWeightConfig(sigma_grad=0.0)


def test_structure_matches_brute_force():
    rng = np.random.default_rng(21)
    mask = rng.random((6, 7, 5)) < 0.55
    mask[0, 0, 0] = True
    v = Volume(rng.integers(0, 255, size=mask.shape).astype(np.uint8), (1.0, 1.0, 1.0))
    for comp in comps_of(mask):
        g = build_graph(comp, v, cfg=EdgeWeightConfig("const"))
        assert g.n_nodes == len(comp.coords)
        want = brute_adjacencies(comp.coords)
        eu, ev, _ = edge_arrays(g)
        assert set(zip(eu.tolist(), ev.tolist())) == want
        assert g.edge_count == len(want)


def test_adjacency_symmetric_and_nonnegative():
    rng = np.random.default_rng(4)
    v = Volume(rng.integers(0, 200, size=(5, 6, 6)).astype(np.uint16), (1.0, 2.0, 0.5))
    comp = full_component(v)
    g = build_graph(comp, v, cfg=EdgeWeightConfig("grad", sigma_grad=30.0))
    assert (g.weights >= 0).all()
    seen = {}
    for u in range(g.n_nodes):
        lo, hi = g.indptr[u], g.indptr[u + 1]
        for n, w in zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()):
            assert n != u
            seen[(u, n)] = w
    for (u, n), w in seen.items():
        assert seen[(n, u)] == w


def test_const_scheme_closed_form():
    v = solid_volume((2, 2, 2), spacing=(1.0, 2.0, 5.0))
    g = build_graph(full_component(v), v, cfg=EdgeWeightConfig("const"))
    eu, ev, ew = edge_arrays(g)
    got = sorted(zip(eu.tolist(), ev.tolist(), np.round(ew, 12).tolist()))
    weights = {w for _, _, w in got}
    assert weights == {1.0, 0.5, 0.2}
    assert g.edge_count == 12


def test_grad_scheme_closed_form():
    data = np.zeros((1, 1, 3), dtype=np.float32)
    data[0, 0] = [10.0, 10.0, 25.0]
    v = Volume(data, (1.0, 1.0, 1.0))
    g = build_graph(full_component(v), v, cfg=EdgeWeightConfig("grad", sigma_grad=15.0))
    eu, ev, ew = edge_arrays(g)
    table = dict(zip(zip(eu.tolist(), ev.tolist()), ew.tolist()))
    assert table[(0, 1)] == pytest.approx(1.0)  # equal intensities
    assert table[(1, 2)] == pytest.approx(math.exp(-0.5))  # one sigma apart


def test_grad_weights_bounded():
    rng = np.random.default_rng(8)
    v = Volume(rng.integers(0, 255, size=(4, 5, 6)).astype(np.uint8), (1.0, 1.0, 1.0))
    g = build_graph(full_component(v), v, cfg=EdgeWeightConfig("grad", sigma_grad=15.0))
    assert (g.weights > 0).all()
    assert (g.weights <= 1.0 + 1e-12).all()


def reference_model():
    return HistogramModel(0.85, 20.0, 5.0, 0.1, 180.0, 15.0, 0.02)


def test_prob_scheme_matches_posteriors():
    model = reference_model()
    data = np.array([[[15.0, 16.0, 180.0]]], dtype=np.float32)
    v = Volume(data, (1.0, 1.0, 1.0))
    g = build_graph(full_component(v), v, model=model, cfg=EdgeWeightConfig("prob"))
    post = background_posterior(model, np.array([15, 16, 180]))
    eu, ev, ew = edge_arrays(g)
    table = dict(zip(zip(eu.tolist(), ev.tolist()), ew.tolist()))
    assert table[(0, 1)] == pytest.approx(-math.log(min(post[0], post[1])))
    assert table[(1, 2)] == pytest.approx(-math.log(min(post[1], post[2])))
    # both ends deep background: near-free to cut there
    assert table[(0, 1)] < 1e-6
    # one foreground end is enough to make an edge expensive
    assert table[(1, 2)] > 1.0
    assert (g.weights <= -math.log(1e-9) + 1e-9).all()


def test_a_half_sample_takes_the_even_gray_level_in_binarize_and_in_prob_weights():
    """``gray_levels`` rounds half to even: 2.5 is level 2 in binarize's
    histogram (the one occupied level becomes the threshold) and in the
    posterior that a prob graph reads."""
    v = Volume(np.full((1, 1, 2), 2.5, dtype=np.float32))
    _, slabs = binarize(v)
    assert slabs[0].threshold == 2
    model = HistogramModel(0.5, 1.0, 1.0, 0.5, 4.0, 1.0, 0.01)
    g = build_graph(full_component(v), v, model=model, cfg=EdgeWeightConfig("prob"))
    at_2, at_3 = -np.log(background_posterior(model, np.array([2, 3])))
    assert g.weights[0] == pytest.approx(at_2, rel=1e-12)
    assert abs(at_3 - at_2) > 0.5


def test_prob_scheme_rejects_negative_gray_levels():
    model = reference_model()
    v = Volume(np.array([[[-0.4, 5.0]]], dtype=np.float32))
    build_graph(full_component(v), v, model=model, cfg=EdgeWeightConfig("prob"))  # -0.4 is level 0
    v = Volume(np.array([[[-0.6, 5.0]]], dtype=np.float32))
    with pytest.raises(ValueError, match="negative gray levels not allowed"):
        build_graph(full_component(v), v, model=model, cfg=EdgeWeightConfig("prob"))


def test_prob_scheme_requires_model():
    v = solid_volume((2, 2, 2))
    with pytest.raises(ValueError):
        build_graph(full_component(v), v, cfg=EdgeWeightConfig("prob"))


def test_anisotropy_divides_by_distance():
    v = solid_volume((3, 3, 3), spacing=(1.0, 1.0, 5.0))
    g = build_graph(full_component(v), v, cfg=EdgeWeightConfig("const"))
    coords = g.node_coords
    eu, ev, ew = edge_arrays(g)
    for u, w_, wt in zip(eu, ev, ew):
        dz = coords[w_][2] - coords[u][2]
        assert wt == pytest.approx(0.2 if dz else 1.0)


def test_planar_cut_orientation_invariant():
    """Const-weight cut per unit physical area is the same whichever
    axis the plane is normal to; this is what the distance division buys."""
    spacing = (1.0, 2.0, 5.0)
    nx, ny, nz = 20, 10, 4  # equal physical extents per axis
    v = solid_volume((nz, ny, nx), spacing=spacing)
    g = build_graph(full_component(v), v, cfg=EdgeWeightConfig("const"))
    coords = g.node_coords
    per_area = []
    for axis, (n, d) in enumerate(((nx, 1.0), (ny, 2.0), (nz, 5.0))):
        side = (coords[:, axis] < n // 2).astype(np.uint8)
        dims = [(nx, 1.0), (ny, 2.0), (nz, 5.0)]
        del dims[axis]
        area = dims[0][0] * dims[0][1] * dims[1][0] * dims[1][1]
        per_area.append(cut_weight(g, side) / area)
    assert per_area[0] == pytest.approx(per_area[1])
    assert per_area[1] == pytest.approx(per_area[2])


def test_scan_order_nodes_and_determinism():
    rng = np.random.default_rng(77)
    mask = rng.random((5, 5, 5)) < 0.7
    v = Volume(rng.integers(0, 100, size=mask.shape).astype(np.uint8), (1.0, 1.0, 1.0))
    comp = max(comps_of(mask), key=lambda c: len(c.coords))
    g1 = build_graph(comp, v, cfg=EdgeWeightConfig("grad", sigma_grad=10.0))
    g2 = build_graph(comp, v, cfg=EdgeWeightConfig("grad", sigma_grad=10.0))
    flat = g1.node_coords[:, 0] + 5 * (g1.node_coords[:, 1] + 5 * g1.node_coords[:, 2])
    assert (np.diff(flat) > 0).all()
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(g1.weights, g2.weights)


def assert_same_csr(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def test_csr_matches_the_lexsort_version():
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(1, 80))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
        rng.shuffle(pairs)
        flip = rng.random(len(pairs)) < 0.5  # either end may come first
        pairs[flip] = pairs[flip, ::-1]
        eu, ev = pairs[:, 0].astype(np.int32), pairs[:, 1]
        ew = rng.uniform(0.1, 2.0, size=len(pairs))
        assert_same_csr(csr_from_edges(n, eu, ev, ew), csr_from_edges_lexsort(n, eu, ev, ew))


def test_build_graph_csr_matches_the_lexsort_version():
    rng = np.random.default_rng(5)
    mask = rng.random((6, 7, 8)) < 0.7
    v = Volume(rng.integers(0, 255, size=mask.shape).astype(np.uint8), (1.0, 1.0, 2.5))
    comp = max(comps_of(mask, v.spacing), key=lambda c: len(c.coords))
    cfg = EdgeWeightConfig("grad", sigma_grad=20.0)
    g = build_graph(comp, v, cfg=cfg)
    # every 6-adjacent pair once, weighted by the scheme's formula
    index = {tuple(p): i for i, p in enumerate(comp.coords.tolist())}
    eu, ev, step = [], [], []
    for p, i in index.items():
        for axis in range(3):
            j = index.get(tuple(c + (k == axis) for k, c in enumerate(p)))
            if j is not None:
                eu.append(i)
                ev.append(j)
                step.append(v.spacing[axis])
    eu, ev = np.array(eu), np.array(ev)
    vals = v.data[comp.coords[:, 2], comp.coords[:, 1], comp.coords[:, 0]].astype(np.float64)
    diff = vals[eu] - vals[ev]
    ew = np.exp(-(diff * diff) / (2.0 * cfg.sigma_grad**2)) / np.array(step)
    assert_same_csr((g.indptr, g.indices, g.weights), csr_from_edges_lexsort(g.n_nodes, eu, ev, ew))


def test_cut_weight_against_direct_sum():
    rng = np.random.default_rng(13)
    v = Volume(rng.integers(0, 255, size=(4, 4, 4)).astype(np.uint8), (1.0, 1.0, 1.0))
    g = build_graph(full_component(v), v, cfg=EdgeWeightConfig("grad", sigma_grad=25.0))
    side = rng.integers(0, 2, size=g.n_nodes).astype(np.uint8)
    eu, ev, ew = edge_arrays(g)
    direct = ew[side[eu] != side[ev]].sum()
    lv = _Level(g.indptr, g.indices, g.weights, np.ones(g.n_nodes))
    assert _cut_of(lv, side) == pytest.approx(direct, rel=1e-12)


def test_empty_component_rejected():
    with pytest.raises(ValueError):
        Component(np.empty((0, 3), dtype=np.int32))


@pytest.mark.parametrize(
    "spacing, block",
    [
        ((1.0, 1.0, 1.0), (2, 2, 2)),
        ((1.0, 1.0, 5.0), (2, 2, 1)),
        ((1.0, 1.9, 1.0), (2, 2, 2)),
        ((2.0, 1.0, 1.0), (1, 2, 2)),
    ],
)
def test_cells_are_dense_blocks_along_the_short_axes(spacing, block):
    rng = np.random.default_rng(5)
    mask = rng.random((7, 9, 8)) < 0.6
    v = Volume(np.zeros(mask.shape, np.uint8), spacing)
    checked = [0, 0]
    for comp in comps_of(mask, spacing):
        g = build_graph(comp, v)
        coords = comp.coords
        assert len(g.grid_levels) == len(graphbuild.GRID_BLOCKS) == 2
        blocks = voxel_blocks(g)
        for level, (cells, size) in enumerate(zip(blocks, graphbuild.GRID_BLOCKS)):
            size_block = np.where(np.array(block) == 2, size, 1)  # the 2-block, then the 4-block
            k = int(cells.max()) + 1
            assert np.array_equal(np.unique(cells), np.arange(k))  # dense ids 0..k-1
            assert np.bincount(cells).sum() == g.n_nodes
            assert np.array_equal(g.grid_levels[level][-1], np.bincount(cells))  # each block's voxel count
            for c in range(k):
                assert (np.ptp(coords[cells == c], axis=0) < size_block).all()  # within one block
            # voxels share a cell exactly when they share a block of the component's grid
            rel = (coords - coords.min(axis=0)) // size_block
            boxes = [tuple(b) for b in rel.tolist()]
            assert len(set(zip(cells.tolist(), boxes))) == len(set(boxes)) == k
            # and the ids are the scan-order ranks of the blocks
            key = (rel[:, 2] * 100 + rel[:, 1]) * 100 + rel[:, 0]
            assert np.array_equal(cells, np.unique(key, return_inverse=True)[1])
            finer = g.n_nodes if level == 0 else len(g.grid_levels[level - 1][-1])
            checked[level] += k < finer
        # each 2-block cell lies inside exactly one 4-block cell
        two, four = blocks
        assert len(set(zip(two.tolist(), four.tolist()))) == int(two.max()) + 1
    assert min(checked) > 0


def grid_level_masks(rng):
    """Seeded blobs, one-voxel-thin shapes along each axis, and boxes that fill their bounding box."""
    masks = [rng.random((8, 10, 9)) < 0.65 for _ in range(3)]
    sheet = np.zeros((5, 9, 10), dtype=bool)
    sheet[2] = rng.random((9, 10)) < 0.85  # one voxel thin along z
    wall = np.zeros((9, 10, 5), dtype=bool)
    wall[:, :, 2] = True  # along x
    rod = np.zeros((11, 5, 5), dtype=bool)
    rod[:, 2, 2] = True  # along x and y
    return masks + [sheet, wall, rod, np.ones((6, 7, 9), dtype=bool), np.ones((4, 4, 4), dtype=bool)]


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.0, 5.0), (1.0, 1.9, 1.0), (2.0, 1.0, 1.0)])
def test_grid_levels_equal_the_contractions_bit_for_bit(spacing):
    rng = np.random.default_rng(29)
    model = reference_model()
    schemes = (EdgeWeightConfig("const"), EdgeWeightConfig("grad", sigma_grad=25.0), EdgeWeightConfig("prob"))
    summed = [0, 0]
    for mask in grid_level_masks(rng):
        v = Volume(rng.integers(0, 255, size=mask.shape).astype(np.uint8), spacing)
        for comp in comps_of(mask, spacing):
            for cfg in schemes:
                g = build_graph(comp, v, model=model, cfg=cfg)
                assert len(g.grid_levels) == 2
                lv = _Level(g.indptr.astype(np.int64), g.indices.astype(np.int64), g.weights, np.ones(g.n_nodes, np.int64))
                node = np.arange(g.n_nodes)  # each voxel's node on lv
                for level, (cells, (cmap, indptr, indices, weights, node_w)) in enumerate(
                    zip(voxel_blocks(g), g.grid_levels)
                ):
                    assert len(cmap) == lv.n and np.array_equal(cmap[node], cells)  # the map from the level before
                    lv = _contract(lv, cmap, len(node_w))
                    assert np.array_equal(indptr, lv.indptr)
                    assert np.array_equal(indices, lv.indices)
                    assert weights.tobytes() == lv.weights.tobytes()
                    assert np.array_equal(np.bincount(cells), lv.node_w)
                    assert np.array_equal(node_w, lv.node_w)  # the level's own node weights
                    summed[level] += (lv.node_w > 1).any() and len(indices) > 0
                    node = cells
    assert min(summed) > 0


def test_abstract_graphs_have_no_cells():
    g = graph_from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert g.grid_levels is None and not hasattr(g, "cells")
