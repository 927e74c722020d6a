"""Grid graphs over foreground components.

Each voxel of a component becomes a node; 6-adjacent voxel pairs inside
the component become undirected weighted edges. Three base weight
schemes are supported (intensity gradient, background probability,
constant), and every weight is divided by the physical distance between
the voxel centers so cuts read the same in any orientation under
anisotropic spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .histmodel import HistogramModel, background_posterior, gray_levels
from .volume import Component, Volume

__all__ = ["EdgeWeightConfig", "ComponentGraph", "build_graph", "csr_from_edges"]

SCHEMES = ("grad", "prob", "const")
GRID_BLOCKS = (2, 4)  # block size of each grid level along the short axes; powers of 2


@dataclass(frozen=True)
class EdgeWeightConfig:
    scheme: str = "const"
    sigma_grad: float = 15.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown edge weight scheme {self.scheme!r}")
        if not self.sigma_grad > 0:
            raise ValueError("sigma_grad must be > 0")


class ComponentGraph:
    """Compressed sparse adjacency over scan-ordered component voxels.

    Node i corresponds to node_coords[i]; indptr/indices/weights hold
    both directions of every undirected edge. On a voxel graph
    ``grid_levels`` holds one level per block size of GRID_BLOCKS: the
    occupied blocks of 2, then 4 voxels along each short axis (spacing
    under twice the smallest), numbered in scan order. Blocks are
    aligned to the bounding box, so every 4-block holds whole 2-blocks.
    Each level is (cmap, indptr, indices, weights, node_w): the map from
    the level before to its blocks, their CSR adjacency, equal bit for
    bit to ``partition._contract`` of the level before, and each block's
    voxel count. ``grid_levels`` is None on an abstract graph.
    """

    __slots__ = ("node_coords", "indptr", "indices", "weights", "edge_count", "grid_levels")

    def __init__(self, node_coords, indptr, indices, weights, grid_levels=None):
        self.node_coords = node_coords
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.edge_count = len(indices) // 2
        self.grid_levels = grid_levels

    @property
    def n_nodes(self) -> int:
        return len(self.node_coords)


def csr_from_edges(n_nodes: int, eu, ev, ew) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency from each undirected edge listed once.

    Neighbor lists come out sorted by node id.
    """
    rows = np.concatenate([eu, ev]).astype(np.int64)
    cols = np.concatenate([ev, eu]).astype(np.int64)
    wts = np.concatenate([ew, ew]).astype(np.float64)
    # unique keys when each pair is listed once; a contraction lists its pairs
    # in key order, so timsort finds the first half as one sorted run
    order = np.argsort(rows * n_nodes + cols, kind="stable")
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return indptr, cols[order].astype(np.int32), wts[order]


def build_graph(
    c: Component,
    v: Volume,
    model: Optional[HistogramModel] = None,
    cfg: EdgeWeightConfig = EdgeWeightConfig(),
) -> ComponentGraph:
    if cfg.scheme == "prob" and model is None:
        raise ValueError("prob edge weights need a fitted histogram model")

    coords = c.coords
    lo, hi = c.bounding_box()
    shape = hi - lo + 1
    grid = np.full((shape[2], shape[1], shape[0]), -1, dtype=np.int32)
    rel = coords - lo
    grid[rel[:, 2], rel[:, 1], rel[:, 0]] = np.arange(len(coords), dtype=np.int32)

    if cfg.scheme != "const":
        node_vals = v.data[coords[:, 2], coords[:, 1], coords[:, 0]]
    if cfg.scheme == "grad":
        node_vals = node_vals.astype(np.float64)
    elif cfg.scheme == "prob":
        node_post = background_posterior(model, gray_levels(node_vals))

    axes = []  # each axis's +edges (u, v, w): u ascending, v its +neighbour
    for axis, step in ((0, v.spacing[0]), (1, v.spacing[1]), (2, v.spacing[2])):
        grid_axis = 2 - axis  # grid is (z, y, x)
        a = [slice(None)] * 3
        b = [slice(None)] * 3
        a[grid_axis] = slice(None, -1)
        b[grid_axis] = slice(1, None)
        ga, gb = grid[tuple(a)], grid[tuple(b)]
        present = (ga >= 0) & (gb >= 0)
        ua, va = ga[present], gb[present]
        if cfg.scheme == "const":
            base = np.ones(len(ua))
        elif cfg.scheme == "grad":
            diff = node_vals[ua] - node_vals[va]
            base = np.exp(-(diff * diff) / (2.0 * cfg.sigma_grad**2))
        else:
            base = -np.log(np.minimum(node_post[ua], node_post[va]))
        axes.append((ua, va, base / step))
    indptr, indices, weights = _csr_from_axes(len(coords), axes)

    spacing = np.asarray(v.spacing)
    short = spacing < 2.0 * spacing.min()
    grid_levels = []
    node, n_finer = np.arange(len(coords)), len(coords)  # each voxel's node on the level before
    for size in GRID_BLOCKS:
        ids = _block_ids(rel, shape, np.where(short, size.bit_length() - 1, 0))  # each voxel's block
        cmap = np.empty(n_finer, dtype=np.int64)
        cmap[node] = ids  # well defined: every block holds whole blocks of the level before
        n_cells = int(ids.max()) + 1
        axes = [_sum_axis(cmap, n_cells, *edges) for edges in axes]
        grid_levels.append((cmap, *_csr_from_axes(n_cells, axes), np.bincount(ids)))
        node, n_finer = ids, n_cells
    return ComponentGraph(coords, indptr, indices, weights, tuple(grid_levels))


def _sum_axis(cmap: np.ndarray, n_cells: int, u, v, w) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis's +edges between the blocks that ``cmap`` merges the nodes into.

    A block has at most one +neighbour along an axis, so the edges add up
    per source block. ``u`` ascends, so each sum adds its edges in the
    order of the finer level's CSR, as ``partition._contract`` does.
    """
    cu, cv = cmap[u], cmap[v]
    cross = cu != cv
    cu, cv, w = cu[cross], cv[cross], w[cross]
    summed = np.bincount(cu, weights=w, minlength=n_cells)
    target = np.full(n_cells, -1, dtype=np.int64)
    target[cu] = cv
    src = np.flatnonzero(target >= 0)
    return src, target[src], summed[src]


def _csr_from_axes(n_nodes: int, axes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency from each axis's +edges, on a grid level whose
    ids are the scan-order ranks of its nodes.

    Every row then reads its -z, -y, -x, +x, +y and +z neighbours in the
    order of their ids, so each direction fills its own slot and the
    slots are read out node by node, without a sort. The result equals
    ``csr_from_edges``.
    """
    directions = [(v, u, w) for u, v, w in reversed(axes)] + list(axes)
    nbr = np.full((6, n_nodes), -1, dtype=np.int32)
    wts = np.empty((6, n_nodes))
    for d, (src, dst, w) in enumerate(directions):
        nbr[d][src] = dst
        wts[d][src] = w
    present = nbr >= 0
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(present.sum(axis=0), out=indptr[1:])
    return indptr, nbr.T[present.T], wts.T[present.T]


def _block_ids(rel: np.ndarray, shape: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Each voxel's dense id among the occupied blocks of ``2**shift`` voxels, in scan order."""
    cell = rel >> shift  # half the time of a division
    cell_shape = ((shape - 1) >> shift) + 1
    key = (cell[:, 2] * cell_shape[1] + cell[:, 1]) * cell_shape[0] + cell[:, 0]
    occupied = np.zeros(int(np.prod(cell_shape)), dtype=bool)
    occupied[key] = True
    return (np.cumsum(occupied) - 1)[key]  # rank of each key among the occupied cells
