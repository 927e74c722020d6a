"""Slow, obviously-correct reference code that the tests compare the package against."""

import heapq
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import numpy as np
from scipy.optimize import lsq_linear
from scipy.spatial import SphericalVoronoi

from nucsplit.geometry import DIRECTIONS_26
from nucsplit.graphbuild import ComponentGraph, csr_from_edges
from nucsplit.partition import FM_BLOWUP, _cut_of
from nucsplit.volume import Component, paint_component


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian, truncated at ceil(3*sigma), renormalized to sum 1."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2) if sigma > 0 else np.ones(1)
    return k / k.sum()


def spherical_voronoi_fractions(directions: np.ndarray, spacing) -> np.ndarray:
    """Solid-angle fraction of each scaled direction's Voronoi cell from
    scipy's SphericalVoronoi, antipodal direction pairs averaged."""
    scaled = directions.astype(np.float64) * np.asarray(spacing, dtype=np.float64)
    unit = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    f = SphericalVoronoi(unit, threshold=1e-6).calculate_areas() / (4.0 * np.pi)
    antipode = [int(np.flatnonzero((directions == -d).all(axis=1))[0]) for d in directions]
    return 0.5 * (f + f[antipode])


def trf_bounded_lstsq(a, b, lo, hi) -> np.ndarray:
    """scipy's trust-region reflective solution of min |a x - b| over lo <= x <= hi."""
    return lsq_linear(a, b, bounds=(lo, hi), method="trf", tol=1e-12).x


def two_sided_surface_area(c: Component, omega: np.ndarray) -> float:
    """Cut-metric area with each family's boundary pairs counted from both
    ends: inside voxels whose neighbour at +d is outside, plus inside voxels
    whose neighbour at -d is outside."""
    box, _ = paint_component(c, pad=1)
    inner = box[1:-1, 1:-1, 1:-1]
    s0, s1, s2 = box.shape
    area = 0.0
    for (dx, dy, dz), w in zip(DIRECTIONS_26[:13].tolist(), omega):
        ahead = box[1 + dz : s0 - 1 + dz, 1 + dy : s1 - 1 + dy, 1 + dx : s2 - 1 + dx]
        behind = box[1 - dz : s0 - 1 - dz, 1 - dy : s1 - 1 - dy, 1 - dx : s2 - 1 - dx]
        pairs = int((inner & ~ahead).sum()) + int((inner & ~behind).sum())
        area += pairs * float(w)
    return area


def graph_from_edge_list(n_nodes: int, edges: Iterable[Tuple[int, int, float]]) -> ComponentGraph:
    """Abstract weighted graph; duplicate pairs are summed."""
    eu, ev, ew = [], [], []
    for u, v, w in edges:
        if not 0 <= u < n_nodes or not 0 <= v < n_nodes or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        if w < 0:
            raise ValueError("edge weights must be >= 0")
        eu.append(min(u, v))
        ev.append(max(u, v))
        ew.append(float(w))
    if eu:
        key = np.array(eu, dtype=np.int64) * n_nodes + np.array(ev, dtype=np.int64)
        uniq, inv = np.unique(key, return_inverse=True)
        agg = np.bincount(inv, weights=np.array(ew))
        indptr, indices, weights = csr_from_edges(n_nodes, uniq // n_nodes, uniq % n_nodes, agg)
    else:
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        indices = np.empty(0, dtype=np.int32)
        weights = np.empty(0, dtype=np.float64)
    coords = np.stack(
        [np.arange(n_nodes, dtype=np.int32), np.zeros(n_nodes, np.int32), np.zeros(n_nodes, np.int32)],
        axis=1,
    )
    return ComponentGraph(coords, indptr, indices, weights)


def edge_arrays(g: ComponentGraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each undirected edge once, as (u, v, w) with u < v."""
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), np.diff(g.indptr))
    keep = rows < g.indices
    return rows[keep], g.indices[keep].astype(np.int64), g.weights[keep]


def voxel_blocks(g: ComponentGraph) -> List[np.ndarray]:
    """Each voxel's block id on each grid level, composed from the levels' maps."""
    ids, blocks = np.arange(g.n_nodes), []
    for cmap, *_ in g.grid_levels:
        ids = cmap[ids]
        blocks.append(ids)
    return blocks


def cut_weight(g: ComponentGraph, side: np.ndarray) -> float:
    """Total weight of the edges whose ends lie on different sides."""
    eu, ev, ew = edge_arrays(g)
    return float(ew[side[eu] != side[ev]].sum())


def grow_initial(lv, target: int, start: int, policy: int) -> np.ndarray:
    """The partitioner's growth over numpy state, one element at a time.

    Greedy frontier growth from ``start`` until the first block holds at
    least ``target`` node weight.

    The next frontier node absorbed is the one minimizing the running
    cut (policy 0) or the one most attached to the region (policy 1),
    ties toward the lowest id; BFS-flavored greedy growth rather than
    FIFO order.
    """
    n = lv.n
    ptr, idx, wts = lv.indptr, lv.indices, lv.weights
    deg_w = np.bincount(lv.rows, weights=wts, minlength=n)
    in_region = np.zeros(n, dtype=bool)
    w_region = np.zeros(n)  # edge weight from each outside node into the region
    side = np.ones(n, dtype=np.uint8)
    nw = lv.node_w.tolist()

    heap: List[Tuple[float, int]] = []
    w0 = 0
    taken = 0
    next_seed = 0

    def priority(v: int) -> float:
        if policy == 0:
            return float(deg_w[v] - 2.0 * w_region[v])
        return float(-w_region[v])

    def absorb(u: int):
        nonlocal w0, taken
        in_region[u] = True
        side[u] = 0
        w0 += nw[u]
        taken += 1
        for j in range(ptr[u], ptr[u + 1]):
            v = int(idx[j])
            if not in_region[v]:
                w_region[v] += wts[j]
                heapq.heappush(heap, (priority(v), v))

    absorb(start)
    while w0 < target and taken < n - 1:
        u = -1
        while heap:
            loss, cand = heapq.heappop(heap)
            if not in_region[cand] and loss == priority(cand):
                u = cand
                break
        if u < 0:
            # disconnected graph: restart from the lowest untouched id
            while in_region[next_seed]:
                next_seed += 1
            u = next_seed
        absorb(u)
    return side


def every_node_starts(lv) -> List[int]:
    """The exhaustive coarsest-level scan: growth from every node, the
    reference the partitioner's few starts are measured against."""
    return list(range(lv.n))


def fm_pass(lv, side, w0, total_w, max_side_w, stall_limit, cut):
    """The partitioner's FM pass over numpy state, one element read at a time.
    It stops after ``stall_limit`` fruitless moves and, on a level of at
    most ``stall_limit`` nodes, once a move takes the running cut above
    FM_BLOWUP times the pass's best."""
    n = lv.n
    same = side[lv.rows] == side[lv.indices]
    ext = np.bincount(lv.rows[~same], weights=lv.weights[~same], minlength=n)
    intw = np.bincount(lv.rows[same], weights=lv.weights[same], minlength=n)
    gain = ext - intw
    moved = np.zeros(n, dtype=bool)
    heap = [(float(-gain[u]), int(u)) for u in np.flatnonzero(ext > 0)]
    heapq.heapify(heap)
    node_w = lv.node_w
    ptr, idx, wts = lv.indptr, lv.indices, lv.weights

    hist: List[int] = []
    cur = cut
    best_cut = cut
    tol = 1e-12 * max(1.0, cut)  # relative: the running cut drifts by rounding
    best_len = 0
    w0_hist = [w0]
    fruitless = 0
    while heap and fruitless < stall_limit:
        neg_g, u = heapq.heappop(heap)
        if moved[u] or -neg_g != gain[u] or ext[u] <= 0:
            continue  # stale heap entry or no longer a boundary node
        wu = int(node_w[u])
        new_w0 = w0 - wu if side[u] == 0 else w0 + wu
        if new_w0 < 1 or total_w - new_w0 < 1 or max(new_w0, total_w - new_w0) > max_side_w:
            continue
        side[u] = 1 - side[u]
        moved[u] = True
        w0 = new_w0
        cur -= gain[u]
        hist.append(u)
        w0_hist.append(w0)
        if cur < best_cut - tol:
            best_cut = cur
            best_len = len(hist)
            fruitless = 0
        else:
            fruitless += 1
            if n <= stall_limit and cur > FM_BLOWUP * best_cut:
                break
        for j in range(ptr[u], ptr[u + 1]):
            v = int(idx[j])
            if moved[v]:
                continue
            w = wts[j]
            if side[v] == side[u]:
                ext[v] -= w
                intw[v] += w
            else:
                ext[v] += w
                intw[v] -= w
            gain[v] = ext[v] - intw[v]
            if ext[v] > 0:
                heapq.heappush(heap, (float(-gain[v]), v))
        ext[u], intw[u] = intw[u], ext[u]
        gain[u] = -gain[u]

    for u in hist[best_len:][::-1]:
        side[u] = 1 - side[u]
    return best_cut, w0_hist[best_len], best_len > 0


def fm_refine(lv, side, total_w, max_side_w, stall_limit, passes):
    """The partitioner's FM refinement of one level: ``fm_pass`` until a pass
    keeps no move or no longer lowers the cut, each pass starting from the
    cut the last one returned."""
    w0 = int(lv.node_w[side == 0].sum())
    cut = _cut_of(lv, side)
    for _ in range(passes):
        new_cut, w0, changed = fm_pass(lv, side, w0, total_w, max_side_w, stall_limit, cut)
        if not changed or new_cut >= cut - 1e-12 * max(1.0, cut):
            break
        cut = new_cut


def greedy_match(lv, cap: int, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
    """Greedy heavy-edge matching over a seeded random visit order.

    Ties on edge weight break toward the lowest neighbor id. Pairs whose
    combined node weight would exceed ``cap`` are not matched so the
    coarsest level always admits a balanced partition.
    """
    n = lv.n
    ptr = lv.indptr.tolist()
    idx = lv.indices.tolist()
    wts = lv.weights.tolist()
    nw = lv.node_w.tolist()
    mate = [-1] * n
    pairs = 0
    for u in rng.permutation(n).tolist():
        if mate[u] >= 0:
            continue
        wu = nw[u]
        best = -1
        best_w = -1.0
        for j in range(ptr[u], ptr[u + 1]):
            v = idx[j]
            if mate[v] >= 0 or wu + nw[v] > cap:
                continue
            w = wts[j]
            # id-sorted neighbors: ties on weight keep the lowest id
            if w > best_w:
                best_w = w
                best = v
        if best >= 0:
            mate[u] = best
            mate[best] = u
            pairs += 1
    return np.array(mate, dtype=np.int64), pairs


def contract(lv, cmap, n_coarse: int) -> Tuple[List[int], Dict[Tuple[int, int], float]]:
    """Coarse node weights and coarse edges ``{(a, b): weight}`` with a < b,
    summed one fine node and one fine edge at a time."""
    node_w = [0] * n_coarse
    for u, c in enumerate(cmap.tolist()):
        node_w[c] += int(lv.node_w[u])
    edges: Dict[Tuple[int, int], float] = {}
    ptr, idx, wts = lv.indptr.tolist(), lv.indices.tolist(), lv.weights.tolist()
    for u in range(lv.n):
        for j in range(ptr[u], ptr[u + 1]):
            a, b = int(cmap[u]), int(cmap[idx[j]])
            if u < idx[j] and a != b:
                key = (min(a, b), max(a, b))
                edges[key] = edges.get(key, 0.0) + wts[j]
    return node_w, edges


def csr_from_edges_lexsort(n_nodes: int, eu, ev, ew) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency, ordered by a two-key lexsort and counted with ``np.add.at``."""
    rows = np.concatenate([eu, ev]).astype(np.int64)
    cols = np.concatenate([ev, eu]).astype(np.int64)
    wts = np.concatenate([ew, ew]).astype(np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, wts = rows[order], cols[order], wts[order]
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols.astype(np.int32), wts


def _plurality(overlap: Dict[Tuple[int, int], int]) -> Dict[int, int]:
    """For each key a, the partner b with the most voxels; ties -> smaller b."""
    best: Dict[int, Tuple[int, int]] = {}
    for (a, b), n in overlap.items():
        if a not in best or (-n, b) < (-best[a][1], best[a][0]):
            best[a] = (b, n)
    return {a: b for a, (b, _) in best.items()}


def evaluate_reference(truth: np.ndarray, predicted: np.ndarray) -> dict:
    """``EvalReport.to_dict()`` of a plurality pairing counted voxel by voxel."""
    overlap = Counter(zip(truth.ravel().tolist(), predicted.ravel().tolist()))
    fwd = _plurality({(t, p): n for (t, p), n in overlap.items() if t})
    back = _plurality({(p, t): n for (t, p), n in overlap.items() if p})

    def excess(winners: Dict[int, int]) -> int:
        return sum(c - 1 for c in Counter(w for w in winners.values() if w).values())

    gt_count = len(fwd)
    counts = {
        "missed": sum(1 for w in fwd.values() if w == 0),
        "added": sum(1 for w in back.values() if w == 0),
        "merged": excess(fwd),
        "split": excess(back),
    }
    out = {"gt_count": gt_count, "predicted_count": len(back), **counts}
    for name, c in counts.items():
        out[f"{name}_pct"] = 100.0 * c / gt_count if gt_count else 0.0
    return out
