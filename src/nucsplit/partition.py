"""Balanced two-way multilevel graph partitioning.

The classic scheme: coarsen by matching until the graph is small, then
grow initial blocks on the coarsest level and keep the best after FM
refinement. A voxel graph first takes its grid levels, the blocks of 2
and then of 4 voxels along each short axis, which graphbuild has
already summed. Like matching, they stop at COARSEN_FLOOR nodes, and the
first grid level whose heaviest cell outweighs the matching's cap, or
that shrinks the level by less than the 5% below which the matching
counts as stalled, ends them; matching goes on from the last one kept.
Each level's matching is locally dominant under the expansion* edge
rating w / (c(u) * c(v)), with a seeded hash of the node pair breaking
ties, and is found in numpy rounds of mutual proposals. On a coarsest
level of at most 16 nodes growth starts from every node under both
growth policies; a larger one starts from the two ends of a
pseudo-peripheral sweep and six evenly spaced ids. Starts often grow
the same block, and each distinct block is refined once. The best
block is then refined with pass-based FM local search while projecting
back through the levels. Balance is a hard constraint: neither block
may exceed (1 + imbalance) * ceil(n / 2) nodes, counted in fine-level
voxels at every level via aggregated node weights.

FM (Fiduccia and Mattheyses, DAC 1982) keeps its state for a whole
level: each node's edge weight to either block, the boundary set and
the cut are set up once and carried from pass to pass, and after a
pass only the moved nodes and their neighbours are recounted. Below the
coarsest level the set-up counts only the nodes under a coarser node
with an edge across the coarser cut, as METIS keeps gains for boundary
vertices only (Karypis and Kumar, SIAM J. Sci. Comput. 1998). A pass
builds its heap from the boundary and reads neighbours as numpy slices.
It stops after FM_STALL moves without a new best cut, the fixed cap of
METIS. A node moves at most once per pass, so on a level of at most
FM_STALL nodes that count never ends a pass before its heap empties;
there a pass also stops as soon as a move takes its running cut above
FM_BLOWUP times its best. Either way it keeps the best prefix of its
moves, so FM never raises a cut. On larger levels the same stop costs
cut quality: there, on the levels of up to a few hundred nodes above the
coarsest, a pass that climbs to some 20 times its best cut and comes
back down is how a large graph recovers from a poor coarsest cut, one
that the stop kept on a smaller level included.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .graphbuild import ComponentGraph, csr_from_edges
from .volume import Component, _pieces, check_int, paint_component

__all__ = [
    "PartitionerConfig",
    "Bipartition",
    "bipartition",
    "split_blocks",
]

COARSEN_FLOOR = 40  # coarsening stops at this many nodes
FM_PASSES = 10  # most FM passes per level
FM_STALL = 100  # an FM pass stops after this many moves without a new best cut
FM_BLOWUP = 3.0  # on a level of at most FM_STALL nodes, also once its cut exceeds this many times its best


@dataclass(frozen=True)
class PartitionerConfig:
    imbalance: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.imbalance < 1:
            raise ValueError(f"imbalance must lie in (0, 1), got {self.imbalance}")
        check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class Bipartition:
    side: np.ndarray
    cut_weight: float
    block_sizes: Tuple[int, int]

    def __post_init__(self):
        n0, n1 = self.block_sizes
        if n0 <= 0 or n1 <= 0 or n0 + n1 != len(self.side):
            raise ValueError("blocks must be non-empty and cover all nodes")
        if self.cut_weight < 0:
            raise ValueError("cut weight must be >= 0")


class _Level:
    __slots__ = ("indptr", "indices", "weights", "node_w", "rows", "cmap", "view")

    def __init__(self, indptr, indices, weights, node_w):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.node_w = node_w
        self.rows = np.repeat(np.arange(len(node_w), dtype=np.int64), np.diff(indptr))
        self.cmap = None  # fine -> coarse node map, set when coarsened
        self.view = None  # the lists() tuple once built

    @property
    def n(self) -> int:
        return len(self.node_w)

    def lists(self):
        """indptr, indices, weights, node weights and weighted degrees as
        Python lists, built on first use and shared by growth and BFS."""
        if self.view is None:
            deg_w = np.bincount(self.rows, weights=self.weights, minlength=self.n)
            arrays = (self.indptr, self.indices, self.weights, self.node_w, deg_w)
            self.view = tuple(a.tolist() for a in arrays)
        return self.view


def _cut_of(lv: _Level, side: np.ndarray) -> float:
    crossing = side[lv.rows] != side[lv.indices]
    return float(lv.weights[crossing].sum() / 2.0)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer: a bijection of uint64 that scatters nearby keys."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _match_level(lv: _Level, cap: int, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
    """Locally dominant matching, in numpy rounds over the CSR entries.

    An edge is eligible when its two nodes weigh at most ``cap`` together,
    so the coarsest level always admits a balanced partition. Eligible
    edges are rated by expansion* ``w / (c(u) * c(v))`` (Holtgrewe, Sanders
    and Schulz, IPDPS 2010), which favours light nodes and keeps coarse
    levels matching well. Equal ratings are ordered by a seeded hash of
    the node pair, so the order is strict and the same from both ends.
    Each round, every free node proposes to its best eligible neighbour,
    mutual proposals are matched and edges touching a matched node drop
    out. The best remaining edge is always mutual, so the rounds end with
    a maximal matching (Birn et al., Euro-Par 2013).
    """
    n = lv.n
    nw = lv.node_w
    salt = rng.integers(np.iinfo(np.uint64).max, dtype=np.uint64, endpoint=True)
    rows, cols = lv.rows, lv.indices
    ok = (rows != cols) & (nw[rows] + nw[cols] <= cap)
    rows, cols = rows[ok], cols[ok]
    rating = lv.weights[ok] / (nw[rows] * nw[cols])
    pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    tie = _mix64(pair.astype(np.uint64) ^ salt)  # unique per edge: a bijection of the pair
    mate = np.full(n, -1, dtype=np.int64)
    while len(rows):
        # rows stay sorted, so each free node's entries are one segment
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        counts = np.diff(np.r_[starts, len(rows)])
        top = rating == np.repeat(np.maximum.reduceat(rating, starts), counts)
        best_tie = np.maximum.reduceat(np.where(top, tie, np.uint64(0)), starts)
        best = top & (tie == np.repeat(best_tie, counts))
        proposal = np.full(n, -1, dtype=np.int64)
        proposal[rows[best]] = cols[best]
        u = rows[starts]
        v = proposal[u]
        mutual = proposal[v] == u
        if not mutual.any():
            break  # unreachable with a strict order; never spin
        mate[u[mutual]] = v[mutual]
        free = mate < 0
        alive = free[rows] & free[cols]
        rows, cols, rating, tie = rows[alive], cols[alive], rating[alive], tie[alive]
    return mate, int((mate >= 0).sum()) // 2


def _matching_map(mate: np.ndarray) -> Tuple[np.ndarray, int]:
    """Fine -> coarse map of a matching: each pair and each unmatched node
    becomes one coarse node, numbered in the order of its lower id."""
    n = len(mate)
    ids = np.arange(n, dtype=np.int64)
    is_rep = (mate < 0) | (ids < mate)
    cmap = np.empty(n, dtype=np.int64)
    n_coarse = int(is_rep.sum())
    cmap[is_rep] = np.arange(n_coarse, dtype=np.int64)
    cmap[~is_rep] = cmap[mate[~is_rep]]
    return cmap, n_coarse


def _contract(lv: _Level, cmap: np.ndarray, n_coarse: int) -> _Level:
    """The level whose node c merges the nodes mapped to c: node weights
    add up, and so do the weights of the edges between two coarse nodes."""
    lv.cmap = cmap
    half = lv.rows < lv.indices
    eu = cmap[lv.rows[half]]
    ev = cmap[lv.indices[half]]
    ew = lv.weights[half]
    cross = eu != ev
    a = np.minimum(eu[cross], ev[cross])
    b = np.maximum(eu[cross], ev[cross])
    key = a * n_coarse + b
    uniq, inv = np.unique(key, return_inverse=True)
    agg = np.bincount(inv, weights=ew[cross])
    indptr, indices, weights = csr_from_edges(n_coarse, uniq // n_coarse, uniq % n_coarse, agg)
    node_w = np.bincount(cmap, weights=lv.node_w, minlength=n_coarse).astype(np.int64)
    return _Level(indptr, indices, weights, node_w)


def _bfs_farthest(lv: _Level, start: int) -> Tuple[int, int]:
    ptr, idx = lv.lists()[:2]
    dist = [-1] * lv.n
    dist[start] = 0
    q = deque([start])
    far, far_d = start, 0
    while q:
        u = q.popleft()
        for v in idx[ptr[u] : ptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                if dist[v] > far_d:  # id-ordered neighbors keep ties low
                    far, far_d = v, dist[v]
                q.append(v)
    return far, far_d


def _start_candidates(lv: _Level) -> List[int]:
    """Growth starts for the coarsest level, each tried under both policies.

    At most 16 nodes, the sizes small enough to check by brute force:
    every node. Larger levels: the two endpoints of the two-sweep
    pseudo-peripheral heuristic, then the ids ``(i * n) // 6`` for
    i = 0..5, with repeats dropped, so at most 8 starts.
    """
    n = lv.n
    if n <= 16:
        return list(range(n))
    s1, _ = _bfs_farthest(lv, 0)
    s2, _ = _bfs_farthest(lv, s1)
    return list(dict.fromkeys([s2, s1] + [(i * n) // 6 for i in range(6)]))


def _grow_initial(lv: _Level, target: int, start: int, policy: int) -> np.ndarray:
    """Greedy frontier growth from ``start`` until the first block holds
    at least ``target`` node weight.

    The next frontier node absorbed is the one minimizing the running
    cut (policy 0) or the one most attached to the region (policy 1),
    ties toward the lowest id; BFS-flavored greedy growth rather than
    FIFO order.
    """
    n = lv.n
    ptr, idx, wts, nw, deg_w = lv.lists()
    in_region = [False] * n
    w_region = [0.0] * n  # edge weight from each outside node into the region

    heap: List[Tuple[float, int]] = []
    w0 = 0
    taken = 0
    next_seed = 0

    def priority(v: int) -> float:
        if policy == 0:
            return deg_w[v] - 2.0 * w_region[v]
        return -w_region[v]

    def absorb(u: int):
        nonlocal w0, taken
        in_region[u] = True
        w0 += nw[u]
        taken += 1
        for j in range(ptr[u], ptr[u + 1]):
            v = idx[j]
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
    return np.logical_not(in_region).astype(np.uint8)


def _row_entries(indptr: np.ndarray, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR positions of the rows of ``nodes``, in order, and each one's index into ``nodes``."""
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    local = np.repeat(np.arange(len(nodes)), count)
    return np.arange(len(local)) + np.repeat(start - (np.cumsum(count) - count), count), local


class _FMState:
    """FM state of one level, kept from pass to pass.

    ``ext``/``intw`` hold each node's edge weight to the other block and
    to its own, and ``boundary`` the nodes with ``ext > 0``. All three
    equal a fresh bincount over ``sides`` bit for bit. They are set up
    only for the ``candidates`` (ascending; every node when None), the
    nodes under a coarser node with an edge across the coarser cut: any
    other node has ``ext`` 0 and its weighted degree as ``intw``. After
    a pass that moved few nodes, the moved and neighbouring nodes are
    recounted, each row summed in CSR order as ``np.bincount`` sums it.
    ``side`` is the caller's array, kept in step with the list ``sides``;
    a pass reads neighbours from ``csr`` as numpy slices.
    """

    __slots__ = ("lv", "side", "sides", "ext", "intw", "boundary", "moved", "w0", "cut", "total_w", "max_side_w",
                 "csr")

    def __init__(self, lv: _Level, side: np.ndarray, total_w: int, max_side_w: int, candidates=None):
        self.lv = lv
        self.side = side
        self.sides = side.tolist()
        self.cut = self.count_all(candidates)
        self.moved = [False] * lv.n
        self.w0 = int(lv.node_w[side == 0].sum())
        self.total_w = total_w
        self.max_side_w = max_side_w
        self.csr = (lv.indptr.tolist(), lv.indices, lv.weights, lv.node_w.tolist())

    def count_all(self, nodes=None) -> float:
        """Count ``ext``, ``intw`` and ``boundary`` afresh, where only ``nodes``
        (ascending; every node when None) may have an edge to the other
        block, and return the cut. Its crossing weights come in CSR order,
        so the cut equals ``_cut_of`` bit for bit."""
        lv = self.lv
        ext, intw, cross_w = self.count_rows(nodes)
        if nodes is None:
            self.ext, self.intw = ext.tolist(), intw.tolist()
            self.boundary = set(np.flatnonzero(ext > 0).tolist())
        else:
            self.ext = [0.0] * lv.n
            self.intw = np.bincount(lv.rows, weights=lv.weights, minlength=lv.n).tolist()  # weighted degrees
            self.boundary = set()
            self.set_rows(nodes, ext, intw)
        return float(cross_w.sum() / 2.0)

    def count_rows(self, nodes=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``ext`` and ``intw`` of the rows of ``nodes`` (every row when None),
        each summed in CSR order, and the weights of their crossing entries."""
        lv, side = self.lv, self.side
        if nodes is None:
            pos, rows, n_rows = slice(None), lv.rows, lv.n
        else:
            pos, rows = _row_entries(lv.indptr, nodes)
            n_rows = len(nodes)
        wts = lv.weights[pos]
        cross = side[lv.rows[pos]] != side[lv.indices[pos]]
        cross_w = wts[cross]
        ext = np.bincount(rows[cross], weights=cross_w, minlength=n_rows)
        intw = np.bincount(rows[~cross], weights=wts[~cross], minlength=n_rows)
        return ext, intw, cross_w

    def set_rows(self, nodes: np.ndarray, ext: np.ndarray, intw: np.ndarray) -> None:
        """Store the fresh counts of ``nodes`` and update the boundary to match."""
        for v, e, i in zip(nodes.tolist(), ext.tolist(), intw.tolist()):
            self.ext[v] = e
            self.intw[v] = i
        self.boundary.difference_update(nodes[ext <= 0].tolist())
        self.boundary.update(nodes[ext > 0].tolist())

    def recount(self, moved: List[int]) -> None:
        """Make the state exact again after the ``moved`` nodes changed sides."""
        lv = self.lv
        # a whole-level bincount costs as much as recounting the touched rows
        # once 1/32 (3k nodes) to 1/8 (145k nodes) of the level has moved
        if len(moved) * 16 > lv.n:
            self.count_all()
            return
        pos, _ = _row_entries(lv.indptr, np.asarray(moved))
        touched = np.zeros(lv.n, dtype=bool)
        touched[moved] = True
        touched[lv.indices[pos]] = True
        nodes = np.flatnonzero(touched)
        ext, intw, _ = self.count_rows(nodes)
        self.set_rows(nodes, ext, intw)


def _fm_pass(st: _FMState, stall_limit: int) -> bool:
    """One FM pass from the boundary nodes; it stops after ``stall_limit``
    moves without a new best cut and keeps the best prefix of its moves.
    On a level of at most ``stall_limit`` nodes, which that count cannot
    stop early, it also stops once a move takes the running cut above
    FM_BLOWUP times the best. Returns whether it kept any."""
    ptr, idx, wts, node_w = st.csr
    sides, ext, intw, moved = st.sides, st.ext, st.intw, st.moved
    total_w, max_side_w = st.total_w, st.max_side_w
    small = len(sides) <= stall_limit
    heap = [(intw[u] - ext[u], u) for u in st.boundary]
    heapq.heapify(heap)  # pops in (-gain, id) order, whatever the set's order

    hist: List[int] = []
    w0 = st.w0
    cur = best_cut = st.cut
    tol = 1e-12 * max(1.0, cur)  # the running cut drifts by rounding in proportion to its size
    best_len = 0
    best_w0 = w0
    fruitless = 0
    while heap and fruitless < stall_limit:
        neg_g, u = heapq.heappop(heap)
        g = ext[u] - intw[u]
        if moved[u] or -neg_g != g or ext[u] <= 0:
            continue  # stale heap entry or no longer a boundary node
        wu = node_w[u]
        su = sides[u]
        new_w0 = w0 - wu if su == 0 else w0 + wu
        if new_w0 < 1 or total_w - new_w0 < 1 or max(new_w0, total_w - new_w0) > max_side_w:
            continue
        su = 1 - su
        sides[u] = su
        moved[u] = True
        w0 = new_w0
        cur -= g
        hist.append(u)
        if cur < best_cut - tol:
            best_cut = cur
            best_len = len(hist)
            best_w0 = w0
            fruitless = 0
        else:
            fruitless += 1
            if small and cur > FM_BLOWUP * best_cut:
                break  # this move is undone with the rest of the tail
        a, b = ptr[u], ptr[u + 1]
        for v, w in zip(idx[a:b].tolist(), wts[a:b].tolist()):
            if moved[v]:
                continue
            if sides[v] == su:
                ext[v] -= w
                intw[v] += w
            else:
                ext[v] += w
                intw[v] -= w
            if ext[v] > 0:
                heapq.heappush(heap, (intw[v] - ext[v], v))
        ext[u], intw[u] = intw[u], ext[u]

    for u in hist[best_len:]:  # each node moves at most once per pass
        sides[u] = 1 - sides[u]
    for u in hist:
        moved[u] = False
    keep = hist[:best_len]
    st.side[keep] = 1 - st.side[keep]
    st.w0 = best_w0
    st.cut = best_cut
    if hist:
        st.recount(hist)
    return best_len > 0


def _fm_refine(lv: _Level, side: np.ndarray, total_w: int, max_side_w: int, candidates=None) -> None:
    """Refines ``side`` in place, with FM set up over the ``candidates`` (see _FMState)."""
    st = _FMState(lv, side, total_w, max_side_w, candidates)
    for _ in range(FM_PASSES):
        if not _fm_pass(st, FM_STALL):  # a pass that keeps a move lowers the cut by a relative 1e-12
            break


def _coarsen(g: ComponentGraph, base: _Level, cap: int, rng: np.random.Generator) -> List[_Level]:
    """The levels from ``base`` to the coarsest: first the grid levels of a
    voxel graph, as long as they pass the guards, then matching levels."""
    levels = [base]
    for cmap, indptr, indices, weights, cell_w in g.grid_levels or ():
        lv = levels[-1]
        # a cell heavier than the cap could unbalance the coarsest level, and
        # cells that barely shrink the level fail the matching's stall rule
        if lv.n <= COARSEN_FLOOR or cell_w.max() > cap or len(cell_w) > 0.95 * lv.n:
            break
        lv.cmap = cmap
        levels.append(_Level(indptr, indices, weights, cell_w))
    while levels[-1].n > COARSEN_FLOOR:
        lv = levels[-1]
        mate, pairs = _match_level(lv, cap, rng)
        if pairs == 0 or lv.n - pairs > 0.95 * lv.n:
            break  # matching stalled
        levels.append(_contract(lv, *_matching_map(mate)))
    return levels


def bipartition(g: ComponentGraph, cfg: PartitionerConfig = PartitionerConfig()) -> Bipartition:
    n = g.n_nodes
    if n < 2:
        raise ValueError("cannot bipartition a graph with fewer than 2 nodes")
    rng = np.random.default_rng(cfg.seed)

    base = _Level(g.indptr, g.indices, g.weights, np.ones(n, dtype=np.int64))
    ceil_half = (n + 1) // 2
    max_side_w = int(math.floor((1.0 + cfg.imbalance) * ceil_half + 1e-9))
    cap = max(2, int(cfg.imbalance * ceil_half))
    if cap > max_side_w - ceil_half + 1:
        # growth stops at the first node that reaches ceil_half, so a coarse
        # node heavier than the slack plus one could overshoot the bound
        cap = 1

    levels = _coarsen(g, base, cap, rng)
    coarsest = levels[-1]
    side = None
    best_cut = math.inf
    tried = set()
    for start in _start_candidates(coarsest):
        for policy in (0, 1):
            cand = _grow_initial(coarsest, ceil_half, start, policy)
            key = cand.tobytes()
            if key in tried:
                continue  # FM is deterministic and only a strictly smaller cut wins
            tried.add(key)
            _fm_refine(coarsest, cand, n, max_side_w)
            cut = _cut_of(coarsest, cand)
            if side is None or cut < best_cut - 1e-12 * max(1.0, best_cut):
                side, best_cut = cand, cut
    for lv, coarser in zip(levels[-2::-1], levels[:0:-1]):
        # a finer edge that crosses the cut joins coarser nodes across it, and
        # coarsening keeps zero-weight edges, so only the nodes under a coarser
        # node with a crossing entry can have one
        crossing = np.zeros(coarser.n, dtype=bool)
        crossing[coarser.rows[side[coarser.rows] != side[coarser.indices]]] = True
        side = side[lv.cmap]
        _fm_refine(lv, side, n, max_side_w, np.flatnonzero(crossing[lv.cmap]))

    n0 = int((side == 0).sum())
    n1 = n - n0
    if max(n0, n1) > max_side_w:
        raise RuntimeError("partitioner produced an unbalanced result")
    return Bipartition(side=side, cut_weight=_cut_of(base, side), block_sizes=(n0, n1))


def split_blocks(c: Component, b: Bipartition) -> List[Component]:
    """Decompose the two blocks into 6-connected components.

    Returned components are ordered by their first voxel in scan order;
    their union is exactly the input component.
    """
    if len(b.side) != len(c.coords):
        raise ValueError("bipartition does not cover the component")
    found = []
    for s in (0, 1):
        sub = c.coords[b.side == s]
        if len(sub) == 0:
            continue
        box, origin = paint_component(Component(sub))
        found.extend(Component(coords + origin) for coords in _pieces(box))
    return sorted(found, key=Component.scan_key)
