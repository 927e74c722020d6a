"""Slow, obviously-correct reference code that the tests compare the package against."""

from collections import Counter
from typing import Dict, Iterable, Tuple

import numpy as np

from nucsplit.graphbuild import ComponentGraph, csr_from_edges


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled Gaussian, truncated at ceil(3*sigma), renormalized to sum 1."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2) if sigma > 0 else np.ones(1)
    return k / k.sum()


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


def cut_weight(g: ComponentGraph, side: np.ndarray) -> float:
    """Total weight of the edges whose ends lie on different sides."""
    eu, ev, ew = edge_arrays(g)
    return float(ew[side[eu] != side[ev]].sum())


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
