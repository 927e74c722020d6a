"""Correctness checks that the benchmark runs on every result.

They come from an independent computation (an overlap pairing done
here, apart from ``evaluate``) and from properties the method
guarantees, never from a stored copy of an earlier output. Every check
returns a list of failure messages; an empty list means it passed.

The checks walk the volume in z-chunks, so their memory stays well
below the program's own and ``peak_rss_mb`` measures the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
from scipy import ndimage

CHUNK_VOXELS = 1 << 20


def _z_chunks(shape) -> List[slice]:
    step = max(1, CHUNK_VOXELS // (shape[1] * shape[2]))
    return [slice(z, min(z + step, shape[0])) for z in range(0, shape[0], step)]


def overlap_matrix(truth: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Voxel counts of every (truth label, predicted label) pair, background 0."""
    g = int(truth.max()) + 1
    p = int(labels.max()) + 1
    counts = np.zeros(g * p, dtype=np.int64)
    for sl in _z_chunks(truth.shape):
        key = truth[sl].astype(np.int64) * p + labels[sl]
        counts += np.bincount(key.ravel(), minlength=g * p)
    return counts.reshape(g, p)


@dataclass(frozen=True)
class Pairing:
    """Plurality overlap in both directions, as the method's evaluation defines it."""

    gt_count: int
    predicted_count: int
    matched: int  # truth nuclei whose plurality partner points back at them
    missed: int
    added: int
    merged: int
    split: int


def _excess(targets: np.ndarray) -> int:
    """How many more sources than targets: sum over targets of fan-in minus one."""
    hit = targets[targets > 0]
    return int(hit.size - np.unique(hit).size)


def pair(truth: np.ndarray, labels: np.ndarray) -> Pairing:
    m = overlap_matrix(truth, labels)
    gts = np.flatnonzero(m[1:].sum(axis=1)) + 1
    preds = np.flatnonzero(m[:, 1:].sum(axis=0)) + 1
    # argmax returns the first maximum, so ties go to the smaller label
    fwd = np.argmax(m, axis=1)  # truth -> predicted, background allowed
    back = np.argmax(m, axis=0)  # predicted -> truth, background allowed
    matched = int(sum(1 for t in gts if fwd[t] and back[fwd[t]] == t))
    return Pairing(
        gt_count=int(gts.size),
        predicted_count=int(preds.size),
        matched=matched,
        missed=int((fwd[gts] == 0).sum()),
        added=int((back[preds] == 0).sum()),
        merged=_excess(fwd[gts]),
        split=_excess(back[preds]),
    )


def check_report(report, own: Pairing) -> List[str]:
    """``evaluate``'s counts must equal the ones derived from the pairing."""
    out = []
    for name in ("gt_count", "predicted_count", "missed", "added", "merged", "split"):
        a, b = getattr(report, name), getattr(own, name)
        if a != b:
            out.append(f"evaluate reports {name}={a}, the benchmark's pairing gives {b}")
    return out


def check_labels(labels: np.ndarray, objects: Sequence[Dict], mask: np.ndarray, params, spacing) -> List[str]:
    """Labels are exactly 1..K, each one 6-connected piece inside the mask,
    and each object's report agrees with its label."""
    out = []
    k = len(objects)
    counts = np.zeros(k + 1, dtype=np.int64)
    for sl in _z_chunks(labels.shape):
        chunk = labels[sl]
        if int(chunk.max(initial=0)) > k:
            out.append(f"a label exceeds K={k}")
            return out
        counts += np.bincount(chunk.ravel(), minlength=k + 1)
        if (chunk[mask[sl] == 0] != 0).any():
            out.append(f"labelled voxels outside the binarize mask in z {sl.start}..{sl.stop - 1}")
    if k and (counts[1:] == 0).any():
        out.append(f"labels are not exactly 1..{k}: {int((counts[1:] == 0).sum())} ids unused")
        return out

    six = ndimage.generate_binary_structure(3, 1)
    for lab, box in enumerate(ndimage.find_objects(labels), start=1):
        _, pieces = ndimage.label(labels[box] == lab, structure=six)
        if pieces != 1:
            out.append(f"label {lab} has {pieces} 6-connected pieces")

    voxel_volume = spacing[0] * spacing[1] * spacing[2]
    for i, obj in enumerate(objects, start=1):
        if obj["id"] != i:
            out.append(f"object {i} reports id {obj['id']}")
        if obj["voxel_count"] != counts[i]:
            out.append(f"object {i} reports {obj['voxel_count']} voxels, its label has {counts[i]}")
        vol = obj["volume"]
        if not math.isclose(vol, counts[i] * voxel_volume, rel_tol=1e-12):
            out.append(f"object {i} volume {vol} is not its voxel count times the voxel volume")
        if not params.v_min < vol < params.v_max:
            out.append(f"object {i} volume {vol} outside ({params.v_min}, {params.v_max})")
        if not 0.0 < obj["score"] <= 1.0:
            out.append(f"object {i} score {obj['score']} outside (0, 1]")
    return out


def check_bipartition(graph, cfg, b) -> List[str]:
    """Balance bound and a cut weight recomputed from the graph's CSR arrays."""
    out = []
    n = graph.n_nodes
    side = np.asarray(b.side)
    n0 = int((side == 0).sum())
    if (n0, n - n0) != tuple(b.block_sizes):
        out.append(f"bipartition block sizes {b.block_sizes} disagree with its side array")
    bound = math.floor((1.0 + cfg.imbalance) * math.ceil(n / 2) + 1e-9)
    if max(n0, n - n0) > bound:
        out.append(f"bipartition of {n} nodes has a block of {max(n0, n - n0)} > bound {bound}")
    indptr = np.asarray(graph.indptr)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    crossing = side[rows] != side[np.asarray(graph.indices)]
    cut = float(np.asarray(graph.weights)[crossing].sum()) / 2.0
    if not math.isclose(cut, b.cut_weight, rel_tol=1e-9, abs_tol=1e-9):
        out.append(f"bipartition cut weight {b.cut_weight} but the crossing edges weigh {cut}")
    return out


def _flat_keys(coords: np.ndarray) -> np.ndarray:
    c = coords.astype(np.int64)
    return np.sort(c[:, 0] + (c[:, 1] << 21) + (c[:, 2] << 42))


def check_split_blocks(component, blocks) -> List[str]:
    """The blocks cover the component exactly, each voxel once."""
    if not blocks:
        return ["split_blocks returned no blocks"]
    got = _flat_keys(np.concatenate([blk.coords for blk in blocks]))
    if not np.array_equal(got, _flat_keys(component.coords)):
        return [f"split_blocks output does not partition its {len(component)}-voxel component"]
    return []


def check_result(wl, mask: np.ndarray, truth: np.ndarray, result, report):
    """Every check of one segment result and its report: (failures, pairing)."""
    labels = result.labels.data
    failures = check_labels(labels, result.objects, mask, wl.params, result.labels.spacing)
    own = pair(truth, labels)
    failures += check_report(report, own)
    failures += wl.floor(report)
    return failures, own
