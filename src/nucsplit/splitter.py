"""Recursive component splitting and the end-to-end segmentation driver.

A foreground component is scored against the nucleus model. Components
that look like single nuclei are kept as they are; oversized ones are
bipartitioned and their connected subcomponents are scored against the
parent's score, recursing depth-first. When none of the children of a
split survive, the parent itself is kept as long as its own score is
positive, so a mediocre parent still beats an empty segmentation.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .binarize import BinarizationConfig, SlabResult, binarize, smooth_slabs
from .geometry import volume_of
from .graphbuild import EdgeWeightConfig, build_graph
from .histmodel import HistogramModel
from .nucmodel import Decision, NucleusModelParams, ScoreContext, score_function
from .partition import PartitionerConfig, bipartition, split_blocks
from .volume import Component, Volume, check_int, connected_components

__all__ = ["SplitContext", "SegmentationResult", "recursive_split", "segment"]


@dataclass(frozen=True)
class SplitContext:
    """Everything the recursion needs besides the component and its
    histogram model, one per ``segment`` call. The score context is derived:
    its repartition gate reads the partitioner's imbalance."""

    volume: Volume  # intensity the edge weights read; segment passes the smooth_slabs output
    params: NucleusModelParams
    edge_cfg: EdgeWeightConfig = EdgeWeightConfig()
    part_cfg: PartitionerConfig = PartitionerConfig()
    score_ctx: ScoreContext = field(init=False)

    def __post_init__(self):
        score_ctx = ScoreContext(self.volume.spacing, self.params, self.part_cfg.imbalance)
        object.__setattr__(self, "score_ctx", score_ctx)


@dataclass(frozen=True)
class SegmentationResult:
    labels: Volume  # u32, 0 = background
    objects: List[Dict] = field(default_factory=list)

    def object_report(self) -> str:
        """One JSON object per line, one line per labelled nucleus."""
        return "\n".join(json.dumps(o) for o in self.objects)


def _depth_bound(n_voxels: int, imbalance: float) -> int:
    # balance guarantees every block is at most (1+eps)/2 of its parent,
    # so the recursion cannot go deeper than log_{2/(1+eps)}(n) plus a
    # small-n allowance
    shrink = 2.0 / (1.0 + imbalance)
    return int(math.ceil(math.log(max(n_voxels, 2)) / math.log(shrink))) + 3


def _process(c: Component, s_parent: float, ctx: SplitContext, model, depth: int, max_depth: int):
    if depth > max_depth:
        raise RuntimeError(
            f"split recursion reached depth {depth}; balanced partitions should "
            f"bottom out by {max_depth}"
        )
    scored = score_function(c, s_parent, ctx.score_ctx)
    if scored.decision is Decision.DISCARD:
        return []
    if scored.decision is Decision.KEEP:
        return [(c, scored.score, scored.psi)]

    # repartition; single voxels cannot be cut and fall back to leaf scoring
    kept = []
    if len(c) >= 2:
        graph = build_graph(c, ctx.volume, model=model, cfg=ctx.edge_cfg)
        for child in split_blocks(c, bipartition(graph, ctx.part_cfg)):
            kept.extend(_process(child, scored.score, ctx, model, depth + 1, max_depth))
    if kept:
        return kept
    return [(c, scored.score, scored.psi)] if scored.score > 0 else []


def recursive_split(c: Component, ctx: SplitContext,
                    model: Optional[HistogramModel] = None) -> List[Tuple[Component, float, float]]:
    """Depth-first split of one foreground component; ``model`` is the
    histogram model that ``prob`` edge weights read.

    Returns the kept leaf components with their scores and sphericities.
    The top of the recursion has no parent, so the parent score starts at
    zero and the first decision is driven purely by the component's own
    volume and shape.
    """
    max_depth = _depth_bound(len(c), ctx.part_cfg.imbalance)
    return _process(c, 0.0, ctx, model, 0, max_depth)


def _model_for(c: Component, slabs: List[SlabResult]) -> Optional[HistogramModel]:
    """Histogram model for a component: that of the slab holding most of
    its voxels (ties to the lower slab), or else that of the fitted slab
    nearest to any of its voxels."""
    per_z = np.bincount(c.coords[:, 2])
    held = [int(per_z[s.z_lo : s.z_hi].sum()) for s in slabs]
    home = slabs[held.index(max(held))]
    if home.model is not None:
        return home.model
    z = np.flatnonzero(per_z)
    # ties go to the lower slab; with no fitted slab, home's model: None
    fitted = [s for s in slabs if s.model is not None]
    return min(fitted, key=lambda s: np.abs(z - np.clip(z, s.z_lo, s.z_hi - 1)).min(), default=home).model


# a forked worker's recursive_split arguments, one tuple per component, set by the pool's initializer
_work: List[tuple] = []


def _set_work(work: List[tuple]) -> None:
    global _work
    _work = work


def _split_nth(i: int) -> List[Tuple[Component, float, float]]:
    return recursive_split(*_work[i])


def segment(
    v: Volume,
    params: NucleusModelParams,
    bin_cfg: BinarizationConfig = BinarizationConfig(),
    edge_cfg: EdgeWeightConfig = EdgeWeightConfig(),
    part_cfg: PartitionerConfig = PartitionerConfig(),
    threads: int = 1,
) -> SegmentationResult:
    """Binarize, split every foreground component, and assemble labels.
    Each slab is smoothed once, for the thresholds and the edge weights.
    With ``threads`` above 1, forked workers split the components, largest
    first, where fork exists; the labels do not depend on ``threads``."""
    check_int("threads", threads, 1)
    smoothed = smooth_slabs(v, bin_cfg)
    mask, slabs = binarize(smoothed, replace(bin_cfg, sigma_smooth=0.0))
    ctx = SplitContext(smoothed, params, edge_cfg, part_cfg)
    components = connected_components(mask)
    del mask  # the components hold the foreground from here on
    prob = edge_cfg.scheme == "prob"  # only probability edge weights read a histogram model
    work = [(comp, ctx, _model_for(comp, slabs) if prob else None) for comp in components]
    if prob and any(model is None for _, _, model in work):
        raise ValueError("probability edge weights need a fitted histogram model")

    kept: List[Tuple[Component, float, float]] = []
    if threads > 1 and len(work) > 1 and "fork" in multiprocessing.get_all_start_methods():
        workers = min(threads, len(work), os.cpu_count() or 1)
        # forked workers inherit ``work`` and read the smoothed volume copy-on-write
        with multiprocessing.get_context("fork").Pool(workers, _set_work, (work,)) as pool:
            order = sorted(range(len(work)), key=lambda i: -len(work[i][0]))
            for leaves in pool.imap_unordered(_split_nth, order, chunksize=1):
                kept.extend(leaves)
    else:
        for item in work:
            kept.extend(recursive_split(*item))

    kept.sort(key=lambda item: item[0].scan_key())  # label ids follow scan order

    labels = np.zeros(v.data.shape, dtype=np.uint32)
    objects = []
    for new_id, (comp, score, psi) in enumerate(kept, start=1):
        x, y, z = comp.coords[:, 0], comp.coords[:, 1], comp.coords[:, 2]
        labels[z, y, x] = new_id
        objects.append({"id": new_id, "voxel_count": len(comp), "volume": volume_of(comp, v.spacing),
                        "sphericity": psi, "score": score})
    return SegmentationResult(labels=Volume(labels, v.spacing), objects=objects)
