"""The benchmark's scenes, pipeline settings and quality floors.

Each workload is one synthetic scene with fixed placement. Every round
of a run segments a new input of that scene: one of its 16 orientations
(flips of x, y and z, and an x/y transpose) with its own partitioner
seed, both drawn from ``--seed`` and the round's number
(``round_input``). Orientation and partitioner seed change the voxel
order, the graph numbering and the matching order, and with them the
partitioner's work: interleaved ``segment`` calls on aniso_slab16 took
a median of 4.45 s, 5.52 s and 4.65 s for three orientations. A run's
median over rounds of different inputs averages that out, where
repeating one input would carry it whole into the run's figure. The
placement stays fixed on purpose: over five placement seeds of the
iso_clustered scene, one ``segment`` call took 13.2 s to 23.9 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from nucsplit import (
    BinarizationConfig,
    EdgeWeightConfig,
    EvalReport,
    NucleusModelParams,
    SceneConfig,
    Volume,
)

Floor = Callable[[EvalReport], List[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    scene: SceneConfig
    params: NucleusModelParams
    bin_cfg: BinarizationConfig
    edge_cfg: EdgeWeightConfig
    floor: Floor  # quality floor: report -> failure messages


def no_miss_no_add(max_merge_split_share: float) -> Floor:
    def floor(rep: EvalReport) -> List[str]:
        out = []
        if rep.missed or rep.added:
            out.append(f"quality floor: missed {rep.missed}, added {rep.added}, both must be 0")
        if rep.merged + rep.split > max_merge_split_share * rep.gt_count:
            out.append(
                f"quality floor: merged {rep.merged} + split {rep.split} exceeds "
                f"{100 * max_merge_split_share:g}% of {rep.gt_count}"
            )
        return out

    return floor


def total_error_at_most(pct: float) -> Floor:
    def floor(rep: EvalReport) -> List[str]:
        total = rep.missed_pct + rep.added_pct + rep.merged_pct + rep.split_pct
        return [] if total <= pct else [f"quality floor: total error {total:.1f}% > {pct:g}%"]

    return floor


WORKLOADS = {
    # criterion-7 scene: a few huge touching clusters, so bipartition dominates
    "iso_clustered": Workload(
        name="iso_clustered",
        scene=SceneConfig(
            size=(256, 256, 64),
            nucleus_count=20,
            semi_axis_range=(18.0, 19.5),
            clustering=0.75,
            mu_b=20.0,
            mu_f=200.0,
            noise_sigma=8.0,
            psf_sigma=1.5,
            seed=42,
        ),
        params=NucleusModelParams(v_min=20000.0, v_max=39000.0),
        bin_cfg=BinarizationConfig(method="otsu", sigma_smooth=1.9, slabs=1),
        edge_cfg=EdgeWeightConfig(scheme="prob"),
        floor=no_miss_no_add(0.05),
    ),
    # criterion-8 scene at m=16: many small bipartitions and 16 slab fits
    "aniso_slab16": Workload(
        name="aniso_slab16",
        scene=SceneConfig(
            size=(160, 160, 96),
            spacing=(1.0, 1.0, 5.0),
            nucleus_count=110,
            semi_axis_range=(9.5, 11.7),
            clustering=0.3,
            mu_b=20.0,
            mu_f=200.0,
            noise_sigma=6.0,
            psf_sigma=(1.0, 1.0, 0.4),
            z_decay=0.7,
            seed=7,
        ),
        params=NucleusModelParams(v_min=2900.0, v_max=8550.0),
        bin_cfg=BinarizationConfig(method="otsu", sigma_smooth=0.7, slabs=16),
        edge_cfg=EdgeWeightConfig(scheme="grad", sigma_grad=100.0),
        floor=total_error_at_most(10.0),
    ),
}


def round_input(seed: int, r: int) -> Tuple[int, int]:
    """(orientation, partitioner seed) of round ``r`` of a run with ``--seed seed``.

    The orientation steps by 5, coprime with 16, so 16 rounds in a row
    never repeat one; the partitioner seed is new in every round."""
    return (seed + 5 * r) % 16, 1000 * seed + r


def orient(v: Volume, k: int) -> Volume:
    """Orientation ``k mod 16``: bits 0-2 flip x, y, z; bit 3 swaps x and y.
    ``Volume`` stores the result as a C-contiguous copy."""
    data = v.data
    k %= 16
    for bit, axis in ((1, 2), (2, 1), (4, 0)):  # data is indexed [z, y, x]
        if k & bit:
            data = np.flip(data, axis=axis)
    spacing = v.spacing
    if k & 8:
        data = data.transpose(0, 2, 1)
        spacing = (spacing[1], spacing[0], spacing[2])
    return Volume(data, spacing)
