"""End-to-end run: synthesize, segment, evaluate.

Renders a clustered scene where several nuclei touch, binarizes it,
splits the fused components recursively, and scores the labelling
against the generator's ground truth.
"""

import time

import numpy as np

from nucsplit.binarize import BinarizationConfig, binarize
from nucsplit.evaluate import evaluate
from nucsplit.graphbuild import EdgeWeightConfig
from nucsplit.nucmodel import NucleusModelParams
from nucsplit.partition import PartitionerConfig
from nucsplit.splitter import segment
from nucsplit.synthgen import SceneConfig, generate
from nucsplit.volume import connected_components


def main():
    scene = SceneConfig(
        size=(192, 192, 64),
        nucleus_count=14,
        semi_axis_range=(14.0, 16.0),
        clustering=0.7,
        mu_b=20.0,
        mu_f=200.0,
        noise_sigma=8.0,
        psf_sigma=1.5,
        seed=23,
    )
    t0 = time.perf_counter()
    intensity, truth = generate(scene)
    print(f"generated {scene.nucleus_count} nuclei, "
          f"{(truth.data > 0).mean():.1%} foreground")

    bin_cfg = BinarizationConfig(method="otsu", sigma_smooth=1.7, slabs=1)
    mask, _ = binarize(intensity, bin_cfg)
    n_comp = len(connected_components(mask))
    print(f"mask has {n_comp} connected component(s) for {scene.nucleus_count} nuclei "
          f"-> {scene.nucleus_count - n_comp} fusions to undo")

    result = segment(
        intensity,
        NucleusModelParams(v_min=9000.0, v_max=19000.0),
        bin_cfg=bin_cfg,
        edge_cfg=EdgeWeightConfig(scheme="prob"),
        part_cfg=PartitionerConfig(seed=0),
    )
    print(f"segmented into {len(result.objects)} objects "
          f"in {time.perf_counter() - t0:.1f} s")

    print("\nper-object report:")
    for o in result.objects:
        print(f"  id {o['id']:2d}: {o['voxel_count']:6d} voxels, "
              f"psi {o['sphericity']:.3f}, score {o['score']:.3f}")

    print("\nagreement with ground truth:")
    print(evaluate(truth, result.labels).format_table())


if __name__ == "__main__":
    main()
