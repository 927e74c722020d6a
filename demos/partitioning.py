"""Balanced bipartition of a fused pair of nuclei.

Two overlapping balls form one connected component with a narrow neck.
The multilevel partitioner has to find the neck: the minimum balanced
cut runs through the thinnest cross-section, not through either ball.
"""

import numpy as np

from nucsplit.graphbuild import EdgeWeightConfig, build_graph
from nucsplit.partition import PartitionerConfig, bipartition, split_blocks
from nucsplit.volume import Volume, connected_components


def fused_pair(r=9, center_gap=16, shape=(40, 40, 56)):
    sz, sy, sx = shape
    zz, yy, xx = np.mgrid[0:sz, 0:sy, 0:sx]
    a = (xx - 14) ** 2 + (yy - 20) ** 2 + (zz - 20) ** 2 <= r * r
    b = (xx - 14 - center_gap) ** 2 + (yy - 20) ** 2 + (zz - 20) ** 2 <= r * r
    return a | b


def main():
    mask = fused_pair()
    comps = connected_components(Volume(mask.astype(np.uint8)))
    print(f"{len(comps)} foreground component(s); the pair is fused")
    c = comps[0]
    print(f"component: {len(c)} voxels")

    guide = Volume(np.where(mask, 200, 20).astype(np.uint8))
    graph = build_graph(c, guide, cfg=EdgeWeightConfig(scheme="const"))
    print(f"graph: {graph.n_nodes} nodes, {graph.edge_count} edges")

    # neck cross-section for reference: thinnest x-slab between the centers
    per_slab = mask.sum(axis=(0, 1))
    neck = int(per_slab[14:31].min())
    print(f"thinnest cross-section between the centers: {neck} voxels")

    for seed in range(3):
        b = bipartition(graph, PartitionerConfig(seed=seed))
        blocks = split_blocks(c, b)
        sizes = tuple(len(blk) for blk in blocks)
        print(f"seed {seed}: cut weight {b.cut_weight:.1f}, "
              f"{len(blocks)} connected blocks of sizes {sizes}")

    print("\ncut weight ~ neck area: the partition walks through the waist")


if __name__ == "__main__":
    main()
