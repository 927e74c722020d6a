"""Surface area and sphericity from cut-metric weights.

The 13 cut-metric weights, one per neighbour direction family, turn the
boundary voxel pairs of a voxel set into a surface area estimate.
Digitized balls should come out near 4*pi*r^2 and score a sphericity
close to 1; a cube lands at the analytic (pi/6)^(1/3).
"""

import math

import numpy as np

from nucsplit.geometry import cut_metric_weights, sphericity, surface_area
from nucsplit.volume import Volume, connected_components


def shape_component(mask, spacing=(1.0, 1.0, 1.0)):
    return connected_components(Volume(mask.astype(np.uint8), spacing))[0]


def ball(r):
    g = np.arange(-r, r + 1)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    return xx * xx + yy * yy + zz * zz <= r * r


def main():
    w = cut_metric_weights((1.0, 1.0, 1.0))

    print("digitized balls vs 4*pi*r^2:")
    for r in (6, 10, 15, 20):
        c = shape_component(ball(r))
        area = surface_area(c, w)
        target = 4 * math.pi * r * r
        print(f"  r={r:2d}: area {area:9.1f}  target {target:9.1f}  "
              f"error {100 * (area - target) / target:+.2f}%")

    cube = shape_component(np.ones((20, 20, 20), dtype=bool))
    psi_cube = sphericity(cube, w, (1.0, 1.0, 1.0))
    print(f"\ncube side 20: psi {psi_cube:.4f} (analytic {(math.pi / 6) ** (1 / 3):.4f})")

    c15 = shape_component(ball(15))
    print(f"ball r=15:   psi {sphericity(c15, w, (1.0, 1.0, 1.0)):.4f} (ideal 1)")

    # same physical ellipsoid sampled on an anisotropic grid
    spacing = (1.0, 1.0, 2.5)
    g = np.arange(-16, 17)
    zz, yy, xx = np.meshgrid(np.arange(-7, 8), g, g, indexing="ij")
    ellipsoid = (xx / 12.0) ** 2 + (yy / 12.0) ** 2 + (zz * 2.5 / 12.0) ** 2 <= 1.0
    c = shape_component(ellipsoid, spacing)
    w_aniso = cut_metric_weights(spacing)
    area = surface_area(c, w_aniso)
    target = 4 * math.pi * 12.0**2
    print(f"\nball r=12 on (1,1,2.5) spacing: area {area:.1f} vs {target:.1f} "
          f"({100 * (area - target) / target:+.2f}%)")


if __name__ == "__main__":
    main()
