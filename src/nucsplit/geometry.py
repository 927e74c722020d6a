"""Surface area, volume and sphericity of voxel components on anisotropic grids.

Surface area uses a Cauchy-Crofton cut metric: every 26-neighborhood
direction class gets a weight, and the area of a component boundary is the
weighted count of inside/outside voxel pairs.  A plane of area F crosses
F * |cos theta_k| / rho_k lattice lines of family k, where rho_k is the
cross-sectional area per line (cell volume / step length), so the weights

    omega_k = Phi_k * rho_k / pi

with Phi_k the solid angle of direction k's Voronoi cell on the unit sphere
(among all 26 spacing-scaled directions) reproduce any surface area exactly
on average over orientations.  The solid angles are the exact areas of the
spherical Voronoi cells, not a sampled estimate.

That average hides a strong orientation bias: with only 26 directions the
implied quadrature of |cos theta| is crude, so axis-normal planes read low
(about -7% isotropic, far worse at coarse axial spacing where the polar
Voronoi cells shrink to slivers).  The weights therefore get a
calibration step: the smallest relative adjustment, bounded to keep every
weight positive, that makes the three axis-normal planes and the
orientation average measure exactly.  Flat cut faces and digitized spheres
are then both reliable, which is what sphericity consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear
from scipy.spatial import SphericalVoronoi
from scipy.spatial.distance import pdist

from .volume import Component, check_spacing, paint_component

# all 26 neighbor offsets, x-fastest scan order; the first 13 are the
# canonical family representatives (scan-order predecessors of the center)
DIRECTIONS_26 = np.array(
    [
        (dx, dy, dz)
        for dz in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=np.int8,
)

COINCIDENT = 1e-6  # unit directions this close are one Voronoi generator (scipy's default)


def voronoi_fractions(directions: np.ndarray, spacing) -> np.ndarray:
    """Exact solid-angle fraction of each scaled direction's Voronoi cell.

    The cell areas come from the spherical Voronoi diagram of the unit
    directions; antipodal direction pairs are averaged so central symmetry
    is exact.
    """
    scaled = directions.astype(np.float64) * np.asarray(spacing, dtype=np.float64)
    unit = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    if pdist(unit).min() <= COINCIDENT:
        raise ValueError(
            f"spacing {tuple(map(float, spacing))} is too anisotropic for the cut metric: "
            f"its scaled neighbour directions coincide"
        )
    f = SphericalVoronoi(unit, threshold=COINCIDENT).calculate_areas() / (4.0 * math.pi)
    antipode = np.array(
        [int(np.flatnonzero((directions == -d).all(axis=1))[0]) for d in directions]
    )
    return 0.5 * (f + f[antipode])


@dataclass(frozen=True)
class CutMetricWeights:
    """Per-family boundary-pair weights for one voxel spacing.

    ``directions`` holds the 13 family representatives; ``fractions`` the
    directed Voronoi solid-angle fractions of all 26 directions; ``omega``
    the weight applied to each unordered boundary pair of a family.
    """

    spacing: tuple
    directions: np.ndarray
    fractions: np.ndarray
    omega: np.ndarray


def _calibrate(w0, unit, rho):
    """Adjust family weights so axis-normal planes and the orientation
    average are measured exactly, staying positive and near the baseline.

    Families with identical physical |offset| triples are solved as one
    unknown, which keeps lattice symmetries of the spacing exact.
    """
    groups: dict = {}
    for i, key in enumerate(map(tuple, np.round(np.abs(unit) / rho[:, None], 9))):
        groups.setdefault(key, []).append(i)
    members = list(groups.values())
    w0g = np.array([w0[g].mean() for g in members])
    sizes = np.array([len(g) for g in members], dtype=np.float64)

    a = np.zeros((4, len(w0)))
    a[:3] = np.abs(unit.T) / rho
    a[3] = 0.5 / rho
    ag = np.stack([a[:, g].sum(axis=1) for g in members], axis=1)

    # soft pull toward the baseline picks one solution out of the null space
    mu = 1e-4
    rows = np.vstack([ag, np.diag(np.sqrt(mu * sizes) / w0g)])
    rhs = np.concatenate([np.ones(4), np.sqrt(mu * sizes)])
    fit = lsq_linear(rows, rhs, bounds=(0.05 * w0g, 20.0 * w0g), method="trf", tol=1e-12)
    w = np.empty_like(w0)
    for g, val in zip(members, fit.x):
        w[g] = val
    return w


def cut_metric_weights(spacing) -> CutMetricWeights:
    """Calibrated cut-metric weights of the 26-neighborhood for a spacing."""
    spacing = check_spacing(spacing)
    fractions = voronoi_fractions(DIRECTIONS_26, spacing)
    half = DIRECTIONS_26[:13]
    phys = half.astype(np.float64) * spacing
    step = np.linalg.norm(phys, axis=1)
    unit = phys / step[:, None]
    rho = (spacing[0] * spacing[1] * spacing[2]) / step
    omega = _calibrate((4.0 * math.pi * fractions[:13]) * rho / math.pi, unit, rho)
    return CutMetricWeights(spacing=spacing, directions=half, fractions=fractions, omega=omega)


def surface_area(c: Component, w: CutMetricWeights) -> float:
    """Weighted count of 26-adjacent (inside, outside) voxel pairs.

    Each unordered pair is counted once.  Every voxel outside the component
    counts as outside, also beyond the volume border, so components that
    touch the border still get a closed boundary.
    """
    box, _ = paint_component(c, pad=1)
    inner = box[1:-1, 1:-1, 1:-1]
    s0, s1, s2 = box.shape
    area = 0.0
    for k in range(len(w.directions)):
        dx, dy, dz = (int(v) for v in w.directions[k])
        ahead = box[1 + dz : s0 - 1 + dz, 1 + dy : s1 - 1 + dy, 1 + dx : s2 - 1 + dx]
        # the inside voxels with an outside neighbour at +d, plus those with
        # one at -d: each count is len(c) minus an inside-pair count, and
        # translating by -d maps A & (A + d) onto (A - d) & A = inner & ahead
        pairs = 2 * (len(c) - int((inner & ahead).sum()))
        area += pairs * float(w.omega[k])
    return area


def volume_of(c: Component, spacing) -> float:
    dx, dy, dz = spacing
    return len(c) * float(dx) * float(dy) * float(dz)


def sphericity(c: Component, w: CutMetricWeights, spacing) -> float:
    """Ratio of the area of the equal-volume sphere to the component's area:

        Psi = pi^(1/3) * (6 V)^(2/3) / A
    """
    v = volume_of(c, spacing)
    a = surface_area(c, w)
    return math.pi ** (1.0 / 3.0) * (6.0 * v) ** (2.0 / 3.0) / a
