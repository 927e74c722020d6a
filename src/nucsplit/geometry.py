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
spherical Voronoi cells, not a sampled estimate: the Voronoi vertices are
the outward normals of the faces of the directions' convex hull (the
triples whose plane has every direction on one side), and each cell is
summed as a fan of spherical triangles.

That average hides a strong orientation bias: with only 26 directions the
implied quadrature of |cos theta| is crude, so axis-normal planes read low
(about -7% isotropic, far worse at coarse axial spacing where the polar
Voronoi cells shrink to slivers).  The weights therefore get a
calibration step: the smallest relative adjustment, bounded to keep every
weight positive, that makes the three axis-normal planes and the
orientation average measure exactly.  It is a bounded least-squares
problem of at most 13 unknowns, solved exactly by an active-set loop over
unconstrained least-squares solves.  Flat cut faces and digitized spheres
are then both reliable, which is what sphericity consumes.
"""

from __future__ import annotations

import math

import numpy as np

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

COINCIDENT = 1e-6  # unit directions this close count as one Voronoi generator
COPLANAR = 1e-14  # a direction this close to a hull face's plane lies on the face


def _hull_faces(unit: np.ndarray):
    """Outward unit normals of the faces of the convex hull of unit vectors
    around the origin, and a (direction, face) mask of the directions on each.

    A face is a triple of directions whose plane has all directions on one
    side.  A plane through four or more directions is one face per triple;
    the copies give repeated Voronoi vertices, which add nothing to an area.
    """
    j, k = np.triu_indices(len(unit), 1)  # every triple i < j < k
    i, pair = np.nonzero(np.arange(len(unit))[:, None] < j)
    j, k = j[pair], k[pair]
    x, y, z = unit.T
    ax, ay, az = x[j] - x[i], y[j] - y[i], z[j] - z[i]
    bx, by, bz = x[k] - x[i], y[k] - y[i], z[k] - z[i]
    normal = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
    del ax, ay, az, bx, by, bz  # freed before the (direction, triple) table below
    offset = normal[0] * x[i] + normal[1] * y[i] + normal[2] * z[i]
    normal *= np.sign(offset)  # outward, as the origin lies inside the hull
    offset = np.abs(offset)
    length = np.sqrt(normal[0] ** 2 + normal[1] ** 2 + normal[2] ** 2)
    height = unit @ normal
    height -= offset + COPLANAR * length
    face = (height.max(axis=0) <= 0.0) & (offset > 0)
    normal, offset = normal[:, face] / length[face], offset[face] / length[face]
    return normal.T, unit @ normal >= offset - COPLANAR


def voronoi_fractions(directions: np.ndarray, spacing) -> np.ndarray:
    """Exact solid-angle fraction of each scaled direction's Voronoi cell.

    The Voronoi vertices on the unit sphere are the normals of the hull
    faces, and a direction's cell is the spherical polygon through the
    normals of the faces it lies on.  Its area is the sum of the fan of
    spherical triangles from the direction to consecutive vertices, each by
    the Van Oosterom-Strackee formula.  The directions come in antipodal
    pairs, which puts the origin inside the hull; each pair's fractions
    are averaged so central symmetry is exact.
    """
    opposite = (directions[:, None] == -directions[None]).all(axis=2)
    if not opposite.any(axis=1).all():
        raise ValueError("directions must come in antipodal pairs")
    antipode = opposite.argmax(axis=1)
    scaled = directions.astype(np.float64) * np.asarray(spacing, dtype=np.float64)
    unit = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    gap = np.linalg.norm(unit[:, None] - unit[None], axis=2)
    np.fill_diagonal(gap, np.inf)
    if gap.min() <= COINCIDENT:
        raise ValueError(
            f"spacing {tuple(map(float, spacing))} is too anisotropic for the cut metric: "
            f"its scaled neighbour directions coincide"
        )
    vertex, on = _hull_faces(unit)
    # each (direction, vertex) pair of a cell, in angular order around the direction
    gen, face = np.nonzero(on)
    # a tangent frame at each direction, from the axis least aligned with it;
    # e1 and e2 have equal lengths, which is all the angle needs
    axis = np.eye(3)[np.argmin(np.abs(unit), axis=1)]
    e1 = axis - np.einsum("ij,ij->i", axis, unit)[:, None] * unit
    e2 = np.cross(unit, e1)
    v = vertex[face]
    order = np.lexsort((np.arctan2(np.einsum("ij,ij->i", v, e2[gen]),
                                   np.einsum("ij,ij->i", v, e1[gen])), gen))
    gen, v = gen[order], v[order]
    count = on.sum(axis=1)
    end = np.cumsum(count)
    nxt = np.arange(1, len(gen) + 1)  # each vertex's successor, the last of a cell wrapping round
    nxt[end - 1] = end - count
    w, g = v[nxt], unit[gen]
    # tan(solid angle / 2) = g . (v x w) / (1 + g . v + v . w + w . g) for unit g, v, w
    turn = np.einsum("ij,ij->i", g, np.cross(v, w))
    dots = 1.0 + np.einsum("ij,ij->i", g, v) + np.einsum("ij,ij->i", v, w) + np.einsum("ij,ij->i", w, g)
    f = np.bincount(gen, 2.0 * np.arctan2(turn, dots), minlength=len(unit)) / (4.0 * math.pi)
    return 0.5 * (f + f[antipode])


def _bounded_lstsq(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The minimiser of |a x - b| over lo <= x <= hi, for ``a`` of full
    column rank.

    Bounded-variable least squares (Stark and Parker, 1995) as an
    active-set loop: the free variables are solved by least squares with
    the others held at their bounds; a solution that leaves the box is cut
    back at the first bound it crosses, which fixes that variable; at a
    solution inside the box, the fixed variable whose gradient most points
    into the box is freed, until none does.
    """
    x = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], lo, hi)
    free = (lo < x) & (x < hi)
    slack = 1e-12 * np.linalg.norm(a, axis=0) * np.linalg.norm(b)  # rounding in the gradient
    for _ in range(4 * len(x)):  # each pass frees one bound; a cap against rounding cycles
        while free.any():
            z = x.copy()
            z[free] = np.linalg.lstsq(a[:, free], b - a[:, ~free] @ x[~free], rcond=None)[0]
            out = free & ((z < lo) | (z > hi))
            if not out.any():
                x = z
                break
            d = np.where(out, z - x, 1.0)
            step = np.where(out, np.where(d < 0, lo - x, hi - x) / d, np.inf)
            hit = int(np.argmin(step))
            x = np.clip(x + step[hit] * (z - x), lo, hi)
            x[hit] = lo[hit] if z[hit] < lo[hit] else hi[hit]
            free &= (lo < x) & (x < hi)
        grad = a.T @ (a @ x - b)
        pull = np.where(free, 0.0, np.where(x <= lo, -grad, grad)) - slack
        i = int(np.argmax(pull))
        if pull[i] <= 0.0:
            break
        free[i] = True
    return x


def _calibration_problem(fractions: np.ndarray, spacing):
    """The bounded least-squares problem of the calibration step.

    The baseline weights come from the Voronoi fractions.  Families with
    identical physical |offset| triples are one unknown, which keeps lattice
    symmetries of the spacing exact.  Returns the families of each unknown
    and the problem ``(a, b, lo, hi)``.
    """
    phys = DIRECTIONS_26[:13].astype(np.float64) * spacing
    step = np.linalg.norm(phys, axis=1)
    unit = phys / step[:, None]
    rho = (spacing[0] * spacing[1] * spacing[2]) / step
    w0 = (4.0 * math.pi * fractions[:13]) * rho / math.pi

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
    return members, (rows, rhs, 0.05 * w0g, 20.0 * w0g)


def cut_metric_weights(spacing) -> np.ndarray:
    """The calibrated cut-metric weights of a spacing: the weight of each
    unordered boundary pair along the 13 families ``DIRECTIONS_26[:13]``."""
    spacing = check_spacing(spacing)
    members, problem = _calibration_problem(voronoi_fractions(DIRECTIONS_26, spacing), spacing)
    omega = np.empty(13)
    for g, val in zip(members, _bounded_lstsq(*problem)):
        omega[g] = val
    return omega


def surface_area(c: Component, omega: np.ndarray) -> float:
    """Weighted count of 26-adjacent (inside, outside) voxel pairs.

    Each unordered pair is counted once.  Every voxel outside the component
    counts as outside, also beyond the volume border, so components that
    touch the border still get a closed boundary.
    """
    box, _ = paint_component(c, pad=1)
    inner = box[1:-1, 1:-1, 1:-1]
    s0, s1, s2 = box.shape
    area = 0.0
    for (dx, dy, dz), w in zip(DIRECTIONS_26[:13].tolist(), omega):
        ahead = box[1 + dz : s0 - 1 + dz, 1 + dy : s1 - 1 + dy, 1 + dx : s2 - 1 + dx]
        # the inside voxels with an outside neighbour at +d, plus those with
        # one at -d: each count is len(c) minus an inside-pair count, and
        # translating by -d maps A & (A + d) onto (A - d) & A = inner & ahead
        pairs = 2 * (len(c) - int((inner & ahead).sum()))
        area += pairs * float(w)
    return area


def volume_of(c: Component, spacing) -> float:
    dx, dy, dz = spacing
    return len(c) * float(dx) * float(dy) * float(dz)


def sphericity(c: Component, omega: np.ndarray, spacing) -> float:
    """Ratio of the area of the equal-volume sphere to the component's area
    under the cut-metric weights ``omega`` of ``spacing``:

        Psi = pi^(1/3) * (6 V)^(2/3) / A
    """
    v = volume_of(c, spacing)
    a = surface_area(c, omega)
    return math.pi ** (1.0 / 3.0) * (6.0 * v) ** (2.0 / 3.0) / a
