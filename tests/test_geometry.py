import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nucsplit.geometry import (
    DIRECTIONS_26,
    _bounded_lstsq,
    _calibration_problem,
    cut_metric_weights,
    sphericity,
    surface_area,
    volume_of,
    voronoi_fractions,
)
from nucsplit.volume import Component, Volume, connected_components
from oracles import spherical_voronoi_fractions, trf_bounded_lstsq, two_sided_surface_area


def comp_of(mask):
    zz, yy, xx = np.nonzero(mask)
    return Component(np.stack([xx, yy, zz], axis=1).astype(np.int32))


def ball_comp(r, dilated=False):
    """Digitized ball: voxel centers within r (or r + 1/2 when dilated)."""
    rr = int(math.ceil(r)) + 2
    g = np.arange(-rr, rr + 1)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    lim = (r + 0.5) ** 2 if dilated else r * r
    return comp_of(xx**2 + yy**2 + zz**2 <= lim)


def test_direction_table():
    assert len(DIRECTIONS_26) == 26
    assert len(np.unique(DIRECTIONS_26, axis=0)) == 26
    # first half and negated second half are the same families
    first = DIRECTIONS_26[:13]
    second = -DIRECTIONS_26[13:][::-1]
    assert np.array_equal(first, second)


def test_fraction_sum_and_central_symmetry():
    for spacing in ((1.0, 1.0, 1.0), (1.0, 1.0, 5.0)):
        f = voronoi_fractions(DIRECTIONS_26, spacing)
        assert f.sum() == pytest.approx(1.0, abs=1e-3)
        for i, d in enumerate(DIRECTIONS_26):
            j = int(np.flatnonzero((DIRECTIONS_26 == -d).all(axis=1))[0])
            assert f[i] == f[j]


def test_fractions_match_monte_carlo():
    spacings = ((1.0, 1.0, 1.0), (1.0, 1.0, 5.0), (0.5, 0.7, 2.3))
    units = []
    for spacing in spacings:
        scaled = DIRECTIONS_26.astype(np.float64) * spacing
        units.append(scaled / np.linalg.norm(scaled, axis=1, keepdims=True))
    rng = np.random.default_rng(123)
    counts = np.zeros((len(spacings), 26), dtype=np.int64)
    for _ in range(40):
        pts = rng.normal(size=(100_000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        for k, unit in enumerate(units):
            counts[k] += np.bincount(np.argmax(pts @ unit.T, axis=1), minlength=26)
    for spacing, c in zip(spacings, counts):
        mc = c / c.sum()
        assert np.abs(voronoi_fractions(DIRECTIONS_26, spacing) - mc).max() < 1.5e-3


def test_six_neighborhood_axis_weight():
    """omega = Phi * rho / pi over the six axis directions alone gives the
    closed-form axis weight (2/3) d^2 on isotropic grids."""
    axes = DIRECTIONS_26[np.abs(DIRECTIONS_26).sum(axis=1) == 1]
    for d in (1.0, 0.7):
        f = voronoi_fractions(axes, (d, d, d))
        rho = d**3 / d  # cell volume per unit step along an axis
        omega = 4.0 * math.pi * f * rho / math.pi
        assert np.allclose(omega, (2.0 / 3.0) * d * d, rtol=1e-12, atol=0.0)


def test_anisotropic_polar_cell_shrinks():
    iso = voronoi_fractions(DIRECTIONS_26, (1.0, 1.0, 1.0))
    aniso = voronoi_fractions(DIRECTIONS_26, (1.0, 1.0, 5.0))
    zi = int(np.flatnonzero((DIRECTIONS_26 == (0, 0, 1)).all(axis=1))[0])
    assert aniso[zi] < iso[zi]


def test_weights_positive():
    spacings = ((1.0, 1.0, 1.0), (1.0, 1.0, 5.0), (0.5, 0.5, 2.0), (1.0, 2.0, 3.0), (1.0, 1.0, 1000.0))
    for spacing in spacings:
        assert (cut_metric_weights(spacing) > 0).all()
        assert voronoi_fractions(DIRECTIONS_26, spacing).sum() == pytest.approx(1.0, abs=1e-12)
    for bad in ((1.0, 0.0, 1.0), (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="spacing must be finite and > 0"):
            cut_metric_weights(bad)


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1e6), (1e6, 1.0, 1.0), (1.0, 1e-6, 1.0)])
def test_spacing_too_anisotropic_for_the_cut_metric_is_named(spacing):
    with pytest.raises(ValueError, match=r"spacing \(.*\) is too anisotropic for the cut metric"):
        cut_metric_weights(spacing)


def test_weight_table_allocates_little():
    tracemalloc.start()
    try:
        cut_metric_weights((1.0, 1.0, 5.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_axis_planes_and_orientation_mean():
    """The calibrated weights measure axis-normal planes and the
    orientation average (almost) exactly; the identity is linear in omega."""
    for spacing, tol in (((1.0, 1.0, 1.0), 0.005), ((1.0, 1.0, 5.0), 0.03)):
        w = cut_metric_weights(spacing)
        phys = DIRECTIONS_26[:13].astype(np.float64) * spacing
        step = np.linalg.norm(phys, axis=1)
        rho = np.prod(spacing) / step
        unit = phys / step[:, None]
        for axis in range(3):
            r = float((np.abs(unit[:, axis]) / rho) @ w)
            assert abs(r - 1.0) < tol
        mean_r = float((0.5 / rho) @ w)
        assert abs(mean_r - 1.0) < 0.07


def test_weight_lookup_both_signs():
    # a direction and its negation weigh the same, so a point reflection
    # of a lopsided component keeps its area exactly
    rng = np.random.default_rng(17)
    mask = rng.random((6, 7, 8)) < 0.5
    c = comp_of(mask)
    reflected = Component((20 - c.coords).astype(np.int32))
    for spacing in ((1.0, 1.0, 1.0), (0.5, 1.0, 3.0)):
        w = cut_metric_weights(spacing)
        assert surface_area(reflected, w) == surface_area(c, w)


def test_single_voxel_area_translation_invariant():
    w = cut_metric_weights((1.0, 1.0, 1.0))
    a0 = surface_area(Component(np.array([[0, 0, 0]], dtype=np.int32)), w)
    a1 = surface_area(Component(np.array([[40, 7, 19]], dtype=np.int32)), w)
    assert a0 == a1 == pytest.approx(2 * w.sum())
    assert a0 > 0


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.0, 5.0)])
def test_area_equals_two_sided_pair_count(spacing):
    w = cut_metric_weights(spacing)
    rng = np.random.default_rng(17)
    comps = [
        Component(np.array([[0, 0, 0]], dtype=np.int32)),
        Component(np.array([[6, 3, 9]], dtype=np.int32)),
        comp_of(np.ones((4, 5, 6), dtype=bool)),  # fills its volume, touches every border
        comp_of(np.ones((1, 5, 6), dtype=bool)),
    ]
    for _ in range(20):
        mask = rng.random((6, 7, 8)) < 0.55
        comps += connected_components(Volume(mask.astype(np.uint8)))
    assert sum((c.coords == 0).any() for c in comps) > 20  # many touch the volume border
    for c in comps:
        assert surface_area(c, w) == two_sided_surface_area(c, w)


def test_ball_area_matches_analytic_sphere():
    w = cut_metric_weights((1.0, 1.0, 1.0))
    area = surface_area(ball_comp(15), w)
    exact = 4.0 * math.pi * 15.0**2
    assert abs(area - exact) / exact < 0.05


def test_cube_sphericity_near_analytic():
    w = cut_metric_weights((1.0, 1.0, 1.0))
    cube = comp_of(np.ones((20, 20, 20), dtype=bool))
    assert sphericity(cube, w, (1.0, 1.0, 1.0)) == pytest.approx((math.pi / 6) ** (1 / 3), abs=0.05)


def test_ball_sphericity_near_one():
    w = cut_metric_weights((1.0, 1.0, 1.0))
    assert 0.95 <= sphericity(ball_comp(15), w, (1.0, 1.0, 1.0)) <= 1.03


def test_fused_balls_less_spherical():
    w = cut_metric_weights((1.0, 1.0, 1.0))
    g = np.arange(-11, 30)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    single = comp_of(xx**2 + yy**2 + zz**2 <= 100)
    # centers 17 apart: the overlap disc is 3 voxels deep
    fused = comp_of((xx**2 + yy**2 + zz**2 <= 100) | ((xx - 17) ** 2 + yy**2 + zz**2 <= 100))
    psi_single = sphericity(single, w, (1.0, 1.0, 1.0))
    psi_fused = sphericity(fused, w, (1.0, 1.0, 1.0))
    assert psi_single - psi_fused >= 0.05


def test_ball_error_non_increasing_with_radius():
    """Convergence check on dilated digitizations (centers within r + 1/2):
    the half-step dilation gives a systematic positive bias that shrinks
    with r, so the error sequence is cleanly monotone."""
    w = cut_metric_weights((1.0, 1.0, 1.0))
    errs = []
    for r in (8, 12, 16, 20):
        area = surface_area(ball_comp(r, dilated=True), w)
        exact = 4.0 * math.pi * r * r
        errs.append((area - exact) / exact)
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12
    assert all(abs(e) < 0.15 for e in errs)


def test_volume_of():
    c = Component(np.arange(300, dtype=np.int32).reshape(100, 3) % 7)
    assert volume_of(c, (1.0, 1.0, 5.0)) == pytest.approx(500.0)
    single = Component(np.array([[3, 2, 1]], dtype=np.int32))
    assert volume_of(single, (1.0, 1.0, 1.0)) == 1.0


def test_ellipsoid_volume_close_to_analytic():
    zz, yy, xx = np.meshgrid(np.arange(-5, 6), np.arange(-11, 12), np.arange(-11, 12), indexing="ij")
    ell = comp_of((xx / 10.0) ** 2 + (yy / 10.0) ** 2 + (zz / 4.0) ** 2 <= 1)
    analytic = (4.0 / 3.0) * math.pi * 10 * 10 * 4
    assert abs(volume_of(ell, (1.0, 1.0, 1.0)) - analytic) / analytic < 0.03


def test_area_invariances():
    w = cut_metric_weights((1.0, 1.0, 1.0))
    rng = np.random.default_rng(9)
    from scipy import ndimage

    blob = ndimage.gaussian_filter(rng.random((16, 16, 16)), 2.5)
    mask = blob > np.quantile(blob, 0.75)
    c = comp_of(mask)
    base = surface_area(c, w)
    shifted = Component(c.coords + np.array([5, 9, 2], dtype=np.int32))
    assert surface_area(shifted, w) == pytest.approx(base)
    # directional weights are only permutation-symmetric up to lattice noise
    permuted = Component(c.coords[:, [2, 0, 1]])
    assert surface_area(permuted, w) == pytest.approx(base, rel=1e-5)


def test_clipped_component_keeps_closed_boundary():
    # a cube that fills its whole 8^3 volume touches every border; voxels
    # beyond the border count as outside, so it measures like a cube inside
    w = cut_metric_weights((1.0, 1.0, 1.0))
    at_corner = comp_of(np.ones((8, 8, 8), dtype=bool))
    inside = Component(at_corner.coords + 5)
    assert surface_area(at_corner, w) == pytest.approx(surface_area(inside, w))


def test_sphericity_bounded_for_smooth_components():
    """Discretization can push sphericity slightly above 1 but not beyond
    1.05 for components that resolve over several voxels per axis."""
    w = cut_metric_weights((1.0, 1.0, 1.0))
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(12):
        a, b, c = rng.uniform(4.0, 14.0, 3)
        rr = int(max(a, b, c)) + 2
        g = np.arange(-rr, rr + 1)
        zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
        mask = (xx / a) ** 2 + (yy / b) ** 2 + (zz / c) ** 2 <= 1
        worst = max(worst, sphericity(comp_of(mask), w, (1.0, 1.0, 1.0)))
    for r in (3, 5, 8, 15):
        worst = max(worst, sphericity(ball_comp(r), w, (1.0, 1.0, 1.0)))
    assert worst <= 1.05


def test_anisotropic_dome_less_spherical_than_ball():
    """At coarse axial spacing a half-ball (the shape a mid-split leaves
    behind) must still read clearly less spherical than the full ball."""
    w = cut_metric_weights((1.0, 1.0, 5.0))
    gz = np.arange(-3, 4)
    gxy = np.arange(-12, 13)
    zz, yy, xx = np.meshgrid(gz, gxy, gxy, indexing="ij")
    ball = xx**2 + yy**2 + (5 * zz) ** 2 <= 100
    psi_ball = sphericity(comp_of(ball), w, (1.0, 1.0, 5.0))
    psi_dome = sphericity(comp_of(ball & (zz >= 0)), w, (1.0, 1.0, 5.0))
    assert psi_ball > 0.95
    assert psi_dome < psi_ball - 0.04


def test_voronoi_fractions_standalone():
    f = voronoi_fractions(DIRECTIONS_26, (1.0, 1.0, 1.0))
    assert f.sum() == pytest.approx(1.0, abs=1e-12)
    kinds = np.abs(DIRECTIONS_26).sum(axis=1)
    for kind in (1, 2, 3):
        vals = f[kinds == kind]
        assert vals.max() - vals.min() < 1e-12


ORACLE_SPACINGS = [(1.0, 1.0, 1.0), (1.0, 1.0, 5.0), (0.5, 0.7, 2.3), (1.0, 2.0, 3.0)] + [
    tuple(map(float, s))  # every axis ratio below 20
    for s in np.exp(np.random.default_rng(31).uniform(0.0, math.log(20.0), size=(20, 3)))
]


def relative_gap(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_fractions_match_spherical_voronoi():
    for spacing in ORACLE_SPACINGS:
        got = voronoi_fractions(DIRECTIONS_26, spacing)
        assert relative_gap(got, spherical_voronoi_fractions(DIRECTIONS_26, spacing)) <= 1e-12


@pytest.mark.parametrize("kinds", [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)])
def test_fractions_of_direction_subsets_match_spherical_voronoi(kinds):
    """Subsets of the 26 directions by number of nonzero offsets.  Some
    hulls have four or more directions on one face plane: the corners' hull
    is a box of square faces, the edge directions' hull at isotropic spacing
    mixes squares and triangles."""
    directions = DIRECTIONS_26[np.isin(np.abs(DIRECTIONS_26).sum(axis=1), kinds)]
    for spacing in ((1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 2.0, 3.0)):
        got = voronoi_fractions(directions, spacing)
        assert relative_gap(got, spherical_voronoi_fractions(directions, spacing)) <= 1e-12


def test_fractions_need_antipodal_pairs():
    with pytest.raises(ValueError, match="antipodal pairs"):
        voronoi_fractions(DIRECTIONS_26[:13], (1.0, 1.0, 1.0))


def objective(a, b, x):
    return float(np.sum((a @ x - b) ** 2))


def bound_count_at_kkt_point(a, b, lo, hi, x):
    """Check the optimality conditions of min |a x - b| over lo <= x <= hi
    at ``x`` and return how many bounds are active: the gradient vanishes
    on the free variables and points out of the box on the bound ones."""
    assert (lo <= x).all() and (x <= hi).all()
    grad = a.T @ (a @ x - b)
    tol = 1e-10 * np.linalg.norm(a, axis=0) * np.linalg.norm(b)
    at_lo, at_hi = x == lo, x == hi
    free = ~(at_lo | at_hi)
    assert (grad[at_lo] >= -tol[at_lo]).all()
    assert (grad[at_hi] <= tol[at_hi]).all()
    assert (np.abs(grad[free]) <= tol[free]).all()
    return int((~free).sum())


@pytest.mark.parametrize("spacing, active", [((1.0, 1.0, 1.0), 0), ((1.0, 1.0, 2.0), 2), ((1.0, 1.0, 5.0), 4)])
def test_calibration_solves_its_bounded_problem_exactly(spacing, active):
    _, (a, b, lo, hi) = _calibration_problem(voronoi_fractions(DIRECTIONS_26, spacing), spacing)
    x = _bounded_lstsq(a, b, lo, hi)
    assert bound_count_at_kkt_point(a, b, lo, hi, x) == active
    assert objective(a, b, x) <= objective(a, b, trf_bounded_lstsq(a, b, lo, hi)) * (1.0 + 1e-14)


def test_bounded_lstsq_on_random_problems():
    rng = np.random.default_rng(7)
    active = 0
    for _ in range(200):
        n = int(rng.integers(1, 10))
        a = rng.normal(size=(n + int(rng.integers(0, 6)), n))
        b = 3.0 * rng.normal(size=len(a))
        lo = rng.uniform(-1.0, 0.5, n)
        hi = lo + rng.uniform(0.01, 2.0, n)
        x = _bounded_lstsq(a, b, lo, hi)
        active += bound_count_at_kkt_point(a, b, lo, hi, x)
        assert objective(a, b, x) <= objective(a, b, trf_bounded_lstsq(a, b, lo, hi)) * (1.0 + 1e-12)
    assert active > 200  # the bounds bind often


def test_import_loads_no_scipy_optimize_or_spatial():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, nucsplit; print(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    modules = run.stdout.split()
    assert "nucsplit.geometry" in modules and "scipy.ndimage" in modules
    assert [m for m in modules if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "spatial"])] == []
