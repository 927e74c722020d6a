import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from nucsplit.synthgen import PlacementError, SceneConfig, generate
from nucsplit.volume import Volume, connected_components


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(size=(0, 10, 10))
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), spacing=(1, 0, 1))
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), nucleus_count=-1)
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), semi_axis_range=(5.0, 4.0))
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), clustering=1.5)
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), mu_b=100.0, mu_f=100.0)
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), noise_sigma=-1.0)
    with pytest.raises(ValueError):
        SceneConfig(size=(32, 32, 32), z_decay=1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("spacing", (1.0, 1.0, math.nan)),
        ("spacing", (math.inf, 1.0, 1.0)),
        ("semi_axis_range", (2.0, math.inf)),
        ("semi_axis_range", (math.nan, 4.0)),
        ("mu_b", -math.inf),
        ("mu_f", math.inf),
        ("mu_f", math.nan),
        ("noise_sigma", math.nan),
        ("noise_sigma", math.inf),
        ("psf_sigma", (math.nan, 1.0, 1.0)),
        ("psf_sigma", math.inf),
    ],
)
def test_config_rejects_non_finite_values_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SceneConfig(size=(32, 32, 32), **{field: value})


def test_config_holds_its_tuple_fields_as_tuples():
    cfg = SceneConfig(size=[24, 20, 16], spacing=[1, 1.0, 2.5], semi_axis_range=[3, 4.5], psf_sigma=1)
    assert cfg.size == (24, 20, 16)
    assert cfg.spacing == (1, 1.0, 2.5) and type(cfg.spacing[0]) is int  # element types are kept
    assert cfg.semi_axis_range == (3, 4.5)
    assert cfg.psf_sigma == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("field", ["nucleus_count", "seed"])
def test_config_rejects_a_boolean_count_by_name(field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got True"):
        SceneConfig(size=(32, 32, 32), **{field: True})


def test_empty_scene():
    cfg = SceneConfig(size=(24, 20, 16), nucleus_count=0, mu_b=30.0)
    intensity, truth = generate(cfg)
    assert truth.data.shape == (16, 20, 24)
    assert not truth.data.any()
    assert (intensity.data == 30).all()


def test_single_nucleus_two_levels():
    cfg = SceneConfig(
        size=(48, 48, 48),
        nucleus_count=1,
        semi_axis_range=(8.0, 10.0),
        mu_b=20.0,
        mu_f=200.0,
        seed=3,
    )
    intensity, truth = generate(cfg)
    assert set(np.unique(intensity.data).tolist()) == {20, 200}
    assert set(np.unique(truth.data).tolist()) == {0, 1}
    assert ((intensity.data == 200) == (truth.data == 1)).all()


def test_determinism_and_seed_sensitivity():
    cfg = SceneConfig(size=(64, 64, 32), nucleus_count=5, noise_sigma=6.0, psf_sigma=1.0, seed=11)
    a_int, a_tru = generate(cfg)
    b_int, b_tru = generate(cfg)
    assert a_int.data.tobytes() == b_int.data.tobytes()
    assert a_tru.data.tobytes() == b_tru.data.tobytes()
    c_int, _ = generate(replace(cfg, seed=12))
    assert a_int.data.tobytes() != c_int.data.tobytes()


def test_labels_consecutive_and_connected():
    # heavy clustering exercises the overwrite path
    cfg = SceneConfig(
        size=(96, 96, 48),
        nucleus_count=10,
        semi_axis_range=(6.0, 9.0),
        clustering=0.8,
        seed=5,
    )
    _, truth = generate(cfg)
    labels = np.unique(truth.data)
    assert labels.tolist() == list(range(0, 11))
    for lab in range(1, 11):
        mask = Volume((truth.data == lab).astype(np.uint8), cfg.spacing)
        comps = connected_components(mask)
        assert len(comps) == 1, f"label {lab} is not 6-connected"


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.0, 2.5)])
def test_voxel_counts_match_analytic_volume(spacing):
    cfg = SceneConfig(
        size=(128, 128, int(96 / spacing[2]) + 16),
        spacing=spacing,
        nucleus_count=6,
        semi_axis_range=(6.0, 11.0),  # >= 4 voxels on every axis
        clustering=0.0,
        seed=21,
    )
    _, truth = generate(cfg)
    voxvol = spacing[0] * spacing[1] * spacing[2]
    counts = np.bincount(truth.data.ravel())[1:]
    assert len(counts) == 6
    # isolated nuclei: each count explained by some admissible ellipsoid
    lo, hi = cfg.semi_axis_range
    vol_lo = 4.0 / 3.0 * np.pi * lo**3
    vol_hi = 4.0 / 3.0 * np.pi * hi**3
    for c in counts:
        assert vol_lo * 0.95 <= c * voxvol <= vol_hi * 1.05


def test_voxel_count_tracks_drawn_axes():
    # single nucleus: compare against its own analytic volume by spanning
    # a tight semi-axis range
    for seed in range(4):
        a = 7.0 + 0.5 * seed
        cfg = SceneConfig(
            size=(64, 64, 64),
            nucleus_count=1,
            semi_axis_range=(a, a + 1e-6),
            seed=seed,
        )
        _, truth = generate(cfg)
        analytic = 4.0 / 3.0 * np.pi * a**3
        count = int((truth.data > 0).sum())
        assert abs(count - analytic) / analytic <= 0.05


def test_clustered_pair_is_adjacent():
    for seed in range(5):
        cfg = SceneConfig(
            size=(96, 96, 96),
            nucleus_count=2,
            semi_axis_range=(8.0, 10.0),
            clustering=1.0,
            seed=seed,
        )
        _, truth = generate(cfg)
        first = truth.data == 1
        second = truth.data == 2
        assert first.any() and second.any()
        gap = ndimage.distance_transform_edt(~first)[second].min()
        assert gap <= 3.0, f"seed {seed}: clustered pair separated by {gap} voxels"


def test_axial_decay_dims_deep_slices():
    plain_cfg = SceneConfig(size=(48, 48, 32), nucleus_count=3, seed=2)
    plain, _ = generate(plain_cfg)
    dimmed, _ = generate(replace(plain_cfg, z_decay=0.6))
    # same placement, so slice ratios follow the fade exactly
    assert float(dimmed.data[0].mean()) == pytest.approx(float(plain.data[0].mean()), abs=0.01)
    ratio = float(dimmed.data[-1].mean()) / float(plain.data[-1].mean())
    assert ratio == pytest.approx(0.4, abs=0.02)


def test_infeasible_placement_raises():
    cfg = SceneConfig(size=(24, 24, 24), nucleus_count=50, semi_axis_range=(8.0, 9.0))
    with pytest.raises(PlacementError):
        generate(cfg)


def test_blur_and_noise_change_histogram():
    base = SceneConfig(size=(48, 48, 24), nucleus_count=3, seed=7)
    crisp, _ = generate(base)
    blurred, _ = generate(replace(base, psf_sigma=1.5))
    noisy, _ = generate(replace(base, noise_sigma=10.0))
    assert len(np.unique(crisp.data)) == 2
    assert len(np.unique(blurred.data)) > 2
    assert len(np.unique(noisy.data)) > 2
    # blur keeps totals roughly in place, noise centers on the clean image
    assert abs(float(blurred.data.mean()) - float(crisp.data.mean())) < 2.0
    assert abs(float(noisy.data.mean()) - float(crisp.data.mean())) < 1.0


def test_intensity_clamped_to_dtype():
    cfg = SceneConfig(
        size=(32, 32, 16),
        nucleus_count=2,
        semi_axis_range=(4.0, 6.0),
        mu_b=5.0,
        mu_f=65530.0,
        noise_sigma=50.0,
        seed=1,
    )
    intensity, _ = generate(cfg)
    assert intensity.data.dtype == np.uint16
    assert intensity.data.min() >= 0


# SHA-256 of the intensity bytes followed by the truth bytes; rewrites of
# generate that keep its output must keep these. The anisotropic scene has
# integer mean levels and noise that clips at 0.
GOLDEN_SCENES = {
    "iso_clustered": (
        SceneConfig(size=(48, 40, 24), nucleus_count=6, semi_axis_range=(6.0, 7.0),
                    clustering=0.8, noise_sigma=5.0, psf_sigma=1.0, seed=11),
        "4d771ab5e82e87e69d31c8a6487a2cfab4a55f7b6c1c1e8dc85c63975fc98f61",
    ),
    "aniso_z_decay": (
        SceneConfig(size=(48, 44, 12), spacing=(1.0, 1.0, 3.0), nucleus_count=5,
                    semi_axis_range=(5.0, 6.0), mu_b=15, mu_f=180, noise_sigma=4.0,
                    psf_sigma=(1.0, 1.0, 0.5), z_decay=0.6, seed=4),
        "e6bc38c34ff3b04c1309833f704aa4aa1382e717697219b86aa19d7fb94dac04",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENES))
def test_generate_matches_golden_digest(name):
    cfg, digest = GOLDEN_SCENES[name]
    intensity, truth = generate(cfg)
    assert hashlib.sha256(intensity.data.tobytes() + truth.data.tobytes()).hexdigest() == digest


def test_generate_peak_memory_per_voxel():
    """One float64 working volume plus the blur's output, the noise draw and
    the truth and intensity volumes: 20 bytes per voxel, where a copy of the
    working volume would add 8 more."""
    cfg = SceneConfig(size=(96, 96, 48), nucleus_count=12, semi_axis_range=(8.0, 9.0),
                      clustering=0.5, noise_sigma=6.0, psf_sigma=1.2, z_decay=0.5, seed=2)
    tracemalloc.start()
    try:
        generate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 22 * 96 * 96 * 48
