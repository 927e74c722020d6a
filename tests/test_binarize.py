import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy import ndimage

from nucsplit import splitter
from nucsplit.binarize import BinarizationConfig, binarize, smooth_slabs
from nucsplit.histmodel import otsu_threshold
from nucsplit.nucmodel import NucleusModelParams
from nucsplit.splitter import segment
from nucsplit.synthgen import SceneConfig, generate
from nucsplit.volume import Volume, connected_components, gaussian_smooth, slab_ranges


def ellipsoid_mask(shape_zyx, center_xyz, semi_xyz):
    sz, sy, sx = shape_zyx
    zz, yy, xx = np.meshgrid(np.arange(sz), np.arange(sy), np.arange(sx), indexing="ij")
    cx, cy, cz = center_xyz
    ax, ay, az = semi_xyz
    return ((xx - cx) / ax) ** 2 + ((yy - cy) / ay) ** 2 + ((zz - cz) / az) ** 2 <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        BinarizationConfig(method="magic")
    with pytest.raises(ValueError):
        BinarizationConfig(sigma_smooth=-1.0)
    with pytest.raises(ValueError):
        BinarizationConfig(slabs=0)


@pytest.mark.parametrize("field, value", [("sigma_smooth", math.inf), ("sigma_smooth", math.nan), ("slabs", 2.5),
                                          ("slabs", True)])
def test_config_rejects_bad_numbers_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        BinarizationConfig(**{field: value})


def test_slab_ranges_remainder_first():
    assert slab_ranges(10, 3) == [(0, 4), (4, 3 + 4), (7, 10)]
    assert slab_ranges(10, 1) == [(0, 10)]
    assert slab_ranges(4, 4) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(ValueError):
        slab_ranges(4, 5)
    with pytest.raises(ValueError):
        slab_ranges(4, 0)


def test_bright_ellipsoid_recovered():
    rng = np.random.default_rng(0)
    shape = (24, 48, 48)
    truth = ellipsoid_mask(shape, (24, 24, 12), (10, 12, 6))
    data = np.where(truth, 200.0, 20.0) + rng.normal(0, 4, shape)
    v = Volume(np.clip(data, 0, 255).astype(np.float32))
    mask, slabs = binarize(v, BinarizationConfig("otsu", sigma_smooth=1.0, slabs=1))
    assert len(slabs) == 1
    got = mask.data.astype(bool)
    # detection may dilate a little under smoothing but not wander
    assert (got & ~ndimage.binary_dilation(truth, iterations=2)).sum() == 0
    assert (~got & ndimage.binary_erosion(truth, iterations=2)).sum() == 0
    assert 20 < slabs[0].threshold < 200


def test_constant_volume_degenerate():
    # one gray level per slab leaves nothing to separate: all background
    for fill in (7, 0):
        v = Volume(np.full((4, 8, 8), fill, dtype=np.uint8))
        for method in ("otsu", "model_threshold"):
            mask, slabs = binarize(v, BinarizationConfig(method, slabs=4))
            assert not mask.data.any()
            assert [(s.threshold, s.model) for s in slabs] == [(fill, None)] * 4


def test_axial_decay_needs_slabs():
    """Objects fading along z slip under a single global threshold but
    are caught when each slab thresholds its own histogram."""
    rng = np.random.default_rng(3)
    shape = (32, 40, 40)
    data = np.full(shape, 20.0)
    centers = [(10, 10, 4), (30, 28, 15), (12, 30, 27)]
    decay = 1.0 - 0.75 * np.arange(shape[0]) / (shape[0] - 1)
    blobs = []
    for c in centers:
        b = ellipsoid_mask(shape, c, (6, 6, 3))
        blobs.append(b)
        data[b] = 200.0
    data *= decay[:, None, None]
    data += rng.normal(0, 2, shape)
    v = Volume(np.clip(data, 0, 255).astype(np.float32))

    coarse, _ = binarize(v, BinarizationConfig("otsu", slabs=1))
    fine, slabs = binarize(v, BinarizationConfig("otsu", slabs=16))
    assert len(slabs) == 16
    cover_coarse = [coarse.data[b].mean() for b in blobs]
    cover_fine = [fine.data[b].mean() for b in blobs]
    assert all(c > 0.8 for c in cover_fine)
    assert min(cover_coarse) < 0.2  # the dimmest object vanishes globally


def test_otsu_mask_invariant_under_doubling():
    rng = np.random.default_rng(9)
    base = np.concatenate([rng.normal(30, 5, 2800), rng.normal(120, 10, 1200)])
    base = np.clip(np.rint(base), 0, 255).astype(np.uint8)
    rng.shuffle(base)
    data = base.reshape(10, 10, 40)
    v1 = Volume(data)
    v2 = Volume((data.astype(np.uint16) * 2))
    for m in (1, 3):
        m1, _ = binarize(v1, BinarizationConfig("otsu", slabs=m))
        m2, _ = binarize(v2, BinarizationConfig("otsu", slabs=m))
        assert np.array_equal(m1.data, m2.data)


@pytest.mark.parametrize("slabs", [1, 4])
def test_otsu_mask_invariant_under_integer_offset_and_scale(slabs):
    """Adding an integer to every u16 sample, or multiplying every sample by
    a positive integer, maps each gray level to its own new level in the
    same order, so Otsu's split and the mask stay byte-identical."""
    cfg = BinarizationConfig("otsu", sigma_smooth=0.0, slabs=slabs)
    for seed in range(6):
        scene = SceneConfig(size=(40, 40, 16), nucleus_count=4, semi_axis_range=(5.0, 7.0),
                            noise_sigma=8.0, psf_sigma=1.0, z_decay=0.5, seed=seed)
        intensity, _ = generate(scene)
        base, _ = binarize(intensity, cfg)
        assert 0 < base.data.sum() < base.data.size
        data = intensity.data.astype(np.int64)
        for moved in [data + k for k in (0, 17, 1000)] + [data * k for k in (1, 3)]:
            mask, _ = binarize(Volume(moved.astype(np.uint16), intensity.spacing), cfg)
            assert mask.data.tobytes() == base.data.tobytes()


def test_single_slab_equals_direct_threshold():
    rng = np.random.default_rng(2)
    data = rng.integers(0, 200, size=(6, 12, 12)).astype(np.uint8)
    data[2:4, 2:8, 2:8] = 220
    v = Volume(data)
    mask, slabs = binarize(v, BinarizationConfig("otsu", sigma_smooth=0.0, slabs=1))
    t = otsu_threshold(np.bincount(data.ravel()))
    assert slabs[0].threshold == t
    assert np.array_equal(mask.data.astype(bool), data > t)


def test_model_threshold_method():
    rng = np.random.default_rng(11)
    shape = (8, 32, 32)
    n = int(np.prod(shape))
    n_fg = n // 8
    vals = np.concatenate(
        [rng.normal(40, 6, n - n_fg), rng.normal(170, 12, n_fg)]
    )
    rng.shuffle(vals)
    v = Volume(np.clip(np.rint(vals), 0, 255).reshape(shape).astype(np.uint8))
    mask, slabs = binarize(v, BinarizationConfig("model_threshold", slabs=1))
    res = slabs[0]
    assert res.model is not None
    assert res.model.mu_b < res.threshold <= res.model.mu_f
    frac = mask.data.mean()
    assert frac == pytest.approx(n_fg / n, rel=0.15)


def test_otsu_still_fits_model():
    rng = np.random.default_rng(4)
    vals = np.concatenate([rng.normal(30, 5, 6000), rng.normal(150, 12, 2000)])
    v = Volume(np.clip(np.rint(vals), 0, 255).reshape(20, 20, 20).astype(np.uint8))
    _, slabs = binarize(v, BinarizationConfig("otsu", slabs=1))
    assert slabs[0].model is not None
    assert slabs[0].model.mu_b == pytest.approx(30, abs=4)
    assert slabs[0].model.mu_f == pytest.approx(150, abs=6)


def test_threads_do_not_change_result():
    """The many noise components of an 8-slab volume are split in a pool
    at threads 2 and 4, with the same labels and objects as serially."""
    rng = np.random.default_rng(6)
    data = rng.integers(0, 255, size=(16, 20, 20)).astype(np.uint8)
    data[:, 5:15, 5:15] = np.maximum(data[:, 5:15, 5:15], 180)
    v = Volume(data)
    cfg = BinarizationConfig("otsu", sigma_smooth=0.8, slabs=8)
    params = NucleusModelParams(v_min=10.0, v_max=100.0)
    assert len(connected_components(binarize(v, cfg)[0])) > 1
    serial = segment(v, params, bin_cfg=cfg, threads=1)
    for threads in (2, 4):
        pooled = segment(v, params, bin_cfg=cfg, threads=threads)
        assert pooled.labels.data.tobytes() == serial.labels.data.tobytes()
        assert pooled.objects == serial.objects


def test_threads_below_one_rejected_before_any_thread_starts(monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("smoothing, a thread or a pool was started")

    monkeypatch.setattr(threading.Thread, "start", started)
    monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Pool", started)
    monkeypatch.setattr(splitter, "smooth_slabs", started)
    v = Volume(np.random.default_rng(6).integers(0, 255, size=(8, 10, 10)).astype(np.uint8))
    cfg = BinarizationConfig("otsu", sigma_smooth=1.0, slabs=4)
    for threads in (0, -3, 2.5):
        with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads}"):
            segment(v, NucleusModelParams(v_min=10.0, v_max=100.0), bin_cfg=cfg, threads=threads)


@pytest.mark.parametrize("slabs", [1, 3])
def test_binarize_thresholds_the_smoothed_slabs(slabs):
    """Each slab is smoothed on its own with its edge slices replicated,
    and binarize thresholds exactly those values."""
    rng = np.random.default_rng(8)
    data = rng.integers(0, 120, size=(10, 16, 16)).astype(np.uint8)
    data[2:8, 4:12, 4:12] += 100
    v = Volume(data)
    cfg = BinarizationConfig("otsu", sigma_smooth=1.2, slabs=slabs)
    smoothed = smooth_slabs(v, cfg)
    by_slab = [gaussian_smooth(Volume(data[a:b]), 1.2).data for a, b in slab_ranges(10, slabs)]
    assert np.array_equal(smoothed.data, np.concatenate(by_slab))
    assert smooth_slabs(v, replace(cfg, sigma_smooth=0.0)) is v

    mask, results = binarize(v, cfg)
    again, again_results = binarize(smoothed, replace(cfg, sigma_smooth=0.0))
    assert np.array_equal(mask.data, again.data)
    assert [asdict(s) for s in results] == [asdict(s) for s in again_results]


@pytest.mark.parametrize("sigma", [0.0, 0.8])
def test_float_samples_are_foreground_when_rint_takes_them_above_the_threshold(sigma):
    """The mask equals ``np.rint(s) > t``, ties to even, on f32 slabs that
    hold t - 1/2 and t + 1/2 exactly, for odd and for even thresholds.
    Every half step between 20 and 80 fills a block 8 voxels wide along x,
    constant in y and z, so smoothing keeps the middle of each block exact."""
    rng = np.random.default_rng(4)
    steps = np.arange(40, 161) / 2
    slabs = []
    for _ in range(6):  # 60 extra blocks, split at random between the two ends, move each slab's threshold
        low = int(rng.integers(10, 50))
        extra = np.concatenate([rng.choice(steps[:40], low), rng.choice(steps[-40:], 60 - low)])
        slabs.append(np.sort(np.concatenate([steps, extra])))
    blocks = np.stack(slabs)  # (slab, block)
    data = np.repeat(np.repeat(blocks, 2, axis=0), 8, axis=1)[:, None, :].repeat(2, axis=1)
    v = Volume(data.astype(np.float32))
    cfg = BinarizationConfig(sigma_smooth=sigma, slabs=6)
    mask, results = binarize(v, cfg)
    smoothed = smooth_slabs(v, cfg).data
    for r in results:
        s, t = smoothed[r.z_lo : r.z_hi], r.threshold
        assert np.isin([t - 0.5, t + 0.5], s).all()
        assert np.array_equal(mask.data[r.z_lo : r.z_hi], np.rint(s) > t)
    assert {r.threshold % 2 for r in results} == {0, 1}


def test_binarize_holds_at_most_9_bytes_per_voxel_above_its_input():
    """Smoothing blurs one float32 copy in place, and each slab's histogram
    and mask are made a z-slice at a time: the peak is that copy, the bool
    mask and a z-slice's temporaries, and no int64 copy of the slab."""
    rng = np.random.default_rng(2)
    data = rng.integers(0, 400, size=(32, 96, 128)).astype(np.uint16)
    data[8:24, 20:70, 30:100] += 1500
    v = Volume(data)
    tracemalloc.start()
    try:
        binarize(v, BinarizationConfig(sigma_smooth=1.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * data.size


def test_gray_level_above_65535_rejected_by_value():
    """One huge sample would otherwise make the slab histogram that many bins long."""
    data = np.full((4, 8, 8), 10.0, dtype=np.float32)
    data[2, 3, 4] = 1e6
    with pytest.raises(ValueError, match="gray level 1000000 above 65535 not allowed"):
        binarize(Volume(data))


def test_negative_values_rejected():
    v = Volume(np.full((2, 4, 4), -5.0, dtype=np.float32))
    with pytest.raises(ValueError, match="negative gray levels not allowed"):
        binarize(v)


@pytest.mark.parametrize(
    "bad, counts", [(np.nan, "1 NaN and 0 infinite"), (np.inf, "0 NaN and 1 infinite")]
)
def test_non_finite_values_rejected_by_name(bad, counts):
    from nucsplit.nucmodel import NucleusModelParams
    from nucsplit.splitter import segment

    data = np.full((4, 8, 8), 10.0, dtype=np.float32)
    data[1, 2, 3] = bad
    v = Volume(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way to the error
        with pytest.raises(ValueError, match=f"non-finite values: {counts}"):
            binarize(v, BinarizationConfig(sigma_smooth=1.0))
        with pytest.raises(ValueError, match=f"non-finite values: {counts}"):
            segment(v, NucleusModelParams(v_min=10.0, v_max=100.0))


def test_non_finite_in_the_last_slab_rejected_before_any_smoothing(monkeypatch):
    def smoothing(*args):
        raise AssertionError("a slab was smoothed")

    # sys.modules: the package attribute `nucsplit.binarize` is the function
    monkeypatch.setattr(sys.modules["nucsplit.binarize"], "gaussian_smooth", smoothing)
    data = np.full((9, 8, 8), 10.0, dtype=np.float32)
    data[8, 7, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite values: 1 NaN and 0 infinite"):
        smooth_slabs(Volume(data), BinarizationConfig(sigma_smooth=1.0, slabs=3))


def test_slab_result_serializable():
    rng = np.random.default_rng(1)
    vals = np.concatenate([rng.normal(30, 5, 3000), rng.normal(150, 12, 1000)])
    v = Volume(np.clip(np.rint(vals), 0, 255).reshape(10, 20, 20).astype(np.uint8))
    _, slabs = binarize(v, BinarizationConfig("otsu", slabs=2))
    d = asdict(slabs[1])
    assert d["z_lo"] == 5 and d["z_hi"] == 10
    assert isinstance(d["threshold"], int)
    assert d["model"] is None or "mu_b" in d["model"]
