import hashlib
import json
import multiprocessing
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from nucsplit import splitter
from nucsplit.binarize import BinarizationConfig, SlabResult, binarize
from nucsplit.evaluate import evaluate
from nucsplit.geometry import cut_metric_weights, sphericity
from nucsplit.graphbuild import EdgeWeightConfig
from nucsplit.nucmodel import NucleusModelParams
from nucsplit.partition import PartitionerConfig, bipartition
from nucsplit.splitter import SplitContext, _model_for, recursive_split, segment
from nucsplit.synthgen import SceneConfig, generate
from nucsplit.volume import Component, Volume, connected_components, gaussian_smooth


def ball_mask(shape_zyx, center_xyz, r):
    sz, sy, sx = shape_zyx
    zz, yy, xx = np.mgrid[0:sz, 0:sy, 0:sx]
    cx, cy, cz = center_xyz
    return (xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2 <= r * r


def fused_balls(shape_zyx=(32, 32, 40), r=8, gap=15):
    # centers closer than 2r: the balls share a narrow lens-shaped neck
    return ball_mask(shape_zyx, (12, 16, 16), r) | ball_mask(shape_zyx, (12 + gap, 16, 16), r)


def single_component(mask, spacing=(1.0, 1.0, 1.0)):
    comps = connected_components(Volume(mask.astype(np.uint8), spacing))
    assert len(comps) == 1
    return comps[0]


def make_ctx(mask, params, spacing=(1.0, 1.0, 1.0), seed=0):
    intensity = Volume(np.where(mask, 200, 20).astype(np.uint8), spacing)
    return SplitContext(volume=intensity, params=params, part_cfg=PartitionerConfig(seed=seed))


def test_plateau_ball_kept_whole():
    mask = ball_mask((40, 40, 40), (20, 20, 20), 10)
    c = single_component(mask)
    params = NucleusModelParams(v_min=2000.0, v_max=8000.0)
    kept = recursive_split(c, make_ctx(mask, params))
    assert len(kept) == 1
    comp, score, psi = kept[0]
    assert len(comp) == len(c)
    assert score > 0.5
    assert psi == sphericity(c, cut_metric_weights((1.0, 1.0, 1.0)), (1.0, 1.0, 1.0))


def test_fused_balls_yield_two_high_scores():
    mask = fused_balls()
    c = single_component(mask)
    params = NucleusModelParams(v_min=1200.0, v_max=4000.0)
    kept = recursive_split(c, make_ctx(mask, params))
    assert len(kept) == 2
    sizes = sorted(len(comp) for comp, _, _ in kept)
    assert min(sizes) > 1800  # each side is essentially one ball
    for _, score, _ in kept:
        assert score >= 0.9
    # kept leaves are disjoint subsets of the parent
    all_coords = np.concatenate([comp.coords for comp, _, _ in kept])
    assert len(np.unique(all_coords, axis=0)) == len(all_coords)


def test_backtrack_keeps_mediocre_parent():
    # ball volume sits on the descending ramp (score ~0.5) and above the
    # repartition cutoff; both halves fall below v_min, so the split comes
    # back empty and the parent survives
    mask = ball_mask((40, 40, 40), (20, 20, 20), 10)
    c = single_component(mask)
    count = len(c)
    params = NucleusModelParams(v_min=0.72 * count, v_max=1.107 * count)
    ctx = make_ctx(mask, params)
    assert ctx.score_ctx.v_repart <= count <= params.v_max
    kept = recursive_split(c, ctx)
    assert len(kept) == 1
    comp, score, _ = kept[0]
    assert len(comp) == count
    assert 0.0 < score <= 0.5


def test_single_voxel_repartition_falls_back_to_leaf():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[2, 2, 2] = True
    c = single_component(mask)
    # volume 1.0 on the descending ramp, above v_repart: repartition is
    # requested but impossible
    params = NucleusModelParams(v_min=0.6, v_max=1.05)
    kept = recursive_split(c, make_ctx(mask, params))
    assert len(kept) == 1
    assert kept[0][1] == pytest.approx(0.238, abs=0.01)


def test_split_context_derives_its_score_context():
    mask = ball_mask((12, 12, 12), (6, 6, 6), 4)
    params = NucleusModelParams(v_min=100.0, v_max=500.0)
    ctx = SplitContext(Volume(mask.astype(np.uint8), (1.0, 1.0, 2.0)), params,
                       part_cfg=PartitionerConfig(imbalance=0.9))
    gate = ctx.score_ctx
    assert (gate.spacing, gate.params, gate.imbalance) == ((1.0, 1.0, 2.0), params, 0.9)
    with pytest.raises(TypeError):
        SplitContext(ctx.volume, params, score_ctx=ctx.score_ctx)


def test_segment_gates_repartition_with_partitioner_imbalance():
    """A big ball with a small one on a one-voxel neck, of total volume
    between 2 v_min / 1.9 and 2 v_min / 1.5: eps = 0.9 splits it and keeps
    the big ball, eps = 0.5 keeps the pair whole as a weak nucleus.

    The neck's first voxel is also big's +x pole, so the path from big's
    interior to small is one voxel wide for three faces, and each of those
    cuts weighs 1: the kept object may lose that pole voxel."""
    zz, yy, xx = np.mgrid[0:20, 0:20, 0:30]
    big = (xx - 9) ** 2 + (yy - 10) ** 2 + (zz - 10) ** 2 <= 36
    small = (xx - 20) ** 2 + (yy - 10) ** 2 + (zz - 10) ** 2 <= 12
    neck = (yy == 10) & (zz == 10) & (xx >= 15) & (xx <= 17)
    mask = big | small | neck
    intensity = Volume(np.where(mask, 200, 20).astype(np.uint8))
    params = NucleusModelParams(v_min=0.98 * big.sum(), v_max=3.0 * big.sum())
    assert 2.0 / 1.9 <= mask.sum() / params.v_min < 2.0 / 1.5

    whole = segment(intensity, params, part_cfg=PartitionerConfig(imbalance=0.5))
    assert [o["voxel_count"] for o in whole.objects] == [int(mask.sum())]
    for seed in range(12):
        split = segment(intensity, params, part_cfg=PartitionerConfig(imbalance=0.9, seed=seed))
        assert len(split.objects) == 1
        assert (big & ~neck).sum() <= split.objects[0]["voxel_count"] <= (big | neck).sum()
        assert not split.labels.data[small].any()


def test_tiny_debris_discarded():
    mask = np.zeros((6, 6, 6), dtype=bool)
    mask[2, 2, 2:4] = True
    c = single_component(mask)
    params = NucleusModelParams(v_min=50.0, v_max=500.0)
    assert recursive_split(c, make_ctx(mask, params)) == []


SCENE = SceneConfig(
    size=(112, 112, 48),
    nucleus_count=7,
    semi_axis_range=(7.0, 9.0),
    clustering=0.0,
    mu_b=20.0,
    mu_f=200.0,
    noise_sigma=5.0,
    psf_sigma=1.0,
    seed=13,
)
PARAMS = NucleusModelParams(v_min=1100.0, v_max=4000.0)
BIN = BinarizationConfig(method="otsu", sigma_smooth=1.0, slabs=1)


def test_segment_clean_scene_matches_truth():
    intensity, truth = generate(SCENE)
    result = segment(intensity, PARAMS, bin_cfg=BIN)
    assert len(result.objects) == 7
    rep = evaluate(truth, result.labels)
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0)

    labels = result.labels.data
    ids = [o["id"] for o in result.objects]
    assert ids == list(range(1, 8))
    assert sorted(np.unique(labels[labels > 0]).tolist()) == ids
    assert sum(o["voxel_count"] for o in result.objects) == int((labels > 0).sum())
    for o in result.objects:
        assert o["score"] > 0.0
        assert 0.0 < o["sphericity"] <= 1.05
    # every labelled voxel was foreground in the mask
    mask, _ = binarize(intensity, BIN)
    assert not labels[mask.data == 0].any()


@pytest.fixture(scope="module")
def clean_scene():
    return generate(SCENE)


@pytest.mark.parametrize("slabs", [1, 3])
def test_segment_smooths_each_voxel_once(clean_scene, monkeypatch, slabs):
    smoothed = []

    def counting(v, sigma, slabs=1):
        if sigma > 0:
            smoothed.append(v.data.size)
        return gaussian_smooth(v, sigma, slabs)

    # sys.modules: the package attribute `nucsplit.binarize` is the function
    for name in ("nucsplit.volume", "nucsplit.binarize", "nucsplit.splitter"):
        if hasattr(sys.modules[name], "gaussian_smooth"):
            monkeypatch.setattr(sys.modules[name], "gaussian_smooth", counting)
    intensity, _ = clean_scene
    result = segment(intensity, PARAMS, bin_cfg=replace(BIN, slabs=slabs))
    assert len(result.objects) == 7
    assert smoothed == [intensity.data.size]  # one call smooths every slab


def orient_xy(v, k):
    """Bit 0 flips x, bit 1 flips y, bit 2 swaps x and y with the spacing,
    bit 3 flips z."""
    data, spacing = v.data, v.spacing
    if k & 1:
        data = data[:, :, ::-1]
    if k & 2:
        data = data[:, ::-1, :]
    if k & 4:
        data = data.transpose(0, 2, 1)
        spacing = (spacing[1], spacing[0], spacing[2])
    if k & 8:
        data = data[::-1, :, :]
    return Volume(data, spacing)


@pytest.mark.parametrize("k", range(16))
def test_segment_invariant_under_xy_flips_and_transpose(clean_scene, k):
    intensity, truth = (orient_xy(v, k) for v in clean_scene)
    result = segment(intensity, PARAMS, bin_cfg=BIN)
    assert len(result.objects) == 7
    rep = evaluate(truth, result.labels)
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0)


# the same anisotropic scene segmented as stored and with z swapped for x or
# for y, its spacing permuted alike: 12 components, 12 bipartitions, 24 nuclei
PERM_SCENE = SceneConfig(size=(96, 96, 24), spacing=(1.0, 1.0, 5.0), nucleus_count=24, semi_axis_range=(9.5, 11.7),
                         clustering=0.3, mu_b=20.0, mu_f=200.0, noise_sigma=6.0, psf_sigma=(1.0, 1.0, 0.4), seed=7)
SWAPS = {"as stored": (0, 1, 2), "x<->z": (2, 1, 0), "y<->z": (1, 0, 2)}  # [z, y, x] data axes


def permute_axes(v, axes):
    """``v`` with its ``[z, y, x]`` data axes permuted by ``axes``, the spacing alike."""
    zyx = v.spacing[::-1]
    return Volume(v.data.transpose(axes), tuple(zyx[a] for a in axes)[::-1])


def test_segment_invariant_under_swapping_z_with_x_or_y(monkeypatch):
    scene = generate(PERM_SCENE)
    bin_cfg = BinarizationConfig(method="otsu", sigma_smooth=0.7, slabs=1)
    params = NucleusModelParams(v_min=2900.0, v_max=8550.0)
    cuts = []
    monkeypatch.setattr(splitter, "bipartition", lambda g, cfg: cuts.append(g.n_nodes) or bipartition(g, cfg))
    counts = {}
    for name, axes in SWAPS.items():
        intensity, truth = (permute_axes(v, axes) for v in scene)
        cuts.clear()
        result = segment(intensity, params, bin_cfg=bin_cfg, edge_cfg=EdgeWeightConfig("grad", sigma_grad=100.0),
                         part_cfg=PartitionerConfig(seed=1))
        assert len(connected_components(binarize(intensity, bin_cfg)[0])) == 12, name
        assert len(cuts) == 12, name
        rep = evaluate(truth, result.labels)
        assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0), name
        counts[name] = sorted(o["voxel_count"] for o in result.objects)
    assert len(counts["as stored"]) == 24
    assert counts["x<->z"] == counts["y<->z"] == counts["as stored"]


def test_sphericity_invariant_under_swapping_z_with_x_or_y():
    intensity, _ = generate(PERM_SCENE)
    mask, _ = binarize(intensity, BinarizationConfig(method="otsu", sigma_smooth=0.7))
    spacing = intensity.spacing
    for axes in SWAPS.values():
        cols = [2 - axes[2 - j] for j in range(3)]  # (x, y, z) columns of the permuted copy
        swapped = tuple(spacing[i] for i in cols)
        assert swapped == permute_axes(intensity, axes).spacing
        for c in connected_components(mask):
            psi = sphericity(c, cut_metric_weights(spacing), spacing)
            moved = sphericity(Component(c.coords[:, cols]), cut_metric_weights(swapped), swapped)
            assert moved == pytest.approx(psi, rel=1e-12, abs=0)


def test_segment_reports_the_sphericity_of_each_label():
    intensity, _ = generate(SCENE)
    result = segment(intensity, PARAMS, bin_cfg=BIN)
    weights = cut_metric_weights(intensity.spacing)
    labels = result.labels.data
    for o in result.objects:
        zz, yy, xx = np.nonzero(labels == o["id"])
        comp = Component(np.stack([xx, yy, zz], axis=1).astype(np.int32))
        assert o["sphericity"] == sphericity(comp, weights, intensity.spacing)


def test_segment_report_is_json_lines():
    intensity, _ = generate(SCENE)
    result = segment(intensity, PARAMS, bin_cfg=BIN)
    lines = result.object_report().splitlines()
    assert len(lines) == len(result.objects)
    parsed = [json.loads(line) for line in lines]
    assert [p["id"] for p in parsed] == [o["id"] for o in result.objects]


def test_segment_deterministic():
    intensity, _ = generate(SCENE)
    a = segment(intensity, PARAMS, bin_cfg=BIN, threads=1)
    b = segment(intensity, PARAMS, bin_cfg=BIN, threads=4)
    assert a.labels.data.tobytes() == b.labels.data.tobytes()
    assert a.objects == b.objects


def test_segment_fused_pair_recovers_both():
    scene = SceneConfig(
        size=(96, 64, 48),
        nucleus_count=2,
        semi_axis_range=(8.0, 9.0),
        clustering=1.0,
        mu_b=20.0,
        mu_f=200.0,
        noise_sigma=4.0,
        psf_sigma=1.2,
        seed=4,
    )
    intensity, truth = generate(scene)
    bin_cfg = BinarizationConfig(method="otsu", sigma_smooth=1.2, slabs=1)
    mask, _ = binarize(intensity, bin_cfg)
    assert len(connected_components(mask)) == 1  # pair fused in the mask
    params = NucleusModelParams(v_min=1500.0, v_max=4500.0)
    result = segment(intensity, params, bin_cfg=bin_cfg)
    assert len(result.objects) == 2
    rep = evaluate(truth, result.labels)
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0)


def test_flat_volume_gives_empty_labels():
    params = NucleusModelParams(v_min=10.0, v_max=100.0)
    for flat in (
        Volume(np.full((8, 8, 8), 37, dtype=np.uint8)),
        Volume(np.zeros((8, 16, 16), dtype=np.uint16)),
    ):
        for scheme in ("grad", "prob", "const"):
            res = segment(flat, params, edge_cfg=EdgeWeightConfig(scheme))
            assert res.labels.data.dtype == np.uint32
            assert not res.labels.data.any()
            assert res.objects == []


def three_slabs():
    """Slabs z 0-3 and 8-11 with fits (mu_f 100 and 200), z 4-7 without."""
    from nucsplit.histmodel import HistogramModel

    def model(mu_f):
        return HistogramModel(
            p_b=0.8, mu_b=20.0, sigma_b=3.0, p_f=0.2, mu_f=mu_f, sigma_f=10.0, alpha=1e-4
        )

    return [
        SlabResult(z_lo=0, z_hi=4, threshold=50, model=model(100.0)),
        SlabResult(z_lo=4, z_hi=8, threshold=50, model=None),
        SlabResult(z_lo=8, z_hi=12, threshold=50, model=model(200.0)),
    ]


def column(zs):
    """A component with one voxel at each z of ``zs``."""
    return Component(np.array([[x, 0, z] for x, z in enumerate(zs)], dtype=np.int32))


def test_model_for_prefers_own_slab_then_nearest():
    slabs = three_slabs()
    assert _model_for(column([2]), slabs).mu_f == 100.0
    assert _model_for(column([11]), slabs).mu_f == 200.0
    # slab without a fit borrows from the closest fitted one
    assert _model_for(column([7]), slabs).mu_f == 200.0
    assert _model_for(column([4]), slabs).mu_f == 100.0
    assert _model_for(column([5]), [SlabResult(0, 12, 50, None)]) is None


def test_model_for_uses_the_slab_holding_most_voxels():
    slabs = three_slabs()
    # the first voxel lies in slab 0, the other three in slab 2
    assert _model_for(column([3, 8, 9, 10]), slabs).mu_f == 200.0
    assert _model_for(column([1, 2, 3, 8]), slabs).mu_f == 100.0
    assert _model_for(column([1, 2, 9, 10]), slabs).mu_f == 100.0  # a tie goes to the lower slab
    # an unfitted home slab borrows from the fitted slab nearest to any voxel
    assert _model_for(column([4, 5, 6, 7, 8]), slabs).mu_f == 200.0
    assert _model_for(column([3, 4, 5, 6, 7]), slabs).mu_f == 100.0


# The labels alone, and the labels plus object report, of one segment call
# on each scene, as SHA-256; changes that keep the output must keep these
# digests. The 4-voxel grid level moved both (8 bipartitions instead of 7 on
# iso, 11 instead of 12 on aniso; the same object counts, evaluate 0/0/0/0
# and cut sums to 0.001). The numpy cut-metric weights (exact bounded least
# squares where scipy's trust-region solver stopped just inside a bound, and
# solid angles summed in another order) kept the labels digests and moved the
# labels+objects ones: only sphericity and score changed, by at most 4.6e-16
# and 6.2e-15 relative on iso and 1.8e-13 and 2.7e-12 on aniso.
DIGEST_SCENES = {
    "iso_clustered_prob": (
        SceneConfig(size=(72, 72, 40), nucleus_count=10, semi_axis_range=(8.0, 9.0),
                    clustering=0.8, mu_b=20.0, mu_f=200.0, noise_sigma=6.0, psf_sigma=1.2, seed=3),
        NucleusModelParams(v_min=1500.0, v_max=4000.0),
        BinarizationConfig(method="otsu", sigma_smooth=1.2, slabs=1),
        EdgeWeightConfig(scheme="prob"),
        "9841d717546cabc3104dd3d33a32dd5871d58635ddffef6c65701cdd1b0e2285",
        "bf170d2cd3bdd8b0fda566a1d28cabcbe63fd173370e8a289e81e79570172c03",
    ),
    "aniso_slab4_grad": (
        SceneConfig(size=(96, 96, 24), spacing=(1.0, 1.0, 5.0), nucleus_count=24,
                    semi_axis_range=(9.5, 11.7), clustering=0.3, mu_b=20.0, mu_f=200.0,
                    noise_sigma=6.0, psf_sigma=(1.0, 1.0, 0.4), z_decay=0.7, seed=7),
        NucleusModelParams(v_min=2900.0, v_max=8550.0),
        BinarizationConfig(method="otsu", sigma_smooth=0.7, slabs=4),
        EdgeWeightConfig(scheme="grad", sigma_grad=100.0),
        "79cec37fae1faf58569600e209483a789bbaaa026a57c94cf99615fa13d86701",
        "e3a13886f019b65e27fa88cd161be7bd4ab8020c1eadbec81381bdcce95bd8db",
    ),
}


def output_digest(res):
    return hashlib.sha256(res.labels.data.tobytes() + json.dumps(res.objects).encode()).hexdigest()


def digest_scene_output(name):
    scene, params, bin_cfg, edge_cfg, _, _ = DIGEST_SCENES[name]
    intensity, _ = generate(scene)
    return segment(intensity, params, bin_cfg=bin_cfg, edge_cfg=edge_cfg,
                   part_cfg=PartitionerConfig(seed=1))


@pytest.mark.parametrize("name", sorted(DIGEST_SCENES))
def test_segment_labels_match_reference_digest(name):
    res = digest_scene_output(name)
    assert hashlib.sha256(res.labels.data.tobytes()).hexdigest() == DIGEST_SCENES[name][4]


@pytest.mark.parametrize("name", sorted(DIGEST_SCENES))
def test_segment_output_matches_reference_digest(name):
    res = digest_scene_output(name)
    assert output_digest(res) == DIGEST_SCENES[name][5]


def test_threads_keep_a_multi_slab_prob_output():
    """Pooled workers read each component's own slab model."""
    scene, params, bin_cfg, *_ = DIGEST_SCENES["aniso_slab4_grad"]
    intensity, _ = generate(scene)
    mask, slabs = binarize(intensity, bin_cfg)
    assert len({_model_for(c, slabs) for c in connected_components(mask)}) > 1
    edge_cfg, part_cfg = EdgeWeightConfig(scheme="prob"), PartitionerConfig(seed=1)
    digests = {output_digest(segment(intensity, params, bin_cfg=bin_cfg, edge_cfg=edge_cfg,
                                     part_cfg=part_cfg, threads=threads)) for threads in (1, 2, 4)}
    assert len(digests) == 1


def separate_balls(radii):
    """One ball per radius along x, each its own component. Every ball's
    first voxel lies in slice z = 1, so the scan order is the x order."""
    mask = np.zeros((16, 16, 16 * len(radii)), dtype=bool)
    for i, r in enumerate(radii):
        mask |= ball_mask(mask.shape, (8 + 16 * i, 8, 1 + r), r)
    return Volume(np.where(mask, 200, 20).astype(np.uint8))


BALL_PARAMS = NucleusModelParams(v_min=100.0, v_max=400.0)


@pytest.mark.parametrize("fork", [True, False])
def test_no_pool_for_one_component_or_without_fork(monkeypatch, fork):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Pool", no_pool)
    if fork:
        intensity = Volume(np.where(fused_balls(), 200, 20).astype(np.uint8))
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        intensity = separate_balls([3, 4, 5])
    assert len(connected_components(binarize(intensity)[0])) == (1 if fork else 3)
    serial = segment(intensity, BALL_PARAMS)
    assert output_digest(segment(intensity, BALL_PARAMS, threads=4)) == output_digest(serial)


def test_pool_size_is_capped_by_components_and_cores(monkeypatch):
    """Records the pool's size and runs its work in this process: no
    worker is forked, so a huge ``threads`` starts nothing."""
    pools = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            pools.append((processes, []))
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, order, chunksize):
            assert chunksize == 1
            pools[-1][1].extend(order)
            return map(fn, order)

    monkeypatch.setattr(type(multiprocessing.get_context("fork")), "Pool", lambda ctx, *a: InProcessPool(*a))
    monkeypatch.setattr(splitter, "_work", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    two, five = separate_balls([3, 5]), separate_balls([3, 4, 5, 3, 4])
    for intensity, threads, size in ((two, 10**9, 2), (five, 10**9, 3), (five, 2, 2)):
        got = segment(intensity, BALL_PARAMS, threads=threads)
        assert output_digest(got) == output_digest(segment(intensity, BALL_PARAMS))
        processes, order = pools[-1]
        assert processes == size
        comps = connected_components(binarize(intensity)[0])
        assert sorted(order) == list(range(len(comps)))
        assert [len(comps[i]) for i in order] == sorted((len(c) for c in comps), reverse=True)
