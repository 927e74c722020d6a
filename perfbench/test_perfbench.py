"""Fast test of the benchmark's own checks on a tiny seeded scene.

    python3 -m pytest -q perfbench

The tiny scene goes through the same rounds and checks as a benchmark
run, traced and untraced. Two deliberately corrupted labellings, two
nuclei merged and one nucleus split, must be rejected.
"""

import json
import os

import numpy as np
import pytest

import run

nucsplit = run.load_program()

from checks import check_bipartition, check_result, check_split_blocks, pair  # noqa: E402  (needs nucsplit on the path)
from tracing import UNITS, Tracer  # noqa: E402
from workloads import Workload, no_miss_no_add, round_input  # noqa: E402

TINY = Workload(
    name="tiny",
    scene=nucsplit.SceneConfig(
        size=(64, 64, 32),
        nucleus_count=5,
        semi_axis_range=(7.0, 8.0),
        clustering=0.6,
        noise_sigma=6.0,
        psf_sigma=1.0,
        seed=3,
    ),
    params=nucsplit.NucleusModelParams(v_min=800.0, v_max=3200.0),
    bin_cfg=nucsplit.BinarizationConfig(method="otsu", sigma_smooth=1.0, slabs=2),
    edge_cfg=nucsplit.EdgeWeightConfig(scheme="grad", sigma_grad=60.0),
    floor=no_miss_no_add(0.0),
)


@pytest.fixture(scope="module")
def runner():
    return run.Runner(nucsplit, TINY, 13, *nucsplit.generate(TINY.scene))


@pytest.fixture(scope="module")
def scene(runner):
    """(intensity, truth) of the first round's input."""
    return runner.inputs(0)[:2]


@pytest.fixture(scope="module")
def clean(runner):
    result, report, _, _ = runner.round(0)
    runner.check(0, result, report)
    return runner, result, report


def test_tiny_scene_passes_every_check(clean):
    runner, result, report = clean
    assert runner.failures == []
    assert runner.pairings[0].matched == report.gt_count == len(result.objects) == 5


def test_traced_rounds_pass_layer_checks_and_repeat_labels(clean):
    runner, _, _ = clean
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        result, report, _, _ = runner.round(0)
        tracer.active = False
    finally:
        tracer.uninstall()
    runner.check(0, result, report)
    assert runner.failures == [] and tracer.failures == []
    layers = tracer.phase_metrics()
    assert set(layers) | {"synthgen.generate_s", "geometry.cut_metric_weights_s"} == set(UNITS)
    assert layers["partition.bipartitions"] > 0
    assert layers["partition.blocks"] >= 2 * layers["partition.bipartitions"]
    assert layers["binarize.slabs"] == 2 and layers["histmodel.em_fit_calls"] == 2
    assert nucsplit.segment.__module__ == "nucsplit.splitter"  # wrappers are gone


def test_layer_checks_reject_a_wrong_cut_weight(scene):
    comp = max(nucsplit.connected_components(nucsplit.binarize(scene[0], TINY.bin_cfg)[0]), key=len)
    graph = nucsplit.build_graph(comp, scene[0], cfg=TINY.edge_cfg)
    cfg = nucsplit.PartitionerConfig()
    b = nucsplit.bipartition(graph, cfg)
    assert check_bipartition(graph, cfg, b) == []
    wrong = nucsplit.Bipartition(side=b.side, cut_weight=b.cut_weight + 1.0, block_sizes=b.block_sizes)
    assert any("cut weight" in m for m in check_bipartition(graph, cfg, wrong))
    blocks = nucsplit.split_blocks(comp, b)
    assert check_split_blocks(comp, blocks) == []
    assert check_split_blocks(comp, blocks[1:]) != []


def relabel(labels, objects, spacing):
    """Renumber labels to 1..K in scan order and rebuild consistent objects."""
    ids = np.unique(labels[labels > 0])
    first = {int(v): int(np.flatnonzero(labels.ravel() == v)[0]) for v in ids}
    order = sorted(ids.tolist(), key=first.get)
    lut = np.zeros(int(labels.max()) + 1, dtype=np.uint32)
    lut[order] = np.arange(1, len(order) + 1)
    out = lut[labels]
    counts = np.bincount(out.ravel(), minlength=len(order) + 1)
    voxel = spacing[0] * spacing[1] * spacing[2]
    score = objects[0]["score"]
    objs = [
        {"id": i, "voxel_count": int(counts[i]), "volume": counts[i] * voxel, "sphericity": 1.0, "score": score}
        for i in range(1, len(order) + 1)
    ]
    return nucsplit.SegmentationResult(nucsplit.Volume(out, spacing), objs)


def checks_of(corrupt, scene):
    intensity, truth = scene
    mask, _ = nucsplit.binarize(intensity, TINY.bin_cfg)
    report = nucsplit.evaluate(truth, corrupt.labels)
    failures, own = check_result(TINY, mask.data, truth.data, corrupt, report)
    return failures, own


def test_two_merged_nuclei_are_rejected(clean, scene):
    _, result, _ = clean
    labels = result.labels.data.copy()
    labels[labels == 2] = 1
    corrupt = relabel(labels, result.objects, result.labels.spacing)
    failures, own = checks_of(corrupt, scene)
    assert own.merged == 1 and own.matched == 4
    assert any("quality floor" in m for m in failures)


def test_one_split_nucleus_is_rejected(clean, scene):
    _, result, _ = clean
    labels = result.labels.data.copy()
    z, y, x = np.nonzero(labels == 1)
    cut = np.median(x)
    labels[z[x > cut], y[x > cut], x[x > cut]] = labels.max() + 1
    corrupt = relabel(labels, result.objects, result.labels.spacing)
    failures, own = checks_of(corrupt, scene)
    assert own.split == 1 and own.matched == 5
    assert any("quality floor" in m for m in failures)


def test_pairing_matches_evaluate_on_truth_itself(scene):
    _, truth = scene
    own = pair(truth.data, truth.data)
    rep = nucsplit.evaluate(truth, truth)
    assert own.matched == rep.gt_count == 5
    assert (own.missed, own.added, own.merged, own.split) == (0, 0, 0, 0)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == UNITS
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "segment_s", "evaluate_s", "peak_rss_mb", "matched"]


def test_every_round_gets_a_new_input_and_repeats_must_match(clean):
    runner, result, report = clean
    assert len({round_input(13, r) for r in range(16)}) == 16
    assert len({round_input(13, r)[0] for r in range(16)}) == 16  # all 16 orientations
    runner.check(0, result, report)
    assert runner.failures == []
    other = runner.round(1)
    runner.check(1, *other[:2])
    assert runner.failures == [] and len(runner.pairings) == 2
    runner.check(0, *other[:2])  # input 1's result passed off as a repeat of input 0
    assert runner.failures and "repeated round" in runner.failures[-1]
    runner.failures.clear()
