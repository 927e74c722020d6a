import numpy as np
import pytest

from nucsplit.evaluate import EvalReport, evaluate
from nucsplit.synthgen import SceneConfig, generate
from nucsplit.volume import Volume
from oracles import evaluate_reference


def vol(arr):
    return Volume(np.asarray(arr, dtype=np.uint32))


def blocks(*sizes):
    """1-D volume of consecutive labelled runs, e.g. blocks((1, 4), (0, 2))."""
    parts = [np.full(n, lab, dtype=np.uint32) for lab, n in sizes]
    return vol(np.concatenate(parts).reshape(1, 1, -1))


def test_identity_is_clean():
    t = blocks((0, 3), (1, 5), (0, 2), (2, 4), (0, 1))
    rep = evaluate(t, t)
    assert (rep.gt_count, rep.predicted_count) == (2, 2)
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0)
    assert rep.missed_pct == rep.added_pct == rep.merged_pct == rep.split_pct == 0.0


def test_relabel_invariance():
    rng = np.random.default_rng(0)
    t = vol(rng.integers(0, 6, size=(4, 5, 6)))
    perm = np.array([0, 4, 2, 5, 1, 3], dtype=np.uint32)  # permutes labels 1..5
    rep = evaluate(t, Volume(perm[t.data]))
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0)


def test_missed_object():
    t = blocks((1, 5), (0, 2), (2, 4))
    p = blocks((1, 5), (0, 6))
    rep = evaluate(t, p)
    assert rep.missed == 1
    assert rep.missed_pct == pytest.approx(50.0)
    assert (rep.added, rep.merged, rep.split) == (0, 0, 0)


def test_added_object():
    t = blocks((1, 5), (0, 6))
    p = blocks((1, 5), (0, 2), (9, 3), (0, 1))  # label 9 sits on background
    rep = evaluate(t, p)
    assert rep.added == 1
    assert rep.added_pct == pytest.approx(100.0)
    assert (rep.missed, rep.merged, rep.split) == (0, 0, 0)


def test_merge_counts_excess_fan_in():
    t = blocks((1, 4), (0, 1), (2, 4), (0, 1), (3, 4))
    p = blocks((7, 9), (0, 1), (8, 4))  # 7 swallows truth 1 and 2
    rep = evaluate(t, p)
    assert rep.merged == 1
    assert rep.merged_pct == pytest.approx(100.0 / 3.0)
    assert (rep.missed, rep.added, rep.split) == (0, 0, 0)


def test_split_counts_excess_fan_out():
    t = blocks((1, 8), (0, 2))
    p = blocks((3, 4), (4, 4), (0, 2))
    rep = evaluate(t, p)
    assert rep.split == 1
    assert (rep.missed, rep.added, rep.merged) == (0, 0, 0)


def test_plurality_tie_prefers_smaller_label():
    # truth object overlaps background and label 1 equally: background (id 0)
    # wins the tie, so the object counts as missed
    t = blocks((1, 6), (0, 4))
    p = blocks((0, 3), (1, 3), (0, 1), (1, 3))
    rep = evaluate(t, p)
    assert rep.missed == 1
    # flip the balance by one voxel and the miss disappears
    p2 = blocks((0, 2), (1, 4), (0, 1), (1, 3))
    assert evaluate(t, p2).missed == 0


def test_forward_tie_between_two_objects():
    # equal 3-voxel overlap with predicted 5 and 9: mapping picks 5, so 9
    # maps back alone and nothing merges
    t = blocks((1, 6), (2, 3), (0, 3))
    p = blocks((5, 3), (9, 6), (0, 3))
    rep = evaluate(t, p)
    assert rep.merged == 0
    assert rep.missed == 0


def test_empty_truth_guard():
    t = blocks((0, 10))
    p = blocks((0, 4), (2, 3), (0, 3))
    rep = evaluate(t, p)
    assert rep.gt_count == 0
    assert rep.added == 1
    assert rep.added_pct == 0.0  # no denominator to report against


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        evaluate(blocks((1, 4)), blocks((1, 5)))
    # float labels are rejected by name rather than truncated
    f32 = Volume(blocks((1, 4)).data.astype(np.float32))
    with pytest.raises(ValueError, match="f32"):
        evaluate(f32, blocks((1, 4)))
    with pytest.raises(ValueError, match="f32"):
        evaluate(blocks((1, 4)), f32)


def test_report_serialization():
    t = blocks((1, 5), (0, 2), (2, 4))
    p = blocks((1, 5), (0, 6))
    rep = evaluate(t, p)
    d = rep.to_dict()
    assert d["gt_count"] == 2 and d["missed"] == 1
    assert d == {k: getattr(rep, k) for k in d} and len(d) == 10
    table = rep.format_table()
    assert "missed" in table and "50.0%" in table
    assert len(table.splitlines()) == 6


def test_non_consecutive_labels_accepted():
    t = blocks((17, 4), (0, 2), (300, 4))
    rep = evaluate(t, t)
    assert rep.gt_count == 2
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 0, 0, 0)
    # ids at the top of the u32 range pair as exactly as small ones
    top = 4294967295
    t = blocks((top, 4), (0, 2), (top - 1, 4))
    p = blocks((top, 3), (1, 3), (top - 1, 4))
    rep = evaluate(t, p)
    assert (rep.gt_count, rep.predicted_count) == (2, 3)
    assert (rep.missed, rep.added, rep.merged, rep.split) == (0, 1, 0, 0)
    assert rep.to_dict() == evaluate_reference(t.data, p.data)


def test_matches_plain_python_pairing():
    rng = np.random.default_rng(11)
    for trial in range(90):
        dtype = (np.uint8, np.uint16, np.uint32)[trial % 3]
        ids = rng.integers(1, np.iinfo(dtype).max, size=5, endpoint=True).astype(dtype)
        ids[0] = 0  # background
        shape = tuple(int(n) for n in rng.integers(1, 6, size=3))
        # few labels over few voxels, so overlaps often tie
        t = ids[rng.integers(0, 1 + trial % 5, size=shape)]
        p = ids[rng.integers(0, 5, size=shape)]
        assert evaluate(Volume(t), Volume(p)).to_dict() == evaluate_reference(t, p)
        assert evaluate(Volume(p), Volume(t)).to_dict() == evaluate_reference(p, t)
    # no voxel is foreground in either map, so no voxel pair is counted
    zero = np.zeros((2, 3, 4), dtype=np.uint8)
    assert evaluate(Volume(zero), Volume(zero)).to_dict() == evaluate_reference(zero, zero)


def relabelled(labels: np.ndarray, rng) -> np.ndarray:
    """``labels`` with its nonzero ids sent to distinct random nonzero ids."""
    ids = np.unique(labels[labels > 0])
    new = rng.choice(np.iinfo(np.uint32).max, size=len(ids), replace=False).astype(np.uint32) + 1
    out = np.zeros_like(labels)
    out[labels > 0] = new[np.searchsorted(ids, labels[labels > 0])]
    return out


def test_counts_invariant_under_permuted_ids():
    """Metamorphic: permuting the predicted ids, and separately the truth
    ids, leaves missed, added, merged and split as they were."""
    _, truth = generate(SceneConfig(size=(48, 48, 24), nucleus_count=8, semi_axis_range=(5.0, 7.0), seed=5))
    t = truth.data
    ids = np.unique(t[t > 0])
    assert len(ids) >= 4
    p = t.copy()
    p[t == ids[0]] = 0  # missed
    p[t == ids[2]] = ids[1]  # merged
    zz, yy, xx = np.nonzero(t == ids[3])
    p[zz, yy, xx] = np.where(xx < np.percentile(xx, 30), 90, ids[3])  # split, 30/70
    p[:2, :2, :2] = 91  # added, on background
    assert not t[:2, :2, :2].any()

    def counts(truth_ids, predicted_ids):
        rep = evaluate(Volume(truth_ids), Volume(predicted_ids))
        return rep.gt_count, rep.predicted_count, rep.missed, rep.added, rep.merged, rep.split

    want = counts(t, p)
    assert want[2:] == (1, 1, 1, 1)
    rng = np.random.default_rng(17)
    for _ in range(5):
        assert counts(t, relabelled(p, rng)) == want
        assert counts(relabelled(t, rng), p) == want


def test_report_derives_its_shares_from_the_counts():
    rep = EvalReport(gt_count=4, predicted_count=4, missed=1, added=0, merged=0, split=0)
    assert (rep.missed_pct, rep.added_pct, rep.merged_pct, rep.split_pct) == (25.0, 0.0, 0.0, 0.0)
    assert EvalReport(0, 2, 0, 2, 0, 0).added_pct == 0.0
    with pytest.raises(TypeError):
        EvalReport(gt_count=4, predicted_count=4, missed=1, added=0, merged=0, split=0, missed_pct=0.0)
