"""Label-map comparison against ground truth.

Matching is by plurality overlap, run in both directions: each truth
nucleus maps to the predicted label (possibly background) covering most
of its voxels, and each predicted object maps back the same way. Ties
go to the smaller label id so reports are reproducible. From the two
maps we count missed and added objects and the excess fan-in that shows
up as merges and splits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict

import numpy as np

from .volume import Volume

__all__ = ["EvalReport", "evaluate"]


@dataclass(frozen=True)
class EvalReport:
    """The six counts of one comparison. Each ``*_pct`` is derived: that
    count as a percentage of ``gt_count``, or 0.0 without ground truth."""

    gt_count: int
    predicted_count: int
    missed: int
    added: int
    merged: int
    split: int
    missed_pct: float = field(init=False)
    added_pct: float = field(init=False)
    merged_pct: float = field(init=False)
    split_pct: float = field(init=False)

    def __post_init__(self):
        for name in ("missed", "added", "merged", "split"):
            pct = 100.0 * getattr(self, name) / self.gt_count if self.gt_count else 0.0
            object.__setattr__(self, f"{name}_pct", pct)

    def to_dict(self) -> Dict:
        return asdict(self)

    def format_table(self) -> str:
        rows = [
            ("ground truth", self.gt_count, ""),
            ("predicted", self.predicted_count, ""),
            ("missed", self.missed, f"{self.missed_pct:.1f}%"),
            ("added", self.added, f"{self.added_pct:.1f}%"),
            ("merged", self.merged, f"{self.merged_pct:.1f}%"),
            ("split", self.split, f"{self.split_pct:.1f}%"),
        ]
        width = max(len(name) for name, _, _ in rows)
        lines = [f"{name:<{width}}  {count:>6} {pct:>7}".rstrip() for name, count, pct in rows]
        return "\n".join(lines)


def _plurality(keys: np.ndarray, partners: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Partner with the largest count per distinct key, in key order;
    ties -> smaller partner id."""
    # sort so the winner is the first row of each key group
    order = np.lexsort((partners, -counts, keys))
    k = keys[order]
    first = np.ones(len(k), dtype=bool)
    first[1:] = k[1:] != k[:-1]
    return partners[order][first]


def _excess(winners: np.ndarray) -> int:
    """Fan-in beyond one, summed over the nonzero partners that won."""
    hit = winners[winners > 0]
    return int(hit.size - np.unique(hit).size)


def evaluate(truth: Volume, predicted: Volume) -> EvalReport:
    if truth.data.shape != predicted.data.shape:
        raise ValueError(
            f"shape mismatch: truth {truth.data.shape} vs predicted {predicted.data.shape}"
        )
    for name, v in (("truth", truth), ("predicted", predicted)):
        if v.data.dtype.kind != "u":
            raise ValueError(
                f"{name} labels are {v.dtype_code}; evaluate needs integer labels (u8/u16/u32)"
            )
    # one uint64 key per voxel pair: ids are at most 32 bits wide, so t << 32 | p
    # cannot overflow and no table grows with the id values; background in
    # both maps counts toward neither direction, so those voxels are skipped
    t, p = truth.data.ravel(), predicted.data.ravel()
    either = (t != 0) | (p != 0)
    key = t[either].astype(np.uint64)
    key <<= np.uint64(32)
    key |= p[either]
    pairs, counts = np.unique(key, return_counts=True)
    tk = pairs >> np.uint64(32)
    pk = pairs & np.uint64(0xFFFFFFFF)

    fwd_rows = tk > 0  # truth nucleus -> predicted label (background allowed)
    fwd = _plurality(tk[fwd_rows], pk[fwd_rows], counts[fwd_rows])
    back_rows = pk > 0
    back = _plurality(pk[back_rows], tk[back_rows], counts[back_rows])

    return EvalReport(
        gt_count=int(fwd.size),
        predicted_count=int(back.size),
        missed=int((fwd == 0).sum()),
        added=int((back == 0).sum()),
        merged=_excess(fwd),
        split=_excess(back),
    )
