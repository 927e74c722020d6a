"""Slab-wise volume binarization.

Axial illumination gradients shift the gray-level statistics from slice
to slice, so a single global threshold misses dim objects. The volume
is split along z into contiguous slab groups that are smoothed,
histogrammed, and thresholded independently; foreground is everything
strictly above the group threshold. ``segment`` smooths each slab once
(``smooth_slabs``): one float32 copy of the volume, blurred in place a
slab at a time. Its thresholds and edge weights read those values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .histmodel import FitFailure, HistogramModel, em_fit, gray_levels, model_threshold, otsu_threshold
from .volume import Volume, check_int, gaussian_smooth, slab_ranges

__all__ = ["BinarizationConfig", "SlabResult", "smooth_slabs", "binarize"]

METHODS = ("otsu", "model_threshold")


@dataclass(frozen=True)
class BinarizationConfig:
    method: str = "otsu"
    sigma_smooth: float = 0.0
    slabs: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown binarization method {self.method!r}")
        if not 0 <= self.sigma_smooth < np.inf:
            raise ValueError(f"sigma_smooth must be finite and >= 0, got {self.sigma_smooth}")
        check_int("slabs", self.slabs, 1)


@dataclass(frozen=True)
class SlabResult:
    """One slab group's outcome; the z range is half-open [z_lo, z_hi)."""

    z_lo: int
    z_hi: int
    threshold: int
    model: Optional[HistogramModel]


def smooth_slabs(v: Volume, cfg: BinarizationConfig) -> Volume:
    """``gaussian_smooth`` over the slab groups: each group blurred on its
    own with its edge slices replicated, in one float32 copy of ``v``, or
    ``v`` itself when ``sigma_smooth`` is 0. A float volume with a NaN or
    infinite sample is rejected before any smoothing."""
    if v.data.dtype.kind == "f":
        nan = inf = 0
        for plane in v.data:  # a z-slice at a time: no whole-volume bool arrays
            if not np.isfinite(plane).all():
                nan, inf = nan + int(np.isnan(plane).sum()), inf + int(np.isinf(plane).sum())
        if nan or inf:
            raise ValueError(f"volume holds non-finite values: {nan} NaN and {inf} infinite samples")
    return gaussian_smooth(v, cfg.sigma_smooth, cfg.slabs)


def _binarize_slab(s: np.ndarray, cfg: BinarizationConfig, out: np.ndarray) -> Tuple[int, Optional[HistogramModel]]:
    """Threshold one slab's samples into the bool array ``out``, one z-slice
    at a time; returns the threshold and the model. A sample counts at its
    gray level (``gray_levels``) and is foreground when that level is above
    the threshold."""
    counts = np.zeros(1, dtype=np.int64)
    for plane in s:
        c = np.bincount(gray_levels(plane).ravel())
        if len(c) > len(counts):
            c, counts = counts, c
        counts[: len(c)] += c
    occupied = np.flatnonzero(counts)
    model: Optional[HistogramModel] = None
    if len(occupied) < 2:
        # one gray level holds no contrast: the slab is all background
        t = int(occupied[0])
    elif cfg.method == "model_threshold":
        model = em_fit(counts)
        t = model_threshold(model)
    else:
        t = otsu_threshold(counts)
        # downstream probability weights want a model even here
        try:
            model = em_fit(counts)
        except FitFailure:
            model = None
    for plane, o in zip(s, out):
        np.greater(gray_levels(plane), t, out=o)
    return t, model


def binarize(v: Volume, cfg: BinarizationConfig = BinarizationConfig()) -> Tuple[Volume, List[SlabResult]]:
    """Binarize per slab group; returns the 0/1 mask and per-group results.

    The slabs of ``smooth_slabs(v, cfg)`` are thresholded one by one into
    one mask, a ``uint8`` view of a bool array.
    """
    smoothed = smooth_slabs(v, cfg).data
    mask = np.empty(smoothed.shape, dtype=bool)
    results = []
    for z_lo, z_hi in slab_ranges(smoothed.shape[0], cfg.slabs):
        t, model = _binarize_slab(smoothed[z_lo:z_hi], cfg, mask[z_lo:z_hi])
        results.append(SlabResult(z_lo, z_hi, t, model))
    return Volume(mask.view(np.uint8), v.spacing), results
