"""Seeded synthetic nuclei volumes with ground truth.

Scenes are ellipsoidal nuclei dropped into a dark background: uniform
random placement with an optional clustering bias that sets a new
nucleus right against an existing one (touching, or biting in up to two
voxels). The intensity channel is the binary occupancy scaled between
background and foreground means, dimmed along z when asked, blurred by
a Gaussian stand-in for the microscope point spread function, and
finished with additive Gaussian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy import ndimage

from .volume import Volume, check_int, check_spacing

__all__ = ["SceneConfig", "PlacementError", "generate"]

MAX_REJECTIONS = 10_000


class PlacementError(RuntimeError):
    """Could not fit the requested nuclei into the volume."""


def _floats(v) -> Tuple[float, ...]:
    """A number taken on all three axes, or each value of a sequence, as floats."""
    return (float(v),) * 3 if np.isscalar(v) else tuple(float(x) for x in v)


@dataclass(frozen=True)
class SceneConfig:
    size: Tuple[int, int, int]
    spacing: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    nucleus_count: int = 20
    semi_axis_range: Tuple[float, float] = (8.0, 12.0)
    clustering: float = 0.0
    mu_b: float = 20.0
    mu_f: float = 200.0
    noise_sigma: float = 0.0
    psf_sigma: Union[float, Tuple[float, float, float]] = (0.0, 0.0, 0.0)  # a number is taken on all three axes
    z_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "psf_sigma", _floats(self.psf_sigma))
        for name, n in (("size", 3), ("spacing", 3), ("semi_axis_range", 2), ("psf_sigma", 3)):
            value = tuple(getattr(self, name))
            if len(value) != n:
                raise ValueError(f"{name} must hold {n} values, got {len(value)}")
            object.__setattr__(self, name, value)
        for n in self.size:
            check_int("size", n, 1)
        check_int("nucleus_count", self.nucleus_count, 0)
        check_int("seed", self.seed, 0)
        check_spacing(self.spacing)
        for name in ("semi_axis_range", "mu_b", "mu_f", "noise_sigma", "psf_sigma"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        lo, hi = self.semi_axis_range
        if not 0 < lo <= hi:
            raise ValueError("semi axis range must satisfy 0 < lo <= hi")
        if not 0.0 <= self.clustering <= 1.0:
            raise ValueError("clustering is a probability")
        if not self.mu_b < self.mu_f:
            raise ValueError("need mu_b < mu_f")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")
        if min(self.psf_sigma) < 0:
            raise ValueError("psf sigma must be >= 0")
        # scipy's gaussian_filter builds a kernel of radius int(4 sigma + 0.5) per axis
        longest = max(self.size)
        if int(4.0 * max(self.psf_sigma) + 0.5) > longest:
            raise ValueError(f"psf_sigma = {max(self.psf_sigma):g} needs a blur kernel radius above the scene's "
                             f"longest axis of {longest} voxels: psf_sigma must be below {(longest + 0.5) / 4:g}")
        if not 0.0 <= self.z_decay < 1.0:
            raise ValueError("z_decay must lie in [0, 1)")


def _radius_along(semi: np.ndarray, direction: np.ndarray) -> float:
    """Distance from an axis-aligned ellipsoid's center to its surface
    along a unit direction."""
    return 1.0 / math.sqrt(float(np.sum((direction / semi) ** 2)))


def _separation_ok(center, semi, placed, allowance: float) -> bool:
    """Candidate may bite at most `allowance` (physical units) into any
    existing nucleus, measured along the center-to-center direction."""
    for other_c, other_s in placed:
        delta = other_c - center
        dist = float(np.linalg.norm(delta))
        if dist < 1e-9:
            return False
        d = delta / dist
        if dist - _radius_along(semi, d) - _radius_along(other_s, d) < -allowance - 1e-9:
            return False
    return True


def _place(cfg: SceneConfig, rng: np.random.Generator):
    spacing = np.asarray(cfg.spacing)
    extent = (np.asarray(cfg.size, dtype=np.float64) - 1.0) * spacing
    lo, hi = cfg.semi_axis_range
    placed = []  # (center, semi) in physical units
    rejections = 0
    bite = 2.0 * float(spacing.min())
    for _ in range(cfg.nucleus_count):
        while True:
            semi = rng.uniform(lo, hi, 3)
            if placed and rng.random() < cfg.clustering:
                anchor_c, anchor_s = placed[int(rng.integers(len(placed)))]
                d = rng.normal(size=3)
                norm = np.linalg.norm(d)
                if norm < 1e-9:
                    d = np.array([1.0, 0.0, 0.0])
                    norm = 1.0
                d /= norm
                overlap = rng.uniform(0.0, bite)
                dist = _radius_along(anchor_s, d) + _radius_along(semi, d) - overlap
                center = anchor_c + d * dist
                allowance = bite  # touching by construction, shallow bites tolerated
            else:
                if (extent - 2 * semi < 0).any():
                    center = None  # cannot fit at all with this draw
                else:
                    center = rng.uniform(semi, extent - semi)
                allowance = 0.0  # unclustered nuclei never share voxels
            ok = (
                center is not None
                and (center - semi >= 0).all()
                and (center + semi <= extent).all()
                and _separation_ok(center, semi, placed, allowance)
            )
            if ok:
                placed.append((center, semi))
                break
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise PlacementError(
                    f"gave up after {MAX_REJECTIONS} rejected placements "
                    f"({len(placed)} of {cfg.nucleus_count} nuclei placed)"
                )
    return placed


def _paint(cfg: SceneConfig, placed) -> np.ndarray:
    sx, sy, sz = cfg.size
    spacing = np.asarray(cfg.spacing)
    truth = np.zeros((sz, sy, sx), dtype=np.uint32)
    for label, (center, semi) in enumerate(placed, start=1):
        lo_v = np.maximum(np.ceil((center - semi) / spacing).astype(int), 0)
        hi_v = np.minimum(np.floor((center + semi) / spacing).astype(int), np.array([sx, sy, sz]) - 1)
        xs = np.arange(lo_v[0], hi_v[0] + 1)
        ys = np.arange(lo_v[1], hi_v[1] + 1)
        zs = np.arange(lo_v[2], hi_v[2] + 1)
        zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
        inside = (
            ((xx * spacing[0] - center[0]) / semi[0]) ** 2
            + ((yy * spacing[1] - center[1]) / semi[1]) ** 2
            + ((zz * spacing[2] - center[2]) / semi[2]) ** 2
        ) <= 1.0
        view = truth[lo_v[2] : hi_v[2] + 1, lo_v[1] : hi_v[1] + 1, lo_v[0] : hi_v[0] + 1]
        view[inside] = label  # later nuclei overwrite shared voxels
    return truth


def generate(cfg: SceneConfig) -> Tuple[Volume, Volume]:
    """Build (intensity u16, truth u32); fully determined by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    placed = _place(cfg, rng)
    truth = _paint(cfg, placed)

    # float64 from the start, so every step but the blur works in place
    intensity = np.where(truth > 0, float(cfg.mu_f), float(cfg.mu_b))
    if cfg.z_decay > 0:
        sz = cfg.size[2]
        fade = 1.0 - cfg.z_decay * np.arange(sz) / max(sz - 1, 1)
        intensity *= fade[:, None, None]
    if max(cfg.psf_sigma) > 0:
        sx_, sy_, sz_ = cfg.psf_sigma
        intensity = ndimage.gaussian_filter(intensity, sigma=(sz_, sy_, sx_), mode="nearest")
    if cfg.noise_sigma > 0:
        intensity += rng.normal(0.0, cfg.noise_sigma, size=intensity.shape)
    np.clip(intensity, 0, 65535, out=intensity)
    intensity = np.rint(intensity, out=intensity).astype(np.uint16)
    return Volume(intensity, cfg.spacing), Volume(truth, cfg.spacing)
