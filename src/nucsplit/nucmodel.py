"""Fuzzy nucleus model.

A candidate component is judged by two plausibility memberships, one on
physical volume (trapezoid between configured bounds) and one on
sphericity (quadratic ramp toward the ideal ball reading). Their product
is the component score; the score plus the parent's score drive the
keep / discard / repartition decision during recursive splitting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import cut_metric_weights, sphericity, volume_of
from .volume import Component

__all__ = [
    "NucleusModelParams",
    "Decision",
    "ScoredDecision",
    "ScoreContext",
    "trapezoid",
    "sphericity_membership",
    "component_score",
    "outscores_parent",
    "score_function",
]


@dataclass(frozen=True)
class NucleusModelParams:
    """Volume bounds are physical (spacing-corrected) units cubed."""

    v_min: float
    v_max: float
    shoulder: float = 0.2
    psi_min: float = 0.81
    psi_ideal: float = 0.96

    def __post_init__(self):
        if not (0.0 < self.v_min < self.v_max) or not math.isfinite(self.v_max):
            raise ValueError("need 0 < v_min < v_max")
        if not 0.0 < self.shoulder < 0.5:
            raise ValueError("shoulder fraction must lie in (0, 0.5)")
        if not 0.0 < self.psi_min < self.psi_ideal <= 1.0:
            raise ValueError("need 0 < psi_min < psi_ideal <= 1")

    @property
    def volume_knots(self) -> Tuple[float, float, float, float]:
        a = self.v_min
        d = self.v_max
        return (a, (1.0 + self.shoulder) * a, (1.0 - self.shoulder) * d, d)


class Decision(enum.Enum):
    KEEP = "keep"
    DISCARD = "discard"
    REPARTITION = "repartition"


class ScoredDecision(NamedTuple):
    decision: Decision
    score: float
    psi: Optional[float]  # None when the volume alone decided


@dataclass(frozen=True)
class ScoreContext:
    """Everything score_function needs beyond the component itself.

    ``imbalance`` is the partitioner's balance tolerance eps; ``weights``
    is the cut-metric weights of ``spacing``, computed once here.
    """

    spacing: Tuple[float, float, float]
    params: NucleusModelParams
    imbalance: float
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", cut_metric_weights(self.spacing))

    @property
    def v_repart(self) -> float:
        """Smallest parent volume whose larger balanced-split child can
        still reach v_min: the larger side holds at most (1+eps)/2 of it."""
        return 2.0 * self.params.v_min / (1.0 + self.imbalance)


def trapezoid(x: float, theta: Sequence[float]) -> float:
    """Trapezoidal membership over knots (a, b, c, d).

    Ramps 0 to 1 on [a, b), holds 1 on [b, c), ramps back to 0 on
    [c, d), and is 0 outside [a, d). Equal knots degrade to step edges.
    """
    a, b, c, d = theta
    if not a <= b <= c <= d:
        raise ValueError("trapezoid knots must be non-decreasing")
    if x < a or x >= d:
        return 0.0
    if x < b:
        # x >= a and x < b, so b > a and the ratio is well defined
        return (x - a) / (b - a)
    if x < c:
        return 1.0
    return (d - x) / (d - c)


def sphericity_membership(psi: float, params: NucleusModelParams) -> float:
    if psi <= params.psi_min:
        return 0.0
    if psi >= params.psi_ideal:
        return 1.0
    t = (psi - params.psi_min) / (params.psi_ideal - params.psi_min)
    return t * t


def component_score(volume: float, psi: float, params: NucleusModelParams) -> float:
    """Multiplicative combination of the two memberships."""
    if volume < 0:
        raise ValueError("volume must be >= 0")
    return trapezoid(volume, params.volume_knots) * sphericity_membership(psi, params)


def outscores_parent(s_child: float, s_parent: float) -> bool:
    """Child survival test against the parent's score.

    A parent above 0.5 always wins: s_child*(1-s_parent) <= 1-s_parent
    < s_parent, so no child can pass.
    """
    return s_child * (1.0 - s_parent) > s_parent


def score_function(c: Component, s_parent: float, ctx: ScoreContext) -> ScoredDecision:
    """Decide a candidate component's fate.

    Order matters: hopeless volume first (sphericity never computed),
    confident keeps next, then the repartition gate for anything still
    big enough to contain a minimum nucleus, and finally the
    parent-comparison for the small ambiguous rest.
    """
    if not 0.0 <= s_parent <= 1.0:
        raise ValueError("s_parent must lie in [0, 1]")
    params = ctx.params
    volume = volume_of(c, ctx.spacing)
    if volume < params.v_min:
        return ScoredDecision(Decision.DISCARD, 0.0, None)
    psi = sphericity(c, ctx.weights, ctx.spacing)
    s = component_score(volume, psi, params)
    if s > 0.5:
        return ScoredDecision(Decision.KEEP, s, psi)
    if volume >= ctx.v_repart:
        return ScoredDecision(Decision.REPARTITION, s, psi)
    if outscores_parent(s, s_parent):
        return ScoredDecision(Decision.KEEP, s, psi)
    return ScoredDecision(Decision.DISCARD, s, psi)
