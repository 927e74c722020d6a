"""Gray-level histogram model of blurred two-class volumes.

The intensity histogram is modeled as the sum of three parts: a normal
background peak ``NB``, a normal foreground peak ``F``, and a bridge term
``IB`` for background voxels whose values were pulled up by the point
spread function of nearby foreground ("illuminated background"):

    NB(i) = p_b / (sqrt(2 pi) sigma_b) * exp(-(i - mu_b)^2 / (2 sigma_b^2))
    F(i)  = p_f / (sqrt(2 pi) sigma_f) * exp(-(i - mu_f)^2 / (2 sigma_f^2))
    IB(i) = 2 alpha p_f / (i - mu_b) * log((mu_f - mu_b) / (i - mu_b))
            on mu_b + 2 sigma_b <= i < mu_f, zero elsewhere

The seven parameters are fitted by EM.  ``B = NB + IB`` acts as the
background density for thresholding and posterior probabilities.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

SIGMA_FLOOR = 0.5
ALPHA_FLOOR = 1e-6
POSTERIOR_FLOOR = 1e-9
PRIOR_COLLAPSE = 1e-8
EM_MAX_ITER = 50
EM_TOL = 1e-4
MAX_LEVEL = 65535  # the top u16 level; a histogram has at most MAX_LEVEL + 1 bins


class DegenerateHistogram(ValueError):
    """Histogram cannot support a two-class split (fewer than 2 occupied levels)."""


class FitFailure(RuntimeError):
    """Model fitting collapsed or produced no usable threshold."""


def gray_levels(samples) -> np.ndarray:
    """The gray level of each sample: the nearest integer, as int64.

    Every float sample is histogrammed, thresholded and looked up in a
    model at this level; a negative level, or one above ``MAX_LEVEL``, is
    rejected.
    """
    levels = np.empty(np.shape(samples), dtype=np.int64)
    with np.errstate(invalid="ignore"):  # a sample beyond int64 casts to its minimum, caught below
        np.rint(samples, out=levels, casting="unsafe")  # one pass, no float temporary
    if levels.size and int(levels.min()) < 0:
        huge = np.asarray(samples)[levels < 0].max()
        if huge > MAX_LEVEL:
            raise ValueError(f"gray level {float(huge):g} above {MAX_LEVEL} not allowed")
        raise ValueError("negative gray levels not allowed")
    if levels.size and int(levels.max()) > MAX_LEVEL:
        raise ValueError(f"gray level {int(levels.max())} above {MAX_LEVEL} not allowed")
    return levels


@dataclass(frozen=True)
class HistogramModel:
    """The seven fitted mixture parameters."""

    p_b: float
    mu_b: float
    sigma_b: float
    p_f: float
    mu_f: float
    sigma_f: float
    alpha: float

    def __post_init__(self):
        if not all(
            math.isfinite(v)
            for v in (self.p_b, self.mu_b, self.sigma_b, self.p_f, self.mu_f, self.sigma_f, self.alpha)
        ):
            raise ValueError("model parameters must be finite")
        if not 0 < self.p_b + self.p_f <= 1.0001:
            raise ValueError(f"p_b + p_f = {self.p_b + self.p_f} outside (0, 1.0001]")
        if not (0 <= self.p_b and 0 <= self.p_f):
            raise ValueError("priors must be non-negative")
        if not self.mu_b < self.mu_f:
            raise ValueError(f"mu_b = {self.mu_b} must be below mu_f = {self.mu_f}")
        if self.sigma_b <= 0 or self.sigma_f <= 0:
            raise ValueError("sigmas must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def _class_sums(counts: np.ndarray):
    """The occupied levels of ``counts``, and the cumulative share and first
    moment of the counts up to each level; ``DegenerateHistogram`` below two."""
    occ = np.flatnonzero(counts)
    if len(occ) < 2:
        raise DegenerateHistogram("need at least 2 occupied gray levels")
    hn = counts / counts.sum()
    return occ, np.cumsum(hn), np.cumsum(np.arange(len(counts)) * hn)


def otsu_threshold(counts: np.ndarray) -> int:
    """Threshold maximizing between-class variance; ties go to the smaller level.

    ``counts`` holds the int64 count of each gray level. Classes are
    ``i <= t`` and ``i > t``; callers treat values above t as foreground.
    """
    occ, w0, m0 = _class_sums(counts)
    mean = m0[-1]
    # thresholds keeping both classes non-empty
    ts = np.arange(occ[0], occ[-1])
    w0t = w0[ts]
    w1t = 1.0 - w0t
    mu0 = m0[ts] / w0t
    mu1 = (mean - m0[ts]) / w1t
    var = w0t * w1t * (mu0 - mu1) ** 2
    return int(ts[np.argmax(var)])


def iterative_threshold_init(counts: np.ndarray) -> HistogramModel:
    """Initial model from two-means iterative thresholding of the gray-level
    counts.

    The threshold starts at the histogram mean and is replaced by the average
    of the two class means until the split stops moving.  Class means become
    mu_b and mu_f, class masses the priors; sigmas start at 1, alpha at 0.01.
    """
    occ, cum_w, cum_m = _class_sums(counts)
    t = float(np.arange(len(counts)) @ counts) / int(counts.sum())
    k = -1
    for _ in range(100):
        k_new = min(max(int(math.floor(t)), occ[0]), occ[-1] - 1)
        if k_new == k:
            break
        k = k_new
        m0 = cum_m[k] / cum_w[k]
        m1 = (cum_m[-1] - cum_m[k]) / (1.0 - cum_w[k])
        t = 0.5 * (m0 + m1)
    p_b = float(cum_w[k])
    return HistogramModel(
        p_b=p_b,
        mu_b=float(cum_m[k] / cum_w[k]),
        sigma_b=1.0,
        p_f=1.0 - p_b,
        mu_f=float((cum_m[-1] - cum_m[k]) / (1.0 - cum_w[k])),
        sigma_f=1.0,
        alpha=0.01,
    )


def model_eval(m: HistogramModel, i):
    """Evaluate (NB, IB, F, NB+IB+F) at the gray levels ``i``."""
    arr = np.asarray(i, dtype=np.float64)
    if arr.size and float(arr.min()) < 0:
        raise ValueError("gray levels must be >= 0")
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    nb = m.p_b * norm / m.sigma_b * np.exp(-((arr - m.mu_b) ** 2) / (2.0 * m.sigma_b**2))
    f = m.p_f * norm / m.sigma_f * np.exp(-((arr - m.mu_f) ** 2) / (2.0 * m.sigma_f**2))
    ib = np.zeros_like(arr)
    support = (arr >= m.mu_b + 2.0 * m.sigma_b) & (arr < m.mu_f)
    if support.any():
        d = arr[support] - m.mu_b
        ib[support] = 2.0 * m.alpha * m.p_f / d * np.log((m.mu_f - m.mu_b) / d)
    return nb, ib, f, nb + ib + f


def em_step(counts: np.ndarray, m: HistogramModel) -> HistogramModel:
    """One E+M iteration of the mixture fit to the gray-level counts.

    E-step: per-bin responsibilities ``w^c(i) = c(i) / h_model(i)`` for each
    of the three components.  M-step: priors are responsibility-weighted
    histogram masses, normal moments are normalized by their prior; alpha is
    refit from the bridge mass with the truncation correction
    ``eps = 2 sigma_b / (mu_f - mu_b)``.
    """
    hn = counts / counts.sum()
    i = np.arange(len(counts), dtype=np.float64)
    nb, ib, f, total = model_eval(m, i)
    with np.errstate(invalid="ignore", divide="ignore"):
        wb = np.where(total > 0, nb / total, 0.0)
        wib = np.where(total > 0, ib / total, 0.0)
        wf = np.where(total > 0, f / total, 0.0)

    p_b = float(wb @ hn)
    p_f = float(wf @ hn)
    if p_b < PRIOR_COLLAPSE or p_f < PRIOR_COLLAPSE:
        which = "background" if p_b < PRIOR_COLLAPSE else "foreground"
        raise FitFailure(f"{which} prior collapsed to {min(p_b, p_f):.3g}")
    mu_b = float((i * wb) @ hn) / p_b
    mu_f = float((i * wf) @ hn) / p_f
    if not mu_b < mu_f:
        raise FitFailure(f"class means crossed (mu_b={mu_b:.3g}, mu_f={mu_f:.3g})")
    sigma_b = max(math.sqrt(float(((i - mu_b) ** 2 * wb) @ hn) / p_b), SIGMA_FLOOR)
    sigma_f = max(math.sqrt(float(((i - mu_f) ** 2 * wf) @ hn) / p_f), SIGMA_FLOOR)

    bridge_mass = float(wib @ hn)
    eps = 2.0 * sigma_b / (mu_f - mu_b)
    if eps >= 1.0:
        # bridge support is empty, no evidence to fit alpha from
        alpha = ALPHA_FLOOR
    else:
        # the truncated bridge integrates to alpha * p_f * log^2(eps);
        # inverting that keeps the refit self-consistent
        alpha = max(bridge_mass / (p_f * math.log(eps) ** 2), ALPHA_FLOOR)
    return HistogramModel(p_b, mu_b, sigma_b, p_f, mu_f, sigma_f, alpha)


def em_fit(counts: np.ndarray) -> HistogramModel:
    """Fit the mixture to the gray-level counts by EM from
    ``iterative_threshold_init`` until the largest relative parameter change
    drops below ``EM_TOL`` (or ``EM_MAX_ITER`` iterations)."""
    m = iterative_threshold_init(counts)
    params = astuple(m)
    for _ in range(EM_MAX_ITER):
        m = em_step(counts, m)
        new = astuple(m)  # a deep copy of some 6 us, so each model is converted once
        rel = max(abs(b - a) / max(abs(a), 1e-12) for a, b in zip(params, new))
        params = new
        if rel < EM_TOL:
            break
    return m


def model_threshold(m: HistogramModel) -> int:
    """Smallest gray level in (mu_b, mu_f] where the foreground density
    reaches the background density B = NB + IB.  Values above it classify
    as foreground."""
    lo = int(math.floor(m.mu_b)) + 1
    hi = int(math.floor(m.mu_f))
    if hi >= max(lo, 0):
        i = np.arange(max(lo, 0), hi + 1, dtype=np.float64)
        nb, ib, f, _ = model_eval(m, i)
        hits = np.flatnonzero(f >= nb + ib)
        if len(hits):
            return int(i[hits[0]])
    raise FitFailure("foreground density never reaches background density in (mu_b, mu_f]")


def background_posterior(m: HistogramModel, i):
    """P(background | gray level) = B(i) / h_model(i), clamped to [1e-9, 1].

    Where the model density underflows to zero the level is assigned to the
    class whose mean is nearer in units of its sigma.
    """
    arr = np.asarray(i, dtype=np.float64)  # model_eval then reads it without a copy
    nb, ib, f, total = model_eval(m, arr)
    b = nb + ib
    nearer_b = np.abs(arr - m.mu_b) / m.sigma_b <= np.abs(arr - m.mu_f) / m.sigma_f
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0, b / np.where(total > 0, total, 1.0), np.where(nearer_b, 1.0, 0.0))
    return np.clip(p, POSTERIOR_FLOOR, 1.0)
