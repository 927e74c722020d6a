import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from nucsplit.histmodel import (
    DegenerateHistogram,
    FitFailure,
    HistogramModel,
    background_posterior,
    em_fit,
    em_step,
    gray_levels,
    iterative_threshold_init,
    model_eval,
    model_threshold,
    otsu_threshold,
)


def spikes(pairs, n_levels=256):
    counts = np.zeros(n_levels, dtype=np.int64)
    for level, mass in pairs:
        counts[level] = mass
    return counts


def sample_histogram(model, n_draws, seed, n_levels=256):
    """Draw gray-level counts from the model density on the integer grid."""
    rng = np.random.default_rng(seed)
    _, _, _, density = model_eval(model, np.arange(n_levels))
    p = density / density.sum()
    return rng.multinomial(n_draws, p)


def brute_otsu(counts):
    """Between-class variance at every threshold in exact rational arithmetic.

    Counts are integers, so the variance is rational; Fractions settle ties
    (e.g. across empty levels) without float rounding.
    """
    from fractions import Fraction

    counts = [int(c) for c in counts]
    total = sum(counts)
    best_t, best_v = None, Fraction(-1)
    for t in range(len(counts) - 1):
        w0 = sum(counts[: t + 1])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        m0 = sum(i * c for i, c in enumerate(counts[: t + 1]))
        m1 = sum(i * c for i, c in enumerate(counts)) - m0
        diff = Fraction(m0, w0) - Fraction(m1, w1)
        v = Fraction(w0, total) * Fraction(w1, total) * diff * diff
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def test_gray_levels_round_to_nearest_even_and_reject_negatives():
    for dtype in (np.float32, np.float64):
        levels = gray_levels(np.array([[0.4, 0.5, 1.5, 2.5], [2.6, 7.0, 254.5, 65535.0]], dtype=dtype))
        assert levels.dtype == np.int64
        assert levels.tolist() == [[0, 0, 2, 2], [3, 7, 254, 65535]]
    for dtype in (np.uint8, np.uint16, np.uint32):
        assert gray_levels(np.array([0, 3, 255], dtype=dtype)).tolist() == [0, 3, 255]
    assert gray_levels(np.array([-0.5])).tolist() == [0]  # rounds to level 0
    for bad in ([-1, 2], [0.0, -0.51]):
        with pytest.raises(ValueError, match="negative gray levels not allowed"):
            gray_levels(np.array(bad))
    assert gray_levels(np.array([65535.49])).tolist() == [65535]
    for bad, level in (([3.0, 65535.5], 65536), ([1e6], 1000000), (np.array([70000], np.uint32), 70000)):
        with pytest.raises(ValueError, match=f"gray level {level} above 65535 not allowed"):
            gray_levels(np.array(bad))


@pytest.mark.parametrize(
    "huge, shown", [(1e19, "1e\\+19"), (3.4e38, "3.4e\\+38"), (np.inf, "inf")], ids=["1e19", "3.4e38", "inf"]
)
def test_gray_levels_report_a_sample_beyond_int64_as_above_65535(huge, shown):
    # the cast to int64 turns such a sample into its most negative value
    for samples in ([3.0, huge], [-7.0, huge]):
        with pytest.raises(ValueError, match=f"gray level {shown} above 65535 not allowed"):
            gray_levels(np.array(samples, dtype=np.float32))
    with pytest.raises(ValueError, match="negative gray levels not allowed"):
        gray_levels(np.array([3.0, -huge], dtype=np.float32))


def test_otsu_two_spikes_equal_mass():
    h = spikes([(10, 500), (200, 500)])
    t = otsu_threshold(h)
    assert t == 10  # every split in [10, 199] is optimal, ties go low
    _, best_v = brute_otsu(h)
    hn = h / h.sum()
    levels = np.arange(len(h))
    for cand in (10, 100, 199):
        w0 = hn[: cand + 1].sum()
        mu0 = (levels[: cand + 1] * hn[: cand + 1]).sum() / w0
        mu1 = (levels[cand + 1 :] * hn[cand + 1 :]).sum() / (1 - w0)
        assert w0 * (1 - w0) * (mu0 - mu1) ** 2 == pytest.approx(float(best_v))
    assert 10 <= t < 200


def test_otsu_two_spikes_skewed_mass():
    h = spikes([(10, 900), (200, 100)])
    t, _ = brute_otsu(h)
    assert otsu_threshold(h) == t
    assert 10 <= t < 200


def test_otsu_matches_brute_force_on_random_histograms():
    rng = np.random.default_rng(42)
    for _ in range(50):
        counts = rng.integers(0, 1000, size=64)
        counts[rng.integers(0, 64, size=20)] = 0
        if (counts > 0).sum() < 2:
            counts[[5, 40]] = 100
        t_brute, _ = brute_otsu(counts)
        assert otsu_threshold(counts) == t_brute


def test_otsu_rejects_single_level():
    with pytest.raises(DegenerateHistogram):
        otsu_threshold(spikes([(7, 100)]))


def test_init_two_spikes():
    m = iterative_threshold_init(spikes([(10, 300), (200, 300)]))
    assert m.mu_b == pytest.approx(10.0)
    assert m.mu_f == pytest.approx(200.0)
    assert m.p_b == pytest.approx(0.5)
    assert m.p_f == pytest.approx(0.5)
    assert m.sigma_b == 1.0 and m.sigma_f == 1.0
    assert m.alpha == 0.01


def test_init_matches_direct_iteration():
    rng = np.random.default_rng(3)
    draws = np.concatenate(
        [
            np.clip(np.rint(rng.normal(40, 8, 60_000)), 0, 255),
            np.clip(np.rint(rng.normal(170, 20, 40_000)), 0, 255),
        ]
    ).astype(np.int64)
    h = np.bincount(draws, minlength=256)

    # independent re-run of the averaging iteration with plain sums
    hn = h / h.sum()
    t = float(np.arange(256) @ hn)
    for _ in range(100):
        k = int(math.floor(t))
        below = hn[: k + 1]
        above = hn[k + 1 :]
        m0 = (np.arange(k + 1) * below).sum() / below.sum()
        m1 = (np.arange(k + 1, 256) * above).sum() / above.sum()
        t_new = 0.5 * (m0 + m1)
        if int(math.floor(t_new)) == k:
            t = t_new
            break
        t = t_new

    m = iterative_threshold_init(h)
    assert m.mu_b == pytest.approx(m0)
    assert m.mu_f == pytest.approx(m1)
    assert m.mu_b < t < m.mu_f
    assert m.p_b + m.p_f == pytest.approx(1.0)


def test_init_rejects_degenerate():
    with pytest.raises(DegenerateHistogram):
        iterative_threshold_init(spikes([(128, 1000)]))


def reference_model():
    return HistogramModel(
        p_b=0.85, mu_b=20.0, sigma_b=5.0, p_f=0.1, mu_f=180.0, sigma_f=15.0, alpha=0.02
    )


def test_model_eval_peak_value():
    m = reference_model()
    nb, ib, f, total = model_eval(m, 20.0)
    assert nb == pytest.approx(0.85 / (math.sqrt(2 * math.pi) * 5.0))
    assert ib == 0.0
    assert total == pytest.approx(nb + f)


def test_model_eval_vanishes_at_upper_bridge_end():
    m = reference_model()
    _, ib_lo, _, _ = model_eval(m, m.mu_f - 1e-6)
    _, ib_at, _, _ = model_eval(m, m.mu_f)
    assert 0 < ib_lo < 1e-8
    assert ib_at == 0.0


def test_model_eval_matches_direct_formula():
    m = reference_model()
    for i in (35.0, 60.0, 120.0, 179.0):
        nb, ib, f, total = model_eval(m, i)
        want_nb = m.p_b / (math.sqrt(2 * math.pi) * m.sigma_b) * math.exp(
            -((i - m.mu_b) ** 2) / (2 * m.sigma_b**2)
        )
        want_f = m.p_f / (math.sqrt(2 * math.pi) * m.sigma_f) * math.exp(
            -((i - m.mu_f) ** 2) / (2 * m.sigma_f**2)
        )
        if m.mu_b + 2 * m.sigma_b <= i < m.mu_f:
            want_ib = (
                2 * m.alpha * m.p_f / (i - m.mu_b) * math.log((m.mu_f - m.mu_b) / (i - m.mu_b))
            )
        else:
            want_ib = 0.0
        assert nb == pytest.approx(want_nb, rel=1e-12)
        assert ib == pytest.approx(want_ib, rel=1e-12)
        assert f == pytest.approx(want_f, rel=1e-12)
        assert total == pytest.approx(want_nb + want_ib + want_f, rel=1e-12)


def test_model_eval_bridge_support_edges():
    m = reference_model()
    lo = m.mu_b + 2 * m.sigma_b
    assert model_eval(m, lo - 0.001)[1] == 0.0
    assert model_eval(m, lo)[1] > 0.0


def test_model_eval_rejects_out_of_range():
    m = reference_model()
    with pytest.raises(ValueError):
        model_eval(m, -1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        HistogramModel(0.5, 100.0, 5.0, 0.5, 50.0, 5.0, 0.01)  # means crossed
    with pytest.raises(ValueError):
        HistogramModel(0.9, 20.0, 0.0, 0.1, 180.0, 5.0, 0.01)  # zero sigma
    with pytest.raises(ValueError):
        HistogramModel(0.9, 20.0, 5.0, 0.1, 180.0, 5.0, 0.0)  # zero alpha
    with pytest.raises(ValueError):
        HistogramModel(0.9, 20.0, 5.0, 0.2, 180.0, 5.0, 0.01)  # priors beyond 1


def test_model_json_roundtrip():
    m = reference_model()
    d = asdict(m)
    assert sorted(d) == ["alpha", "mu_b", "mu_f", "p_b", "p_f", "sigma_b", "sigma_f"]
    assert json.loads(json.dumps(d)) == {k: getattr(m, k) for k in d}


def test_em_recovers_known_model():
    truth = reference_model()
    h = sample_histogram(truth, 1_000_000, seed=7)
    fitted = em_fit(h)
    assert abs(fitted.mu_b - truth.mu_b) <= 2.0
    assert abs(fitted.mu_f - truth.mu_f) <= 2.0
    assert fitted.sigma_b == pytest.approx(truth.sigma_b, abs=1.5)
    assert fitted.sigma_f == pytest.approx(truth.sigma_f, abs=3.0)


def test_em_recovers_background_mass_of_pure_gaussians():
    rng = np.random.default_rng(19)
    draws = np.concatenate(
        [
            np.rint(rng.normal(30, 4, 600_000)),
            np.rint(rng.normal(200, 8, 400_000)),
        ]
    )
    h = np.bincount(np.clip(draws, 0, 255).astype(np.int64), minlength=256)
    fitted = em_fit(h)
    assert fitted.p_b == pytest.approx(0.6, abs=0.02)


def test_em_fixpoint_is_stable():
    h = sample_histogram(reference_model(), 500_000, seed=11)
    fitted = em_fit(h)
    stepped = em_step(h, fitted)
    for a, b in zip(asdict(fitted).values(), asdict(stepped).values()):
        assert b == pytest.approx(a, rel=2e-3, abs=1e-6)


def test_em_reports_foreground_collapse():
    rng = np.random.default_rng(2)
    h = np.bincount(np.rint(rng.normal(20, 5, 100_000)).clip(0, 255).astype(np.int64), minlength=256)
    bad_init = HistogramModel(0.99, 20.0, 5.0, 0.01, 200.0, 5.0, 0.01)
    with pytest.raises(FitFailure, match="foreground prior collapsed"):
        em_step(h, bad_init)


def test_em_nb_f_log_likelihood_never_decreases():
    for seed in range(5):
        truth = reference_model()
        h = sample_histogram(truth, 200_000, seed=seed)
        hn = h / h.sum()
        grid = np.arange(len(h))
        m = iterative_threshold_init(h)
        prev = None
        for _ in range(30):
            nb, _, f, _ = model_eval(m, grid)
            ll = float(hn @ np.log(np.maximum(nb + f, 1e-300)))
            if prev is not None:
                assert ll >= prev - 1e-9
            prev = ll
            m = em_step(h, m)


def test_fitted_model_mass_near_one():
    for seed in (0, 5, 9):
        h = sample_histogram(reference_model(), 300_000, seed=seed)
        fitted = em_fit(h)
        _, _, _, total = model_eval(fitted, np.arange(len(h)))
        assert 0.9 <= total.sum() <= 1.1


def test_threshold_symmetric_model():
    # alpha must stay positive, so give the foreground an infinitesimal edge
    # to realize the alpha -> 0 limit at the midpoint
    m = HistogramModel(0.5 - 1e-12, 50.0, 10.0, 0.5, 150.0, 10.0, 1e-300)
    assert model_threshold(m) == 100


def test_threshold_moves_up_with_background_mass():
    prev = None
    for p_b in (0.1, 0.3, 0.5, 0.7):
        m = HistogramModel(p_b, 50.0, 10.0, 0.3, 150.0, 10.0, 1e-6)
        t = model_threshold(m)
        if prev is not None:
            assert t >= prev
        prev = t


def test_threshold_matches_linear_scan():
    h = sample_histogram(reference_model(), 400_000, seed=23)
    m = em_fit(h)
    t = model_threshold(m)
    scan = None
    for i in range(int(math.floor(m.mu_b)) + 1, int(math.floor(m.mu_f)) + 1):
        nb, ib, f, _ = model_eval(m, float(i))
        if f >= nb + ib:
            scan = i
            break
    assert t == scan
    assert m.mu_b < t <= m.mu_f


def test_threshold_failure_when_background_dominates_everywhere():
    m = HistogramModel(0.999, 50.0, 30.0, 0.001, 80.0, 30.0, 0.5)
    with pytest.raises(FitFailure):
        model_threshold(m)


def test_posterior_extremes_and_ratio():
    m = reference_model()
    assert background_posterior(m, 20.0) == pytest.approx(1.0, abs=1e-6)
    assert background_posterior(m, 180.0) < 1e-3
    for i in (35.0, 90.0, 140.0, 200.0):
        nb, ib, f, total = model_eval(m, i)
        want = min(max((nb + ib) / total, 1e-9), 1.0)
        assert background_posterior(m, i) == pytest.approx(want, rel=1e-12)


def test_posterior_is_clamped():
    m = reference_model()
    grid = np.arange(0, 256, dtype=np.float64)
    p = background_posterior(m, grid)
    assert (p >= 1e-9).all() and (p <= 1.0).all()
    assert p[250] == pytest.approx(1e-9)


def test_posterior_monotone_between_means_for_small_alpha():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu_b = rng.uniform(10, 60)
        mu_f = mu_b + rng.uniform(60, 150)
        sigma = rng.uniform(3, 12)
        p_f = rng.uniform(0.05, 0.45)
        m = HistogramModel(
            1.0 - p_f, mu_b, sigma, p_f, mu_f, sigma * rng.uniform(0.8, 1.25), 0.009
        )
        grid = np.arange(math.ceil(mu_b), math.floor(mu_f) + 1, dtype=np.float64)
        p = background_posterior(m, grid)
        assert (np.diff(p) <= 1e-12).all()
