import numpy as np
import pytest

from nucsplit.geometry import sphericity, volume_of
from nucsplit.nucmodel import (
    Decision,
    NucleusModelParams,
    ScoreContext,
    component_score,
    outscores_parent,
    score_function,
    sphericity_membership,
    trapezoid,
)
from nucsplit.volume import Component

SPACING = (1.0, 1.0, 1.0)


def comp_of(mask):
    zz, yy, xx = np.nonzero(mask)
    return Component(np.stack([xx, yy, zz], axis=1).astype(np.int32))


def ball_comp(r):
    g = np.arange(-r - 1, r + 2)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    return comp_of(xx**2 + yy**2 + zz**2 <= r * r)


def fused_comp(r=10, gap=17):
    g = np.arange(-r - 1, gap + r + 2)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    return comp_of((xx**2 + yy**2 + zz**2 <= r * r) | ((xx - gap) ** 2 + yy**2 + zz**2 <= r * r))


def ctx_for(params, imbalance=0.5):
    return ScoreContext(SPACING, params, imbalance)


def test_trapezoid_basic():
    theta = (10.0, 20.0, 40.0, 60.0)
    assert trapezoid(15.0, theta) == pytest.approx(0.5)
    assert trapezoid(20.0, theta) == 1.0
    assert trapezoid(39.99, theta) == 1.0
    assert trapezoid(50.0, theta) == pytest.approx(0.5)
    assert trapezoid(9.99, theta) == 0.0
    assert trapezoid(60.0, theta) == 0.0
    assert trapezoid(10.0, theta) == 0.0
    assert trapezoid(1e9, theta) == 0.0


def test_trapezoid_degenerate_steps():
    # a == b: jump straight to the plateau
    assert trapezoid(5.0, (5.0, 5.0, 8.0, 9.0)) == 1.0
    assert trapezoid(4.999, (5.0, 5.0, 8.0, 9.0)) == 0.0
    # c == d: plateau holds right up to the drop
    assert trapezoid(8.999, (1.0, 2.0, 9.0, 9.0)) == 1.0
    assert trapezoid(9.0, (1.0, 2.0, 9.0, 9.0)) == 0.0


def test_trapezoid_rejects_unordered():
    with pytest.raises(ValueError):
        trapezoid(1.0, (0.0, 3.0, 2.0, 4.0))


def test_sphericity_membership_knots_and_shape():
    p = NucleusModelParams(100.0, 200.0)
    assert sphericity_membership(0.81, p) == 0.0
    assert sphericity_membership(0.96, p) == 1.0
    assert sphericity_membership(0.885, p) == pytest.approx(0.25)
    assert sphericity_membership(0.5, p) == 0.0
    assert sphericity_membership(1.2, p) == 1.0
    rng = np.random.default_rng(3)
    for psi in rng.uniform(0.81, 0.96, 50):
        t = (psi - 0.81) / 0.15
        assert sphericity_membership(float(psi), p) == pytest.approx(t * t)


def test_component_score_examples():
    p = NucleusModelParams(1000.0, 4000.0)
    assert component_score(2000.0, 0.99, p) == 1.0
    assert component_score(999.0, 1.0, p) == 0.0
    assert component_score(2000.0, 0.885, p) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        component_score(-1.0, 0.9, p)


def test_params_validation_and_derived():
    with pytest.raises(ValueError):
        NucleusModelParams(0.0, 10.0)
    with pytest.raises(ValueError):
        NucleusModelParams(10.0, 5.0)
    with pytest.raises(ValueError):
        NucleusModelParams(1.0, 2.0, shoulder=0.6)
    with pytest.raises(ValueError):
        NucleusModelParams(1.0, 2.0, psi_min=0.97)
    p = NucleusModelParams(300.0, 900.0)
    assert p.volume_knots == (300.0, 360.0, 720.0, 900.0)
    assert ctx_for(p).v_repart == pytest.approx(400.0)
    assert ctx_for(p, imbalance=1.0).v_repart == pytest.approx(300.0)


def test_parent_above_half_always_wins():
    rng = np.random.default_rng(11)
    pairs = rng.uniform(0.0, 1.0, size=(10_000, 2))
    for s_c, s_p in pairs:
        if s_p > 0.5:
            assert not outscores_parent(s_c, s_p)
    # below 0.5 the rule is live in both directions
    assert outscores_parent(0.9, 0.4)
    assert not outscores_parent(0.3, 0.4)


def test_score_function_confident_keep():
    ball = ball_comp(10)
    v = volume_of(ball, SPACING)
    params = NucleusModelParams(v / 1.6, 3.0 * v)
    ctx = ctx_for(params)
    dec = score_function(ball, 0.9, ctx)
    # high score keeps even though v >= v_repart and the parent is strong
    assert v >= ctx.v_repart
    assert dec.decision is Decision.KEEP
    assert dec.score > 0.5


def test_score_function_volume_floor():
    tiny = ball_comp(3)
    params = NucleusModelParams(1000.0, 5000.0)
    assert score_function(tiny, 0.0, ctx_for(params)) == (Decision.DISCARD, 0.0, None)


def test_score_function_parent_comparison():
    ball = ball_comp(8)
    v = volume_of(ball, SPACING)
    params = NucleusModelParams(0.95 * v, 10.0 * v)
    ctx = ctx_for(params)
    psi = sphericity(ball, ctx.weights, SPACING)
    expected = component_score(v, psi, params)
    assert 0.0 < expected <= 0.5
    assert v < ctx.v_repart

    kept = score_function(ball, 0.0, ctx)
    assert kept == (Decision.KEEP, pytest.approx(expected), psi)
    # mirrors the worked case of a 0.46 parent shedding weak children
    dropped = score_function(ball, 0.46, ctx)
    assert dropped.decision is Decision.DISCARD
    assert dropped.score == pytest.approx(expected)


def test_score_function_repartition_gate():
    fused = fused_comp()
    v = volume_of(fused, SPACING)
    params = NucleusModelParams(v / 3.0, v * 1.1)
    ctx = ctx_for(params)
    psi = sphericity(fused, ctx.weights, SPACING)
    s = component_score(v, psi, params)
    assert s <= 0.5  # fused pair is visibly non-spherical
    dec = score_function(fused, 0.0, ctx)
    assert dec.decision is Decision.REPARTITION
    assert dec.score == pytest.approx(s)
    assert dec.psi == psi


def test_score_function_region_boundaries():
    """With the sphericity membership pinned below 0.5 the decision as
    V/v_min shrinks crosses exactly two boundaries: v_repart and v_min."""
    fused = fused_comp()
    v = volume_of(fused, SPACING)
    for ratio in np.linspace(0.7, 1.8, 23):
        params = NucleusModelParams(v / ratio, 50.0 * v)
        ctx = ScoreContext(SPACING, params, 0.5)
        dec = score_function(fused, 0.3, ctx)
        if v < params.v_min:
            assert dec == (Decision.DISCARD, 0.0, None)
        elif v >= ctx.v_repart:
            assert dec.decision is Decision.REPARTITION
        else:
            assert dec.decision in (Decision.KEEP, Decision.DISCARD)
            assert dec.score <= 0.5


def test_score_function_translation_invariant():
    fused = fused_comp()
    v = volume_of(fused, SPACING)
    params = NucleusModelParams(v / 3.0, v * 1.1)
    ctx = ctx_for(params)
    moved = Component(fused.coords + np.array([13, 4, 21], dtype=np.int32))
    assert score_function(fused, 0.2, ctx) == score_function(moved, 0.2, ctx)


def test_score_function_rejects_bad_parent():
    ball = ball_comp(5)
    params = NucleusModelParams(10.0, 1e6)
    with pytest.raises(ValueError):
        score_function(ball, 1.2, ctx_for(params))
