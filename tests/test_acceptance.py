"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (collected into the terminal
summary) with the measured numbers, then asserts. Oracles are local to
this file so the gate is self-contained: exact rational Otsu, brute
force balanced cuts, and generator ground truth.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import record_acceptance
from nucsplit.binarize import BinarizationConfig
from nucsplit.evaluate import evaluate
from nucsplit.geometry import cut_metric_weights, sphericity, surface_area
from nucsplit.graphbuild import EdgeWeightConfig, build_graph
from nucsplit.histmodel import (
    HistogramModel,
    em_fit,
    model_eval,
    otsu_threshold,
)
from nucsplit.nucmodel import (
    NucleusModelParams,
    outscores_parent,
    sphericity_membership,
    trapezoid,
)
from nucsplit.partition import (
    PartitionerConfig,
    _cut_of,
    _fm_pass,
    _FMState,
    _Level,
    bipartition,
    split_blocks,
)
from nucsplit.splitter import segment
from nucsplit.synthgen import SceneConfig, generate
from nucsplit.volume import Volume, connected_components
from oracles import graph_from_edge_list


def check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_acceptance(line)
    print(line)
    assert ok, line


def digitized_ball(r):
    g = np.arange(-r, r + 1)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    mask = xx * xx + yy * yy + zz * zz <= r * r
    comps = connected_components(Volume(mask.astype(np.uint8)))
    assert len(comps) == 1
    return comps[0]


def test_criterion_1_sphere_area():
    w = cut_metric_weights((1.0, 1.0, 1.0))  # weight table is a one-time fixture
    c = digitized_ball(15)
    t0 = time.perf_counter()
    area = surface_area(c, w)
    elapsed = time.perf_counter() - t0
    target = 4.0 * math.pi * 15.0**2
    rel = abs(area - target) / target
    check(
        1,
        "sphere surface area",
        rel <= 0.05 and elapsed < 1.0,
        f"error {100 * rel:.2f}% of 4*pi*r^2, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_cube_sphericity():
    side = np.ones((20, 20, 20), dtype=np.uint8)
    c = connected_components(Volume(side))[0]
    w = cut_metric_weights((1.0, 1.0, 1.0))
    psi = sphericity(c, w, (1.0, 1.0, 1.0))
    target = (math.pi / 6.0) ** (1.0 / 3.0)
    check(
        2,
        "cube sphericity",
        abs(psi - target) <= 0.05,
        f"psi {psi:.4f} vs {target:.4f}",
    )


def brute_otsu(counts):
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
    return best_t


def test_criterion_3_otsu_oracle():
    rng = np.random.default_rng(2024)
    agreements = 0
    trials = 0
    while trials < 1000:
        n_levels = int(rng.integers(8, 257))
        style = rng.integers(3)
        if style == 0:
            counts = rng.integers(0, 60, n_levels)
        elif style == 1:
            counts = np.zeros(n_levels, dtype=np.int64)
            spots = rng.integers(0, n_levels, int(rng.integers(2, 8)))
            counts[spots] += rng.integers(1, 1000, len(spots))
        else:
            grid = np.arange(n_levels)
            mu0, mu1 = sorted(rng.uniform(0, n_levels - 1, 2))
            counts = np.rint(
                400 * np.exp(-((grid - mu0) ** 2) / 20) + 150 * np.exp(-((grid - mu1) ** 2) / 90)
            ).astype(np.int64)
        if (counts > 0).sum() < 2:
            continue
        trials += 1
        if otsu_threshold(counts) == brute_otsu([int(c) for c in counts]):
            agreements += 1
    check(3, "otsu equals exhaustive argmax", agreements == 1000, f"{agreements}/1000 agree")


def test_criterion_4_em_recovery():
    rng = np.random.default_rng(99)
    grid = np.arange(256)
    hits = 0
    worst_time = 0.0
    for _ in range(20):
        p_b = float(rng.uniform(0.65, 0.92))
        mu_b = float(rng.uniform(15, 60))
        sigma_b = float(rng.uniform(2, 8))
        mu_f = float(rng.uniform(mu_b + 60, 220))
        sigma_f = float(rng.uniform(6, 18))
        alpha = float(rng.uniform(1e-4, 3e-3))
        truth = HistogramModel(
            p_b=p_b, mu_b=mu_b, sigma_b=sigma_b, p_f=1 - p_b, mu_f=mu_f, sigma_f=sigma_f, alpha=alpha
        )
        _, _, _, density = model_eval(truth, grid)
        h = rng.multinomial(1_000_000, density / density.sum())
        t0 = time.perf_counter()
        fitted = em_fit(h)
        worst_time = max(worst_time, time.perf_counter() - t0)
        if abs(fitted.mu_b - mu_b) <= 2.0 and abs(fitted.mu_f - mu_f) <= 2.0:
            hits += 1
    check(
        4,
        "em mean recovery",
        hits >= 18 and worst_time < 0.1,
        f"{hits}/20 within 2 levels, slowest fit {worst_time * 1000:.1f} ms",
    )


def brute_best_balanced_cut(n, eu, ev, ew, eps=0.5):
    ceil_half = (n + 1) // 2
    max_side = math.floor((1 + eps) * ceil_half + 1e-9)
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n - 1)) & 1).astype(np.uint8)
    sides = np.concatenate([bits, np.zeros((len(masks), 1), np.uint8)], axis=1)
    n1 = sides.sum(axis=1).astype(np.int64)
    n0 = n - n1
    feasible = (n0 >= 1) & (n1 >= 1) & (np.maximum(n0, n1) <= max_side)
    cuts = ((sides[:, eu] != sides[:, ev]) * ew).sum(axis=1)
    cuts[~feasible] = np.inf
    return float(cuts.min())


def random_small_graph(rng, n):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                w = float(rng.integers(1, 4)) if rng.random() < 0.5 else float(rng.uniform(0.1, 2.0))
                edges.append((u, v, w))
    if not edges:
        edges.append((0, 1, 1.0))
    return graph_from_edge_list(n, edges), edges


def test_criterion_5_partitioner_oracle():
    rng = np.random.default_rng(2025)
    balanced = optimal = fm_monotone = 0
    trials = 100
    for trial in range(trials):
        n = int(rng.integers(4, 17))
        g, edges = random_small_graph(rng, n)
        eu = np.array([e[0] for e in edges])
        ev = np.array([e[1] for e in edges])
        ew = np.array([e[2] for e in edges])

        b = bipartition(g, PartitionerConfig(seed=trial))
        max_side = math.floor(1.5 * ((n + 1) // 2) + 1e-9)
        if max(b.block_sizes) <= max_side and min(b.block_sizes) >= 1:
            balanced += 1
        best = brute_best_balanced_cut(n, eu, ev, ew)
        if b.cut_weight <= best + 1e-9:
            optimal += 1

        # FM refinement on a random balanced start must never worsen the cut
        lv = _Level(g.indptr, g.indices, g.weights, np.ones(n))
        side = np.zeros(n, dtype=np.uint8)
        side[rng.permutation(n)[: n // 2]] = 1
        before = _cut_of(lv, side)
        st = _FMState(lv, side, n, max_side)
        _fm_pass(st, 200)
        after = st.cut
        if after <= before + 1e-9:
            fm_monotone += 1
    check(
        5,
        "partitioner vs brute force",
        balanced == trials and optimal >= 80 and fm_monotone == trials,
        f"balance {balanced}/100, optimal {optimal}/100, fm monotone {fm_monotone}/100",
    )


def test_criterion_6_dumbbell_bridge():
    r, gap = 5, 7
    cx = 2 * r + gap + 1
    g = np.arange(-r - 1, cx + r + 2)
    zz, yy, xx = np.meshgrid(g, g, g, indexing="ij")
    mask = (xx**2 + yy**2 + zz**2 <= r * r) | ((xx - cx) ** 2 + yy**2 + zz**2 <= r * r)
    mask |= (np.abs(yy) + np.abs(zz) == 0) & (xx >= 0) & (xx <= cx)  # 1-voxel bridge
    comps = connected_components(Volume(mask.astype(np.uint8)))
    assert len(comps) == 1
    c = comps[0]
    guide = Volume(np.where(mask, 200, 20).astype(np.uint8))
    # ball centers in volume index space (the grid starts at -r-1)
    center_a = (r + 1, r + 1, r + 1)
    center_b = (cx + r + 1, r + 1, r + 1)

    def block_of(blocks, center):
        hits = [i for i, blk in enumerate(blocks) if (blk.coords == center).all(axis=1).any()]
        assert len(hits) == 1
        return hits[0]

    graph = build_graph(c, guide, cfg=EdgeWeightConfig(scheme="const"))
    severed = 0
    for seed in range(20):
        b = bipartition(graph, PartitionerConfig(seed=seed))
        blocks = split_blocks(c, b)
        if (
            b.cut_weight == 1.0  # a single unit-weight edge on the 1-voxel line
            and len(blocks) == 2
            and block_of(blocks, center_a) != block_of(blocks, center_b)
        ):
            severed += 1
    check(6, "dumbbell bridge severed", severed == 20, f"{severed}/20 seeds cut only the bridge")


def test_criterion_7_isotropic_clustered_scene():
    t0 = time.perf_counter()
    scene = SceneConfig(
        size=(256, 256, 64),
        nucleus_count=20,
        semi_axis_range=(18.0, 19.5),
        clustering=0.75,
        mu_b=20.0,
        mu_f=200.0,
        noise_sigma=8.0,
        psf_sigma=1.5,
        seed=42,
    )
    intensity, truth = generate(scene)
    result = segment(
        intensity,
        NucleusModelParams(v_min=20000.0, v_max=39000.0),
        bin_cfg=BinarizationConfig(method="otsu", sigma_smooth=1.9, slabs=1),
        edge_cfg=EdgeWeightConfig(scheme="prob"),
        part_cfg=PartitionerConfig(seed=0),
    )
    rep = evaluate(truth, result.labels)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.missed == 0
        and rep.added == 0
        and (rep.merged + rep.split) <= 0.05 * rep.gt_count
        and elapsed < 30.0
    )
    check(
        7,
        "clustered isotropic scene",
        ok,
        f"missed {rep.missed}, added {rep.added}, merged {rep.merged}, "
        f"split {rep.split} of {rep.gt_count}, {elapsed:.1f} s",
    )


def test_criterion_8_anisotropic_slab_scene():
    scene = SceneConfig(
        size=(160, 160, 96),
        spacing=(1.0, 1.0, 5.0),
        nucleus_count=110,
        semi_axis_range=(9.5, 11.7),
        clustering=0.3,
        mu_b=20.0,
        mu_f=200.0,
        noise_sigma=6.0,
        psf_sigma=(1.0, 1.0, 0.4),
        z_decay=0.7,
        seed=7,
    )
    intensity, truth = generate(scene)
    params = NucleusModelParams(v_min=2900.0, v_max=8550.0)
    edge = EdgeWeightConfig(scheme="grad", sigma_grad=100.0)

    reports = {}
    for m in (16, 1):
        result = segment(
            intensity,
            params,
            bin_cfg=BinarizationConfig(method="otsu", sigma_smooth=0.7, slabs=m),
            edge_cfg=edge,
            part_cfg=PartitionerConfig(seed=0),
        )
        reports[m] = evaluate(truth, result.labels)
    best = reports[16]
    total_pct = best.missed_pct + best.added_pct + best.merged_pct + best.split_pct
    ok = total_pct <= 10.0 and reports[1].missed > best.missed
    check(
        8,
        "axial-gradient slab scene",
        ok,
        f"m=16 total error {total_pct:.1f}%, missed m=1 {reports[1].missed} > m=16 {best.missed}",
    )


def test_criterion_9_determinism(tmp_path):
    from nucsplit.cli import cli_main

    scene = tmp_path / "scene.json"
    scene.write_text(
        '{"size": [96, 96, 48], "nucleus_count": 6, "semi_axis_range": [7.0, 9.0], '
        '"clustering": 0.5, "noise_sigma": 5.0, "psf_sigma": 1.2, "seed": 31}'
    )
    assert cli_main(["synth", "--config", str(scene), "--out-prefix", str(tmp_path / "s")]) == 0
    base = [
        "segment",
        "--in",
        str(tmp_path / "s_intensity.rvol"),
        "--sigma-smooth",
        "1.2",
        "--slabs",
        "4",
        "--v-min",
        "1200",
        "--v-max",
        "4000",
        "--seed",
        "5",
    ]
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        rc = cli_main(base + ["--out", str(tmp_path / f"{name}.rvol"), "--threads", threads])
        assert rc == 0
    a = (tmp_path / "a.rvol").read_bytes()
    ok = a == (tmp_path / "b.rvol").read_bytes() and a == (tmp_path / "c.rvol").read_bytes()
    check(9, "byte-identical reruns", ok, "2 reruns + --threads 4 compared")


def test_criterion_10_score_rules():
    rng = np.random.default_rng(1)
    pairs = rng.uniform(0.0, 1.0, size=(100_000, 2))
    keepable = np.array(
        [outscores_parent(s_c, s_p) for s_p, s_c in pairs if s_p > 0.5], dtype=bool
    )
    empty_keep_set = not keepable.any()

    params = NucleusModelParams(v_min=100.0, v_max=200.0)
    a, b, c, d = params.volume_knots
    mid = (params.psi_min + params.psi_ideal) / 2.0
    knots_ok = (
        trapezoid(a, params.volume_knots) == 0.0
        and trapezoid(b, params.volume_knots) == 1.0
        and trapezoid(c, params.volume_knots) == 1.0
        and trapezoid(d, params.volume_knots) == 0.0
        and sphericity_membership(params.psi_min, params) == 0.0
        and sphericity_membership(params.psi_ideal, params) == 1.0
        and math.isclose(sphericity_membership(mid, params), 0.25, rel_tol=1e-12)
    )
    check(
        10,
        "score decision rules",
        empty_keep_set and knots_ok,
        f"{len(keepable)} pairs with parent > 0.5 all rejected; memberships exact at knots",
    )
