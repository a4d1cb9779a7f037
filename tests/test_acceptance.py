"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion (add ``-s`` for the detail lines printed by each test).
"""

import json
import math
import time

import numpy as np
import pytest

from modcascade import (
    DetectorHandle,
    average_precision,
    bayes_error,
    deformation_check,
    detect,
    evaluate_run,
    iou,
    map_with_fn_accounting,
    modular_advantage,
    route_v1,
    route_v2,
)
from modcascade.cli import main
from modcascade.core import BoundingBox
from modcascade.detector import ConfidenceLaw
from modcascade.profiles import flat_profile, stage1_profile, stage2_profiles
from modcascade.router import compare_tree_vs_flat

from conftest import synth_dataset, taxonomy_5x2
from oracles import cascade_v1_error_oracle, mc_bayes_error, random_model
from test_cli import run_in_fresh_interpreter

# Calibration targets: flat baseline 12%, stage-1 2.25% + 2% miss,
# stage-2 pairs 2.3%.
BASELINE_ERR = 0.12
STAGE1_ERR = 0.0225
STAGE1_MISS = 0.02
STAGE2_ERR = 0.023


def _cascade_handles(taxonomy, seed):
    s1 = DetectorHandle(
        stage1_profile(
            taxonomy, STAGE1_ERR, STAGE1_MISS,
            loc_noise_sigma=1.5, negative_fp_rate=0.02,
        ),
        seed * 31 + 1,
    )
    s2 = {
        g: DetectorHandle(p, seed * 31 + 2 + i)
        for i, (g, p) in enumerate(
            stage2_profiles(taxonomy, STAGE2_ERR, loc_noise_sigma=1.0).items()
        )
    }
    return s1, s2


def _composite_error(dataset, detections, iou_threshold=0.5):
    report = evaluate_run(dataset.images, detections, dataset.taxonomy,
                          iou_threshold=iou_threshold)
    assert report.matched_count > 0
    return report.classification_error


def test_criterion_1_calibrated_composite_error():
    """Composite classification errors reproduce the reported cascade arithmetic."""
    started = time.perf_counter()
    taxonomy = taxonomy_5x2()
    dataset = synth_dataset(taxonomy, per_fine=500, negatives=500, seq_len=5, seed=20240601)
    assert sum(1 for img in dataset.images if img.objects) == 5000

    baseline = DetectorHandle(
        flat_profile(taxonomy, BASELINE_ERR, loc_noise_sigma=1.0), 777
    )
    baseline_dets = [detect(baseline, img) for img in dataset.images]
    baseline_err = _composite_error(dataset, baseline_dets)
    assert abs(baseline_err - 0.12) <= 0.01

    # independent Monte Carlo composition oracle (gate-aware closed
    # form): a misroute surfaces as a wrong label, a correct route errs
    # at the stage-2 rate, misses leave the matched set; to first order
    # err_v1 ~= e1 + (1 - e1) * e2 ~= 4.5%
    oracle_v1 = cascade_v1_error_oracle(STAGE1_ERR, STAGE1_MISS, STAGE2_ERR, tau=0.5)
    assert oracle_v1 == pytest.approx(STAGE1_ERR + (1 - STAGE1_ERR) * STAGE2_ERR, abs=0.005)

    errs_v1, errs_v2 = [], []
    for seed in range(10):
        s1, s2 = _cascade_handles(taxonomy, seed)
        v1 = route_v1(dataset, s1, s2, tau=0.5)
        v2 = route_v2(dataset, s1, s2, tau=0.5)
        errs_v1.append(_composite_error(dataset, v1.detections))
        errs_v2.append(_composite_error(dataset, v2.detections))
        assert errs_v2[-1] <= errs_v1[-1], f"v2 worse than v1 at seed {seed}"
        for out in (v1, v2):
            ratio = compare_tree_vs_flat(out, 5)["ratio"]
            assert ratio >= 1.0

    # canonical measurement: the first seed of the sweep
    assert 0.035 <= errs_v1[0] <= 0.055
    assert 0.02 <= errs_v2[0] <= 0.035
    mean_v1 = sum(errs_v1) / len(errs_v1)
    mean_v2 = sum(errs_v2) / len(errs_v2)
    assert 0.035 <= mean_v1 <= 0.055
    assert 0.02 <= mean_v2 <= 0.035
    se_mean = math.sqrt(oracle_v1 * (1 - oracle_v1) / (10 * 5000))
    assert abs(mean_v1 - oracle_v1) <= 4 * se_mean

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS: baseline {baseline_err:.4f} (0.12±0.01), "
        f"v1 {errs_v1[0]:.4f} in [0.035,0.055], v2 {errs_v2[0]:.4f} in [0.02,0.035], "
        f"v2<=v1 on 10/10 seeds, {elapsed:.1f}s"
    )


def test_criterion_2_advantage_condition():
    """Cascade-advantage inequality at the calibrated operating point."""
    res = modular_advantage(0.88, 0.0975, 0.097)
    assert res.advantage is True
    assert res.lhs == 0.88
    # exact product of the stated stage accuracies; 0.955 at the
    # criterion's quoted 3-digit precision (see ledger)
    assert abs(res.rhs - 0.9775 * 0.977) <= 1e-12
    assert round(res.rhs, 3) == 0.955
    for a in (0.1, 0.5, 0.88, 1.0):
        assert modular_advantage(a, 0.0, 0.0).advantage is False
    print("\nACCEPTANCE 2 PASS: advantage true with rhs "
          f"{res.rhs!r} (rounds to 0.955); zero-delta cases all false")


def test_criterion_3_fn_aware_map():
    """FN-aware mAP mechanism: exact value, linearity, identity at fn=0."""
    got = map_with_fn_accounting(0.95, 95, 5)
    assert got == 0.9025
    assert map_with_fn_accounting(0.95, 100, 0) == 0.95
    # linear in the FN fraction: with the total fixed, the result is
    # stage2_map * (1 - fn/total)
    total = 400
    for fn in range(0, total + 1, 16):
        expect = 0.95 * (1 - fn / total)
        assert map_with_fn_accounting(0.95, total - fn, fn) == pytest.approx(expect, abs=1e-15)
    halves = map_with_fn_accounting(0.95, total - 50, 50)
    full = map_with_fn_accounting(0.95, total - 100, 100)
    assert halves == pytest.approx((full + 0.95) / 2, abs=1e-15)
    print("\nACCEPTANCE 3 PASS: map_with_fn_accounting(0.95, 95, 5) == 0.9025 exactly; linear in fn fraction")


def test_criterion_4_bayes_error_oracle_equivalence():
    """Analytic weighted Bayes error agrees with a 1e6-sample Monte Carlo oracle."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240918)
    agree = 0
    cases = 100
    for k in range(cases):
        n_features = int(rng.integers(2, 65))
        n_classes = int(rng.integers(2, 5))
        model = random_model(rng, n_features, n_classes, sparse=(k % 3 == 0))
        labels = model.classes[:2]
        analytic = bayes_error(model, labels[0], labels[1])
        # symmetry and the smaller-prior bound hold in all cases
        assert bayes_error(model, labels[1], labels[0]) == analytic
        assert 0.0 <= analytic <= min(model.priors[labels[0]], model.priors[labels[1]]) + 1e-12
        estimate, se = mc_bayes_error(model, labels[0], labels[1], n=1_000_000, seed=500 + k)
        if abs(analytic - estimate) <= 3 * se + 1e-12:
            agree += 1
    elapsed = time.perf_counter() - started
    assert agree >= 97, f"only {agree}/100 within 3 standard errors"
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 PASS: {agree}/100 models within 3 SE of the 1e6-sample oracle, {elapsed:.1f}s")


def test_criterion_5_deformation_inequality():
    """Strict sum growth iff the second map has a nonzero entry in the region."""
    rng = np.random.default_rng(777)
    failures = 0
    for _ in range(1000):
        shape = (int(rng.integers(1, 10)), int(rng.integers(1, 10)))
        A = rng.uniform(0.5, 9.0, shape) * (rng.random(shape) < 0.7)
        B = rng.uniform(0.5, 9.0, shape) * (rng.random(shape) < 0.35)
        A *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        B *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        k = int(rng.integers(0, A.size + 1))
        flat = rng.choice(A.size, size=k, replace=False)
        G = {(int(f) // shape[1], int(f) % shape[1]) for f in flat}
        res = deformation_check(A, B, G)
        scan_found = any(B[i, j] != 0.0 for (i, j) in G)
        if res.holds_strictly != scan_found or res.holds_strictly != (res.lhs > res.rhs):
            failures += 1
    assert failures == 0
    print("\nACCEPTANCE 5 PASS: 1000/1000 random matrix pairs match the exhaustive scan")


def test_criterion_6_tree_vs_flat_count():
    """Selective routing cuts inferences ~2.5x on the 5x2 taxonomy."""
    taxonomy = taxonomy_5x2()
    dataset = synth_dataset(taxonomy, per_fine=100, negatives=60, seed=5)
    s1 = DetectorHandle(
        stage1_profile(taxonomy, error_rate=0.0, miss_rate=0.0, negative_fp_rate=0.02), 3
    )
    s2 = {
        g: DetectorHandle(p, 4)
        for g, p in stage2_profiles(taxonomy, STAGE2_ERR).items()
    }
    out = route_v1(dataset, s1, s2, tau=0.5)

    invoked = out.invoked
    for img, generals in zip(dataset.images, invoked, strict=True):
        if img.objects:
            assert len(generals) == 1  # every positive routes to exactly one network
    negatives = [generals for img, generals in zip(dataset.images, invoked) if not img.objects]
    quiet = sum(1 for generals in negatives if not generals)
    assert quiet / len(negatives) >= 0.95

    result = compare_tree_vs_flat(out, n_fine_networks=5)
    assert 2.4 <= result["ratio"] <= 2.6
    assert result["ratio"] >= 1.0
    # ratio >= 1 under noisier routing too
    for seed in range(3):
        noisy1 = DetectorHandle(
            stage1_profile(taxonomy, 0.2, 0.1, negative_fp_rate=0.3), seed
        )
        noisy = route_v1(dataset, noisy1, s2, tau=0.3)
        assert compare_tree_vs_flat(noisy, 5)["ratio"] >= 1.0
    print(f"\nACCEPTANCE 6 PASS: ratio {result['ratio']:.3f} in [2.4, 2.6]; >=1 on all runs")


def test_criterion_7_metric_golden_values():
    """Hand-computed IoU and AP fixtures, and a bit-exact perfect run."""
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10)) == 1 / 3
    ap = average_precision([(0.9, True), (0.8, False), (0.7, True)], 2)
    assert ap == 5 / 6

    taxonomy = taxonomy_5x2()
    dataset = synth_dataset(taxonomy, per_fine=10, negatives=5, seed=8)
    law = ConfidenceLaw(spread=0.0)
    s1 = DetectorHandle(stage1_profile(taxonomy, 0.0, confidence_law=law), 1)
    s2 = {
        g: DetectorHandle(p, 2)
        for g, p in stage2_profiles(taxonomy, 0.0, confidence_law=law).items()
    }
    out = route_v1(dataset, s1, s2, tau=0.5)
    report = evaluate_run(
        dataset.images, out.detections, taxonomy, invoked=out.invoked, iou_threshold=0.5,
    )
    assert report.map == 1.0
    assert report.classification_error == 0.0
    assert report.fn_image_count == 0
    assert all(v == 1.0 for v in report.per_class_ap.values())
    print("\nACCEPTANCE 7 PASS: iou == 1/3 and AP == 5/6 exactly; perfect run mAP 1.0, error 0.0")


def test_criterion_8_determinism(tmp_path):
    """Byte-identical reports across reruns and in a fresh interpreter
    with other string hashes."""
    taxonomy = taxonomy_5x2()
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "taxonomy": taxonomy.to_json(),
        "images_per_fine": 20,
        "negatives": 10,
        "seq_len": 5,
        "seed": 9,
    }))
    assert main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path)]) == 0

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "dataset": str(tmp_path / "dataset.json"),
        "profiles": {
            "baseline": flat_profile(taxonomy, BASELINE_ERR, loc_noise_sigma=1.0).to_json(),
            "stage1": stage1_profile(
                taxonomy, STAGE1_ERR, STAGE1_MISS,
                loc_noise_sigma=1.5, negative_fp_rate=0.02,
            ).to_json(),
            "stage2": {
                g: p.to_json()
                for g, p in stage2_profiles(taxonomy, STAGE2_ERR, loc_noise_sigma=1.0).items()
            },
        },
        "routing": {"tau": 0.5, "mode": "v2"},
        "eval": {"iou_threshold": 0.5},
        "seed": 13,
    }))
    for name in ("a", "b"):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    run_in_fresh_interpreter(cfg, tmp_path / "fresh")
    reports = [(tmp_path / name / "report.json").read_bytes() for name in ("a", "b", "fresh")]
    assert reports[0] == reports[1], "rerun changed the report bytes"
    assert reports[0] == reports[2], "a fresh interpreter changed the report bytes"
    print("\nACCEPTANCE 8 PASS: identical bytes across rerun and a fresh interpreter")
