"""Analytic error-model tests: Bayes overlap vs sampling oracle, class
merging, the deformation inequality, and the cascade-advantage condition."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcascade import (
    FeatureBudget,
    FeatureClassModel,
    UnknownLabelError,
    ValidationError,
    bayes_error,
    deformation_check,
    feature_count,
    merge_general,
    modular_advantage,
    over_capacity,
    pdf_curves,
)
from modcascade.cli import main
from modcascade.errormodel import model_file_to_parts

from oracles import (
    mc_bayes_error,
    merge_general_oracle,
    pdf_curves_oracle,
    random_model,
)


def two_class_model(cond0, cond1, p0=0.5, w0=None, w1=None):
    n = len(cond0)
    return FeatureClassModel(
        priors={"c0": p0, "c1": 1.0 - p0},
        conditional={"c0": np.array(cond0, float), "c1": np.array(cond1, float)},
        weights={
            "c0": np.ones(n) if w0 is None else np.array(w0, float),
            "c1": np.ones(n) if w1 is None else np.array(w1, float),
        },
    )


class TestModelValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="priors"):
            FeatureClassModel(
                priors={"a": 0.7, "b": 0.7},
                conditional={"a": [1.0], "b": [1.0]},
                weights={"a": [1.0], "b": [1.0]},
            )

    def test_conditionals_must_normalize(self):
        with pytest.raises(ValidationError, match="sums to"):
            two_class_model([0.5, 0.2], [0.5, 0.5])

    def test_weights_in_unit_interval(self):
        with pytest.raises(ValidationError, match="weights"):
            two_class_model([1.0], [1.0], w0=[1.5])

    @pytest.mark.parametrize(
        "value", ["1", b"1", {1.0: "x"}, {1.0}, 1.0, [None], [[1.0]], ["x"], [10**400]]
    )
    def test_per_feature_list_must_convert_to_doubles(self, value):
        with pytest.raises(ValidationError, match="not a list of doubles"):
            FeatureClassModel(priors={"a": 1.0}, conditional={"a": value}, weights={"a": [1.0]})

    def test_unknown_class(self):
        m = two_class_model([1.0], [1.0])
        with pytest.raises(UnknownLabelError):
            bayes_error(m, "c0", "ghost")


class TestBayesError:
    def test_disjoint_supports(self):
        m = two_class_model([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75])
        assert bayes_error(m, "c0", "c1") == 0.0

    def test_identical_conditionals_equal_priors(self):
        m = two_class_model([0.1, 0.4, 0.5], [0.1, 0.4, 0.5])
        assert bayes_error(m, "c0", "c1") == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_model(rng, n_features=16, n_classes=3)
            assert bayes_error(m, "c0", "c1") == bayes_error(m, "c1", "c0")

    def test_bounded_by_smaller_prior(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            m = random_model(rng, n_features=24, n_classes=2)
            be = bayes_error(m, "c0", "c1")
            assert 0.0 <= be <= min(m.priors["c0"], m.priors["c1"]) + 1e-12

    def test_matches_sampling_oracle_smoke(self):
        rng = np.random.default_rng(99)
        misses = 0
        for k in range(12):
            m = random_model(rng, n_features=20, n_classes=3, sparse=(k % 2 == 0))
            analytic = bayes_error(m, "c0", "c1")
            estimate, se = mc_bayes_error(m, "c0", "c1", n=200_000, seed=1000 + k)
            if abs(analytic - estimate) > 4 * se + 1e-9:
                misses += 1
        assert misses == 0

    def test_weight_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = random_model(rng, n_features=12, n_classes=2)
            base = bayes_error(m, "c0", "c1")
            i = int(rng.integers(12))
            w = dict(m.weights)
            w_new = np.asarray(w["c0"]).copy()
            w_new[i] *= float(rng.random())
            lowered = FeatureClassModel(
                priors=m.priors, conditional=m.conditional,
                weights={"c0": w_new, "c1": w["c1"]},
            )
            assert bayes_error(lowered, "c0", "c1") <= base + 1e-15

    def test_moving_mass_off_overlap_never_hurts(self):
        # push c1 conditional mass from a shared feature onto one where
        # c0 has no support: dedicated features reduce the overlap term
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = 16
            cond0 = rng.random(n)
            cond0[-1] = 0.0  # feature dedicated to c1
            cond0 /= cond0.sum()
            cond1 = rng.random(n)
            cond1 /= cond1.sum()
            m = two_class_model(cond0, cond1, p0=float(rng.uniform(0.2, 0.8)))
            base = bayes_error(m, "c0", "c1")
            shared = int(rng.integers(n - 1))
            delta = m.conditional["c1"][shared] * float(rng.random())
            cond1_new = np.asarray(m.conditional["c1"]).copy()
            cond1_new[shared] -= delta
            cond1_new[-1] += delta
            moved = FeatureClassModel(
                priors=m.priors,
                conditional={"c0": m.conditional["c0"], "c1": cond1_new},
                weights=m.weights,
            )
            assert bayes_error(moved, "c0", "c1") <= base + 1e-12


class TestPdfCurves:
    def test_disjoint_min_column_zero(self):
        m = two_class_model([1.0, 0.0], [0.0, 1.0])
        rows = pdf_curves(m, "c0", "c1")
        assert [r[3] for r in rows] == [0.0, 0.0]

    def test_identical_min_equals_either_column(self):
        m = two_class_model([0.3, 0.7], [0.3, 0.7])
        for _, w0, w1, mn in pdf_curves(m, "c0", "c1"):
            assert mn == w0 == w1

    def test_one_class_twice_is_rejected(self):
        m = two_class_model([0.3, 0.7], [0.3, 0.7])
        for f in (bayes_error, pdf_curves):
            with pytest.raises(ValidationError, match="two distinct classes"):
                f(m, "c0", "c0")

    def test_min_column_sums_to_bayes_error_bitwise(self):
        rng = np.random.default_rng(31)
        for k in range(20):
            m = random_model(rng, n_features=40, n_classes=2, sparse=(k % 3 == 0))
            rows = pdf_curves(m, "c0", "c1")
            assert math.fsum(r[3] for r in rows) == bayes_error(m, "c0", "c1")


def same_doubles(xs, ys) -> bool:
    """Equal sequences of doubles, bit for bit: the sign of a zero counts."""
    return len(xs) == len(ys) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(xs, ys)
    )


# per-feature values drawn mostly from a few exact ones, so that equal
# masses (0.0 against -0.0 included) are common
TIE_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])


@st.composite
def tie_models(draw) -> FeatureClassModel:
    """Models of 2-4 classes whose priors and conditionals are small
    integer counts over their total, and whose weights are mostly
    TIE_VALUES; a zero activation may be -0.0."""
    labels = [f"c{i}" for i in range(draw(st.integers(2, 4)))]
    n = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))
    conditional, weights = {}, {}
    for c in labels:
        raw = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if not any(raw):
            raw[0] = 1
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
        conditional[c] = [k / sum(raw) if k else math.copysign(0.0, s) for k, s in zip(raw, signs)]
        weights[c] = draw(st.lists(TIE_VALUES | st.floats(0, 1), min_size=n, max_size=n))
    return FeatureClassModel(
        priors={c: k / sum(counts) for c, k in zip(labels, counts)},
        conditional=conditional,
        weights=weights,
    )


@settings(max_examples=300, deadline=None)
@given(tie_models(), st.data())
def test_formulas_equal_numpy_oracle_bitwise(model, data):
    """pdf_curves, bayes_error and merge_general compute the doubles of
    their former numpy formulas (``oracles``), signs of zero included."""
    c0, c1 = data.draw(st.permutations(model.classes))[:2]
    rows, want = pdf_curves(model, c0, c1), pdf_curves_oracle(model, c0, c1)
    assert [r[0] for r in rows] == [r[0] for r in want]
    for k in (1, 2, 3):
        assert same_doubles([r[k] for r in rows], [r[k] for r in want])
    assert same_doubles([bayes_error(model, c0, c1)], [math.fsum(r[3] for r in want)])

    members = data.draw(st.lists(st.sampled_from(model.classes), min_size=2, unique=True))
    merged = merge_general(model, members, "g")
    prior_g, cond_g, weights_g = merge_general_oracle(model, members, "g")
    assert same_doubles([merged.priors["g"]], [prior_g])
    assert same_doubles(merged.conditional["g"], cond_g)
    assert same_doubles(merged.weights["g"], weights_g)


class TestMergeGeneral:
    def test_members_vanish(self):
        m = two_class_model([0.5, 0.5], [0.5, 0.5])
        merged = merge_general(m, ["c0", "c1"], "g")
        assert merged.classes == ("g",)
        with pytest.raises(UnknownLabelError):
            bayes_error(merged, "g", "c0")

    def test_mixture_and_prior(self):
        m = FeatureClassModel(
            priors={"a": 0.2, "b": 0.3, "c": 0.5},
            conditional={"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [0.5, 0.5]},
            weights={"a": [1.0, 0.0], "b": [0.0, 0.5], "c": [1.0, 1.0]},
        )
        merged = merge_general(m, ["a", "b"], "g")
        assert merged.priors["g"] == pytest.approx(0.5)
        assert merged.conditional["g"] == pytest.approx([0.4, 0.6])
        assert merged.weights["g"] == pytest.approx([1.0, 0.5])  # member max

    def test_merge_eliminates_within_pair_error(self):
        rng = np.random.default_rng(41)
        m = random_model(rng, n_features=10, n_classes=3)
        assert bayes_error(m, "c0", "c1") > 0.0
        merged = merge_general(m, ["c0", "c1"], "g")
        assert "c0" not in merged.classes and "c1" not in merged.classes

    def test_subadditivity_with_shared_member_weights(self):
        # the union's error against a third class never exceeds the sum
        # of member errors (term-wise min subadditivity; holds whenever
        # member weights agree, see ledger for the heterogeneous case)
        rng = np.random.default_rng(43)
        for _ in range(25):
            m0 = random_model(rng, n_features=18, n_classes=3)
            shared_w = rng.random(18)
            m = FeatureClassModel(
                priors=m0.priors,
                conditional=m0.conditional,
                weights={c: shared_w.copy() for c in m0.classes},
            )
            lhs = bayes_error(merge_general(m, ["c0", "c1"], "g"), "g", "c2")
            rhs = bayes_error(m, "c0", "c2") + bayes_error(m, "c1", "c2")
            assert lhs <= rhs + 1e-12

    def test_merge_all_classes(self):
        rng = np.random.default_rng(47)
        m = random_model(rng, n_features=6, n_classes=4)
        merged = merge_general(m, list(m.classes), "everything")
        assert merged.classes == ("everything",)
        assert merged.priors["everything"] == pytest.approx(1.0)

    def test_needs_two_members(self):
        m = two_class_model([1.0], [1.0])
        with pytest.raises(ValidationError):
            merge_general(m, ["c0"], "g")

    def test_zero_prior_sum_rejected(self):
        m = FeatureClassModel(
            priors={"a": 0.0, "b": 0.0, "c": 1.0},
            conditional={"a": [1.0], "b": [1.0], "c": [1.0]},
            weights={"a": [1.0], "b": [1.0], "c": [1.0]},
        )
        with pytest.raises(ValidationError, match="zero"):
            merge_general(m, ["a", "b"], "g")


class TestDeformation:
    def test_zero_b_is_equality(self):
        A = np.arange(9.0).reshape(3, 3)
        B = np.zeros((3, 3))
        res = deformation_check(A, B, {(0, 0), (1, 2)})
        assert not res.holds_strictly
        assert res.lhs == res.rhs

    def test_single_nonzero_entry(self):
        A = np.ones((2, 2))
        B = np.zeros((2, 2))
        B[1, 0] = -0.5  # absolute values make sign irrelevant
        res = deformation_check(A, B, {(1, 0)})
        assert res.holds_strictly
        assert res.lhs == pytest.approx(1.5)
        assert res.rhs == pytest.approx(1.0)

    def test_nonzero_outside_g_ignored(self):
        A = np.ones((2, 2))
        B = np.zeros((2, 2))
        B[0, 0] = 7.0
        res = deformation_check(A, B, {(1, 1)})
        assert not res.holds_strictly

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            deformation_check(np.ones((2, 2)), np.ones((3, 2)), set())

    def test_random_against_scan_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            # magnitudes bounded away from 0 so float sums cannot absorb
            A = rng.uniform(0.5, 10.0, shape) * (rng.random(shape) < 0.7)
            B = rng.uniform(0.5, 10.0, shape) * (rng.random(shape) < 0.4)
            signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
            A, B = A * signs, B * signs[::-1] if shape[0] > 1 else B
            k = int(rng.integers(0, shape[0] * shape[1] + 1))
            flat = rng.choice(shape[0] * shape[1], size=k, replace=False)
            G = {(int(f) // shape[1], int(f) % shape[1]) for f in flat}
            res = deformation_check(A, B, G)
            scan = any(B[i, j] != 0.0 for (i, j) in G)
            assert res.holds_strictly == scan
            assert res.holds_strictly == (res.lhs > res.rhs)


class TestModularAdvantage:
    def test_calibrated_case(self):
        res = modular_advantage(0.88, 0.0975, 0.097)
        assert res.advantage
        assert res.lhs == 0.88
        assert res.rhs == 0.9775 * 0.977
        assert round(res.rhs, 3) == 0.955

    def test_no_improvement_never_helps(self):
        for a in (0.1, 0.5, 0.88):
            res = modular_advantage(a, 0.0, 0.0)
            assert not res.advantage  # a < a*a is impossible on (0, 1)

    def test_boundary_a_one(self):
        res = modular_advantage(1.0, 0.0, 0.0)
        assert not res.advantage
        assert res.rhs == 1.0

    def test_equal_deltas_reduce_to_quadratic(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            a = float(rng.uniform(0, 1))
            d = float(rng.uniform(0, 1 - a))
            res = modular_advantage(a, d, d)
            assert res.advantage == (a < (a + d) ** 2)

    def test_range_errors(self):
        with pytest.raises(ValidationError):
            modular_advantage(1.2, 0.0, 0.0)
        with pytest.raises(ValidationError):
            modular_advantage(0.9, 0.2, 0.0)  # stage accuracy above 1
        with pytest.raises(ValidationError):
            modular_advantage(0.5, -0.6, 0.0)  # below 0


class TestFeatureBudget:
    def test_direct_substitution(self):
        b = FeatureBudget(transfer=80, finetuned=20, shared=5, n_classes=10)
        assert feature_count(b) == 15.0

    def test_fewer_classes_more_features(self):
        b = FeatureBudget(transfer=80, finetuned=20, shared=5, n_classes=2)
        assert feature_count(b) == 55.0

    def test_single_class_gets_everything(self):
        b = FeatureBudget(transfer=80, finetuned=20, shared=5, n_classes=1)
        assert feature_count(b) == b.total == 105.0

    def test_strictly_decreasing_in_class_count(self):
        values = [
            feature_count(FeatureBudget(60, 40, 7, n)) for n in range(1, 12)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_independent_of_single_class_split(self):
        # only the transfer+finetuned total matters
        assert (
            feature_count(FeatureBudget(60, 40, 7, 5))
            == feature_count(FeatureBudget(100, 0, 7, 5))
            == feature_count(FeatureBudget(0, 100, 7, 5))
        )

    def test_capacity_flag(self):
        over = FeatureBudget(80, 30, 5, 4, max_features=100)
        under = FeatureBudget(50, 30, 5, 4, max_features=100)
        assert over_capacity(over) is True
        assert over_capacity(under) is False
        assert over_capacity(FeatureBudget(1, 1, 1, 1)) is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            FeatureBudget(-1, 0, 0, 1)
        with pytest.raises(ValidationError):
            FeatureBudget(1, 1, 1, 0)
        with pytest.raises(ValidationError, match="supK"):
            FeatureBudget(1, 1, 1, 1, max_features=0)


def test_model_file_round_trip():
    doc = {
        "priors": {"c0": 0.25, "c1": 0.75},
        "conditionals": {"c0": [0.5, 0.5, 0.0], "c1": [0.0, 0.25, 0.75]},
        "weights": {"c0": [1.0, 0.5, 0.0], "c1": [0.25, 1.0, 1.0]},
        "budget": {"L": 80, "T": 20, "U": 5, "n": 10},
        "capacity": {"r": 1e7, "a_filters": 256, "d": 3, "h": 64, "q": 13, "supK": 120},
    }
    model, budget = model_file_to_parts(doc)
    assert model.classes == ("c0", "c1")
    assert feature_count(budget) == 15.0
    assert budget.max_features == 120
    assert np.asarray(model.conditional["c1"]).tolist() == [0.0, 0.25, 0.75]
    assert budget.to_json() == {"L": 80, "T": 20, "U": 5, "n": 10}


def test_model_file_capacity_is_read_for_supk_alone():
    """A capacity's other keys are ignored, whatever they hold; a
    missing or zero supK is an error, with or without a budget."""
    doc = {
        "priors": {"c0": 0.5, "c1": 0.5},
        "conditionals": {"c0": [1.0, 0.0], "c1": [0.0, 1.0]},
        "weights": {"c0": [1.0, 1.0], "c1": [1.0, 1.0]},
    }
    budgeted = {**doc, "budget": {"L": 8, "T": 2, "U": 1, "n": 2}}
    for capacity, bound in (({"supK": 7}, 7), ({"r": "x", "q": None, "supK": 20.5}, 20.5)):
        _, budget = model_file_to_parts({**budgeted, "capacity": capacity})
        assert budget.max_features == bound
        assert model_file_to_parts({**doc, "capacity": capacity})[1] is None
    bad = ({"r": 1e7}, {"supK": 0}, {"supK": None}, {"supK": "x"}, {}, ["supK"], [1])
    for base, capacity in itertools.product((budgeted, doc), bad):
        with pytest.raises(ValidationError):
            model_file_to_parts({**base, "capacity": capacity})


def tie_model_doc() -> dict:
    """A model file from a seeded random model of 2,000 features, with
    integer entries, signed zeros and equal-mass ties between c0 and c1."""
    m = random_model(np.random.default_rng(2026), n_features=2000, n_classes=3, sparse=True)
    cond = {c: np.asarray(v).tolist() for c, v in m.conditional.items()}
    weights = {c: np.asarray(v).tolist() for c, v in m.weights.items()}
    # c1 shares c0's prior and its statistics on the first 1,000 features,
    # so each of those features is a tie of equal masses
    cond["c1"] = cond["c0"][:1000] + cond["c0"][1000:][::-1]
    weights["c1"][:1000] = weights["c0"][:1000]
    cond["c0"] = [0 if x == 0 else x for x in cond["c0"]]
    weights["c0"][1000:1100] = [1] * 100
    weights["c1"][1100:1200] = [0] * 100
    # masses 0.0 against -0.0 and -0.0 against 0.0, and a -0.0 activation
    weights["c0"][1500:1502] = [0.0, -0.0]
    weights["c1"][1500:1502] = [-0.0, 0.0]
    cond["c0"][cond["c0"].index(0)] = -0.0
    return {
        "priors": {"c0": 0.25, "c1": 0.25, "c2": 0.5},
        "conditionals": cond,
        "weights": weights,
        "budget": {"L": 80, "T": 20, "U": 5, "n": 3},
        "capacity": {"supK": 50},
    }


# the model file of CI's end-to-end step
CI_MODEL_DOC = {
    "priors": {"c0": 0.5, "c1": 0.5},
    "conditionals": {"c0": [0.7, 0.3], "c1": [0.2, 0.8]},
    "weights": {"c0": [1.0, 1.0], "c1": [1.0, 1.0]},
}


@pytest.mark.parametrize("doc, digests", [
    (tie_model_doc(), {
        "curves.csv": "11733be16246dfdab2f4060663e63da15b9c7e1da13f43b2e97598981c6c8759",
        "summary.json": "dfaa1f4928de5d8b56d330e1f40f69103c1155f5cb787c65f50966f6c0f547a9",
    }),
    (CI_MODEL_DOC, {
        "curves.csv": "7c6b3cf0f2be6e5e97c32b1a5ed80b9a72971526a8913656330bb314ebb4f80b",
        "summary.json": "c2b8c23a396114c5d80131d1c0beb89117a7b0210ec2897837a7c1a00573e016",
    }),
], ids=["ties-2000", "ci-two-features"])
def test_errormodel_output_digests(tmp_path, doc, digests):
    """The bytes ``modcascade errormodel`` writes, pinned by sha256."""
    (tmp_path / "model.json").write_text(json.dumps(doc))
    (tmp_path / "em.json").write_text(json.dumps({"model": "model.json", "pair": ["c0", "c1"]}))
    out = tmp_path / "out"
    assert main(["errormodel", "--config", str(tmp_path / "em.json"), "--out", str(out)]) == 0
    written = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert written == digests
