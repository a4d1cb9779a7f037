"""Analytic classification-error model over discrete feature activations.

A detector's label decision is modeled by which of its features fire.
Per class, each feature has an activation probability and a
significance weight (how often an activation was essential to the
decision). The minimum of the two weighted activation masses, summed
over features, is the irreducible two-class confusion: overlap mass
that no decision rule can separate. Merging sibling classes into a
general class removes their mutual overlap term entirely, and giving a
class more dedicated features (fewer classes per detector) shrinks it.

Summations run in fixed feature order via math.fsum for
bit-reproducibility. A model file's ``capacity`` is read for its bound
``supK`` alone, and its per-feature lists hold JSON numbers only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import check_int, check_number, read_object
from .errors import UnknownLabelError, ValidationError

_TOL = 1e-9


@dataclass(frozen=True)
class FeatureClassModel:
    """Per-class discrete feature statistics.

    Attributes:
        priors: class label -> prior probability (sums to 1).
        conditional: class label -> activation distribution over the
            feature axis (each sums to 1).
        weights: class label -> per-feature significance in [0, 1]
            (fraction of activations where the feature was essential).
    """

    priors: Mapping[str, float]
    conditional: Mapping[str, np.ndarray]
    weights: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        for name in ("conditional", "weights"):
            try:
                arrays = {c: np.asarray(v, np.float64) for c, v in getattr(self, name).items()}
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValidationError(f"{name} is not a list of doubles: {exc}") from None
            object.__setattr__(self, name, arrays)
        self.validate()

    @property
    def classes(self) -> tuple[str, ...]:
        return tuple(self.priors)

    @property
    def n_features(self) -> int:
        return len(next(iter(self.conditional.values())))

    def validate(self) -> None:
        if not self.priors:
            raise ValidationError("model has no classes")
        if set(self.priors) != set(self.conditional) or set(self.priors) != set(self.weights):
            raise ValidationError("priors, conditional, and weights must share class labels")
        for c, p in self.priors.items():
            check_number(p, f"prior of class {c!r}", at_least=0)
        if abs(sum(self.priors.values()) - 1.0) > _TOL:
            raise ValidationError(f"priors sum to {sum(self.priors.values())}, not 1")
        for name, arrays in (("conditional", self.conditional), ("weights", self.weights)):
            for c, v in arrays.items():
                if v.ndim != 1 or not np.isfinite(v).all():
                    raise ValidationError(f"{name} of class {c!r} is not a list of finite numbers")
        n = {len(v) for v in self.conditional.values()} | {len(v) for v in self.weights.values()}
        if len(n) != 1:
            raise ValidationError("inconsistent feature-axis lengths")
        for c, v in self.conditional.items():
            if (v < 0).any():
                raise ValidationError(f"negative conditional probability for class {c!r}")
            if abs(float(v.sum()) - 1.0) > _TOL:
                raise ValidationError(f"conditional for class {c!r} sums to {v.sum()}, not 1")
        for c, w in self.weights.items():
            if (w < 0).any() or (w > 1).any():
                raise ValidationError(f"weights for class {c!r} outside [0, 1]")

    def _check(self, label: str) -> None:
        if label not in self.priors:
            raise UnknownLabelError(f"unknown class {label!r}")

    def to_json(self) -> dict:
        return {
            "priors": dict(self.priors),
            "conditionals": {c: [float(x) for x in v] for c, v in self.conditional.items()},
            "weights": {c: [float(x) for x in v] for c, v in self.weights.items()},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "FeatureClassModel":
        """Build and validate a model; a malformed document is a ValidationError.
        Each per-feature list holds JSON numbers only: a bool, a string or
        null would convert to a double too."""
        keys = ("priors", "conditionals", "weights")
        priors, conditional, weights = (read_object(obj, k, path="model file ") for k in keys)
        for name, lists in (("conditionals", conditional), ("weights", weights)):
            for c, v in lists.items():
                if not (isinstance(v, list) and set(map(type, v)) <= {int, float}):
                    raise ValidationError(f"{name} of class {c!r} is not a list of numbers")
        return cls(priors=dict(priors), conditional=conditional, weights=weights)


@dataclass(frozen=True)
class FeatureBudget:
    """Counts of learnable features and how many classes share them.

    transfer + finetuned are single-class features; shared features help
    several classes. With similar training volume per class, each class
    is detected by roughly (transfer + finetuned) / n_classes + shared
    features. n_classes must convert to a double, and so must that count
    (``feature_count``). max_features, when given, is the supplied bound
    on the total the network can hold (the model file's capacity supK).
    """

    transfer: float
    finetuned: float
    shared: float
    n_classes: int
    max_features: float | None = None

    def __post_init__(self) -> None:
        doc = self.to_json()
        for key in "LTU":
            check_number(doc[key], f"budget {key}", at_least=0)
        check_int(self.n_classes, "budget n", at_least=1, at_most=sys.float_info.max)
        check_number(feature_count(self), "budget features per class (L + T) / n + U")
        if self.max_features is not None:
            check_number(self.max_features, "capacity supK", above=0)

    @property
    def total(self) -> float:
        return self.transfer + self.finetuned + self.shared

    def to_json(self) -> dict:
        return {"L": self.transfer, "T": self.finetuned, "U": self.shared, "n": self.n_classes}

    @classmethod
    def from_json(cls, obj: Mapping, max_features: float | None = None) -> "FeatureBudget":
        return cls(
            transfer=obj["L"],
            finetuned=obj["T"],
            shared=obj["U"],
            n_classes=obj["n"],
            max_features=max_features,
        )


def feature_count(budget: FeatureBudget) -> float:
    """Features available per designated class: (transfer + finetuned) / n
    + shared, in float arithmetic."""
    return (float(budget.transfer) + budget.finetuned) / budget.n_classes + budget.shared


def over_capacity(budget: FeatureBudget) -> bool | None:
    """Whether the total feature demand exceeds the supplied capacity bound."""
    if budget.max_features is None:
        return None
    return budget.total > budget.max_features


def _weighted_masses(model: FeatureClassModel, c0: str, c1: str) -> tuple[np.ndarray, np.ndarray]:
    """The weighted per-feature activation masses, conditional * prior *
    weights, of two distinct classes of ``model``."""
    model._check(c0)
    model._check(c1)
    if c0 == c1:
        raise ValidationError("the overlap needs two distinct classes")
    return tuple(model.conditional[c] * model.priors[c] * model.weights[c] for c in (c0, c1))


def bayes_error(model: FeatureClassModel, c0: str, c1: str) -> float:
    """Irreducible two-class confusion: summed minima of the weighted
    per-feature activation masses of the two classes."""
    t0, t1 = _weighted_masses(model, c0, c1)
    return math.fsum(np.minimum(t0, t1).tolist())


def pdf_curves(model: FeatureClassModel, c0: str, c1: str) -> list[tuple[int, float, float, float]]:
    """Per-feature weighted densities of both classes and their minimum.

    Rows are (feature index, weighted density of c0, weighted density of
    c1, min term); the min column sums (fsum) to bayes_error exactly.
    """
    t0, t1 = _weighted_masses(model, c0, c1)
    mins = np.minimum(t0, t1)
    return [(i, float(t0[i]), float(t1[i]), float(mins[i])) for i in range(len(t0))]


def merge_general(
    model: FeatureClassModel, members: Iterable[str], general: str
) -> FeatureClassModel:
    """Union member classes into one general class.

    The general's prior is the member sum; its activation distribution
    is the prior-weighted mixture; its per-feature weight is the member
    maximum (essential for at least one member). Confusion among the
    merged members vanishes by construction.
    """
    members = tuple(dict.fromkeys(members))
    if len(members) < 2:
        raise ValidationError("merge_general needs at least two member classes")
    for m in members:
        model._check(m)
    if general in model.priors and general not in members:
        raise ValidationError(f"label {general!r} already names another class")
    prior_g = sum(model.priors[m] for m in members)
    if prior_g <= 0.0:
        raise ValidationError("member priors sum to zero; mixture undefined")
    cond_g = sum(model.conditional[m] * model.priors[m] for m in members) / prior_g
    weights_g = np.maximum.reduce([model.weights[m] for m in members])

    priors = {c: p for c, p in model.priors.items() if c not in members}
    priors[general] = prior_g
    conditional = {c: v for c, v in model.conditional.items() if c not in members}
    conditional[general] = cond_g
    weights = {c: v for c, v in model.weights.items() if c not in members}
    weights[general] = weights_g
    return FeatureClassModel(priors=priors, conditional=conditional, weights=weights)


@dataclass(frozen=True)
class DeformationResult:
    holds_strictly: bool
    lhs: float
    rhs: float


def deformation_check(A, B, G: Iterable[tuple[int, int]]) -> DeformationResult:
    """Test whether a second feature map deforms the first on a region.

    Over the coordinate set G, lhs sums |A| + |B| and rhs sums |A|
    alone. The sum strictly grows — the region stops being a clean
    feature map of A's object — exactly when B has any nonzero entry in
    G; strictness is decided by that exact predicate so float rounding
    cannot mask it.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise ValidationError(f"shape mismatch {A.shape} vs {B.shape}")
    coords = sorted(set((int(i), int(j)) for i, j in G))
    for i, j in coords:
        if not (0 <= i < A.shape[0] and 0 <= j < A.shape[1]):
            raise ValidationError(f"coordinate ({i}, {j}) outside shape {A.shape}")
    rhs = math.fsum(abs(float(A[i, j])) for i, j in coords)
    lhs = math.fsum(abs(float(A[i, j])) + abs(float(B[i, j])) for i, j in coords)
    holds = any(B[i, j] != 0.0 for i, j in coords)
    return DeformationResult(holds_strictly=holds, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class AdvantageResult:
    advantage: bool
    lhs: float
    rhs: float


def modular_advantage(a: float, delta1: float, delta2: float) -> AdvantageResult:
    """Does a two-stage cascade beat a flat detector of accuracy ``a``?

    The cascade's composite accuracy is the product of its stage
    accuracies (a + delta1) and (a + delta2); the cascade wins when that
    product exceeds a. With zero deltas the product a*a never exceeds a:
    stacking stages without per-stage improvement only hurts.
    """
    check_number(a, "accuracy", at_least=0, at_most=1)
    s1 = check_number(a + delta1, "stage accuracy a + delta1", at_least=0, at_most=1)
    s2 = check_number(a + delta2, "stage accuracy a + delta2", at_least=0, at_most=1)
    rhs = s1 * s2
    return AdvantageResult(advantage=a < rhs, lhs=a, rhs=rhs)


def model_file_to_parts(obj: Mapping) -> tuple[FeatureClassModel, FeatureBudget | None]:
    """Parse a model file: feature statistics plus optional budget, whose
    bound is the capacity's supK; other capacity keys are ignored.

    A malformed or invalid document is a ValidationError; each scalar is
    checked by ``core.check_number`` (``check_int`` for the class count).
    """
    model = FeatureClassModel.from_json(obj)
    budget = None
    if "budget" in obj:
        try:
            max_features = obj["capacity"]["supK"] if "capacity" in obj else None
            budget = FeatureBudget.from_json(obj["budget"], max_features=max_features)
        except KeyError as exc:
            raise ValidationError(f"model file budget or capacity missing key {exc}") from None
        except TypeError as exc:
            raise ValidationError(f"malformed budget or capacity: {exc}") from None
    return model, budget
