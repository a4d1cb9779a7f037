"""Builders for confusion-calibrated simulator profiles.

These express detector quality as a handful of knobs — per-object
classification error, miss rate, localization noise — and expand them
into full DetectorProfile confusion tables for a given taxonomy:

* flat baseline: emits fine labels, confuses within-general siblings;
* stage 1: emits general labels for fine-labeled ground truth;
* stage 2 (one per general): emits that general's fine labels; objects
  of foreign generals look like one of its own classes (always a wrong
  label), so upstream misroutes surface as classification errors
  instead of silent misses.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import ClassTaxonomy
from .detector import ConfidenceLaw, DetectorProfile


def _row(right: str, wrong: Sequence[str], error_rate: float, miss_rate: float) -> dict:
    """A confusion row: ``right`` gets (1 - miss) * (1 - error) and each
    label of ``wrong`` an equal share of (1 - miss) * error."""
    row = {right: (1.0 - miss_rate) * (1.0 - error_rate)}
    for w in wrong:
        row[w] = (1.0 - miss_rate) * error_rate / len(wrong)
    return row


def _profile(
    label_space: Sequence[str], confusion: Mapping, loc_noise_sigma: float,
    negative_fp_rate: float, confidence_law: ConfidenceLaw | None, correct_for=None,
) -> DetectorProfile:
    """The builders' shared tail: no confidence law means the default one."""
    return DetectorProfile(
        label_space=label_space, confusion=confusion, negative_fp_rate=negative_fp_rate,
        loc_noise_sigma=loc_noise_sigma, confidence_law=confidence_law or ConfidenceLaw(),
        correct_for=correct_for,
    )


def flat_profile(
    taxonomy: ClassTaxonomy,
    error_rate: float,
    miss_rate: float = 0.0,
    loc_noise_sigma: float = 0.0,
    negative_fp_rate: float = 0.0,
    confidence_law: ConfidenceLaw | None = None,
) -> DetectorProfile:
    """Multi-class detector over all fine labels.

    Wrong-label mass goes to same-general siblings (uniformly); fine
    classes with no sibling spread it over all other fine labels.
    """
    fines = taxonomy.fine_labels
    confusion = {}
    for f in fines:
        siblings = [s for s in taxonomy.fine_of[taxonomy.general_of(f)] if s != f]
        wrong = siblings or [s for s in fines if s != f]
        confusion[f] = _row(f, wrong, error_rate, miss_rate)
    return _profile(fines, confusion, loc_noise_sigma, negative_fp_rate, confidence_law)


def stage1_profile(
    taxonomy: ClassTaxonomy,
    error_rate: float,
    miss_rate: float = 0.0,
    loc_noise_sigma: float = 0.0,
    negative_fp_rate: float = 0.0,
    confidence_law: ConfidenceLaw | None = None,
) -> DetectorProfile:
    """General-class detector: rows keyed by fine labels, emitting generals.

    ``error_rate`` is the per-detected-object probability of emitting a
    wrong general (spread uniformly); ``miss_rate`` is independent of it.
    """
    generals = taxonomy.generals
    correct_for = {f: taxonomy.general_of(f) for f in taxonomy.fine_labels}
    confusion = {
        f: _row(g, [o for o in generals if o != g], error_rate, miss_rate)
        for f, g in correct_for.items()
    }
    return _profile(
        generals, confusion, loc_noise_sigma, negative_fp_rate, confidence_law, correct_for
    )


def stage2_profiles(
    taxonomy: ClassTaxonomy,
    error_rate: float,
    miss_rate: float = 0.0,
    loc_noise_sigma: float = 0.0,
    negative_fp_rate: float = 0.0,
    confidence_law: ConfidenceLaw | None = None,
) -> dict[str, DetectorProfile]:
    """One fine-grained detector per general class.

    Within its own general, wrong-label mass spreads over sibling fine
    classes; a general's only fine class is never wrong. Objects of
    other generals emit one of this detector's labels uniformly (never
    correct, at the wrong-label confidence).
    """
    out = {}
    for g in taxonomy.generals:
        members = taxonomy.fine_of[g]
        confusion: dict[str, dict[str, float]] = {}
        for f in members:
            siblings = [s for s in members if s != f]
            confusion[f] = _row(f, siblings, error_rate if siblings else 0.0, miss_rate)
        for f in taxonomy.fine_labels:
            if taxonomy.general_of(f) != g:
                confusion[f] = {m: 1.0 / len(members) for m in members}
        out[g] = _profile(members, confusion, loc_noise_sigma, negative_fp_rate, confidence_law)
    return out
