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

from .core import ClassTaxonomy
from .detector import ConfidenceLaw, DetectorProfile


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
        g = taxonomy.general_of(f)
        siblings = [s for s in taxonomy.fine_of[g] if s != f]
        if not siblings:
            siblings = [s for s in fines if s != f]
        row = {f: (1.0 - miss_rate) * (1.0 - error_rate)}
        for s in siblings:
            row[s] = (1.0 - miss_rate) * error_rate / len(siblings)
        confusion[f] = row
    return DetectorProfile(
        label_space=fines,
        confusion=confusion,
        negative_fp_rate=negative_fp_rate,
        loc_noise_sigma=loc_noise_sigma,
        confidence_law=confidence_law or ConfidenceLaw(),
    )


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
    confusion = {}
    correct_for = {}
    for f in taxonomy.fine_labels:
        g = taxonomy.general_of(f)
        others = [o for o in generals if o != g]
        row = {g: (1.0 - miss_rate) * (1.0 - error_rate)}
        for o in others:
            row[o] = (1.0 - miss_rate) * error_rate / len(others)
        confusion[f] = row
        correct_for[f] = g
    return DetectorProfile(
        label_space=generals,
        confusion=confusion,
        negative_fp_rate=negative_fp_rate,
        loc_noise_sigma=loc_noise_sigma,
        confidence_law=confidence_law or ConfidenceLaw(),
        correct_for=correct_for,
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
    classes. Objects of other generals emit one of this detector's
    labels uniformly (never correct, at the wrong-label confidence).
    """
    out = {}
    for g in taxonomy.generals:
        members = taxonomy.fine_of[g]
        confusion: dict[str, dict[str, float]] = {}
        for f in members:
            siblings = [s for s in members if s != f]
            if siblings:
                row = {f: (1.0 - miss_rate) * (1.0 - error_rate)}
                for s in siblings:
                    row[s] = (1.0 - miss_rate) * error_rate / len(siblings)
            else:
                row = {f: 1.0 - miss_rate}
            confusion[f] = row
        for f in taxonomy.fine_labels:
            if taxonomy.general_of(f) != g:
                confusion[f] = {m: 1.0 / len(members) for m in members}
        out[g] = DetectorProfile(
            label_space=members,
            confusion=confusion,
            negative_fp_rate=negative_fp_rate,
            loc_noise_sigma=loc_noise_sigma,
            confidence_law=confidence_law or ConfidenceLaw(),
        )
    return out
