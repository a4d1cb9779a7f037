"""Detector abstraction: a seeded statistical simulator.

The simulator stands in for trained networks: the stage-1 general-class
detector, each stage-2 fine-grained detector and the flat baseline.
Each ground-truth object gets its own RNG stream keyed by (seed, image
id, object index), so detection is a pure function of (profile, seed,
image): bit-identical results regardless of call order or thread.
``prepare`` seeds the streams of many images in one vectorised pass; it
changes no result.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import AnnotatedImage, BoundingBox, ClassTaxonomy, Detection, is_finite_real
from .errors import UnknownLabelError, ValidationError

_ROW_TOL = 1e-9
_MIN_EXTENT = 1e-3


@dataclass(frozen=True)
class ConfidenceLaw:
    """Confidence distribution conditioned on label correctness.

    Beta-shaped with the given mean and a spread parameter interpreted
    as a target standard deviation; spread 0 degenerates to the mean.
    """

    mean_correct: float = 0.9
    mean_wrong: float = 0.6
    spread: float = 0.08

    def validate(self) -> None:
        if not all(
            is_finite_real(m) and 0.0 <= m <= 1.0 for m in (self.mean_correct, self.mean_wrong)
        ):
            raise ValidationError("confidence means must be numbers in [0, 1]")
        if not (is_finite_real(self.spread) and self.spread >= 0.0):
            raise ValidationError("confidence spread must be a finite number >= 0")

    def sample(self, rng: np.random.Generator, correct: bool) -> float:
        mean = self.mean_correct if correct else self.mean_wrong
        if self.spread == 0.0 or mean in (0.0, 1.0):
            return mean
        conc = max(mean * (1.0 - mean) / (self.spread * self.spread) - 1.0, 1e-3)
        return float(rng.beta(mean * conc, (1.0 - mean) * conc))


@dataclass(frozen=True)
class DetectorProfile:
    """Generative model of one detector's behavior.

    Attributes:
        label_space: ordered labels this detector can emit.
        confusion: true (ground-truth) label -> {emitted label: prob};
            the miss probability is the remainder 1 - sum(row). True
            labels absent from the map are invisible to this detector.
        negative_fp_rate: per negative image, probability of one
            spurious detection.
        fp_label_dist: label distribution of spurious detections
            (default uniform over label_space).
        loc_noise_sigma: stddev in pixels of additive Gaussian noise on
            each box coordinate, clamped to image bounds.
        confidence_law: confidence model conditioned on correctness.
        correct_for: true label -> emitted label counted correct
            (default identity; a general-class detector maps each fine
            label to its general).
    """

    label_space: tuple[str, ...]
    confusion: Mapping[str, Mapping[str, float]]
    negative_fp_rate: float = 0.0
    fp_label_dist: Mapping[str, float] | None = None
    loc_noise_sigma: float = 0.0
    confidence_law: ConfidenceLaw = field(default_factory=ConfidenceLaw)
    correct_for: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_space", tuple(self.label_space))
        self.validate()
        # per-row sampling tables, precomputed once; cumulative sums as
        # plain-float lists, searched with bisect
        tables = {}
        for true, row in self.confusion.items():
            labels = tuple(row)
            cum = np.cumsum(np.array([row[l] for l in labels], dtype=np.float64)).tolist()
            tables[true] = (labels, cum)
        object.__setattr__(self, "_row_tables", tables)
        if self.fp_label_dist is not None:
            fp_labels = tuple(self.fp_label_dist)
            fp_cum = np.cumsum(np.array([self.fp_label_dist[l] for l in fp_labels])).tolist()
        else:
            fp_labels = self.label_space
            fp_cum = np.cumsum(np.full(len(fp_labels), 1.0 / len(fp_labels))).tolist()
        object.__setattr__(self, "_fp_table", (fp_labels, fp_cum))

    def validate(self) -> None:
        if not self.label_space:
            raise ValidationError("empty label space")
        space = set(self.label_space)
        for true, row in self.confusion.items():
            total = 0.0
            for label, p in row.items():
                if label not in space:
                    raise ValidationError(
                        f"confusion row {true!r} emits {label!r} outside the label space"
                    )
                if not (is_finite_real(p) and p >= 0.0):
                    raise ValidationError(
                        f"confusion row {true!r}: probability {p!r} is negative "
                        "or not a finite number"
                    )
                total += p
            if total > 1.0 + _ROW_TOL:
                raise ValidationError(f"confusion row {true!r} sums to {total} > 1")
        if not (is_finite_real(self.negative_fp_rate) and 0.0 <= self.negative_fp_rate <= 1.0):
            raise ValidationError("negative_fp_rate must be a number in [0, 1]")
        if self.fp_label_dist is not None:
            if not all(is_finite_real(p) and p >= 0.0 for p in self.fp_label_dist.values()):
                raise ValidationError("fp_label_dist values must be finite numbers >= 0")
            if abs(sum(self.fp_label_dist.values()) - 1.0) > _ROW_TOL:
                raise ValidationError("fp_label_dist must sum to 1")
            if any(l not in space for l in self.fp_label_dist):
                raise ValidationError("fp_label_dist emits outside the label space")
        if not (is_finite_real(self.loc_noise_sigma) and self.loc_noise_sigma >= 0.0):
            raise ValidationError("loc_noise_sigma must be a finite number >= 0")
        if self.correct_for is not None and not isinstance(self.correct_for, Mapping):
            raise ValidationError("correct_for must map true labels to emitted labels")
        self.confidence_law.validate()

    def miss_rate(self, true_label: str) -> float:
        row = self.confusion.get(true_label)
        if row is None:
            raise UnknownLabelError(f"no confusion row for {true_label!r}")
        return max(1.0 - sum(row.values()), 0.0)

    def correct_target(self, true_label: str) -> str:
        if self.correct_for is not None:
            return self.correct_for.get(true_label, true_label)
        return true_label

    def to_json(self) -> dict:
        out: dict = {
            "label_space": list(self.label_space),
            "confusion": {t: dict(r) for t, r in self.confusion.items()},
            "negative_fp_rate": self.negative_fp_rate,
            "loc_noise_sigma": self.loc_noise_sigma,
            "confidence_law": {
                "mean_correct": self.confidence_law.mean_correct,
                "mean_wrong": self.confidence_law.mean_wrong,
                "spread": self.confidence_law.spread,
            },
        }
        if self.fp_label_dist is not None:
            out["fp_label_dist"] = dict(self.fp_label_dist)
        if self.correct_for is not None:
            out["correct_for"] = dict(self.correct_for)
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "DetectorProfile":
        """Build and validate a profile; a malformed document is a ValidationError."""
        try:
            law = obj.get("confidence_law", {})
            return cls(
                label_space=tuple(obj["label_space"]),
                confusion={t: dict(r) for t, r in obj["confusion"].items()},
                negative_fp_rate=obj.get("negative_fp_rate", 0.0),
                fp_label_dist=obj.get("fp_label_dist"),
                loc_noise_sigma=obj.get("loc_noise_sigma", 0.0),
                confidence_law=ConfidenceLaw(
                    mean_correct=law.get("mean_correct", 0.9),
                    mean_wrong=law.get("mean_wrong", 0.6),
                    spread=law.get("spread", 0.08),
                ),
                correct_for=obj.get("correct_for"),
            )
        except ValidationError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed detector profile: {exc!r}") from None


@dataclass(frozen=True)
class DetectorHandle:
    """Reference to a simulated detector: its profile and seed."""

    profile: DetectorProfile | None = None
    seed: int | None = None
    # (image id, object count) -> PCG64 (state, inc) per stream tag; set by
    # ``prepare``, a cache of values ``_stream_states`` derives from the rest
    streams: Mapping[tuple[str, int], tuple[tuple[int, int], ...]] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.profile, DetectorProfile):
            raise ValidationError("detector handle needs a DetectorProfile")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValidationError(f"detector handle seed {self.seed!r} is not an integer")

    @classmethod
    def simulated(cls, profile: DetectorProfile, seed: int) -> "DetectorHandle":
        return cls(profile=profile, seed=seed)


# numpy's SeedSequence (NEP 19): pool of four 32-bit words, hash
# constants and multipliers, and the PCG64 LCG multiplier (O'Neill 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n`` values of a SeedSequence hash constant, before and
    after each step; they do not depend on the data hashed."""
    before, after = [], []
    h = init
    for _ in range(n):
        before.append(h)
        h = (h * mult) & 0xFFFFFFFF
        after.append(h)
    return np.array(before, dtype=np.uint32), np.array(after, dtype=np.uint32)


# mix_entropy makes 4 + 4 * 3 hashmix calls; generate_state(4, uint64) 8
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(values: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    values = (values ^ before) * after  # uint32 arrays wrap mod 2**32
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _pcg64_states(entropy: bytes) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded from each 16-byte little-endian entropy.

    Equals ``np.random.PCG64(e).state["state"]`` for every entropy
    ``e < 2**128``, computed for all of them at once. SeedSequence hashes
    an entropy of fewer than four 32-bit words as if padded with zero
    words, so every entropy here is four words. PCG64 then takes the
    128-bit seed and stream from ``generate_state(4, uint64)`` and makes
    the two setseq steps, done here in Python ints.
    """
    words = np.frombuffer(entropy, dtype="<u4").astype(np.uint32).reshape(-1, 4)
    a_before, a_after = _HASH_A
    pool = _hashmix(words, a_before[:4], a_after[:4])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[:, src : src + 1], a_before[k : k + 3], a_after[k : k + 3])
        pool[:, dst] = _mix(pool[:, dst], hashed)
        k += 3
    b_before, b_after = _HASH_B
    out = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], b_before, b_after)
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in out.astype("<u4", order="C").view("<u8").tolist():
        inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        state = ((((seed_hi << 64) | seed_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _stream_tags(profile: DetectorProfile, image: AnnotatedImage):
    """Tags of the RNG streams ``detect`` draws from for ``image``."""
    if image.objects:
        return range(len(image.objects))
    return ("negfp",) if profile.negative_fp_rate > 0.0 else ()


def _stream_states(handle: DetectorHandle, images: Sequence[AnnotatedImage]) -> list[tuple]:
    """Per image, the PCG64 state of each stream keyed by (seed, image id, tag)."""
    digests, counts = [], []
    for img in images:
        tags = _stream_tags(handle.profile, img)
        counts.append(len(tags))
        for tag in tags:
            key = f"{handle.seed}|{img.id}|{tag}".encode("utf-8")
            digests.append(hashlib.blake2b(key, digest_size=16).digest())
    flat = _pcg64_states(b"".join(digests))
    out, pos = [], 0
    for n in counts:
        out.append(tuple(flat[pos : pos + n]))
        pos += n
    return out


def prepare(handle: DetectorHandle, images: Iterable[AnnotatedImage]) -> DetectorHandle:
    """The handle with the RNG streams of ``images`` seeded in one pass.

    ``detect`` gives the same detections on the returned handle as on
    ``handle``, only faster; an image it was not prepared for is seeded
    when it is detected.
    """
    images = tuple(images)
    keys = [(img.id, len(img.objects)) for img in images]
    return dataclasses.replace(handle, streams=dict(zip(keys, _stream_states(handle, images))))


_thread = threading.local()


def _thread_generator() -> tuple[np.random.PCG64, np.random.Generator]:
    """This thread's PCG64 and the Generator drawing from it; every stream
    sets the state before its first draw."""
    try:
        return _thread.generator
    except AttributeError:
        bitgen = np.random.PCG64(0)
        _thread.generator = (bitgen, np.random.Generator(bitgen))
        return _thread.generator


def _set_stream(bitgen: np.random.PCG64, state: tuple[int, int]) -> None:
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _draw_from_table(rng: np.random.Generator, labels, cum: list[float]) -> str | None:
    u = rng.random()
    idx = bisect.bisect_right(cum, u)
    if idx >= len(labels):
        return None  # remainder mass = miss
    return labels[idx]


def _noisy_box(
    rng: np.random.Generator, box: BoundingBox, sigma: float, width: float, height: float
) -> BoundingBox:
    if sigma == 0.0:
        return box
    # plain floats: the same doubles, cheaper arithmetic downstream
    nx, ny, nw, nh = rng.normal(0.0, sigma, 4).tolist()
    w = min(max(box.w + nw, _MIN_EXTENT), width)
    h = min(max(box.h + nh, _MIN_EXTENT), height)
    x = min(max(box.x + nx, 0.0), width - w)
    y = min(max(box.y + ny, 0.0), height - h)
    return BoundingBox(x, y, w, h)


def detect(handle: DetectorHandle, image: AnnotatedImage) -> list[Detection]:
    """Run one simulated detector on one image.

    A pure function of (profile, seed, image): each object draws from its
    own stream, so the result does not depend on call order, and calls
    from several threads are safe (each thread has its own generator).
    """
    profile = handle.profile
    states = handle.streams.get((image.id, len(image.objects))) if handle.streams else None
    if states is None:
        states = _stream_states(handle, (image,))[0]
    bitgen, rng = _thread_generator()
    dets: list[Detection] = []
    law = profile.confidence_law
    if image.objects:
        for idx, obj in enumerate(image.objects):
            table = profile._row_tables.get(obj.fine_label)
            if table is None:
                continue  # unknown object class: this detector never fires
            _set_stream(bitgen, states[idx])
            label = _draw_from_table(rng, *table)
            if label is None:
                continue
            box = _noisy_box(rng, obj.box, profile.loc_noise_sigma, image.width, image.height)
            correct = label == profile.correct_target(obj.fine_label)
            conf = law.sample(rng, correct)
            dets.append(Detection(box=box, label=label, confidence=conf))
    elif states:
        _set_stream(bitgen, states[0])
        if rng.random() < profile.negative_fp_rate:
            labels, cum = profile._fp_table
            label = _draw_from_table(rng, labels, cum)
            if label is not None:
                w = rng.uniform(1.0, image.width)
                h = rng.uniform(1.0, image.height)
                x = rng.uniform(0.0, image.width - w)
                y = rng.uniform(0.0, image.height - h)
                conf = law.sample(rng, correct=False)
                dets.append(Detection(box=BoundingBox(x, y, w, h), label=label, confidence=conf))
    return dets


def derive_general_profile(
    fine_profile: DetectorProfile, taxonomy: ClassTaxonomy
) -> DetectorProfile:
    """Collapse a fine-grained profile onto general classes.

    Confusion mass between fine classes of the same general lands on the
    diagonal (the union absorbs within-class confusion); cross-general
    confusion survives. Member rows are averaged uniformly, assuming
    similar per-class object counts.
    """
    for label in fine_profile.label_space:
        if not taxonomy.is_fine(label):
            raise UnknownLabelError(f"emitted label {label!r} is not a fine label")
    rows_by_general: dict[str, list[Mapping[str, float]]] = {}
    for true, row in fine_profile.confusion.items():
        if not taxonomy.is_fine(true):
            raise UnknownLabelError(f"confusion row key {true!r} is not a fine label")
        rows_by_general.setdefault(taxonomy.general_of(true), []).append(row)

    label_space = tuple(
        g for g in taxonomy.generals
        if any(taxonomy.general_of(l) == g for l in fine_profile.label_space)
    )
    confusion: dict[str, dict[str, float]] = {}
    for g in taxonomy.generals:
        member_rows = rows_by_general.get(g)
        if not member_rows:
            continue
        acc: dict[str, float] = {}
        for row in member_rows:
            for emitted, p in row.items():
                tgt = taxonomy.general_of(emitted)
                acc[tgt] = acc.get(tgt, 0.0) + p
        confusion[g] = {tgt: p / len(member_rows) for tgt, p in acc.items()}

    fp_dist = None
    if fine_profile.fp_label_dist is not None:
        fp_dist = {}
        for label, p in fine_profile.fp_label_dist.items():
            tgt = taxonomy.general_of(label)
            fp_dist[tgt] = fp_dist.get(tgt, 0.0) + p
    return DetectorProfile(
        label_space=label_space,
        confusion=confusion,
        negative_fp_rate=fine_profile.negative_fp_rate,
        fp_label_dist=fp_dist,
        loc_noise_sigma=fine_profile.loc_noise_sigma,
        confidence_law=fine_profile.confidence_law,
    )
