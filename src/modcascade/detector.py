"""Detector abstraction: a seeded statistical simulator.

The simulator stands in for trained networks: the stage-1 general-class
detector, each stage-2 fine-grained detector and the flat baseline.
Each ground-truth object gets its own RNG stream keyed by (seed, image
id, object index), so detection is a pure function of (profile, seed,
image): bit-identical results regardless of call order or thread.

``detect`` draws a stream with numpy's ``Generator``, one object at a
time: the scalar path, and the reference. ``prepare`` makes the same
draws for a whole detector pass at once. It seeds every stream, steps
its PCG64 state and replays numpy's C transforms (uniform, the ziggurat
normal's fast path, Marsaglia-Tsang's gamma on its first trial) on
integer and float arrays, bit for bit. A stream whose draws leave those
paths keeps its seeded state for the scalar path. ``prepare`` returns
each image's outcomes in image order, and ``detect_all`` hands them to
``detect`` image by image; neither changes a result. The replicas
assume numpy's C rounds each operation on its own (no fused
multiply-add); the tests compare them with the installed numpy.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import threading
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._ziggurat import KI_DOUBLE, WI_DOUBLE
from .core import AnnotatedImage, BoundingBox, Detection, check_int, check_number
from .errors import UnknownLabelError, ValidationError

_ROW_TOL = 1e-9
_MIN_EXTENT = 1e-3


@dataclass(frozen=True)
class ConfidenceLaw:
    """Confidence distribution conditioned on label correctness.

    Beta-shaped with the given mean and a spread parameter interpreted
    as a target standard deviation; spread 0 degenerates to the mean. A
    mean so small that a Beta shape rounds to 0 is invalid.
    """

    mean_correct: float = 0.9
    mean_wrong: float = 0.6
    spread: float = 0.08

    def validate(self) -> None:
        check_number(self.mean_correct, "confidence mean_correct", at_least=0, at_most=1)
        check_number(self.mean_wrong, "confidence mean_wrong", at_least=0, at_most=1)
        check_number(self.spread, "confidence spread", at_least=0)
        # below this, spread**2 underflows and the Beta's concentration is infinite
        if 0.0 < self.spread < 1e-150:
            raise ValidationError("confidence spread must be 0 or at least 1e-150")
        for correct, which in ((True, "mean_correct"), (False, "mean_wrong")):
            for shape in self.beta_shapes(correct) or ():
                check_number(shape, f"Beta shape of confidence {which}", above=0)

    def beta_shapes(self, correct: bool) -> tuple[float, float] | None:
        """Shapes ``(a, b)`` of the Beta law a confidence is drawn from, or
        None when the confidence is the mean itself (spread 0, mean 0 or 1)."""
        mean = self.mean_correct if correct else self.mean_wrong
        if self.spread == 0.0 or mean in (0.0, 1.0):
            return None
        conc = max(mean * (1.0 - mean) / (self.spread * self.spread) - 1.0, 1e-3)
        return mean * conc, (1.0 - mean) * conc

    def sample(self, rng: np.random.Generator, correct: bool) -> float:
        shapes = self.beta_shapes(correct)
        if shapes is None:
            return self.mean_correct if correct else self.mean_wrong
        return float(rng.beta(*shapes))


def _sampling_table(dist: Mapping[str, float]) -> tuple[tuple[str, ...], list[float]]:
    """The labels of ``dist`` and their cumulative probabilities, as a
    plain-float list searched with bisect."""
    labels = tuple(dist)
    return labels, np.cumsum(np.array([dist[l] for l in labels], dtype=np.float64)).tolist()


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
        # sampling tables, precomputed once
        tables = {true: _sampling_table(row) for true, row in self.confusion.items()}
        object.__setattr__(self, "_row_tables", tables)
        uniform = dict.fromkeys(self.label_space, 1.0 / len(self.label_space))
        object.__setattr__(self, "_fp_table", _sampling_table(self.fp_label_dist or uniform))

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
                try:
                    total += check_number(p, "probability", at_least=0)
                except ValidationError as exc:
                    raise ValidationError(
                        f"confusion row {true!r} has a negative or non-finite entry: {exc}"
                    ) from None
            if total > 1.0 + _ROW_TOL:
                raise ValidationError(f"confusion row {true!r} sums to {total} > 1")
        check_number(self.negative_fp_rate, "negative_fp_rate", at_least=0, at_most=1)
        if self.fp_label_dist is not None:
            for label, p in self.fp_label_dist.items():
                check_number(p, f"fp_label_dist {label!r}", at_least=0)
            if abs(sum(self.fp_label_dist.values()) - 1.0) > _ROW_TOL:
                raise ValidationError("fp_label_dist must sum to 1")
            if any(l not in space for l in self.fp_label_dist):
                raise ValidationError("fp_label_dist emits outside the label space")
        check_number(self.loc_noise_sigma, "loc_noise_sigma", at_least=0)
        if self.correct_for is not None:
            if not isinstance(self.correct_for, Mapping):
                raise ValidationError("correct_for must map true labels to emitted labels")
            for true, label in self.correct_for.items():
                # a tuple test: a label may be any JSON value, hashable or not
                if label not in self.label_space:
                    raise ValidationError(
                        f"correct_for maps {true!r} to {label!r} outside the label space"
                    )
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
            "confidence_law": asdict(self.confidence_law),
        }
        if self.fp_label_dist is not None:
            out["fp_label_dist"] = dict(self.fp_label_dist)
        if self.correct_for is not None:
            out["correct_for"] = dict(self.correct_for)
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "DetectorProfile":
        """Build and validate a profile, each number through ``core.check_number``;
        a malformed document is a ValidationError."""
        try:
            law = obj.get("confidence_law", {})
            label_space, confusion = obj["label_space"], obj["confusion"]
            # a string is iterable too, and a list of pairs converts to a dict
            if not isinstance(label_space, list):
                raise ValidationError("malformed detector profile: label_space is not a list")
            if not all(isinstance(r, Mapping) for r in confusion.values()):
                raise ValidationError("malformed detector profile: confusion row not an object")
            return cls(
                label_space=tuple(label_space),
                confusion={t: dict(r) for t, r in confusion.items()},
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

    profile: DetectorProfile
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.profile, DetectorProfile):
            raise ValidationError("detector handle needs a DetectorProfile")
        check_int(self.seed, "detector handle seed")

    @classmethod
    def simulated(cls, profile: DetectorProfile, seed: int) -> "DetectorHandle":
        return cls(profile=profile, seed=seed)


# numpy's SeedSequence (NEP 19): pool of four 32-bit words, hash
# constants and multipliers, and the PCG64 LCG multiplier (O'Neill 2014)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# 64-bit words and 32-bit limbs of the multiplier, and the shift counts
# and masks of the 128-bit arithmetic on (high, low) uint64 words
_U64 = np.uint64
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & (2**64 - 1))
_MULT_LO_L32, _MULT_LO_H32 = _U64(_PCG_MULT & 0xFFFFFFFF), _U64((_PCG_MULT >> 32) & 0xFFFFFFFF)
_LOW32, _MANTISSA = _U64(0xFFFFFFFF), _U64(2**52 - 1)
_1, _8, _11, _32, _58, _63, _64 = (_U64(k) for k in (1, 8, 11, 32, 58, 63, 64))


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


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 step, ``state * M + inc mod 2**128``, on (high, low) words.

    The high word of ``lo * M_lo`` comes from 32-bit limbs, whose
    products fit in 64 bits; uint64 arrays wrap mod 2**64.
    """
    a0, a1 = lo & _LOW32, lo >> _32
    p00, p01 = a0 * _MULT_LO_L32, a0 * _MULT_LO_H32
    p10, p11 = a1 * _MULT_LO_L32, a1 * _MULT_LO_H32
    mid = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry_mul = p11 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    new_lo = lo * _MULT_LO + inc_lo
    carry_add = (new_lo < inc_lo).astype(np.uint64)
    return carry_mul + hi * _MULT_LO + lo * _MULT_HI + inc_hi + carry_add, new_lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of each state: ``rotr64(hi ^ lo, hi >> 58)``."""
    x = hi ^ lo
    rot = hi >> _58
    return (x >> rot) | (x << ((_64 - rot) & _63))


def _seeded(entropy: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 state and increment seeded from each 16-byte little-endian
    entropy, as uint64 arrays ``(state_hi, state_lo, inc_hi, inc_lo)``.

    Equals ``np.random.PCG64(e).state["state"]`` for every entropy
    ``e < 2**128``, computed for all of them at once. SeedSequence hashes
    an entropy of fewer than four 32-bit words as if padded with zero
    words, so every entropy here is four words. PCG64 then takes the
    128-bit seed and stream from ``generate_state(4, uint64)`` and makes
    the two setseq steps: ``inc = stream << 1 | 1`` and
    ``state = (seed + inc) * M + inc``.
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
    seed_hi, seed_lo, seq_hi, seq_lo = out.astype("<u4", order="C").view("<u8").T
    inc_hi = (seq_hi << _1) | (seq_lo >> _63)
    inc_lo = (seq_lo << _1) | _1
    lo = seed_lo + inc_lo
    hi = seed_hi + inc_hi + (lo < inc_lo).astype(np.uint64)
    return (*_lcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _as_ints(hi, lo, inc_hi, inc_lo) -> list[tuple[int, int]]:
    """Python-int ``(state, inc)`` pairs of uint64 word arrays."""
    return [
        (h << 64 | l, ih << 64 | il)
        for h, l, ih, il in zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
    ]


def _pcg64_states(entropy: bytes) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded from each 16-byte little-endian entropy."""
    with np.errstate(over="ignore"):
        return _as_ints(*_seeded(entropy))


def _stream_tags(profile: DetectorProfile, image: AnnotatedImage):
    """Tags of the RNG streams ``detect`` draws from for ``image``: one
    per object, or on an image without objects one ``negfp`` stream when
    ``negative_fp_rate > 0``."""
    if image.objects:
        return range(len(image.objects))
    return ("negfp",) if profile.negative_fp_rate > 0.0 else ()


def _stream_keys(profile: DetectorProfile, seed: int, image: AnnotatedImage) -> list[bytes]:
    """The 16-byte entropy of each stream of ``image``: the blake2b digest
    of "seed|image id|tag", hashed as the image's prefix, then each tag."""
    prefix = hashlib.blake2b(f"{seed}|{image.id}|".encode("utf-8"), digest_size=16)
    keys = []
    for tag in _stream_tags(profile, image):
        key = prefix.copy()
        key.update(str(tag).encode("ascii"))
        keys.append(key.digest())
    return keys


def _stream_states(handle: DetectorHandle, image: AnnotatedImage) -> tuple:
    """The PCG64 state of each stream of ``image``."""
    return tuple(_pcg64_states(b"".join(_stream_keys(handle.profile, handle.seed, image))))


# ---------------------------------------------------- batched draws
#
# Replicas of numpy's C (numpy/random/src/distributions/distributions.c)
# on arrays: next_double, the fast path of the ziggurat standard normal,
# and Marsaglia-Tsang's gamma for shape > 1 on its first trial. Each
# gives its value and whether the draw stayed on the path it replays; a
# stream with any draw off that path goes to the scalar code.

_WI = np.array(WI_DOUBLE, dtype=np.float64)
_KI = np.array(KI_DOUBLE, dtype=np.uint64)

# streams drawn per batch; bounds the transient arrays and lists (at
# 4,096 the crowded benchmark's peak RSS grew by 0.6 MB more, at no gain)
_CHUNK = 2048
# row codes of a stream: the one stream of a negative image, and an
# object whose class has no confusion row (it never fires)
_NEGFP, _NO_ROW = -1, -2
# slot kinds: a miss; a detection with a fixed confidence, with a Beta
# confidence drawn in the batch, or with one left to the scalar path
_MISS, _FIXED, _BETA, _SCALAR = 0, 1, 2, 3


def _uniform(r: np.ndarray) -> np.ndarray:
    """``next_double``: the top 53 bits of each output, times 2**-53."""
    return (r >> _11).astype(np.float64) * (1.0 / 9007199254740992.0)


def _std_normal(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ziggurat standard normal of each output, and whether it
    returns at once (``rabs < ki[idx]``) instead of entering a wedge or
    the tail, which draw again."""
    idx = (r & _U64(0xFF)).astype(np.intp)
    r = r >> _8
    rabs = (r >> _1) & _MANTISSA
    x = rabs.astype(np.float64) * _WI[idx]
    return np.where((r & _1).astype(bool), -x, x), rabs < _KI[idx]


def _std_gamma(b: np.ndarray, c: np.ndarray, r_normal: np.ndarray, r_uniform: np.ndarray):
    """Marsaglia-Tsang's standard gamma of shape ``b + 1/3`` (``c`` is
    ``1 / sqrt(9 b)``) from one normal and one uniform draw, and whether
    it accepts on them. The log test, which the squeeze rarely leaves to,
    runs element by element with ``math.log``: the C library's ``log``
    that numpy's C calls too."""
    x, ok = _std_normal(r_normal)
    v = 1.0 + c * x
    ok &= v > 0.0
    v = v * v * v
    u = _uniform(r_uniform)
    xx = x * x
    rejected = ok & ~(u < 1.0 - 0.0331 * xx * xx)
    for i in np.flatnonzero(rejected).tolist():
        X, U, V, B = float(x[i]), float(u[i]), float(v[i]), float(b[i])
        # U == 0 would be log(0) = -inf, which C accepts; left to the scalar path
        ok[i] = U > 0.0 and math.log(U) < 0.5 * X * X + B * (1.0 - V + math.log(V))
    return b * v, ok


class _Slots:
    """A profile's draw tables for the batch.

    Slot 0 stands for every stream without a row. Each confusion row
    then owns one slot per emitted label plus one for the miss, in row
    order, so a stream's slot is its row's offset plus ``bisect_right``
    of its uniform in the row's cumulative sums.
    """

    def __init__(self, profile: DetectorProfile):
        law = profile.confidence_law
        self.row_of: dict[str, int] = {}
        self.rows: list[tuple[int, np.ndarray]] = []  # (first slot, cumulative sums)
        labels, kinds, fixed, gamma = [None], [_MISS], [None], [(1.0, 0.0, 1.0, 0.0)]
        for r, (true, (row_labels, cum)) in enumerate(profile._row_tables.items()):
            self.row_of[true] = r
            self.rows.append((len(labels), np.array(cum, dtype=np.float64)))
            target = profile.correct_target(true)
            for label in (*row_labels, None):
                labels.append(label)
                kind, conf, params = _MISS, None, (1.0, 0.0, 1.0, 0.0)
                if label is not None:
                    correct = label == target
                    shapes = law.beta_shapes(correct)
                    if shapes is None:
                        kind, conf = _FIXED, law.mean_correct if correct else law.mean_wrong
                    elif shapes[0] > 1.0 and shapes[1] > 1.0:
                        kind = _BETA
                        ba, bb = shapes[0] - 1.0 / 3.0, shapes[1] - 1.0 / 3.0
                        params = (ba, 1.0 / math.sqrt(9 * ba), bb, 1.0 / math.sqrt(9 * bb))
                    else:
                        kind = _SCALAR  # Johnk's algorithm or a gamma of shape <= 1
                kinds.append(kind)
                fixed.append(conf)
                gamma.append(params)
        self.labels = labels
        self.fixed = fixed
        self.kinds = np.array(kinds, dtype=np.int8)
        self.gamma = np.array(gamma, dtype=np.float64)
        self.has_beta = _BETA in kinds


def _draw_batch(
    profile: DetectorProfile, slots: _Slots, rows: list[int], entropy: bytes,
    objects: list, dims: np.ndarray,
) -> list:
    """One outcome per stream: a Detection, None, or the stream's
    ``(state, inc)`` when it leaves the replicated paths.

    ``rows`` holds each stream's row (or ``_NEGFP``/``_NO_ROW``),
    ``objects`` its ground-truth object, ``dims`` its image's width and
    height. Draw ``j`` comes from the state stepped ``j`` times: one
    uniform for the label, four normals for the box when sigma is not
    0, then Beta's two gammas, one normal and one uniform each.
    """
    sigma = profile.loc_noise_sigma
    rows = np.array(rows, dtype=np.intp)
    hi, lo, inc_hi, inc_lo = _seeded(entropy)
    state_hi, state_lo = hi, lo
    raw = []
    for _ in range(1 + 4 * (sigma != 0.0) + 4 * slots.has_beta):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        raw.append(_xsl_rr(hi, lo))

    u = _uniform(raw[0])
    slot = np.zeros(len(rows), dtype=np.intp)
    for r, (first, cum) in enumerate(slots.rows):
        mask = rows == r
        slot[mask] = first + np.searchsorted(cum, u[mask], side="right")
    kind = slots.kinds[slot]
    ok = (kind == _FIXED) | (kind == _BETA)
    if sigma != 0.0:
        noise = []
        for r in raw[1:5]:
            x, fast = _std_normal(r)
            ok &= fast
            noise.append(0.0 + sigma * x)
    conf = np.zeros(len(rows))
    if slots.has_beta:
        first = 1 + 4 * (sigma != 0.0)
        beta = np.flatnonzero(kind == _BETA)
        ba, ca, bb, cb = slots.gamma[slot[beta]].T
        ga, ok_a = _std_gamma(ba, ca, raw[first][beta], raw[first + 1][beta])
        gb, ok_b = _std_gamma(bb, cb, raw[first + 2][beta], raw[first + 3][beta])
        ok[beta] &= ok_a & ok_b
        conf[beta] = ga / (ga + gb)

    det = np.flatnonzero(ok)
    det_list = det.tolist()
    det_slots = slot[det].tolist()
    confs = conf[det].tolist()
    for j in np.flatnonzero(kind[det] == _FIXED).tolist():
        confs[j] = slots.fixed[det_slots[j]]
    boxes = [objects[i].box for i in det_list]
    if sigma != 0.0 and boxes:
        bx = np.array([b.x for b in boxes], np.float64)
        by = np.array([b.y for b in boxes], np.float64)
        bw = np.array([b.w for b in boxes], np.float64)
        bh = np.array([b.h for b in boxes], np.float64)
        width, height = dims[det].T
        nx, ny, nw, nh = (n[det] for n in noise)
        w = _min(_max(bw + nw, _MIN_EXTENT), width)
        h = _min(_max(bh + nh, _MIN_EXTENT), height)
        x = _min(_max(bx + nx, 0.0), width - w)
        y = _min(_max(by + ny, 0.0), height - h)
        boxes = list(map(BoundingBox, x.tolist(), y.tolist(), w.tolist(), h.tolist()))
    labels = list(map(slots.labels.__getitem__, det_slots))

    out: list = [None] * len(rows)
    for i, d in zip(det_list, map(Detection, boxes, labels, confs)):
        out[i] = d
    scalar = np.flatnonzero((rows == _NEGFP) | ((kind != _MISS) & ~ok))
    states = _as_ints(state_hi[scalar], state_lo[scalar], inc_hi[scalar], inc_lo[scalar])
    for i, state in zip(scalar.tolist(), states):
        out[i] = state
    return out


def _max(a: np.ndarray, b) -> np.ndarray:
    """Python's ``max(a, b)`` per element: ``b`` only when ``b > a``, so a
    signed zero comes out as ``max`` gives it."""
    return np.where(b > a, b, a)


def _min(a: np.ndarray, b) -> np.ndarray:
    """Python's ``min(a, b)`` per element: ``b`` only when ``b < a``."""
    return np.where(b < a, b, a)


def prepare(handle: DetectorHandle, images: Sequence[AnnotatedImage]) -> list[tuple]:
    """Per image of ``images``, in order, the outcome of each of its streams:
    a Detection, None for no detection, or the PCG64 ``(state, inc)`` of a
    stream left to the scalar path.

    Every stream of the batch is seeded, stepped and transformed on
    arrays, ``_CHUNK`` streams at a time, with the draws ``detect``
    would make. The few streams whose draws leave the replicated fast
    paths (a ziggurat wedge or tail, a gamma that needs a second trial,
    a Beta shape <= 1, a negative image's spurious detection) keep their
    seeded state and are drawn by the scalar path when detected. So does
    every stream of an image whose width or height is not a float, since
    ``min`` would put that value in a box as it is. ``detect`` gives the
    same detections with an image's entry as without it, only faster.
    """
    profile, seed = handle.profile, handle.seed
    slots = _Slots(profile)
    out: list = []
    batch: list[int] = []  # positions in ``out`` of the images not yet drawn
    count = 0
    with np.errstate(over="ignore"):
        for img in images:
            if type(img.width) is not float or type(img.height) is not float:
                out.append(_stream_states(handle, img))
                continue
            batch.append(len(out))
            out.append(None)
            count += len(_stream_tags(profile, img))
            if count >= _CHUNK:
                _prepare_batch(profile, seed, slots, images, batch, out)
                batch, count = [], 0
        if batch:
            _prepare_batch(profile, seed, slots, images, batch, out)
    return out


def _prepare_batch(profile, seed, slots: _Slots, images, batch, out: list) -> None:
    """Draw the streams of the images at positions ``batch`` into ``out``."""
    images = [images[k] for k in batch]
    row_of = slots.row_of
    rows, digests, objects, dims, counts = [], [], [], [], []
    for img in images:
        keys = _stream_keys(profile, seed, img)
        digests.extend(keys)
        if img.objects:
            rows.extend([row_of.get(obj.fine_label, _NO_ROW) for obj in img.objects])
            objects.extend(img.objects)
        else:
            rows.extend([_NEGFP] * len(keys))
            objects.extend([None] * len(keys))
        dims.extend([(img.width, img.height)] * len(keys))
        counts.append(len(keys))
    outcomes = _draw_batch(
        profile, slots, rows, b"".join(digests), objects,
        np.array(dims, dtype=np.float64).reshape(-1, 2),
    )
    pos = 0
    for k, n in zip(batch, counts):
        out[k] = tuple(outcomes[pos : pos + n])
        pos += n


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


def _detect_object(
    profile: DetectorProfile, image: AnnotatedImage, obj, state: tuple[int, int]
) -> Detection | None:
    """The scalar path: one object's draws from its stream, made by
    numpy's Generator; the reference the batch reproduces."""
    table = profile._row_tables.get(obj.fine_label)
    if table is None:
        return None  # unknown object class: this detector never fires
    bitgen, rng = _thread_generator()
    _set_stream(bitgen, state)
    label = _draw_from_table(rng, *table)
    if label is None:
        return None
    box = _noisy_box(rng, obj.box, profile.loc_noise_sigma, image.width, image.height)
    correct = label == profile.correct_target(obj.fine_label)
    return Detection(box=box, label=label, confidence=profile.confidence_law.sample(rng, correct))


def _negative_fp(
    profile: DetectorProfile, image: AnnotatedImage, state: tuple[int, int]
) -> Detection | None:
    """A negative image's spurious detection, if its stream draws one."""
    bitgen, rng = _thread_generator()
    _set_stream(bitgen, state)
    if rng.random() >= profile.negative_fp_rate:
        return None
    labels, cum = profile._fp_table
    label = _draw_from_table(rng, labels, cum)
    if label is None:
        return None
    w = rng.uniform(1.0, image.width)
    h = rng.uniform(1.0, image.height)
    x = rng.uniform(0.0, image.width - w)
    y = rng.uniform(0.0, image.height - h)
    conf = profile.confidence_law.sample(rng, correct=False)
    return Detection(box=BoundingBox(x, y, w, h), label=label, confidence=conf)


def detect(
    handle: DetectorHandle, image: AnnotatedImage, prepared: tuple | None = None
) -> list[Detection]:
    """Run one simulated detector on one image.

    A pure function of (profile, seed, image): each object draws from its
    own stream, so the result does not depend on call order, and calls
    from several threads are safe (each thread has its own generator).
    ``prepared`` is the image's entry of ``prepare``: its detections are
    taken as they are, and only the streams left to the scalar path draw
    here. Without it, every stream of the image is seeded and drawn here.
    """
    outcomes = _stream_states(handle, image) if prepared is None else prepared
    profile = handle.profile
    if not image.objects:
        det = _negative_fp(profile, image, outcomes[0]) if outcomes else None
        return [] if det is None else [det]
    dets: list[Detection] = []
    for obj, out in zip(image.objects, outcomes):
        if type(out) is tuple:
            out = _detect_object(profile, image, obj, out)
        if out is not None:
            dets.append(out)
    return dets


def detect_all(
    handle: DetectorHandle, images: Sequence[AnnotatedImage]
) -> list[tuple[Detection, ...]]:
    """One detector pass: ``prepare`` once, then ``detect`` on each image
    with its entry, in order; one tuple of detections per image."""
    return [
        tuple(detect(handle, img, found))
        for img, found in zip(images, prepare(handle, images), strict=True)
    ]
