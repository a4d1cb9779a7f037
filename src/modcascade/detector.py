"""Detector abstraction: a seeded statistical simulator.

The simulator stands in for trained networks: the stage-1 general-class
detector, each stage-2 fine-grained detector and the flat baseline.
Each ground-truth object gets its own RNG stream keyed by (seed, image
id, object index), so detection is a pure function of (profile, seed,
image): bit-identical results regardless of call order or thread.

Both draw paths read one draw table, compiled with the profile.
``detect`` draws a stream with numpy's ``Generator``, one object at a
time: the scalar path, and the reference. ``prepare`` makes the same
draws for a whole detector pass, in one walk over its images and a
batch per ``_CHUNK`` streams. It seeds every stream, steps its PCG64
state and replays numpy's C transforms (uniform, the ziggurat normal's
fast path, Marsaglia-Tsang's gamma on its first trial) on integer and
float arrays, bit for bit. A stream whose draws leave those paths is
drawn by the scalar path, in the same batch. ``prepare`` returns each
image's final detections in image order, and ``detect_all`` hands them
to ``detect``, which returns them as they are. The replicas assume
numpy's C rounds each operation on its own (no fused multiply-add); the
tests compare them with the installed numpy.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import threading
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from ._ziggurat import KI_DOUBLE, WI_DOUBLE
from .core import AnnotatedImage, BoundingBox, Detection, check_int, check_number, read_object
from .errors import ValidationError

_ROW_TOL = 1e-9
_MIN_EXTENT = 1e-3


@dataclass(frozen=True)
class ConfidenceLaw:
    """Confidence distribution conditioned on label correctness.

    Beta-shaped with the given mean and a spread parameter interpreted
    as a target standard deviation; spread 0 degenerates to the mean.
    Otherwise both Beta shapes must be finite and > 0, and so must their
    sum: a mean so small that a shape rounds to 0, or a spread so small
    that a shape overflows, is invalid.
    """

    mean_correct: float = 0.9
    mean_wrong: float = 0.6
    spread: float = 0.08

    def validate(self) -> None:
        check_number(self.mean_correct, "confidence mean_correct", at_least=0, at_most=1)
        check_number(self.mean_wrong, "confidence mean_wrong", at_least=0, at_most=1)
        check_number(self.spread, "confidence spread", at_least=0)
        if self.spread > 0.0 and self.spread * self.spread == 0.0:
            raise ValidationError(f"confidence spread {self.spread!r} squares to 0")
        for correct, which in ((True, "mean_correct"), (False, "mean_wrong")):
            shapes = self.beta_shapes(correct)
            if shapes is not None:
                a, b = shapes
                name = f"Beta shape of confidence {which} at spread {self.spread!r}:"
                # each draw path divides a gamma by the sum of two
                for value in (a, b, a + b):
                    check_number(value, name, above=0)

    def beta_shapes(self, correct: bool) -> tuple[float, float] | None:
        """Shapes ``(a, b)`` of the Beta law a confidence is drawn from, or
        None when the confidence is the mean itself (spread 0, mean 0 or 1)."""
        # a float spread: the square of a large integer one does not convert to a double
        mean, spread = self.mean_correct if correct else self.mean_wrong, float(self.spread)
        if spread == 0.0 or mean in (0.0, 1.0):
            return None
        conc = max(mean * (1.0 - mean) / (spread * spread) - 1.0, 1e-3)
        return mean * conc, (1.0 - mean) * conc


@dataclass(frozen=True)
class DetectorProfile:
    """Generative model of one detector's behavior.

    Attributes:
        label_space: ordered labels this detector can emit.
        confusion: true (ground-truth) label -> {emitted label: prob};
            the miss probability is the remainder 1 - sum(row). True
            labels absent from the map are invisible to this detector.
        negative_fp_rate: per negative image, probability of one
            spurious detection, its label uniform over label_space.
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
    loc_noise_sigma: float = 0.0
    confidence_law: ConfidenceLaw = field(default_factory=ConfidenceLaw)
    correct_for: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_space", tuple(self.label_space))
        self.validate()
        object.__setattr__(self, "_table", _DrawTable(self))

    def validate(self) -> None:
        if not self.label_space:
            raise ValidationError("empty label space")
        for label in self.label_space:  # checked before it is hashed: a list is unhashable
            if not isinstance(label, str):
                raise ValidationError(f"label_space label {label!r} is not a string")
        space = set(self.label_space)
        if len(space) != len(self.label_space):
            raise ValidationError(
                f"malformed detector profile: label_space {list(self.label_space)} repeats a label"
            )
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

    def to_json(self) -> dict:
        out: dict = {
            "label_space": list(self.label_space),
            "confusion": {t: dict(r) for t, r in self.confusion.items()},
            "negative_fp_rate": self.negative_fp_rate,
            "loc_noise_sigma": self.loc_noise_sigma,
            "confidence_law": asdict(self.confidence_law),
        }
        if self.correct_for is not None:
            out["correct_for"] = dict(self.correct_for)
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "DetectorProfile":
        """Build and validate a profile. ``confusion`` and ``confidence_law``
        are read by ``core.read_object``, each number by ``core.check_number``;
        every malformed field is a ValidationError that names it."""
        path = "malformed detector profile: "
        if not isinstance(obj, Mapping):
            raise ValidationError(f"{path}not an object")
        confusion = read_object(obj, "confusion", path=path)
        law = read_object(obj, "confidence_law", {}, path=path)
        label_space = obj.get("label_space")
        # a string is iterable too, and a list of pairs converts to a dict
        if not isinstance(label_space, list):
            raise ValidationError(f"{path}label_space is not a list")
        if not all(isinstance(r, Mapping) for r in confusion.values()):
            raise ValidationError(f"{path}confusion row not an object")
        # only the fields present: each default lives in its dataclass alone
        optional = ("negative_fp_rate", "loc_noise_sigma", "correct_for")
        law_keys = ("mean_correct", "mean_wrong", "spread")
        return cls(
            label_space=tuple(label_space),
            confusion={t: dict(r) for t, r in confusion.items()},
            confidence_law=ConfidenceLaw(**{k: law[k] for k in law_keys if k in law}),
            **{k: obj[k] for k in optional if k in obj},
        )


@dataclass(frozen=True)
class DetectorHandle:
    """Reference to a simulated detector: its profile and seed."""

    profile: DetectorProfile
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.profile, DetectorProfile):
            raise ValidationError("detector handle needs a DetectorProfile")
        check_int(self.seed, "detector handle seed")


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


def _stream_keys(profile: DetectorProfile, seed: int, image: AnnotatedImage) -> list[bytes]:
    """The 16-byte entropy of each stream ``detect`` draws from for ``image``
    (one per object, or without objects one ``negfp`` stream when
    ``negative_fp_rate > 0``): the blake2b digest of "seed|image id|tag"."""
    if not image.objects and profile.negative_fp_rate == 0.0:
        return []
    tags = range(len(image.objects)) if image.objects else ("negfp",)
    prefix = hashlib.blake2b(f"{seed}|{image.id}|".encode("utf-8"), digest_size=16)
    keys = []
    for tag in tags:
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
_NO_GAMMA = (1.0, 0.0, 1.0, 0.0)  # gamma parameters of a slot with no Beta in the batch


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


class _DrawTable:
    """A profile's confusion rows as slots, read by both draw paths.

    Slot 0 stands for every stream without a row. Each confusion row
    then owns one slot per emitted label plus one for the miss, in row
    order, so a stream's slot is its row's first slot plus
    ``bisect_right`` of its label uniform in the row's cumulative sums.
    The last row, ``fp_row``, spreads a negative image's spurious label
    uniformly over the label space, each label counted wrong; it is not
    in ``row_of``, so no true label reaches it.
    """

    def __init__(self, profile: DetectorProfile):
        law, targets, space = profile.confidence_law, profile.correct_for or {}, profile.label_space
        self.row_of: dict[str, int] = {true: r for r, true in enumerate(profile.confusion)}
        self.fp_row = len(self.row_of)
        rows = [(dist, [label == targets.get(true, true) for label in dist])
                for true, dist in profile.confusion.items()]
        rows.append((dict.fromkeys(space, 1.0 / len(space)), [False] * len(space)))
        miss = (None, None, None, _MISS, _NO_GAMMA)
        slots = [miss]
        # (first slot, cumulative sums as a list for bisect and as an array)
        self.rows: list[tuple[int, list[float], np.ndarray]] = []
        for dist, correct in rows:
            cum = np.cumsum(np.array(list(dist.values()), dtype=np.float64))
            self.rows.append((len(slots), cum.tolist(), cum))
            slots.extend((label, *_slot_law(law, right)) for label, right in zip(dist, correct))
            slots.append(miss)
        self.labels, self.fixed, self.shapes, kinds, gamma = map(list, zip(*slots))
        self.kinds = np.array(kinds, dtype=np.int8)
        self.gamma = np.array(gamma, dtype=np.float64)
        # only the confusion rows are drawn in the batch
        self.has_beta = _BETA in kinds[: self.rows[self.fp_row][0]]


def _slot_law(law: ConfidenceLaw, correct: bool) -> tuple:
    """A label slot's fixed confidence, Beta shapes, kind and gamma parameters."""
    shapes = law.beta_shapes(correct)
    if shapes is None:
        return law.mean_correct if correct else law.mean_wrong, None, _FIXED, _NO_GAMMA
    if shapes[0] > 1.0 and shapes[1] > 1.0:
        ba, bb = shapes[0] - 1.0 / 3.0, shapes[1] - 1.0 / 3.0
        return None, shapes, _BETA, (ba, 1.0 / math.sqrt(9 * ba), bb, 1.0 / math.sqrt(9 * bb))
    return None, shapes, _SCALAR, _NO_GAMMA  # Johnk's algorithm or a gamma of shape <= 1


def _draw_batch(
    profile: DetectorProfile, rows: list[int], entropy: bytes, objects: list, dims: np.ndarray
) -> list:
    """Each stream's Detection, or None. A stream whose draws leave the
    replicated paths is drawn here by the scalar ``_draw``.

    ``rows`` holds each stream's row (or ``_NEGFP``/``_NO_ROW``),
    ``objects`` its ground-truth object, ``dims`` its image's width and
    height. Draw ``j`` comes from the state stepped ``j`` times: one
    uniform for the label, four normals for the box when sigma is not
    0, then Beta's two gammas, one normal and one uniform each.
    """
    table, sigma = profile._table, profile.loc_noise_sigma
    rows = np.array(rows, dtype=np.intp)
    hi, lo, inc_hi, inc_lo = _seeded(entropy)
    state_hi, state_lo = hi, lo
    raw = []
    for _ in range(1 + 4 * (sigma != 0.0) + 4 * table.has_beta):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        raw.append(_xsl_rr(hi, lo))

    u = _uniform(raw[0])
    slot = np.zeros(len(rows), dtype=np.intp)
    for r, (first, _, cum) in enumerate(table.rows[: table.fp_row]):
        mask = rows == r
        slot[mask] = first + np.searchsorted(cum, u[mask], side="right")
    kind = table.kinds[slot]
    ok = (kind == _FIXED) | (kind == _BETA)
    if sigma != 0.0:
        noise = []
        for r in raw[1:5]:
            x, fast = _std_normal(r)
            ok &= fast
            noise.append(0.0 + sigma * x)
    conf = np.zeros(len(rows))
    if table.has_beta:
        first = 1 + 4 * (sigma != 0.0)
        beta = np.flatnonzero(kind == _BETA)
        ba, ca, bb, cb = table.gamma[slot[beta]].T
        ga, ok_a = _std_gamma(ba, ca, raw[first][beta], raw[first + 1][beta])
        gb, ok_b = _std_gamma(bb, cb, raw[first + 2][beta], raw[first + 3][beta])
        ok[beta] &= ok_a & ok_b
        conf[beta] = ga / (ga + gb)

    det = np.flatnonzero(ok)
    det_list = det.tolist()
    det_slots = slot[det].tolist()
    confs = conf[det].tolist()
    for j in np.flatnonzero(kind[det] == _FIXED).tolist():
        confs[j] = table.fixed[det_slots[j]]
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
    labels = list(map(table.labels.__getitem__, det_slots))

    out: list = [None] * len(rows)
    for i, d in zip(det_list, map(Detection, boxes, labels, confs)):
        out[i] = d
    scalar = np.flatnonzero((rows == _NEGFP) | ((kind != _MISS) & ~ok))
    states = _as_ints(state_hi[scalar], state_lo[scalar], inc_hi[scalar], inc_lo[scalar])
    for i, (width, height), state in zip(scalar.tolist(), dims[scalar].tolist(), states):
        out[i] = _draw(profile, width, height, objects[i], state)
    return out


def _max(a: np.ndarray, b) -> np.ndarray:
    """Python's ``max(a, b)`` per element: ``b`` only when ``b > a``, so a
    signed zero comes out as ``max`` gives it."""
    return np.where(b > a, b, a)


def _min(a: np.ndarray, b) -> np.ndarray:
    """Python's ``min(a, b)`` per element: ``b`` only when ``b < a``."""
    return np.where(b < a, b, a)


def prepare(handle: DetectorHandle, images: Sequence[AnnotatedImage]) -> list[tuple]:
    """Per image of ``images``, in order, its detections: the same ones
    ``detect(handle, image)`` gives.

    One walk over the images gathers each stream's key, row, object and
    image size. Once the batch holds ``_CHUNK`` streams, and after the
    last image, its streams are drawn together on arrays, with the draws
    ``detect`` would make from the profile's draw table. The few streams
    whose draws leave the replicated fast paths (a ziggurat wedge or tail,
    a gamma that needs a second trial, a Beta shape <= 1, a negative
    image's spurious detection) are drawn within the batch by the scalar
    path. An image without streams gets an empty entry. Both paths take
    an image's width and height as floats.
    """
    profile = handle.profile
    row_of = profile._table.row_of
    out: list = []
    keys, rows, objects, dims, counts = [], [], [], [], []  # the batch; counts per image
    last = len(images) - 1
    with np.errstate(over="ignore"):
        for k, img in enumerate(images):
            found = _stream_keys(profile, handle.seed, img)
            keys += found
            streams = img.objects or (None,) * len(found)  # a negative image's stream has none
            objects += streams
            rows += [_NEGFP if o is None else row_of.get(o.fine_label, _NO_ROW) for o in streams]
            dims += [(img.width, img.height)] * len(found)
            counts.append(len(found))
            if len(keys) >= _CHUNK or k == last:
                sizes = np.array(dims, dtype=np.float64).reshape(-1, 2)
                it = iter(_draw_batch(profile, rows, b"".join(keys), objects, sizes))
                out += [tuple(filter(None, islice(it, n))) for n in counts]
                keys, rows, objects, dims, counts = [], [], [], [], []
    return out


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


def _spurious_box(rng: np.random.Generator, width: float, height: float) -> BoundingBox:
    w = rng.uniform(1.0, width)
    h = rng.uniform(1.0, height)
    x = rng.uniform(0.0, width - w)
    y = rng.uniform(0.0, height - h)
    return BoundingBox(x, y, w, h)


def _draw(
    profile: DetectorProfile, width: float, height: float, obj, state: tuple[int, int]
) -> Detection | None:
    """The scalar path: one stream's draws in a ``width`` x ``height`` image
    from the profile's draw table, made by numpy's Generator; the reference
    the batch reproduces. ``obj`` is None for a negative image's stream,
    whose spurious detection first draws against ``negative_fp_rate``."""
    table = profile._table
    row = table.fp_row if obj is None else table.row_of.get(obj.fine_label)
    if row is None:
        return None  # unknown object class: this detector never fires
    bitgen, rng = _thread_generator()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    if obj is None and rng.random() >= profile.negative_fp_rate:
        return None
    first, cum, _ = table.rows[row]
    idx = bisect.bisect_right(cum, rng.random())
    if idx == len(cum):
        return None  # remainder mass = miss
    if obj is None:
        box = _spurious_box(rng, width, height)
    else:
        box = _noisy_box(rng, obj.box, profile.loc_noise_sigma, width, height)
    slot = first + idx
    shapes = table.shapes[slot]
    conf = table.fixed[slot] if shapes is None else float(rng.beta(*shapes))
    return Detection(box=box, label=table.labels[slot], confidence=conf)


def detect(
    handle: DetectorHandle, image: AnnotatedImage, prepared: tuple | None = None
) -> list[Detection]:
    """Run one simulated detector on one image.

    A pure function of (profile, seed, image): each object draws from its
    own stream, so the result does not depend on call order, and calls
    from several threads are safe (each thread has its own generator).
    ``prepared`` is the image's entry of ``prepare``, its detections,
    which are returned as they are. Without it, every stream of the image
    is seeded and drawn here by the scalar path.
    """
    if prepared is not None:
        return list(prepared)
    width, height = float(image.width), float(image.height)
    # a negative image has one stream without an object, or none
    streams = zip(image.objects or (None,), _stream_states(handle, image))
    dets = [_draw(handle.profile, width, height, obj, state) for obj, state in streams]
    return [d for d in dets if d is not None]


def detect_all(
    handle: DetectorHandle, images: Sequence[AnnotatedImage]
) -> list[tuple[Detection, ...]]:
    """One detector pass: ``prepare`` once, then ``detect`` on each image
    with its entry, in order; one tuple of detections per image."""
    return [
        tuple(detect(handle, img, found))
        for img, found in zip(images, prepare(handle, images), strict=True)
    ]
