"""Detector abstraction: a seeded statistical simulator plus a JSON-lines
wire protocol for plugging in external detector processes.

The simulator stands in for trained networks. Each ground-truth object
gets its own RNG stream keyed by (seed, image id, object index), so
detection is a pure function of (profile, seed, image): bit-identical
results regardless of call order or thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import AnnotatedImage, BoundingBox, ClassTaxonomy, Detection
from .errors import DetectorError, ProtocolError, UnknownLabelError, ValidationError

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
        if not (0.0 <= self.mean_correct <= 1.0 and 0.0 <= self.mean_wrong <= 1.0):
            raise ValidationError("confidence means must be in [0, 1]")
        if not (math.isfinite(self.spread) and self.spread >= 0.0):
            raise ValidationError("confidence spread must be finite and >= 0")

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
        # per-row sampling tables, precomputed once
        tables = {}
        for true, row in self.confusion.items():
            labels = tuple(row)
            cum = np.cumsum(np.array([row[l] for l in labels], dtype=np.float64))
            tables[true] = (labels, cum)
        object.__setattr__(self, "_row_tables", tables)
        if self.fp_label_dist is not None:
            fp_labels = tuple(self.fp_label_dist)
            fp_cum = np.cumsum(np.array([self.fp_label_dist[l] for l in fp_labels]))
        else:
            fp_labels = self.label_space
            n = len(fp_labels)
            fp_cum = np.cumsum(np.full(n, 1.0 / n)) if n else np.array([])
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
                if not (math.isfinite(p) and p >= 0.0):
                    raise ValidationError(
                        f"negative or non-finite probability in row {true!r}"
                    )
                total += p
            if total > 1.0 + _ROW_TOL:
                raise ValidationError(f"confusion row {true!r} sums to {total} > 1")
        if not (0.0 <= self.negative_fp_rate <= 1.0):
            raise ValidationError("negative_fp_rate outside [0, 1]")
        if self.fp_label_dist is not None:
            if not all(math.isfinite(p) for p in self.fp_label_dist.values()):
                raise ValidationError("fp_label_dist holds a non-finite value")
            if abs(sum(self.fp_label_dist.values()) - 1.0) > _ROW_TOL:
                raise ValidationError("fp_label_dist must sum to 1")
            if any(l not in space for l in self.fp_label_dist):
                raise ValidationError("fp_label_dist emits outside the label space")
        if not (math.isfinite(self.loc_noise_sigma) and self.loc_noise_sigma >= 0.0):
            raise ValidationError("loc_noise_sigma must be finite and >= 0")
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


@dataclass(frozen=True)
class DetectorHandle:
    """Reference to a detector: a simulated profile or an external process."""

    kind: str
    profile: DetectorProfile | None = None
    seed: int | None = None
    command: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "simulated":
            if self.profile is None or self.seed is None or self.command is not None:
                raise ValidationError("simulated handle needs profile and seed only")
        elif self.kind == "external":
            if not self.command or self.profile is not None or self.seed is not None:
                raise ValidationError("external handle needs a command only")
        else:
            raise ValidationError(f"unknown handle kind {self.kind!r}")

    @classmethod
    def simulated(cls, profile: DetectorProfile, seed: int) -> "DetectorHandle":
        return cls(kind="simulated", profile=profile, seed=seed)

    @classmethod
    def external(cls, command: Sequence[str]) -> "DetectorHandle":
        return cls(kind="external", command=tuple(command))


def object_rng(seed: int, image_id: str, tag) -> np.random.Generator:
    """Independent RNG stream keyed by (seed, image id, object tag)."""
    digest = hashlib.blake2b(
        f"{seed}|{image_id}|{tag}".encode("utf-8"), digest_size=16
    ).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))


def _draw_from_table(rng: np.random.Generator, labels, cum) -> str | None:
    u = rng.random()
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= len(labels):
        return None  # remainder mass = miss
    return labels[idx]


def _noisy_box(
    rng: np.random.Generator, box: BoundingBox, sigma: float, width: float, height: float
) -> BoundingBox:
    if sigma == 0.0:
        return box
    nx, ny, nw, nh = rng.normal(0.0, sigma, 4)
    w = min(max(box.w + nw, _MIN_EXTENT), width)
    h = min(max(box.h + nh, _MIN_EXTENT), height)
    x = min(max(box.x + nx, 0.0), width - w)
    y = min(max(box.y + ny, 0.0), height - h)
    return BoundingBox(x, y, w, h)


def _simulate(profile: DetectorProfile, seed: int, image: AnnotatedImage) -> list[Detection]:
    dets: list[Detection] = []
    law = profile.confidence_law
    if image.objects:
        for idx, obj in enumerate(image.objects):
            table = profile._row_tables.get(obj.fine_label)
            if table is None:
                continue  # unknown object class: this detector never fires
            rng = object_rng(seed, image.id, idx)
            label = _draw_from_table(rng, *table)
            if label is None:
                continue
            box = _noisy_box(rng, obj.box, profile.loc_noise_sigma, image.width, image.height)
            correct = label == profile.correct_target(obj.fine_label)
            conf = law.sample(rng, correct)
            dets.append(Detection(box=box, label=label, confidence=conf))
    elif profile.negative_fp_rate > 0.0:
        rng = object_rng(seed, image.id, "negfp")
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


class ExternalDetector:
    """Client for one external detector child process.

    JSON-lines over the child's stdin/stdout, one response line per
    request line, in order. Any malformed line or early exit aborts the
    run with a ProtocolError. One in-flight request per process.
    """

    def __init__(self, command: Sequence[str]):
        self.command = tuple(command)
        self._lock = threading.Lock()
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise DetectorError(f"failed to launch detector {self.command}: {exc}") from None

    def detect(self, image: AnnotatedImage) -> list[Detection]:
        request = json.dumps(
            {"id": image.id, "width": image.width, "height": image.height, "path": image.id}
        )
        with self._lock:
            if self._proc.poll() is not None:
                raise ProtocolError(
                    f"detector {self.command} exited with code {self._proc.returncode}"
                )
            try:
                self._proc.stdin.write(request + "\n")
                self._proc.stdin.flush()
                line = self._proc.stdout.readline()
            except (BrokenPipeError, OSError) as exc:
                raise ProtocolError(f"detector {self.command} pipe failure: {exc}") from None
        if not line:
            code = self._proc.poll()
            raise ProtocolError(f"detector {self.command} closed its stream (exit {code})")
        return _parse_response(line, image)

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            self._proc.wait(timeout=10)

    def __enter__(self) -> "ExternalDetector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_response(line: str, image: AnnotatedImage) -> list[Detection]:
    try:
        obj = json.loads(line)
        if obj["id"] != image.id:
            raise ProtocolError(
                f"response id {obj['id']!r} does not match request {image.id!r}"
            )
        dets = []
        for d in obj["detections"]:
            x, y, w, h = (float(v) for v in d["box"])
            conf = float(d["confidence"])
            if not (0.0 <= conf <= 1.0):
                raise ProtocolError(f"confidence {conf} outside [0, 1]")
            box = BoundingBox(x, y, w, h)
            box.validate()
            dets.append(Detection(box=box, label=str(d["label"]), confidence=conf))
        return dets
    except ProtocolError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ProtocolError(f"malformed response line for {image.id!r}: {exc}") from None


_external_clients: dict[tuple[str, ...], ExternalDetector] = {}
_external_lock = threading.Lock()


def _external_client(command: tuple[str, ...]) -> ExternalDetector:
    with _external_lock:
        client = _external_clients.get(command)
        if client is None or client._proc.poll() is not None:
            client = ExternalDetector(command)
            _external_clients[command] = client
        return client


def close_external_detectors() -> None:
    """Shut down all pooled external detector processes."""
    with _external_lock:
        for client in _external_clients.values():
            client.close()
        _external_clients.clear()


def detect(handle: DetectorHandle, image: AnnotatedImage) -> list[Detection]:
    """Run one detector on one image.

    Simulated handles are pure functions of (profile, seed, image) and
    safe to call concurrently; external handles serialize requests per
    child process.
    """
    if handle.kind == "simulated":
        return _simulate(handle.profile, handle.seed, image)
    return _external_client(handle.command).detect(image)


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
