"""Domain types for class taxonomies, boxes, images, and datasets.

Everything here is immutable after construction and safe to share
between threads. The annotation file format is a purpose-built JSON
schema (see ``load_dataset``); there is deliberately no COCO/PASCAL
support.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import sub
from typing import Iterable, Mapping, Sequence

from .errors import UnknownLabelError, ValidationError

# Reserved token for "no detection" in confusion rows and matrices.
# Never a valid class label.
MISS = "__MISS__"


@dataclass(frozen=True)
class ClassTaxonomy:
    """Two-level class tree: general classes, each owning fine-grained classes.
    Its labels are numbered once, in its own order (``codes``).

    Attributes:
        fine_of: general label -> ordered tuple of fine labels (a partition).
        negative_label: reserved label for background/negative images; never
            appears as a general or fine label.
    """

    fine_of: Mapping[str, tuple[str, ...]]
    negative_label: str = "negative"
    _fine: tuple = field(init=False, repr=False, compare=False)  # codes("fine")
    _general: tuple = field(init=False, repr=False, compare=False)  # codes("general")

    def __post_init__(self) -> None:
        fine_of = {g: tuple(fs) for g, fs in self.fine_of.items()}
        object.__setattr__(self, "fine_of", fine_of)
        violations = validate_taxonomy(self)
        if violations:
            raise ValidationError("invalid taxonomy: " + "; ".join(violations))
        fines = tuple(f for fs in fine_of.values() for f in fs)
        general_code = {g: c for c, g in enumerate(fine_of)}
        general_code.update((f, c) for c, fs in enumerate(fine_of.values()) for f in fs)
        object.__setattr__(self, "_fine", (fines, {f: c for c, f in enumerate(fines)}))
        object.__setattr__(self, "_general", (tuple(fine_of), general_code))

    @property
    def generals(self) -> tuple[str, ...]:
        return self._general[0]

    @property
    def fine_labels(self) -> tuple[str, ...]:
        return self._fine[0]

    def codes(self, level: str) -> tuple[tuple[str, ...], Mapping[str, int]]:
        """The labels of ``level`` ("fine" or "general") in code order, and each
        label valid at that level -> its code; at "general" a fine label has its
        general's code. Another level is a ValidationError."""
        if level == "fine":
            return self._fine
        if level == "general":
            return self._general
        raise ValidationError(f"unknown level {level!r}")

    def general_of(self, fine: str) -> str:
        if fine in self._fine[1]:
            generals, code = self._general
            return generals[code[fine]]
        raise UnknownLabelError(f"unknown fine label {fine!r}")

    def is_fine(self, label: str) -> bool:
        return label in self._fine[1]

    def to_json(self) -> dict:
        return {
            "generals": {g: list(fs) for g, fs in self.fine_of.items()},
            "negative_label": self.negative_label,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ClassTaxonomy":
        if not isinstance(obj, Mapping) or not isinstance(obj.get("generals"), Mapping):
            raise ValidationError("taxonomy must be an object with a 'generals' object")
        # a string is iterable too: "ab" would read as the labels "a", "b"
        if not all(isinstance(fs, list) for fs in obj["generals"].values()):
            raise ValidationError("taxonomy 'generals' must map names to lists of labels")
        fine_of = {g: tuple(fs) for g, fs in obj["generals"].items()}
        return cls(fine_of=fine_of, negative_label=obj.get("negative_label", "negative"))


def is_finite_real(value) -> bool:
    """True for a real number (not a bool) that is neither NaN nor infinite.

    The type-and-finiteness test of ``check_number``, so a string or a
    NaN is rejected as a ValidationError instead of failing later in
    arithmetic. An int beyond the float range is not finite either.
    """
    # the exact types JSON gives skip the slower numbers.Real check
    if type(value) not in (float, int) and (
        not isinstance(value, numbers.Real) or isinstance(value, bool)
    ):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# orjson builds nested arrays and objects by recursion without a limit:
# on an 8 MB stack, 150,000 levels end the process with a segmentation
# fault. So a deeper document is refused before it is decoded; the repr
# of a value this deep, in an error message, stays well inside the
# interpreter's recursion limit.
_MAX_DEPTH = 512
_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_SYNTAX = bytes(sorted(set(range(256)) - set(b'"[]{}')))


def _nests_deeper(data: bytes, limit: int) -> bool:
    """Whether the arrays and objects of the JSON text ``data`` nest more
    than ``limit`` deep; a bracket inside a string does not count. In a
    text that is not JSON the answer holds up to its first fault, where
    the parser stops."""
    # the depth is at most the number of openers, which a model file of
    # a few megabytes of numbers keeps low
    openers = 0
    for char in b"[{":
        at = data.find(char)
        while at >= 0 and openers <= limit:
            openers += 1
            at = data.find(char, at + 1)
    if openers <= limit:
        return False
    if b"\\" in data:
        # without escaped backslashes and quotes, each quote opens or closes a string
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    # quotes and brackets, "[" and "]" for both kinds; two adjacent quotes
    # enclose nothing, and each other quote still opens or closes a string
    marks = data.translate(_BRACKETS, _NOT_SYNTAX).replace(b'""', b"")
    if b'"' in marks:
        marks = b"".join(marks.split(b'"')[::2])
    # just before the k-th "]" the depth is the number of "[" so far minus k - 1
    runs = marks.split(b"]")
    return 1 + max(accumulate(map(sub, map(len, runs), repeat(1)))) > limit


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``, decoded by orjson.

    The file must be UTF-8 without a byte order mark and hold one JSON
    document: an object whose arrays and objects nest at most
    ``_MAX_DEPTH`` (512) deep. A fault is a ValidationError naming
    ``what`` and the path. orjson reports as faults undecodable bytes, a
    lone surrogate escape (``\\ud800``), which UTF-8 cannot encode,
    content after the document, the literals ``NaN`` and ``Infinity``,
    even under a key nothing reads, and a number whose nearest double is
    infinite. An integer in [-2**63, 2**64) is read as an int and any other
    as the nearest double: 2**64 reads as 1.8446744073709552e+19. A file
    that cannot be read raises OSError.
    """
    # importing orjson loads uuid, zoneinfo and datetime: only a read pays
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    if _nests_deeper(data, _MAX_DEPTH):
        raise ValidationError(
            f"parse error in {what} {path}: arrays and objects nest deeper than {_MAX_DEPTH}"
        )
    try:
        doc = orjson.loads(data)
    except ValueError as exc:
        raise ValidationError(f"parse error in {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path}: expected a JSON object")
    return doc


def _range_text(above, at_least, at_most) -> str:
    rules = [f"{op} {b}" for op, b in ((">", above), (">=", at_least), ("<=", at_most))
             if math.isfinite(b)]
    return " " + " and ".join(rules) if rules else ""


def check_number(
    value, name: str, *, above=-math.inf, at_least=-math.inf, at_most=math.inf
) -> float:
    """``value`` as a float if it is a finite number (``is_finite_real``)
    > ``above``, >= ``at_least`` and <= ``at_most``, else a ValidationError
    naming ``name``. Callers on a hot path pass a constant ``name`` and add
    context by catching and re-raising."""
    if is_finite_real(value) and above < value and at_least <= value <= at_most:
        return float(value)
    bounds = _range_text(above, at_least, at_most)
    raise ValidationError(f"{name} {value!r} is not a finite number{bounds}")


def check_int(value, name: str, *, at_least=-math.inf, at_most=math.inf) -> int:
    """``value`` if it is an integer (not a bool) in [``at_least``, ``at_most``]."""
    if isinstance(value, int) and not isinstance(value, bool) and at_least <= value <= at_most:
        return value
    bounds = _range_text(-math.inf, at_least, at_most)
    raise ValidationError(f"{name} {value!r} is not an integer{bounds}")


# Each field reader takes ``doc[key]``, or ``default`` when the key is
# absent, and raises a ValidationError naming the field as ``path + key``.
# Without a default a missing field reads as null, which only read_int
# accepts (as None); so the field is required for the other readers.


def read_int(doc: Mapping, key: str, default=None, *, path="", **bounds) -> int | None:
    """``check_int`` of the field. With ``default`` None the field is
    optional: absent or null reads as None."""
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    return check_int(value, path + key, **bounds)


def read_number(doc: Mapping, key: str, default=None, *, path="", **bounds) -> float:
    """``check_number`` of the field."""
    return check_number(doc.get(key, default), path + key, **bounds)


def read_name(doc: Mapping, key: str, default=None, *, path="") -> str:
    """A file name or path: a non-empty string without NUL."""
    value = doc.get(key, default)
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValidationError(f"{path}{key} {value!r} is not a non-empty string without NUL")
    return value


def read_object(doc: Mapping, key: str, default=None, *, path="") -> Mapping:
    """A JSON object."""
    value = doc.get(key, default)
    if not isinstance(value, Mapping):
        raise ValidationError(f"{path}{key} must be an object")
    return value


def validate_taxonomy(taxonomy: ClassTaxonomy) -> list[str]:
    """Return all invariant violations (empty list means valid). Pure."""
    violations = []
    fine_of = taxonomy.fine_of
    if not fine_of:
        violations.append("no general classes")
    seen: dict[str, str] = {}
    for g, fines in fine_of.items():
        if not isinstance(g, str):
            violations.append(f"general label {g!r} is not a string")
        if not fines:
            violations.append(f"empty general class {g!r}")
        for f in fines:
            # checked before ``f`` is hashed: a list label is unhashable
            if not isinstance(f, str):
                violations.append(f"fine label {f!r} of {g!r} is not a string")
                continue
            if f in fine_of:
                violations.append(f"label {f!r} is both general and fine")
            if f in seen:
                violations.append(
                    f"not a partition: fine label {f!r} under both "
                    f"{seen[f]!r} and {g!r}"
                )
            seen[f] = g
    neg = taxonomy.negative_label
    if not isinstance(neg, str):
        violations.append(f"negative label {neg!r} is not a string")
    elif neg in fine_of or neg in seen:
        violations.append(f"negative label {neg!r} collides with a class label")
    if MISS in fine_of or MISS in seen:
        violations.append(f"reserved label {MISS!r} used as a class label")
    return violations


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box: top-left corner plus extent, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def validate(self) -> None:
        """A corner >= 0 and an extent > 0, all finite numbers."""
        try:
            check_number(self.x, "x", at_least=0)
            check_number(self.y, "y", at_least=0)
            check_number(self.w, "w", above=0)
            check_number(self.h, "h", above=0)
        except ValidationError as exc:
            vals = (self.x, self.y, self.w, self.h)
            raise ValidationError(f"non-finite box or box out of range {vals}: {exc}") from None


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector output: box, emitted label, confidence in [0, 1]."""

    box: BoundingBox
    label: str
    confidence: float


@dataclass(frozen=True, slots=True)
class GroundTruthObject:
    """Annotated object: box plus its fine-grained class label."""

    box: BoundingBox
    fine_label: str


@dataclass(frozen=True, slots=True)
class AnnotatedImage:
    """Image annotation; an empty object list marks a negative image."""

    id: str
    width: float
    height: float
    objects: tuple[GroundTruthObject, ...] = ()


@dataclass(frozen=True)
class Dataset:
    """An ordered image collection with its taxonomy.

    ``sequences`` optionally groups image ids into ordered runs for the
    sequence-aware routing mode; each id may appear at most once in
    them.
    """

    taxonomy: ClassTaxonomy
    images: tuple[AnnotatedImage, ...]
    sequences: tuple[tuple[str, ...], ...] | None = None


def _validate_image(img: AnnotatedImage, taxonomy: ClassTaxonomy) -> None:
    if not img.id:
        raise ValidationError("image with empty id")
    # the id is added to the message only on failure: this runs per image
    inf = math.inf
    try:
        check_number(img.width, "width", above=0)
        check_number(img.height, "height", above=0)
        # in float arithmetic, ints too: IoU adds two box areas, which must not overflow
        if not math.isfinite(2.0 * img.width * img.height):
            raise ValidationError(f"area of {img.width}x{img.height} is too large")
        for obj in img.objects:
            box = obj.box
            x, y, w, h = box.x, box.y, box.w, box.h
            # four floats in range, as load_dataset gives them, need no checker call
            if not (type(x) is type(y) is type(w) is type(h) is float
                    and 0.0 <= x < inf and 0.0 <= y < inf and 0.0 < w < inf and 0.0 < h < inf):
                box.validate()
            if not 1.0 * w * h >= sys.float_info.min:  # or IoU rounds to 0
                raise ValidationError(f"area of box {box} is below the smallest normal double")
            if not taxonomy.is_fine(obj.fine_label):
                raise ValidationError(f"unknown fine label {obj.fine_label!r}")
            if x + w > img.width or y + h > img.height:
                raise ValidationError(f"box {box} exceeds {img.width}x{img.height}")
    except ValidationError as exc:
        raise ValidationError(f"image {img.id!r}: {exc}") from None


def make_dataset(
    taxonomy: ClassTaxonomy,
    images: Iterable[AnnotatedImage],
    sequences: Sequence[Sequence[str]] | None = None,
) -> Dataset:
    """Assemble and validate a Dataset; rejects rather than repairs."""
    images = tuple(images)
    seen_ids = set()
    for img in images:
        if img.id in seen_ids:
            raise ValidationError(f"duplicate image id {img.id!r}")
        seen_ids.add(img.id)
        _validate_image(img, taxonomy)
    seqs = None
    if sequences is not None:
        covered = set()
        seqs = tuple(tuple(s) for s in sequences)
        for seq in seqs:
            for image_id in seq:
                if image_id not in seen_ids:
                    raise ValidationError(f"sequence references unknown image id {image_id!r}")
                if image_id in covered:
                    raise ValidationError(
                        f"image id {image_id!r} appears more than once in the sequences"
                    )
                covered.add(image_id)
    return Dataset(taxonomy=taxonomy, images=images, sequences=seqs)


def _image_from_json(obj) -> AnnotatedImage:
    if not isinstance(obj, dict):
        raise ValidationError(f"image record {obj!r} is not an object")
    image_id = obj.get("id")
    if not isinstance(image_id, str):
        raise ValidationError(f"image id {image_id!r} is not a string")
    try:
        records = obj.get("objects", [])
        if not isinstance(records, list):
            raise ValidationError("'objects' is not a list")
        objects = []
        for o in records:
            if not isinstance(o, dict):
                raise ValidationError(f"object {o!r} is not an object")
            label = o.get("label")
            if not isinstance(label, str):
                raise ValidationError(f"object label {label!r} is not a string")
            box = o.get("box")
            if not isinstance(box, list) or len(box) != 4:
                raise ValidationError(f"box {box!r} is not [x, y, w, h]")
            # a float, the common case, is taken as it is: read_json gives
            # finite ones only, and make_dataset checks each box's range
            box = [v if type(v) is float else check_number(v, "box") for v in box]
            objects.append(GroundTruthObject(BoundingBox(*box), label))
        return AnnotatedImage(
            id=image_id,
            width=read_number(obj, "width"),
            height=read_number(obj, "height"),
            objects=tuple(objects),
        )
    except ValidationError as exc:
        raise ValidationError(f"image {image_id!r}: {exc}") from None


def load_dataset(path) -> Dataset:
    """Load and validate an annotation file.

    Schema::

        {"taxonomy": {"generals": {"dog": ["pekinese", "spaniel"], ...},
                      "negative_label": "negative"},
         "images": [{"id": "img001", "width": 800, "height": 800,
                     "objects": [{"label": "pekinese", "box": [x, y, w, h]}]}],
         "sequences": [["img001", "img002"], ...]}   # optional

    Numbers must be JSON numbers (``check_number``), ids and labels
    strings. Twice an image's ``width * height`` must be finite and each
    box's ``w * h`` a normal double, or IoU would overflow or round to
    zero. Raises ValidationError naming the offending image on any
    invariant violation or malformed value; a file that is not UTF-8 JSON
    raises ValidationError as a parse error (``read_json``).
    """
    raw = read_json(path, "dataset")
    taxonomy = ClassTaxonomy.from_json(read_object(raw, "taxonomy", path=f"{path}: "))
    if not isinstance(raw.get("images"), list):
        raise ValidationError(f"{path}: 'images' must be a list of image records")
    images = [_image_from_json(o) for o in raw["images"]]
    sequences = raw.get("sequences")
    if sequences is not None and not (
        isinstance(sequences, list)
        and all(
            isinstance(seq, list) and all(isinstance(i, str) for i in seq) for seq in sequences
        )
    ):
        raise ValidationError(f"{path}: 'sequences' must be a list of lists of image ids")
    return make_dataset(taxonomy, images, sequences)


def dataset_to_json(dataset: Dataset) -> dict:
    out: dict = {
        "taxonomy": dataset.taxonomy.to_json(),
        "images": [
            {
                "id": img.id,
                "width": img.width,
                "height": img.height,
                "objects": [{"label": o.fine_label, "box": o.box} for o in img.objects],
            }
            for img in dataset.images
        ],
    }
    if dataset.sequences is not None:
        out["sequences"] = [list(s) for s in dataset.sequences]
    return out


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset back to the annotation JSON schema (canonical form)."""
    from .reporting import dump_canonical

    dump_canonical(dataset_to_json(dataset), path)
