"""Domain types for class taxonomies, boxes, images, and datasets.

Everything here is immutable after construction and safe to share
between threads. The annotation file format is a purpose-built JSON
schema (see ``load_dataset``); there is deliberately no COCO/PASCAL
support.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import UnknownLabelError, ValidationError

# Reserved token for "no detection" in confusion rows and matrices.
# Never a valid class label.
MISS = "__MISS__"


@dataclass(frozen=True)
class ClassTaxonomy:
    """Two-level class tree: general classes, each owning fine-grained classes.

    Attributes:
        fine_of: general label -> ordered tuple of fine labels (a partition).
        negative_label: reserved label for background/negative images; never
            appears as a general or fine label.
    """

    fine_of: Mapping[str, tuple[str, ...]]
    negative_label: str = "negative"
    _general_by_fine: Mapping[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fine_of = {g: tuple(fs) for g, fs in self.fine_of.items()}
        object.__setattr__(self, "fine_of", fine_of)
        violations = validate_taxonomy(self)
        if violations:
            raise ValidationError("invalid taxonomy: " + "; ".join(violations))
        by_fine = {}
        for g, fines in fine_of.items():
            for f in fines:
                by_fine[f] = g
        object.__setattr__(self, "_general_by_fine", by_fine)

    @property
    def generals(self) -> tuple[str, ...]:
        return tuple(self.fine_of)

    @property
    def fine_labels(self) -> tuple[str, ...]:
        return tuple(f for fines in self.fine_of.values() for f in fines)

    def general_of(self, fine: str) -> str:
        try:
            return self._general_by_fine[fine]
        except KeyError:
            raise UnknownLabelError(f"unknown fine label {fine!r}") from None

    def is_general(self, label: str) -> bool:
        return label in self.fine_of

    def is_fine(self, label: str) -> bool:
        return label in self._general_by_fine

    def label_at_level(self, label: str, level: str) -> str:
        """Project a fine or general label to the requested level.

        A general label cannot be refined to fine level; that raises
        UnknownLabelError, as does a label foreign to the taxonomy.
        """
        if level == "general":
            if self.is_general(label):
                return label
            return self.general_of(label)
        if level == "fine":
            if self.is_fine(label):
                return label
            raise UnknownLabelError(f"label {label!r} is not a fine label")
        raise ValidationError(f"unknown level {level!r}")

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

    The one type-and-finiteness check behind every numeric config and
    dataset field, so a string or a NaN is rejected as a ValidationError
    instead of failing later in arithmetic. An int beyond the float range
    is not finite either.
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


# Only a JSON escape in \ud800-\udfff puts a surrogate into a document
# read as UTF-8, and it needs a backslash, which a fast scan rules out
# first. A pair of them decodes to one character, so on a hit the parsed
# document is encoded, which fails on a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``, read as UTF-8.

    Undecodable bytes, malformed JSON, nesting too deep for the parser, an
    integer too long to convert, a string (key or value) holding a lone
    surrogate, which UTF-8 cannot encode, and a document that is not an
    object are a ValidationError naming ``what`` and the path; a file that
    cannot be read raises OSError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # ValueError: JSONDecodeError, UnicodeError, an integer too long to convert
        try:
            text = fh.read()
            doc = json.loads(text)
            if "\\" in text and _SURROGATE_ESCAPE.search(text):
                json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"parse error in {what} {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path}: expected a JSON object")
    return doc


# Each field reader takes ``doc[key]``, or ``default`` when the key is
# absent, and raises a ValidationError naming the field as ``path + key``.
# Without a default a missing field reads as null, which only read_int
# accepts (as None); so the field is required for the other readers.


def read_int(doc: Mapping, key: str, default=None, *, minimum=-math.inf, path="") -> int | None:
    """An integer (not a bool) >= ``minimum``. With ``default`` None the
    field is optional: absent or null reads as None."""
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        bound = f" >= {minimum}" if minimum > -math.inf else ""
        raise ValidationError(f"{path}{key} {value!r} is not an integer{bound}")
    return value


def read_number(
    doc: Mapping, key: str, default=None, *, above=-math.inf, at_most=math.inf, path=""
) -> float:
    """A finite number (``is_finite_real``) in (``above``, ``at_most``], as a float."""
    value = doc.get(key, default)
    if is_finite_real(value) and above < value <= at_most:
        return float(value)
    bound = f" in ({above}, {at_most}]" if above > -math.inf else ""
    raise ValidationError(f"{path}{key} {value!r} is not a finite number{bound}")


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

    def as_xyxy(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.x + self.w, self.y + self.h)

    def validate(self) -> None:
        vals = (self.x, self.y, self.w, self.h)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"non-finite box {vals}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"non-positive box extent {vals}")
        if self.x < 0 or self.y < 0:
            raise ValidationError(f"negative box corner {vals}")


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
    sequence-aware routing mode; each id may appear in at most one
    sequence.
    """

    taxonomy: ClassTaxonomy
    images: tuple[AnnotatedImage, ...]
    sequences: tuple[tuple[str, ...], ...] | None = None


def _validate_image(img: AnnotatedImage, taxonomy: ClassTaxonomy) -> None:
    if not img.id:
        raise ValidationError("image with empty id")
    if not (
        math.isfinite(img.width)
        and math.isfinite(img.height)
        and img.width > 0
        and img.height > 0
    ):
        raise ValidationError(f"image {img.id!r}: bad dimensions {img.width}x{img.height}")
    for obj in img.objects:
        try:
            obj.box.validate()
        except ValidationError as exc:
            raise ValidationError(f"image {img.id!r}: {exc}") from None
        if not taxonomy.is_fine(obj.fine_label):
            raise ValidationError(
                f"image {img.id!r}: unknown fine label {obj.fine_label!r}"
            )
        if obj.box.x + obj.box.w > img.width or obj.box.y + obj.box.h > img.height:
            raise ValidationError(
                f"image {img.id!r}: box {obj.box} exceeds {img.width}x{img.height}"
            )


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
                    raise ValidationError(f"image id {image_id!r} in more than one sequence")
                covered.add(image_id)
    return Dataset(taxonomy=taxonomy, images=images, sequences=seqs)


def _image_from_json(obj) -> AnnotatedImage:
    if not isinstance(obj, dict):
        raise ValidationError(f"image record {obj!r} is not an object")
    image_id = obj.get("id")
    if not isinstance(image_id, str):
        raise ValidationError(f"image id {image_id!r} is not a string")
    where = f"image {image_id!r}: "
    isfinite = math.isfinite
    records = obj.get("objects", [])
    if not isinstance(records, list):
        raise ValidationError(f"{where}'objects' is not a list")
    objects = []
    for o in records:
        if not isinstance(o, dict):
            raise ValidationError(f"{where}object {o!r} is not an object")
        label = o.get("label")
        if not isinstance(label, str):
            raise ValidationError(f"{where}object label {label!r} is not a string")
        box = o.get("box")
        if not isinstance(box, list) or len(box) != 4:
            raise ValidationError(f"{where}box {box!r} is not [x, y, w, h]")
        # a finite float, the common case, is taken as it is
        coords = [
            v if type(v) is float and isfinite(v) else read_number({"box": v}, "box", path=where)
            for v in box
        ]
        objects.append(GroundTruthObject(BoundingBox(*coords), label))
    return AnnotatedImage(
        id=image_id,
        width=read_number(obj, "width", path=where),
        height=read_number(obj, "height", path=where),
        objects=tuple(objects),
    )


def load_dataset(path) -> Dataset:
    """Load and validate an annotation file.

    Schema::

        {"taxonomy": {"generals": {"dog": ["pekinese", "spaniel"], ...},
                      "negative_label": "negative"},
         "images": [{"id": "img001", "width": 800, "height": 800,
                     "objects": [{"label": "pekinese", "box": [x, y, w, h]}]}],
         "sequences": [["img001", "img002"], ...]}   # optional

    Numbers must be JSON numbers (``is_finite_real``), ids and labels
    strings. Raises ValidationError naming the offending image on any
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
                "objects": [
                    {"label": o.fine_label, "box": [o.box.x, o.box.y, o.box.w, o.box.h]}
                    for o in img.objects
                ],
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
