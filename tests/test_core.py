"""Domain model and annotation I/O tests."""

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcascade
from modcascade import (
    ClassTaxonomy,
    UnknownLabelError,
    ValidationError,
    load_dataset,
    make_dataset,
    save_dataset,
    validate_taxonomy,
)
from modcascade import core
from modcascade.cli import main
from modcascade.core import (
    AnnotatedImage,
    BoundingBox,
    GroundTruthObject,
    dataset_to_json,
    read_json,
)

from test_cli import run_config, write_config


@pytest.fixture
def taxonomy():
    return ClassTaxonomy(
        {
            "dog": ("pekinese", "spaniel"),
            "planet": ("mars", "saturn"),
            "boat": ("kayak", "canoe"),
            "bird": ("swan", "duck"),
            "bike": ("road_bike", "mountain_bike"),
        }
    )


def annotation_doc(taxonomy):
    return {
        "taxonomy": taxonomy.to_json(),
        "images": [
            {
                "id": "img001",
                "width": 800,
                "height": 800,
                "objects": [{"label": "pekinese", "box": [10, 10, 100, 120]}],
            },
            {
                "id": "img002",
                "width": 800,
                "height": 800,
                "objects": [{"label": "saturn", "box": [200, 300, 50, 50]}],
            },
        ],
    }


class TestTaxonomy:
    def test_general_of(self, taxonomy):
        assert taxonomy.general_of("pekinese") == "dog"
        assert taxonomy.general_of("saturn") == "planet"

    def test_general_of_unknown_label(self, taxonomy):
        with pytest.raises(UnknownLabelError):
            taxonomy.general_of("canoe_xxl")

    def test_valid_five_by_two(self, taxonomy):
        assert validate_taxonomy(taxonomy) == []
        assert len(taxonomy.generals) == 5
        assert len(taxonomy.fine_labels) == 10

    def test_fine_under_two_generals_rejected(self):
        with pytest.raises(ValidationError, match="partition"):
            ClassTaxonomy({"dog": ("pekinese",), "cat": ("pekinese",)})

    def test_empty_general_rejected(self):
        with pytest.raises(ValidationError, match="empty general"):
            ClassTaxonomy({"dog": ()})

    def test_label_both_general_and_fine_rejected(self):
        with pytest.raises(ValidationError, match="both general and fine"):
            ClassTaxonomy({"dog": ("dog",)})

    def test_negative_label_collision_rejected(self):
        with pytest.raises(ValidationError, match="negative label"):
            ClassTaxonomy({"dog": ("pekinese",)}, negative_label="dog")

    def test_general_of_never_returns_negative_label(self, taxonomy):
        for fine in taxonomy.fine_labels:
            assert taxonomy.general_of(fine) != taxonomy.negative_label

    def test_codes(self, taxonomy):
        fines, fine_code = taxonomy.codes("fine")
        assert fines == taxonomy.fine_labels
        assert fine_code == {f: c for c, f in enumerate(taxonomy.fine_labels)}
        assert "dog" not in fine_code  # a general label has no fine code
        generals, general_code = taxonomy.codes("general")
        assert generals == taxonomy.generals == tuple(taxonomy.fine_of)
        for g, fines in taxonomy.fine_of.items():
            assert general_code[g] == generals.index(g)
            assert all(general_code[f] == general_code[g] for f in fines)
        assert set(general_code) == set(taxonomy.generals) | set(taxonomy.fine_labels)
        with pytest.raises(ValidationError, match="unknown level 'coarse'"):
            taxonomy.codes("coarse")


class TestLoadDataset:
    def test_minimal_file(self, taxonomy, tmp_path):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(annotation_doc(taxonomy)))
        ds = load_dataset(path)
        assert len(ds.images) == 2
        assert ds.images[0].objects[0].fine_label == "pekinese"
        assert ds.sequences is None

    def test_unknown_label_names_image(self, taxonomy, tmp_path):
        doc = annotation_doc(taxonomy)
        doc["images"][1]["objects"][0]["label"] = "zeppelin"
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="img002"):
            load_dataset(path)

    def test_empty_objects_is_negative_image(self, taxonomy, tmp_path):
        doc = annotation_doc(taxonomy)
        doc["images"].append({"id": "img003", "width": 800, "height": 800, "objects": []})
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        ds = load_dataset(path)
        assert ds.images[2].objects == ()
        assert ds.images[0].objects

    def test_duplicate_id_rejected(self, taxonomy, tmp_path):
        doc = annotation_doc(taxonomy)
        doc["images"][1]["id"] = "img001"
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="img001"):
            load_dataset(path)

    def test_out_of_bounds_box_rejected(self, taxonomy, tmp_path):
        doc = annotation_doc(taxonomy)
        doc["images"][0]["objects"][0]["box"] = [750, 10, 100, 100]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="img001"):
            load_dataset(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="parse error"):
            load_dataset(path)

    def test_sequence_validation(self, taxonomy, tmp_path):
        doc = annotation_doc(taxonomy)
        doc["sequences"] = [["img001"], ["img001"]]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="more than once in the sequences"):
            load_dataset(path)

    def test_id_repeated_in_one_sequence(self, taxonomy, tmp_path, capsys):
        # the same message as across sequences, not "in more than one sequence"
        with pytest.raises(
            ValidationError, match=r"^image id 'x' appears more than once in the sequences$"
        ):
            make_dataset(taxonomy, [AnnotatedImage("x", 10.0, 10.0)], [["x", "x"]])
        doc = annotation_doc(taxonomy)
        doc["sequences"] = [["img001", "img002", "img001"]]
        (tmp_path / "data.json").write_text(json.dumps(doc))
        config = run_config(taxonomy, tmp_path / "data.json", mode="v2")
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, "run.json", config)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: image id 'img001' appears more than once in the sequences\n"
        )
        assert not list(out.glob("*"))

    def test_round_trip(self, taxonomy, tmp_path):
        doc = annotation_doc(taxonomy)
        doc["sequences"] = [["img001", "img002"]]
        src = tmp_path / "src.json"
        src.write_text(json.dumps(doc))
        ds = load_dataset(src)
        out = tmp_path / "out.json"
        save_dataset(ds, out)
        ds2 = load_dataset(out)
        assert ds2 == ds
        # canonical form is a fixed point
        out2 = tmp_path / "out2.json"
        save_dataset(ds2, out2)
        assert out.read_bytes() == out2.read_bytes()


# random valid datasets round-trip; random corruptions are rejected
_fine_label = st.sampled_from(["pekinese", "spaniel", "mars", "saturn"])


@st.composite
def _valid_doc(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    images = []
    for i in range(n):
        objs = []
        for _ in range(draw(st.integers(0, 3))):
            x = draw(st.floats(0, 700))
            y = draw(st.floats(0, 700))
            w = draw(st.floats(1, 800 - x))
            h = draw(st.floats(1, 800 - y))
            objs.append({"label": draw(_fine_label), "box": [x, y, w, h]})
        images.append({"id": f"im{i:03d}", "width": 800, "height": 800, "objects": objs})
    return {
        "taxonomy": {"generals": {"dog": ["pekinese", "spaniel"], "planet": ["mars", "saturn"]}},
        "images": images,
    }


@settings(max_examples=40, deadline=None)
@given(doc=_valid_doc(), data=st.data())
def test_load_accepts_valid_rejects_corrupted(doc, data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prop")
    path = tmp / "d.json"
    path.write_text(json.dumps(doc))
    ds = load_dataset(path)
    assert len(ds.images) == len(doc["images"])
    for img in ds.images:
        for obj in img.objects:
            assert ds.taxonomy.is_fine(obj.fine_label)
            assert obj.box.w > 0 and obj.box.h > 0
            assert obj.box.x + obj.box.w <= img.width

    if doc["images"] and any(im["objects"] for im in doc["images"]):
        kind = data.draw(st.sampled_from(["bad_label", "oob_box", "dup_id"]))
        bad = json.loads(json.dumps(doc))
        target = next(im for im in bad["images"] if im["objects"])
        if kind == "bad_label":
            target["objects"][0]["label"] = "unlisted"
        elif kind == "oob_box":
            target["objects"][0]["box"] = [790, 790, 20, 20]
        else:
            if len(bad["images"]) < 2:
                bad["images"].append(dict(bad["images"][0]))
            bad["images"][1]["id"] = bad["images"][0]["id"]
        path.write_text(json.dumps(bad))
        with pytest.raises(ValidationError):
            load_dataset(path)


def test_make_dataset_rejects_unknown_sequence_id(taxonomy):
    img = AnnotatedImage("a", 100, 100, ())
    with pytest.raises(ValidationError, match="ghost"):
        make_dataset(taxonomy, [img], [["ghost"]])


def test_numeric_edges_are_checked_in_float_arithmetic(taxonomy):
    """Twice the image area must be finite, and each box area a positive
    normal double, whether the fields are floats or ints."""
    tiny = sys.float_info.min

    def image(side, box):
        return AnnotatedImage("a", side, side, (GroundTruthObject(BoundingBox(*box), "swan"),))

    make_dataset(taxonomy, [image(100, (0, 0, tiny, 1.0))])
    make_dataset(taxonomy, [image(9e153, (0, 0, 10, 10))])
    for side in (1.3e154, 10**200):  # the int's exact area is a finite int
        with pytest.raises(ValidationError, match="area of .* is too large"):
            make_dataset(taxonomy, [image(side, (0, 0, 10, 10))])
    for box in ((0, 0, tiny, 0.5), (0, 0, 1e-170, 1e-170)):
        with pytest.raises(ValidationError, match="below the smallest normal double"):
            make_dataset(taxonomy, [image(100, box)])
    with pytest.raises(ValidationError, match="non-finite box"):
        make_dataset(taxonomy, [image(100, (0, 0, 10**400, 10))])  # no OverflowError


def test_dataset_json_structure(taxonomy, tmp_path):
    """Each object holds its ``BoundingBox``; the writer renders it as
    ``[x,y,w,h]``."""
    img = AnnotatedImage(
        "a", 100, 100, (GroundTruthObject(BoundingBox(1, 2, 3, 4), "swan"),)
    )
    ds = make_dataset(taxonomy, [img])
    doc = dataset_to_json(ds)
    assert doc["images"][0]["objects"][0]["box"] == BoundingBox(1, 2, 3, 4)
    assert "sequences" not in doc
    save_dataset(ds, tmp_path / "ds.json")
    assert '"box":[1,2,3,4]' in (tmp_path / "ds.json").read_text()


def test_only_core_tests_finiteness():
    """Every numeric rule is stated once, in ``core.check_number``: no
    other module of the package references ``is_finite_real``."""
    package = Path(modcascade.__file__).parent
    offenders = [
        p.name for p in sorted(package.glob("*.py"))
        if p.name != "core.py" and "is_finite_real" in p.read_text(encoding="utf-8")
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "box",
    [(-1.0, 0.0, 10.0, 10.0), (math.nan, 0.0, 10.0, 10.0), (0.0, math.inf, 10.0, 10.0),
     (0.0, 0.0, 0.0, 10.0), (0.0, 0.0, 10.0, -0.0), (0, 0, True, 10), (0.0, 0.0, "10", 10.0)],
)
def test_box_out_of_range_is_rejected_by_its_checker(taxonomy, box):
    """A box that is not four floats in range, which ``make_dataset``
    takes without a call, gets ``BoundingBox.validate`` and its message."""
    img = AnnotatedImage("a", 100.0, 100.0, (GroundTruthObject(BoundingBox(*box), "swan"),))
    with pytest.raises(ValidationError, match=r"image 'a': non-finite box or box out of range"):
        make_dataset(taxonomy, [img])


def test_box_integer_beyond_int64_loads_as_nearest_double(taxonomy, tmp_path):
    """The decoder reads an integer outside [-2**63, 2**64) as the
    nearest double; as a box value it is a valid number."""
    doc = {"taxonomy": taxonomy.to_json(),
           "images": [{"id": "a", "width": 2**66, "height": 2**66,
                       "objects": [{"label": "swan", "box": [2**64 - 1, 0, 2**64, 10]}]}]}
    (tmp_path / "d.json").write_text(json.dumps(doc))
    assert read_json(tmp_path / "d.json", "dataset")["images"][0]["objects"][0]["box"] == [
        2**64 - 1, 0, float(2**64), 10]
    box = load_dataset(tmp_path / "d.json").images[0].objects[0].box
    assert type(box.w) is float and box.w == float(2**64)


_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, sys.float_info.min, 2.225073858507201e-308, sys.float_info.max,
     0.1, 1 / 3, 9007199254740993.0, 1.2345678901234567e-300]
)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(_DOUBLES, max_size=20),
       ints=st.lists(st.integers(-(2**63), 2**64 - 1), max_size=10))
def test_read_json_keeps_every_double(values, ints, tmp_path_factory):
    """Doubles written by ``json.dumps`` (shortest repr) and by
    ``%.17g``, subnormals and -0.0 included, decode to the bits
    ``json.loads`` gives; integers in [-2**63, 2**64) stay ints."""
    text = '{"dumps": %s, "g17": [%s], "ints": %s}' % (
        json.dumps(values), ",".join("%.17g" % v for v in values), json.dumps(ints))
    path = tmp_path_factory.getbasetemp() / "doubles.json"
    path.write_text(text)
    got, want = read_json(path, "doc"), json.loads(text)

    def bits(numbers):
        return [(type(v), struct.pack("<d", v)) for v in numbers]

    assert bits(got["dumps"]) == bits(want["dumps"]) == bits(values)
    assert bits(got["g17"]) == bits(want["g17"])
    assert got["ints"] == ints and all(type(v) is int for v in got["ints"])


DEPTH = core._MAX_DEPTH


@pytest.mark.parametrize(
    "text, refused",
    [
        (b"{}", False),
        (b'{"a":' + b"[" * (DEPTH - 1) + b"]" * (DEPTH - 1) + b"}", False),
        (b'{"a":' + b"[" * DEPTH + b"]" * DEPTH + b"}", True),
        (b'{"a":' + b"[{}," * (DEPTH - 2) + b"[]" + b"]" * (DEPTH - 2) + b"}", False),
        (b'{"a":' + b"[{}," * (DEPTH - 1) + b"{}" + b"]" * (DEPTH - 1) + b"}", True),
        # brackets inside strings do not count, either way
        (b'{"a": "' + b"[" * 2 * DEPTH + b'"}', False),
        (b'{"a": "' + b"]" * 2 * DEPTH + b'", "b":' + b"[" * DEPTH + b"]" * DEPTH + b"}", True),
        (b'{"a": "\\"' + b"]" * 2 * DEPTH + b'", "b":' + b"[" * DEPTH + b"]" * DEPTH + b"}", True),
        (b'{"a": "\\\\", "b": "' + b"[" * 2 * DEPTH + b'"}', False),
        # an unclosed array is refused by its depth, before the parser sees it
        (b'{"a":' + b"[" * DEPTH, True),
    ],
    ids=["empty", "at-limit", "over-limit", "siblings-at-limit", "siblings-over-limit",
         "openers-in-string", "closers-in-string", "escaped-quote", "escaped-backslash",
         "unclosed"],
)
def test_read_json_nesting_limit(tmp_path, text, refused):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    if refused:
        with pytest.raises(ValidationError, match=f"nest deeper than {DEPTH}$"):
            read_json(path, "doc")
    else:
        assert isinstance(read_json(path, "doc"), dict)


def test_read_json_refuses_nesting_that_would_crash_the_decoder(tmp_path):
    """A million closed levels, which overflow the decoder's C stack: a
    ValidationError, checked in a child process, which a crash would end
    without taking this one down."""
    path = tmp_path / "deep.json"
    path.write_bytes(b'{"a":' + b"[" * 10**6 + b"]" * 10**6 + b"}")
    src = str(Path(modcascade.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from modcascade.core import read_json\n"
         "from modcascade.errors import ValidationError\n"
         "try:\n"
         "    read_json(sys.argv[1], 'doc')\n"
         "except ValidationError as exc:\n"
         "    print(exc)\n",
         str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0 and child.stdout.endswith(f"nest deeper than {DEPTH}\n")
