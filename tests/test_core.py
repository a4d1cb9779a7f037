"""Domain model and annotation I/O tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcascade import (
    ClassTaxonomy,
    UnknownLabelError,
    ValidationError,
    load_dataset,
    make_dataset,
    save_dataset,
    validate_taxonomy,
)
from modcascade.core import (
    AnnotatedImage,
    BoundingBox,
    GroundTruthObject,
    dataset_to_json,
)


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

    def test_label_at_level(self, taxonomy):
        assert taxonomy.label_at_level("pekinese", "general") == "dog"
        assert taxonomy.label_at_level("dog", "general") == "dog"
        assert taxonomy.label_at_level("pekinese", "fine") == "pekinese"
        with pytest.raises(UnknownLabelError):
            taxonomy.label_at_level("dog", "fine")


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
        with pytest.raises(ValidationError, match="more than one sequence"):
            load_dataset(path)

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


def test_dataset_json_structure(taxonomy):
    img = AnnotatedImage(
        "a", 100, 100, (GroundTruthObject(BoundingBox(1, 2, 3, 4), "swan"),)
    )
    ds = make_dataset(taxonomy, [img])
    doc = dataset_to_json(ds)
    assert doc["images"][0]["objects"][0]["box"] == [1, 2, 3, 4]
    assert "sequences" not in doc
