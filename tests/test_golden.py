"""Golden digests: the bytes of two small ``modcascade run`` reports and
of the datasets they read.

Any change to simulation, routing, matching, AP or the canonical writer
that moves a single byte of either fails here. The inputs are built from
fixed seeds with the README detector profiles: a crowded v1 dataset
(several objects per image, a few negatives) and a v2 dataset of
single-object sequences written by ``modcascade synth``.
"""

import hashlib
import json

import numpy as np
import pytest

from modcascade import AnnotatedImage, BoundingBox, GroundTruthObject, make_dataset, save_dataset
from modcascade import reporting
from modcascade.cli import main
from modcascade.experiment import parse_run_config, run_experiment
from modcascade.reporting import dump_canonical, dumps_canonical

from conftest import taxonomy_5x2
from test_cli import run_config, synth_config, write_config

V1_CROWDED_SHA256 = "7b978007a5184c581d2c72ba1615bda0da91860d1135568441b2263f129a4ac0"
V2_SEQUENCES_SHA256 = "8ef8f64a9bb97bc5721ecf5fb48af5dd2aff0049e44edc7d8164194bd911ba5f"
# 11,000 images, a 5.3 MB report: many times the writer's chunk size
V2_11K_SHA256 = "7486690c6595b40cf8923d0a41afc62d3b01695347749f33070517a441a1c66e"
# the datasets the two golden runs read, as save_dataset and synth write them
V1_CROWDED_DATASET_SHA256 = "4646943da7ff1ecb9be7f36c65f3b017cc649d0cb57063d203d08ae54582a1c9"
V2_SEQUENCES_DATASET_SHA256 = "9884b04fae8e02084362b706f4228fb55fc7924090e40397b11ea64ccf1dae52"


def _crowded_dataset(path, n_images=30, negatives=4, seed=17):
    taxonomy = taxonomy_5x2()
    fines = taxonomy.fine_labels
    rng = np.random.default_rng(seed)
    images = []
    for k in range(n_images):
        objects = []
        for _ in range(int(rng.integers(4, 9))):
            w, h = rng.uniform(40.0, 200.0, 2)
            x = rng.uniform(0.0, 800.0 - w)
            y = rng.uniform(0.0, 800.0 - h)
            objects.append(
                GroundTruthObject(BoundingBox(x, y, w, h), fines[int(rng.integers(len(fines)))])
            )
        images.append(AnnotatedImage(f"img_{k:03d}", 800.0, 800.0, tuple(objects)))
    for k in range(negatives):
        images.append(AnnotatedImage(f"neg_{k:03d}", 800.0, 800.0))
    save_dataset(make_dataset(taxonomy, images), path)


def _report_sha256(tmp_path, cfg) -> str:
    path = write_config(tmp_path, "run.json", cfg)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()


def _v1_crowded_config(tmp_path) -> dict:
    _crowded_dataset(tmp_path / "dataset.json")
    return run_config(taxonomy_5x2(), tmp_path / "dataset.json", mode="v1", seed=5)


def _v2_sequences_config(tmp_path) -> dict:
    taxonomy = taxonomy_5x2()
    synth = write_config(
        tmp_path, "synth.json", synth_config(taxonomy, per_fine=4, negatives=6, seq_len=4, seed=9)
    )
    assert main(["synth", "--config", str(synth), "--out", str(tmp_path)]) == 0
    return run_config(taxonomy, tmp_path / "dataset.json", mode="v2", seed=6)


GOLDEN = {
    "v1_crowded": (_v1_crowded_config, V1_CROWDED_SHA256),
    "v2_sequences": (_v2_sequences_config, V2_SEQUENCES_SHA256),
}


def test_v1_crowded_report_bytes(tmp_path):
    assert _report_sha256(tmp_path, _v1_crowded_config(tmp_path)) == V1_CROWDED_SHA256


def test_v2_sequences_report_bytes(tmp_path):
    assert _report_sha256(tmp_path, _v2_sequences_config(tmp_path)) == V2_SEQUENCES_SHA256


@pytest.mark.parametrize(
    "build, digest",
    [(_v1_crowded_config, V1_CROWDED_DATASET_SHA256),
     (_v2_sequences_config, V2_SEQUENCES_DATASET_SHA256)],
    ids=["v1_crowded", "v2_sequences"],
)
def test_dataset_bytes(tmp_path, build, digest):
    build(tmp_path)
    assert hashlib.sha256((tmp_path / "dataset.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_streamed_in_one_fragment_chunks(tmp_path, monkeypatch, case):
    """The streamed file equals the joined text with a flush after every
    list item, and one report (its trace block built lazily) encodes to
    the same bytes on every pass."""
    build, digest = GOLDEN[case]
    cfg = build(tmp_path)
    report = run_experiment(parse_run_config(cfg, tmp_path))
    monkeypatch.setattr(reporting, "_FLUSH_FRAGMENTS", 1)
    dump_canonical(report, tmp_path / "report.json")
    data = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert dumps_canonical(report).encode("utf-8") == data
    assert dumps_canonical(report) == dumps_canonical(report)


def test_v2_11k_multi_chunk_report_bytes(tmp_path):
    taxonomy = taxonomy_5x2()
    synth = write_config(
        tmp_path,
        "synth.json",
        synth_config(taxonomy, per_fine=1000, negatives=1000, seq_len=5, seed=13),
    )
    assert main(["synth", "--config", str(synth), "--out", str(tmp_path)]) == 0
    cfg = run_config(taxonomy, tmp_path / "dataset.json", mode="v2", seed=14)
    assert _report_sha256(tmp_path, cfg) == V2_11K_SHA256
