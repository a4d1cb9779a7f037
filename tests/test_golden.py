"""Golden report digests: the bytes of two small ``modcascade run`` reports.

Any change to simulation, routing, matching, AP or the canonical writer
that moves a single byte of a report fails here. The inputs are built
from fixed seeds with the README detector profiles: a crowded v1
dataset (several objects per image, a few negatives) and a v2 dataset
of single-object sequences written by ``modcascade synth``.
"""

import hashlib
import json

import numpy as np

from modcascade import AnnotatedImage, BoundingBox, GroundTruthObject, make_dataset, save_dataset
from modcascade.cli import main

from conftest import taxonomy_5x2
from test_cli import run_config, synth_config, write_config

V1_CROWDED_SHA256 = "7b978007a5184c581d2c72ba1615bda0da91860d1135568441b2263f129a4ac0"
V2_SEQUENCES_SHA256 = "8ef8f64a9bb97bc5721ecf5fb48af5dd2aff0049e44edc7d8164194bd911ba5f"


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


def test_v1_crowded_report_bytes(tmp_path):
    _crowded_dataset(tmp_path / "dataset.json")
    cfg = run_config(taxonomy_5x2(), tmp_path / "dataset.json", mode="v1", seed=5, workers=2)
    assert _report_sha256(tmp_path, cfg) == V1_CROWDED_SHA256


def test_v2_sequences_report_bytes(tmp_path):
    taxonomy = taxonomy_5x2()
    synth = write_config(
        tmp_path, "synth.json", synth_config(taxonomy, per_fine=4, negatives=6, seq_len=4, seed=9)
    )
    assert main(["synth", "--config", str(synth), "--out", str(tmp_path)]) == 0
    cfg = run_config(taxonomy, tmp_path / "dataset.json", mode="v2", seed=6)
    assert _report_sha256(tmp_path, cfg) == V2_SEQUENCES_SHA256
