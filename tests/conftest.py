"""Shared builders for synthetic taxonomies and datasets."""

import pytest

from modcascade import ClassTaxonomy, cli


def taxonomy_5x2() -> ClassTaxonomy:
    return ClassTaxonomy(
        {
            "dog": ("pekinese", "spaniel"),
            "planet": ("mars", "saturn"),
            "boat": ("kayak", "canoe"),
            "bird": ("swan", "duck"),
            "bike": ("road_bike", "mountain_bike"),
        }
    )


def synth_dataset(taxonomy, per_fine: int, negatives: int = 0, seq_len: int | None = None,
                  seed: int = 0):
    """The dataset ``modcascade synth`` generates from these settings and
    its defaults: one random single-object image per slot, optional
    same-class sequences."""
    config = {"taxonomy": taxonomy.to_json(), "images_per_fine": per_fine,
              "negatives": negatives, "seq_len": seq_len, "seed": seed}
    return cli.synth_dataset(cli.parse_synth_config(config))


@pytest.fixture
def taxonomy():
    return taxonomy_5x2()
