"""Model-artifact registry (§2.11): reference update_artifacts
semantics (fixed key set, per-job resolve) + config binding into the
backend seams, e2e through the real actor stage."""

import json

import pytest
import ray

from finance_sc_relations_ray.config import KGConfig
from finance_sc_relations_ray.state.artifacts import (
    ArtifactRegistry,
    bind_config,
)


def test_defaults_and_resolve(tmp_path):
    reg = ArtifactRegistry(str(tmp_path / "artifacts.json"))
    assert reg.resolve("NER") == "gazetteer"
    assert reg.resolve("RE") == "rule"
    assert reg.resolve("Supply-Chain-Classifier") == "keyword_rule"


def test_update_validates_key(tmp_path):
    reg = ArtifactRegistry(str(tmp_path / "artifacts.json"))
    reg.update(("RE", "heavy_fake"))
    assert reg.resolve("RE") == "heavy_fake"
    # reference semantics: unknown key must raise, never create
    with pytest.raises(ValueError, match="Invalid artifact"):
        reg.update(("RE-typo", "x"))
    assert "RE-typo" not in reg.read()


def test_persistence_and_atomicity(tmp_path):
    path = str(tmp_path / "artifacts.json")
    ArtifactRegistry(path).update(("NER", "heavy_fake"))
    # a fresh handle (new job) sees the promotion
    assert ArtifactRegistry(path).resolve("NER") == "heavy_fake"
    # file is valid standalone JSON (tmp+rename, no torn writes)
    with open(path) as f:
        assert json.load(f)["NER"] == "heavy_fake"


def test_bind_config_resolves_backends(tmp_path):
    reg = ArtifactRegistry(str(tmp_path / "artifacts.json"))
    reg.update(("NER", "heuristic"))
    reg.update(("RE", "heavy_fake"))
    cfg = bind_config(KGConfig(), reg)
    assert cfg.ner_backend == "heuristic"
    assert cfg.re_backend == "heavy_fake"
    # non-registry fields untouched
    assert cfg.max_token_len == KGConfig().max_token_len


def test_bound_config_drives_actor_stage(tmp_path, ray_session):
    """Promotion → bind → the NER actor pool actually runs the
    promoted backend (outputs differ between gazetteer and heuristic
    on a sentence only the heuristic tags)."""
    from finance_sc_relations_ray.stages.ner import NerActor

    rows = [
        {
            "url": "u",
            "sent_id": 0,
            # Zyxcorp Ltd: not in the gazetteer; the capitalized-run +
            # suffix heuristic tags it
            "sent": "Zyxcorp Ltd supplied widgets.",
        }
    ]

    def run(cfg):
        return (
            ray.data.from_items(rows)
            .map_batches(
                NerActor,
                fn_constructor_kwargs={"config": cfg},
                batch_format="pyarrow",
                concurrency=1,
                num_cpus=0.5,
            )
            .to_pandas()
        )

    reg = ArtifactRegistry(str(tmp_path / "artifacts.json"))
    base = run(bind_config(KGConfig(), reg))
    reg.update(("NER", "heuristic"))
    promoted = run(bind_config(KGConfig(), reg))
    assert base["num_orgs"].iloc[0] == 0
    assert promoted["num_orgs"].iloc[0] >= 1
