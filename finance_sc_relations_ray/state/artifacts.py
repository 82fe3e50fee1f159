"""Model-artifact registry (SURVEY.md §2.11).

The reference keeps a JSON artifacts file mapping task key → current
model artifact and resolves it per job: ``MODEL_INFERENCE`` names the
task set and ``update_artifacts`` validates the key against the stored
mapping before swapping the value (src/glue/glue_etl.py:25-29 and
:1043-1068 — ``update_artifacts(('RE', 're_model'))``). This is how a
retrained model is promoted without touching job code.

Ray-native equivalent: the same one-file JSON contract on shared
storage (crash-safe tmp+rename write, like the partitioned sink), plus
``bind_config`` which resolves the registry into a ``KGConfig`` so the
model stages (``make_tagger`` / ``make_scorer`` seams) pick up the
promoted backend at job start. Artifacts resolve ONCE on the driver at
pipeline build time — workers receive the resolved config through the
stage constructor, never the registry file, so a mid-run promotion
can't tear a running job.
"""

from __future__ import annotations

import dataclasses
import json
import os

from ..config import KGConfig

#: task key → KGConfig field carrying the resolved backend name;
#: mirrors the reference's MODEL_INFERENCE task set (NER /
#: Supply-Chain-Classifier / RE) plus the SimCSE-style encoder seam
TASKS = {
    "NER": "ner_backend",
    "RE": "re_backend",
}
_DEFAULTS = {
    "NER": "gazetteer",
    "RE": "rule",
    "Supply-Chain-Classifier": "keyword_rule",
    "Encoder": "trigram",
}


class ArtifactRegistry:
    """JSON-file registry: {task: artifact_name}. Single-writer
    (promotions happen from a control plane, not from workers)."""

    def __init__(self, path: str):
        self.path = path
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            self._write(dict(_DEFAULTS))

    def _write(self, artifacts: dict) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(artifacts, f, indent=2, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.rename(tmp, self.path)

    def read(self) -> dict:
        with open(self.path) as f:
            return json.load(f)

    def resolve(self, task: str) -> str:
        artifacts = self.read()
        if task not in artifacts:
            raise ValueError(
                f"Invalid artifact with key <{task}>, the available "
                f"keys are {sorted(artifacts.keys())}"
            )
        return artifacts[task]

    def update(self, key_val: tuple[str, str]) -> None:
        """Promote an artifact — reference ``update_artifacts``
        semantics: the key must already exist (the task set is fixed;
        a typo must not silently create a new task)."""
        artifacts = self.read()
        key, val = key_val
        if key not in artifacts:
            raise ValueError(
                f"Invalid artifact with key <{key}>, the available "
                f"keys are {sorted(artifacts.keys())}"
            )
        artifacts[key] = val
        self._write(artifacts)


def bind_config(config: KGConfig, registry: ArtifactRegistry) -> KGConfig:
    """Resolve the registry into a job config: each TASKS entry
    overrides its KGConfig backend field. Called once on the driver at
    pipeline build time."""
    overrides = {field: registry.resolve(task) for task, field in TASKS.items()}
    return dataclasses.replace(config, **overrides)
