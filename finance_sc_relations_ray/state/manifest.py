"""Checkpoint-resume manifest.

The reference resumes by set-difference of processed file ids plus
idempotent ``overwrite_partitions`` Parquet writes
(src/glue/glue_etl.py:649-679, src/sagemaker/re_inference.py:148-171).
Ours: deterministic partitions = round-robin groups of the sorted input
FILES (pipelines/run.py), one manifest JSON line per COMPLETED
partition carrying its lineage metrics (n_pages, n_files, n_triples,
n_errors, wall seconds). On resume, completed parts are skipped at the
READ LAYER (their paths are never passed to read_parquet), and
partially-written parts are overwritten — same idempotence contract.
"""

from __future__ import annotations

import json
import os


class Manifest:
    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, "_manifest.jsonl")
        os.makedirs(out_dir, exist_ok=True)

    def completed_parts(self) -> set[int]:
        done: set[int] = set()
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    if line.strip():
                        done.add(json.loads(line)["part"])
        return done

    def mark_done(self, part: int, metrics: dict) -> None:
        """Atomic append (single writer per run): write a full line."""
        rec = {"part": part, **metrics}
        with open(self.path, "a") as f:
            f.write(json.dumps(rec) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def metrics(self) -> list[dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path) as f:
            return [json.loads(x) for x in f if x.strip()]
