"""Training-data creation — the reference's DVC load_data/data_split/
train_preprocess stages (SURVEY.md §3.2, src/stages/data_split.py,
src/relation_extraction/preprocessing_funcs.py:77-180) as one
distributed pipeline:

    pages → sentence scoring (stub-RE weak labels) → tagged pair rows
          → doc-level stratified split (O4, split at DOCUMENT
            granularity so no sentence leaks across train/valid —
            preprocess.py:397-447)
          → direction-inversion augmentation of the train split only
          → seeded shuffle → train/valid parquet

Deterministic end-to-end (seeded split + shuffle), so re-exports are
byte-stable.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ..config import actor_resources, DEFAULT_CONFIG, KGConfig
from ..functions.fuzzy import hash_split
from ..functions.tagging import inverse_relations
from ..config import INVERSE_RELATION
from .kg import read_pages, sentences_dataset

LABELS = ("supplier", "customer", "other")

TRAIN_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("sents", pa.string()),       # tagged sentence (reference column name)
        ("relations", pa.string()),   # label (reference column name)
        ("entity1", pa.string()),
        ("entity2", pa.string()),
        ("split", pa.string()),
    ]
)


class TaggedExampleActor:
    """Sentence rows → one labeled tagged example per pair variant
    (weak labels from the rule scorer; swap point for LLM labels via
    functions/weak_labels.py)."""

    def __init__(self, config: KGConfig = DEFAULT_CONFIG):
        from ..stages.fused import SentencePairScorer

        self.scorer = SentencePairScorer(config, reverse=False)
        self.config = config

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.grouping import (
            detect_alias_candidates,
            filter_aliases,
            group_entities,
        )
        from ..functions.names import encode_names, similarity
        from ..functions.tagging import entity_annotation
        from ..stages.scoring import _representative

        cfg = self.config
        out = {k: [] for k in ("url", "sents", "relations", "entity1", "entity2")}
        for url, sent in zip(batch["url"].to_pylist(), batch["sent"].to_pylist()):
            if self.scorer.supply_re.search(sent) is None:
                continue
            spans = self.scorer.tagger.spans(sent)
            if not spans:
                continue
            ents = sorted({sp["text"] for sp in spans})
            filtered = filter_aliases(
                detect_alias_candidates(sent, ents), similarity,
                cfg.alias_sim_threshold,
            )
            groups = group_entities(
                ents, filtered, filtered,
                dict(zip(ents, encode_names(ents))), cfg.group_threshold,
            )
            gids: dict[int, list[str]] = {}
            for name, gid in groups.items():
                gids.setdefault(gid, []).append(name)
            if len(gids) < 2:
                continue
            group_ids = sorted(gids)
            reps = {g: _representative(gids[g]) for g in group_ids}
            for a in range(len(group_ids)):
                for b in range(a + 1, len(group_ids)):
                    e1, e2 = reps[group_ids[a]], reps[group_ids[b]]
                    for tagged in entity_annotation(sent, e1, e2, groups, 1):
                        sc = self.scorer._score(tagged)
                        label = LABELS[max(range(3), key=lambda i: sc[i])]
                        out["url"].append(url)
                        out["sents"].append(tagged)
                        out["relations"].append(label)
                        out["entity1"].append(e1)
                        out["entity2"].append(e2)
        return pa.table({k: pa.array(v, pa.string()) for k, v in out.items()})


def build_training_data(
    pages_path: str,
    config: KGConfig = DEFAULT_CONFIG,
    valid_frac: float = 0.2,
    augment: bool = True,
    seed: int = 42,
) -> "ray.data.Dataset":
    """pages parquet → labeled, split, (train-)augmented examples."""
    sentences = sentences_dataset(read_pages(pages_path))
    examples = sentences.map_batches(
        TaggedExampleActor,
        fn_constructor_kwargs={"config": config},
        batch_format="pyarrow",
        batch_size=config.ner_batch_size,
        concurrency=config.ner_concurrency,
        **actor_resources(config),
    )

    # doc-level split: a stateless hash of the url (functions/fuzzy.py
    # hash_split). No per-doc map is ever materialized or broadcast —
    # at 10^12 urls the round-1 url→split dict WAS the dataset — and
    # the assignment is independent of Ray block boundaries, so the
    # export is deterministic across environments. Stratification is
    # by hash-independence (each label stratum's valid fraction
    # concentrates to valid_frac); `doc_majority_labels` below computes
    # the exact global per-doc stratum label for split-quality
    # reporting.
    seed_key = f"split-{seed}"

    def add_split(batch: pa.Table) -> pa.Table:
        splits = [
            hash_split(u, valid_frac, seed_key)
            for u in batch["url"].to_pylist()
        ]
        return batch.append_column("split", pa.array(splits, pa.string()))

    ds = examples.map_batches(add_split, batch_format="pyarrow")

    if augment:
        # direction-inversion augmentation on TRAIN rows only
        # (preprocessing_funcs.py:128-151)
        def aug(batch: pa.Table) -> pa.Table:
            rows = batch.to_pylist()
            extra = []
            for r in rows:
                if r["split"] == "train" and r["relations"] in ("supplier", "customer"):
                    extra.append(
                        {
                            **r,
                            "sents": inverse_relations(r["sents"]),
                            "relations": INVERSE_RELATION[r["relations"]],
                            "entity1": r["entity2"],
                            "entity2": r["entity1"],
                        }
                    )
            return pa.Table.from_pylist(rows + extra, schema=TRAIN_SCHEMA)

        ds = ds.map_batches(aug, batch_format="pyarrow")

    return ds.random_shuffle(seed=seed)


def doc_majority_labels(examples: "ray.data.Dataset") -> "ray.data.Dataset":
    """(url, relations) example rows → (url, doc_label) where doc_label
    is the GLOBAL majority label of the document (ties broken
    lexically). Fully distributed: per-batch combiner → one
    groupby(url, relations) sum → per-url argmax; never depends on
    which Ray block a sentence landed in (the round-1 per-batch
    head(1) rollup did — ADVICE r01)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        for url, rel in zip(
            batch["url"].to_pylist(), batch["relations"].to_pylist()
        ):
            counts[(url, rel)] = counts.get((url, rel), 0) + 1
        ks = sorted(counts)
        return pa.table(
            {
                "url": pa.array([k[0] for k in ks], pa.string()),
                "relations": pa.array([k[1] for k in ks], pa.string()),
                "n": pa.array([counts[k] for k in ks], pa.int64()),
            }
        )

    def argmax(g: pa.Table) -> pa.Table:
        rows = sorted(
            zip(g["relations"].to_pylist(), g["n"].to_pylist()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return pa.table(
            {
                "url": pa.array([g["url"][0].as_py()], pa.string()),
                "doc_label": pa.array([rows[0][0]], pa.string()),
            }
        )

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    return (
        examples.select_columns(["url", "relations"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["url", "relations"])
        .aggregate(Sum("n", alias_name="n"))
        .groupby("url")
        .map_groups(
            argmax, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
        )
    )
