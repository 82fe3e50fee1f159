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
from .kg import read_page_columns, sentences_dataset

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
        from ..stages.ner import make_tagger
        from ..stages.scoring import make_scorer

        self.tagger = make_tagger(config)
        self.re_model = make_scorer(config)
        self.config = config

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.tagging import entity_annotation
        from ..stages.backends import score_batch, spans_batch
        from ..stages.fused import group_sentence
        from ..stages.scoring import _SUPPLY_RE, _representative

        gated = [
            (url, sent)
            for url, sent in zip(batch["url"].to_pylist(), batch["sent"].to_pylist())
            if _SUPPLY_RE.search(sent) is not None
        ]
        spans_list = spans_batch(self.tagger, [s for _, s in gated]) if gated else []
        rows = []  # (url, tagged, e1, e2)
        for (url, sent), spans in zip(gated, spans_list):
            grouped = group_sentence(sent, spans, self.config)
            if grouped is None:
                continue
            groups, _, members = grouped
            reps = [_representative(m) for m in members]
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    for tagged in entity_annotation(sent, reps[a], reps[b], groups, 1):
                        rows.append((url, tagged, reps[a], reps[b]))
        scores = score_batch(self.re_model, [r[1] for r in rows]) if rows else []
        out = {k: [] for k in ("url", "sents", "relations", "entity1", "entity2")}
        for (url, tagged, e1, e2), sc in zip(rows, scores):
            out["url"].append(url)
            out["sents"].append(tagged)
            out["relations"].append(LABELS[max(range(3), key=lambda i: sc[i])])
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
    sentences = sentences_dataset(read_page_columns(pages_path))
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
