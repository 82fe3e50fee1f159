"""Incremental ingest for the KG triple store: the persisted,
deduplicated relation items of the flagship pipeline (the reference's
DynamoDB relation items, ``src/relation_extraction/reporter.py:39-73``).
Each crawl delta merges into the store; nothing is re-extracted or
re-deduplicated. The store is a log-structured table (state/table.py:
layout, commit log, crash safety, racing writers, compaction) keyed
by the triple:

- the fold is the in-pipeline dedup's Arrow kernel
  (stages/shuffle.partial_dedup_batch: score max, n_mentions sum, ids
  min-non-null, witness url min, sentence_ids bottom-64 union). It is
  associative and commutative, including the sentence_ids cap, which
  keeps the 64 SMALLEST ids (the bottom-64 of a union equals the
  bottom-64 of the per-side bottom-64s);
- a merge's rows are the delta crawl's page read, the page stage and
  its triple rows (``kg.read_pages`` → ``kg.linked_docs_dataset`` →
  ``kg.doc_triples_dataset``, one task per CPU, without the
  per-operator reservation) and a per-batch combiner that folds the
  batch's triples and attaches the shard. The table's write fuses
  into the read tasks: a merge is one Ray Data execution with no
  exchange and one operator;
- meta rows (pred beginning ``_``: dead letters, marker-drop
  accounting) are pipeline bookkeeping, not knowledge. They pass the
  combiner unfolded, in the table's reserved shard, and the merge's
  record carries them as ``n_errors``, ``dead_letters`` (one ``{url,
  error}`` per ``_error`` row) and ``n_dropped_markers``.

Merging an input the log already holds is additive, like any merge
(recrawled or re-reported relations bump n_mentions). The partitioned
runner (pipelines/run.py) merges chunks of input files into a store in
place and skips the files the merge records already name.

Non-SQL (triples come from the model-stage extraction pipeline): the
driver records a rows-only check for ``kg_state_update``; exactness is
pytest-oracled (tests/test_kg_state.py, tests/test_kg_state_crash.py)
against the single-process oracle over the concatenated crawls.
"""

from __future__ import annotations

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state import table as T

STATE_KEYS = ["subj", "pred", "obj"]
STATE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_id", pa.string()),
        ("obj_id", pa.string()),
        ("score", pa.float32()),
        ("url", pa.string()),
        ("sentence_ids", pa.list_(pa.int64())),
        ("n_mentions", pa.int64()),
        ("shard", pa.int64()),
    ]
)
STATE_COLS = [
    "subj",
    "pred",
    "obj",
    "subj_id",
    "obj_id",
    "score",
    "url",
    "sentence_ids",
    "n_mentions",
]
# the schema of a run file: the shard itself lives in the dir name
_FILE_SCHEMA = pa.schema([STATE_SCHEMA.field(c) for c in STATE_COLS])


def _fold_triples(rows: pa.Table) -> pa.Table:
    """The triple table's fold: the in-pipeline dedup kernel, one row
    per triple, sorted by triple."""
    from ..stages.shuffle import partial_dedup_batch

    return partial_dedup_batch(rows, STATE_KEYS)


TRIPLES = T.Spec(STATE_KEYS, _FILE_SCHEMA, _fold_triples)
# how a merge record names an input file (the partitioned runner
# compares its inputs with the records by it)
file_identity = T.file_identity


def _meta_rows(rows: pa.Table) -> dict:
    """The record's account of the delta's meta rows (the table's
    reserved shard): the dead letters (pred ``_error``: the page url
    and the exception type) and the sum of the marker-drop counts (pred
    ``_dropped_markers``, the count in obj)."""
    rows = rows.select(["subj", "pred", "obj"]).to_pylist()
    dead = sorted(
        (
            {"url": r["subj"], "error": r["obj"]}
            for r in rows
            if r["pred"] == "_error"
        ),
        key=lambda e: (e["url"], e["error"]),
    )
    return {
        "n_errors": len(dead),
        "n_dropped_markers": sum(
            int(r["obj"]) for r in rows if r["pred"] == "_dropped_markers"
        ),
        "dead_letters": dead,
    }


# --------------------------------------------------------- public API ----


def update_kg_state(
    state_dir: str, delta_pages_path: "str | list[str]", out_dir: str, config=None
) -> str:
    """Merge a DELTA crawl (a pages file, a list of them or a directory)
    into a persisted triple store: one Ray Data execution that writes
    the delta's folded rows as new runs, then one commit record
    (state/table.merge). Overlapping triples between base and delta
    MERGE (recrawled or re-reported relations bump n_mentions, advance
    score max, extend evidence) — that is the operator's purpose.
    ``out_dir`` may be ``state_dir``; otherwise it must not exist
    (:class:`FileExistsError`), and the merge runs on a hardlinked copy
    that is renamed to ``out_dir`` at the end."""
    from ..stages.shuffle import partial_dedup_batch
    from .kg import (
        DEFAULT_CONFIG,
        doc_triples_dataset,
        linked_docs_dataset,
        read_pages,
    )

    config = config or DEFAULT_CONFIG

    def rows(n_shards: int) -> "ray.data.Dataset":
        def delta_rows(batch: pa.Table) -> pa.Table:
            # per-batch combiner: one row per triple with the persisted
            # shard attached; meta rows pass as they are, in the
            # reserved shard
            is_meta = pc.starts_with(batch["pred"], "_")
            part = partial_dedup_batch(
                batch.filter(pc.invert(is_meta)), STATE_KEYS
            )
            meta = batch.filter(is_meta)
            n = meta.num_rows
            return pa.concat_tables([
                T.sharded(TRIPLES, part, n_shards),
                meta.append_column("n_mentions", pa.nulls(n, pa.int64()))
                .append_column(
                    "shard", pa.array([T.RESERVED_SHARD] * n, pa.int64())
                )
                .cast(STATE_SCHEMA),
            ])

        return doc_triples_dataset(
            linked_docs_dataset(read_pages(delta_pages_path), config), config
        ).map_batches(delta_rows, batch_format="pyarrow")

    return T.merge(
        TRIPLES, state_dir, out_dir, rows, delta_pages_path, reserved=_meta_rows
    )


def init_kg_state(store: str, n_shards: int = 16) -> str:
    """Make ``store`` an empty triple store of ``n_shards`` shards
    unless it already is a store (state/table.init). Files already in
    the dir stay (``run.crawl_partitioned`` keeps its winner corpus
    there)."""
    return T.init(store, n_shards)


def build_kg_state(
    pages_path: str, out_dir: str, n_shards: int = 16, config=None
) -> str:
    """Persist the triple store from a base crawl: the merge of that
    crawl into an empty store, so a killed build leaves no store at
    ``out_dir``. ``out_dir`` must not exist."""
    with T.empty_table(out_dir, n_shards) as empty:
        return update_kg_state(empty, pages_path, out_dir, config)


def compact_kg_state(state_dir: str) -> str:
    """Fold every shard of a store to one run, in place, committed as
    one compaction record. The state read back is unchanged."""
    return T.compact(TRIPLES, state_dir)


def merge_records(state_dir: str) -> list[dict]:
    """The store's committed merge records, in seq order (none for a
    store without a log)."""
    return T.merge_records(state_dir)


def kg_state_dataset(state_dir: str) -> "ray.data.Dataset":
    """The store's triples (STATE_COLS) as a Dataset, one row per
    triple: one read task per shard folds that shard's live runs, with
    no exchange. The live runs are those of the log at call time."""
    return T.dataset(TRIPLES, state_dir)


def read_kg_state(state_dir: str) -> pd.DataFrame:
    """All state rows (STATE_COLS), sorted by triple key — the
    comparison/reporting shim: each shard's live runs folded into one
    row per triple. A store with no runs reads as an empty frame."""
    out = T.read_frame(TRIPLES, state_dir)
    out["sentence_ids"] = [list(x) for x in out["sentence_ids"]]
    return out


def kg_delta_pages_parquet_for(sf_dir: str) -> str:
    """The 'next crawl' fixture (cached): deterministic pages for FRESH
    doc ids directly after the base range — new documents reporting
    relations over the same entity universe, so a realistic fraction of
    delta triples MERGE into existing state rows while others create
    new ones."""
    from ..sources.pages import doc_ids_from_documents, generate_pages

    base_ids = doc_ids_from_documents(
        os.path.join(sf_dir, "documents.parquet")
    )
    start = max(base_ids) + 1
    n_delta = max(50, len(base_ids) // 10)
    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    out_dir = f"/tmp/fscr_pages/{tag}-{len(base_ids)}-s42-delta{n_delta}"
    marker = os.path.join(out_dir, "pages.parquet")
    if os.path.isfile(marker):
        return marker
    t = generate_pages(list(range(start, start + n_delta)))
    os.makedirs(out_dir, exist_ok=True)
    tmp = marker + ".tmp"
    pq.write_table(t, tmp, row_group_size=1024)
    os.replace(tmp, marker)
    return marker


def kg_state_update(sf_dir: str) -> pd.DataFrame:
    """Driver-gate shim (rows-only; non-SQL — actor-pipeline triples):
    build the persisted triple store from the base pages (cached, like
    the url state), merge the delta-crawl fixture
    as new runs into a hardlinked copy, read the merged state back.
    Equality with a from-scratch rebuild and with the one-shot
    pipeline over the concatenated crawls is pytest-enforced."""
    import tempfile

    from ..sources.pages import pages_parquet_for

    base = pages_parquet_for(sf_dir)
    delta = kg_delta_pages_parquet_for(sf_dir)
    state_dir = os.path.normpath(base) + "-kgstate"
    if not os.path.isfile(os.path.join(state_dir, "_meta.parquet")):
        build_kg_state(base, state_dir)
    out = tempfile.mkdtemp(prefix="fscr_kgstate_upd_") + "/state"
    try:
        update_kg_state(state_dir, delta, out)
        merged = read_kg_state(out)
    finally:
        shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    return merged
