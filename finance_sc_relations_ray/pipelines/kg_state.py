"""Incremental ingest for the KG triple store: the persisted,
deduplicated relation items of the flagship pipeline.

Crawls arrive incrementally, so the deduplicated triple table (the
reference's DynamoDB relation items, reference
``src/relation_extraction/reporter.py:39-73``, here hive-partitioned
parquet) is a PERSISTED sharded artifact each new crawl merges into —
never a whole-corpus re-extract + re-dedup.

- state = one folded row per canonical ``(subj, pred, obj)`` triple
  with the exact payload-merge semantics of the in-pipeline dedup
  (stages/shuffle.py module docstring: score max, n_mentions sum, ids
  min-non-null, witness url min, sentence_ids bottom-64 union), keyed
  into ``shard=<k>/`` hive dirs by a STABLE md5 of the triple key, plus
  a one-row ``_meta.parquet`` recording ``n_shards``;
- a merge is one lazy Ray Data plan, run as ONE execution with ONE
  exchange: the delta crawl through ``build_kg_pipeline(dedup=False)``;
  a per-batch combiner that drops meta rows and attaches the persisted
  shard; ``groupby("shard").map_groups``, where each group reads its
  own base shard files with pyarrow and folds them with the delta rows;
  ``write_parquet(partition_cols=["shard"])``. The touched shards are
  exactly the ``shard=`` dirs that write produced; every other shard is
  carried forward by file copy (never read, decoded or shuffled), so
  ingest cost scales with the delta, not the KG;
- ``build_kg_state`` is the same merge into an empty store (a
  ``_meta.parquet`` and no shards): build and update share one fold.

A merge writes ``<out_dir>.tmp`` and renames it into place, so a killed
merge leaves the old state, also in place (``out_dir == state_dir``).

Merging delta by delta equals one fold over all the crawls because
every payload fold is associative + commutative — including the
sentence_ids cap, which keeps the 64 SMALLEST ids (a bottom-k fold: the
bottom-64 of a union equals the bottom-64 of the per-side bottom-64s).
Meta rows (pred beginning ``_``: dead letters, marker-drop accounting)
are pipeline bookkeeping, not knowledge — they are excluded from the
state (the partitioned runner routes them to ``_dead_letter/``
instead).

Non-SQL (triples come from the actor-pool extraction pipeline): the
driver records a rows-only check for ``kg_state_update``; exactness is
pytest-oracled (tests/test_kg_state.py) against the single-process
oracle over the concatenated crawls.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

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
# the schema of a shard file: the shard itself lives in the dir name
_FILE_SCHEMA = pa.schema([STATE_SCHEMA.field(c) for c in STATE_COLS])


def _triple_shards(df: "pd.DataFrame", n_shards: int) -> np.ndarray:
    """Stable PERSISTED shard routing: md5 of the joined triple key
    (functions/textops.fingerprint — the repo's cross-process-stable
    key hash, same contract as web._url_shards)."""
    from ..functions import textops

    keys = (
        df["subj"].astype(str)
        + "\x1f"
        + df["pred"].astype(str)
        + "\x1f"
        + df["obj"].astype(str)
    )
    return np.fromiter(
        (int(textops.fingerprint(k)[:8], 16) % n_shards for k in keys),
        dtype=np.int64,
        count=len(df),
    )


def _shard_files(state_dir: str, name: str) -> list[str]:
    d = os.path.join(state_dir, name)
    if not os.path.isdir(d):
        return []
    return [
        os.path.join(d, f)
        for f in sorted(os.listdir(d))
        if f.endswith(".parquet")
    ]


def _shard_dirs(state_dir: str) -> list[str]:
    return sorted(
        n for n in os.listdir(state_dir) if n.startswith("shard=")
    )


def _read_files(paths: list[str]) -> pa.Table:
    return pa.concat_tables(
        [_FILE_SCHEMA.empty_table()]
        + [
            pq.read_table(p, columns=STATE_COLS).cast(_FILE_SCHEMA)
            for p in paths
        ]
    )


def update_kg_state(
    state_dir: str, delta_pages_path: str, out_dir: str, config=None
) -> str:
    """Merge a DELTA crawl into a persisted triple store in one Ray
    Data execution (module docstring). Overlapping triples between
    base and delta MERGE (recrawled or re-reported relations bump
    n_mentions, advance score max, extend evidence) — that is the
    operator's purpose, mirroring update_url_state.
    ``out_dir`` may be ``state_dir``."""
    import pyarrow.compute as pc

    from ..stages.joins import NO_FUSE_NUM_CPUS
    from ..stages.shuffle import _merge_bucket, partial_dedup_batch
    from .kg import DEFAULT_CONFIG, build_kg_pipeline

    meta = pq.read_table(os.path.join(state_dir, "_meta.parquet"))
    n_shards = int(meta["n_shards"][0].as_py())
    # the fold runs in workers, whose working directory is not ours
    base_dir = os.path.abspath(state_dir)

    def delta_rows(batch: pa.Table) -> pa.Table:
        # per-batch combiner: meta rows out, one row per triple, the
        # persisted shard attached
        batch = batch.filter(
            pc.invert(pc.starts_with(batch["pred"], "_"))
        )
        part = partial_dedup_batch(batch, STATE_KEYS).select(STATE_COLS)
        shard = _triple_shards(
            part.select(STATE_KEYS).to_pandas(), n_shards
        )
        return part.append_column(
            "shard", pa.array(shard, pa.int64())
        ).cast(STATE_SCHEMA)

    def fold(group: pa.Table) -> pa.Table:
        # one touched shard: its base files (none in an empty store)
        # folded with its delta rows by the in-pipeline dedup kernel
        k = group["shard"][0].as_py()
        rows = pa.concat_tables(
            [
                group.drop(["shard"]).cast(_FILE_SCHEMA),
                _read_files(_shard_files(base_dir, f"shard={k}")),
            ]
        )
        out = _merge_bucket(rows.to_pandas(), STATE_KEYS)
        out["shard"] = k
        return pa.Table.from_pandas(
            out[STATE_SCHEMA.names],
            schema=STATE_SCHEMA,
            preserve_index=False,
        )

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # num_cpus keeps the fold an unfused operator, as in
    # stages/shuffle.salted_dedup
    (
        build_kg_pipeline(
            delta_pages_path, config=config or DEFAULT_CONFIG, dedup=False
        )
        .map_batches(delta_rows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(fold, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS)
        .write_parquet(tmp, partition_cols=["shard"])
    )

    # the write produced exactly the touched shards; the rest are
    # carried forward at file level (never read)
    for name in _shard_dirs(state_dir):
        if not os.path.exists(os.path.join(tmp, name)):
            shutil.copytree(
                os.path.join(state_dir, name), os.path.join(tmp, name)
            )
    shutil.copy2(
        os.path.join(state_dir, "_meta.parquet"),
        os.path.join(tmp, "_meta.parquet"),
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    return out_dir


def build_kg_state(
    pages_path: str, out_dir: str, n_shards: int = 16, config=None
) -> str:
    """Persist the triple store from a base crawl: the merge of that
    crawl into an empty store (a ``_meta.parquet`` recording
    ``n_shards`` and no shards). Atomic tmp+rename, so a killed build
    never leaves a half-state a later merge would trust."""
    empty = out_dir + ".empty"
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    pq.write_table(
        pa.table({"n_shards": pa.array([n_shards], pa.int64())}),
        os.path.join(empty, "_meta.parquet"),
    )
    try:
        return update_kg_state(empty, pages_path, out_dir, config)
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def read_kg_state(state_dir: str) -> pd.DataFrame:
    """All state rows (STATE_COLS), sorted by triple key — the
    comparison/reporting shim. A store with no shards reads as an
    empty frame."""
    out = _read_files(
        [p for n in _shard_dirs(state_dir) for p in _shard_files(state_dir, n)]
    ).to_pandas()
    out["sentence_ids"] = [list(x) for x in out["sentence_ids"]]
    return out.sort_values(STATE_KEYS).reset_index(drop=True)


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
    through the shard-pruned path, read the merged state back.
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
