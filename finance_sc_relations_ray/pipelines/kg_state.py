"""Incremental ingest for the KG triple store: the persisted,
deduplicated relation items of the flagship pipeline.

Crawls arrive incrementally, so the deduplicated triple table (the
reference's DynamoDB relation items, reference
``src/relation_extraction/reporter.py:39-73``, here hive-partitioned
parquet) is a PERSISTED sharded artifact each new crawl merges into —
never a whole-corpus re-extract + re-dedup.

The store is log-structured, as in an LSM-tree:

- a state row is one canonical ``(subj, pred, obj)`` triple with the
  payload-merge semantics of the in-pipeline dedup (stages/shuffle.py
  module docstring: score max, n_mentions sum, ids min-non-null,
  witness url min, sentence_ids bottom-64 union), routed to a
  ``shard=<k>/`` dir by a STABLE md5 of the triple key; a one-row
  ``_meta.parquet`` records ``n_shards``;
- a shard holds immutable *run* files,
  ``shard=<k>/run-<seq>-<token>.parquet``: the ``seq`` of the record
  that adds the run and a token unique to the writing merge. A
  shard's state is the fold of its runs, and readers fold them
  (:func:`read_kg_state`). The fold is associative and commutative —
  including the sentence_ids cap, which keeps the 64 SMALLEST ids (a
  bottom-k fold: the bottom-64 of a union equals the bottom-64 of the
  per-side bottom-64s) — so the state does not depend on how the rows
  are split into runs or in which order they were merged;
- ``_log/<seq>.json`` records are the commits. A record names the runs
  it adds and the runs it removes; the live runs of a store are the
  replay of its log in ``seq`` order. A file no record names does not
  exist for readers, and a later writer deletes it once its ``seq`` is
  committed. A store without a ``_log/`` dir (written before the log)
  reads every shard file as live; its first writer adopts them in a
  record of its own;
- a merge is one Ray Data execution with no exchange and one
  operator: the delta crawl's page read, the page stage and its triple
  rows (``kg.read_pages`` → ``kg.linked_docs_dataset`` →
  ``kg.doc_triples_dataset``, one task per CPU, without the
  per-operator reservation), a per-batch combiner that folds the
  batch's triples and attaches the shard (meta rows pass unfolded, in
  a reserved shard), and ``write_parquet(partition_cols=["shard"])``
  into ``_staging-<seq>-<token>/``, all fused into the read tasks. The
  driver combines each shard's written files into ONE run of that
  shard (a read sized to the delta), so a merge adds at most one run
  per shard whatever the number of write tasks, reads the reserved
  shard's meta rows into the record, and commits one record. Base runs
  are never read, decoded or rewritten, so ingest cost scales with the
  delta, not the KG;
- compaction folds runs of a shard into one run, one shard at a time
  (peak memory is one shard), and commits them as one record that
  removes the runs it replaces. A merge compacts every shard that
  holds more than :data:`MAX_RUNS` live runs, folding its smallest
  runs of similar size (:func:`_fold_group`, size-tiered as in an
  LSM-tree), so a long chain of merges rewrites each row about
  log2(shard rows / merge rows) times, not once per ``MAX_RUNS``
  merges; :func:`compact_kg_state` folds every shard to one run;
- ``build_kg_state`` is the same merge into an empty store (a
  ``_meta.parquet`` and no runs, :func:`init_kg_state`);
- :func:`kg_state_dataset` reads the folded state as a Dataset, one
  read task per shard, with no exchange.

Crash safety, against the merging process dying at any point (not the
host losing power: nothing is fsync'ed). A commit creates its record
exclusively: it writes a tmp file private to the merge and hardlinks
it to ``_log/<seq>.json``, which fails if a record with that ``seq``
exists. Until the record exists, nothing the merge wrote is live;
after it, all of it is. In place (``out_dir == state_dir``) that is
the whole protocol: no tmp tree and no rmtree of the store. Into a new
directory, the source store's live runs, ``_meta.parquet`` and
``_log/`` as of one log listing are hardlinked into ``<out_dir>.tmp``
(copied across filesystems), the merge runs in place there, and the
tree is renamed to ``out_dir``, which must not exist (so publishing
deletes nothing); the source is never written.

Writers racing on one store: the loser of a ``seq`` is refused
(:class:`FileExistsError`), deletes only its own files (their names
carry its token) and none of its runs becomes visible; a compaction
that loses its ``seq`` leaves the merge it follows committed. A
writer deletes an unnamed file only when the file's ``seq`` is
already committed, so it cannot delete a merge still in flight (whose
``seq`` is not). A merge into a new directory from a source that
another writer is compacting may fail (a replaced run deleted before
it was linked); it publishes nothing then. Two merges into the same
new ``out_dir`` are not supported.

Each record carries the merge's numbers: the delta's identity (path,
bytes, parquet footer row count, and ``files``: one ``{path, bytes,
rows}`` per input file), the runs added with their rows and bytes, the
shards touched or compacted, and the wall time per phase. Merging an
input the log already holds is additive, like any merge (recrawled or
re-reported relations bump n_mentions). The partitioned runner
(pipelines/run.py) merges chunks of input files into a store in place
and skips the files the merge records already name.

Meta rows (pred beginning ``_``: dead letters, marker-drop accounting)
are pipeline bookkeeping, not knowledge: they never reach the state,
and the merge's record carries them as ``n_errors``, ``dead_letters``
(one ``{url, error}`` per ``_error`` row: the page and the exception
type) and ``n_dropped_markers``.

Non-SQL (triples come from the model-stage extraction pipeline): the
driver records a rows-only check for ``kg_state_update``; exactness is
pytest-oracled (tests/test_kg_state.py, tests/test_kg_state_crash.py)
against the single-process oracle over the concatenated crawls.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..sources.page_read import parquet_files

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
# live runs a shard may hold after a merge: a merge adds at most one
# run per shard, and a shard over the cap compacts (_fold_group)
MAX_RUNS = 8
_META = "_meta.parquet"
_LOG = "_log"
_STAGING = "_staging-"
# the shard value a merge's write gives its meta rows: the driver reads
# them into the commit record and never turns them into a run
_META_SHARD = -1


def _triple_shards(df: "pd.DataFrame", n_shards: int) -> np.ndarray:
    """Stable PERSISTED shard routing: md5 of the joined triple key
    (functions/textops.fingerprint — the repo's cross-process-stable
    key hash, same contract as web._url_shards), computed once per
    distinct key. Stores on disk depend on it: never change it."""
    from ..functions import textops

    keys = (
        df["subj"].astype(str)
        + "\x1f"
        + df["pred"].astype(str)
        + "\x1f"
        + df["obj"].astype(str)
    )
    codes, uniq = pd.factorize(keys)
    shards = np.fromiter(
        (int(textops.fingerprint(k)[:8], 16) % n_shards for k in uniq),
        dtype=np.int64,
        count=len(uniq),
    )
    return shards[codes]


# ------------------------------------------------------------ the log ----


def _record_name(seq: int) -> str:
    return f"{seq:08d}.json"


def _log_seqs(store: str) -> list[int]:
    return sorted(
        int(n[:-5])
        for n in os.listdir(os.path.join(store, _LOG))
        if n.endswith(".json") and n[:-5].isdigit()
    )


def _next_seq(store: str) -> int:
    seqs = _log_seqs(store)
    return seqs[-1] + 1 if seqs else 1


def _new_tag(seq: int) -> str:
    """``<seq>-<token>``: stamps every file a merge or compaction
    writes, so a refused writer deletes only its own files and a sweep
    can tell whose ``seq`` is committed."""
    return f"{seq:08d}-{uuid.uuid4().hex[:8]}"


def _seq_of(name: str) -> int:
    """The seq stamped into a run, staging or record tmp name; 0 for a
    name without one."""
    m = re.search(r"\d{8}", name)
    return int(m.group()) if m else 0


def _shard_id(rel: str) -> int:
    """The shard of a run path, ``shard=<k>/...``."""
    return int(rel.split("/", 1)[0].split("=", 1)[1])


def _records(store: str, seqs: list[int] | None = None) -> list[dict]:
    """The committed records of a log-structured store (or those of
    ``seqs``), in seq order."""
    out = []
    for seq in _log_seqs(store) if seqs is None else seqs:
        with open(os.path.join(store, _LOG, _record_name(seq))) as f:
            out.append(json.load(f))
    return out


def _shard_dirs(store: str) -> list[str]:
    return sorted(n for n in os.listdir(store) if n.startswith("shard="))


def _shard_file_paths(store: str) -> list[str]:
    """Every parquet file under the shard dirs, relative to ``store``."""
    return [
        f"{d}/{f}"
        for d in _shard_dirs(store)
        for f in sorted(os.listdir(os.path.join(store, d)))
        if f.endswith(".parquet")
    ]


def _replay(records: list[dict]) -> list[str]:
    """The live runs the records leave: adds then removes per record."""
    live: dict[str, None] = {}
    for rec in records:
        live.update(dict.fromkeys(rec["adds"]))
        for p in rec["removes"]:
            live.pop(p, None)
    return sorted(live)


def _live_runs(store: str) -> list[str]:
    """The live runs (paths relative to ``store``): the replay of the
    log; every shard file when the store has no log."""
    if not os.path.isdir(os.path.join(store, _LOG)):
        return _shard_file_paths(store)
    return _replay(_records(store))


def _runs_by_shard(runs: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for p in runs:
        out.setdefault(p.split("/", 1)[0], []).append(p)
    return out


def _run_info(store: str, rel: str) -> dict:
    path = os.path.join(store, rel)
    return {
        "rows": pq.read_metadata(path).num_rows,
        "bytes": os.path.getsize(path),
    }


def _commit(store: str, seq: int, tag: str, record: dict) -> None:
    """Exclusively create ``_log/<seq>.json``: write a tmp file private
    to this writer and hardlink it to the record name. If a record with
    this seq is already committed, delete the runs this record adds
    (this writer's own, named with ``tag``) and raise FileExistsError."""
    final = os.path.join(store, _LOG, _record_name(seq))
    tmp = os.path.join(store, _LOG, f"{tag}.json.tmp")
    with open(tmp, "w") as f:
        json.dump({"seq": seq, **record}, f, indent=1)
    try:
        os.link(tmp, final)
    except FileExistsError:
        for rel in record["adds"]:
            os.remove(os.path.join(store, rel))
        raise
    finally:
        os.remove(tmp)


def _ensure_log(store: str) -> None:
    """Give a store written before the log a ``_log/`` dir whose first
    record adopts every shard file, created by one dir rename so that
    no crash leaves those files unnamed."""
    log = os.path.join(store, _LOG)
    if os.path.isdir(log):
        return
    tmp = log + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    legacy = _shard_file_paths(store)
    if legacy:
        rec = {
            "seq": 1,
            "kind": "adopt",
            "adds": {p: _run_info(store, p) for p in legacy},
            "removes": [],
        }
        with open(os.path.join(tmp, _record_name(1)), "w") as f:
            json.dump(rec, f, indent=1)
    os.rename(tmp, log)


def _sweep(store: str) -> None:
    """Delete what no committed record names and no writer can still
    commit: staging dirs, record tmp files and unnamed shard files
    stamped with a seq the log already holds (a crashed or refused
    merge's output, runs a compaction replaced). A later seq may
    belong to a merge in flight, and its files are left."""
    seqs = _log_seqs(store)
    last = seqs[-1] if seqs else 0
    live = set(_replay(_records(store, seqs)))
    for name in os.listdir(store):
        if name.startswith(_STAGING) and _seq_of(name) <= last:
            shutil.rmtree(os.path.join(store, name))
    for rel in _shard_file_paths(store):
        if rel not in live and _seq_of(rel.split("/", 1)[1]) <= last:
            os.remove(os.path.join(store, rel))
    log = os.path.join(store, _LOG)
    for name in os.listdir(log):
        if name.endswith(".tmp") and _seq_of(name) <= last:
            os.remove(os.path.join(log, name))


def _link(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError as e:
        if e.errno != errno.EXDEV:
            raise
        shutil.copy2(src, dst)


def _link_store(src: str, dst: str) -> None:
    """A new store at ``dst`` sharing the live files of ``src`` as of
    one listing of its log: its runs, ``_meta.parquet`` and ``_log/``
    records, hardlinked (runs and records are immutable, so sharing
    inodes is safe)."""
    os.makedirs(dst)
    _link(os.path.join(src, _META), os.path.join(dst, _META))
    if os.path.isdir(os.path.join(src, _LOG)):
        seqs = _log_seqs(src)
        live = _replay(_records(src, seqs))
        os.makedirs(os.path.join(dst, _LOG))
        for seq in seqs:
            name = os.path.join(_LOG, _record_name(seq))
            _link(os.path.join(src, name), os.path.join(dst, name))
    else:
        live = _shard_file_paths(src)
    for d, runs in _runs_by_shard(live).items():
        os.makedirs(os.path.join(dst, d))
        for rel in runs:
            _link(os.path.join(src, rel), os.path.join(dst, rel))


# ----------------------------------------------------------- the runs ----


def _fold_runs(store: str, runs: list[str]) -> pa.Table:
    """The state of the given runs (STATE_SCHEMA, shard included): one
    scan over their files, folded by the in-pipeline dedup kernel, one
    row per triple. A triple lives in one shard, so one fold over runs
    of many shards equals a fold per shard."""
    import pyarrow.dataset as ds

    from ..stages.shuffle import _merge_bucket

    if not runs:
        return STATE_SCHEMA.empty_table()
    rows = ds.dataset(
        [os.path.join(store, p) for p in runs],
        schema=STATE_SCHEMA,
        format="parquet",
        partitioning="hive",
        partition_base_dir=store,
    ).to_table()
    return (
        _merge_bucket(rows, STATE_KEYS + ["shard"])
        .select(STATE_SCHEMA.names)
        .cast(STATE_SCHEMA)
    )


def _move_runs(store: str, staging: str, tag: str) -> dict[str, dict]:
    """Combine each shard's staged files into one run of that shard,
    ``shard=<k>/run-<tag>.parquet`` (a rename when the write produced
    one file), so a merge adds at most one run per shard whatever the
    number of write tasks. The rows read are the delta's; shards are
    combined on a few threads (parquet decode releases the GIL).
    Return the runs with their rows and bytes."""
    from concurrent.futures import ThreadPoolExecutor

    if not os.path.isdir(staging):  # a delta with no triples
        return {}
    shards = [d for d in _shard_dirs(staging) if _shard_id(d) != _META_SHARD]

    def combine(d: str) -> tuple[str, dict]:
        files = sorted(
            os.path.join(staging, d, f)
            for f in os.listdir(os.path.join(staging, d))
            if f.endswith(".parquet")
        )
        os.makedirs(os.path.join(store, d), exist_ok=True)
        rel = f"{d}/run-{tag}.parquet"
        dst = os.path.join(store, rel)
        if len(files) == 1:
            os.rename(files[0], dst)
        else:
            pq.write_table(
                pa.concat_tables(
                    pq.ParquetFile(f).read().cast(_FILE_SCHEMA)
                    for f in files
                ),
                dst,
            )
        return rel, _run_info(store, rel)

    with ThreadPoolExecutor(4) as pool:
        return dict(pool.map(combine, shards))


def _meta_rows(staging: str) -> dict:
    """The record's account of the delta's meta rows, read from the
    reserved shard of the staged write: the dead letters (pred
    ``_error``: the page url and the exception type) and the sum of the
    marker-drop counts (pred ``_dropped_markers``, the count in obj)."""
    d = os.path.join(staging, f"shard={_META_SHARD}")
    rows = (
        pq.read_table(d, columns=["subj", "pred", "obj"], partitioning=None)
        .to_pylist()
        if os.path.isdir(d)
        else []
    )
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


def _fold_group(runs: list[str], rows: dict[str, int], max_runs: int) -> list[str]:
    """The runs of one shard a compaction folds into one: none while
    the shard holds at most ``max_runs``; else its smallest runs, the
    longest such prefix in which no run holds more rows than the others
    together, and at least as many as bring the shard to ``max_runs``.
    A run is then rewritten only into a run at least twice its size, so
    a row is rewritten about log2(shard rows / merge rows) times, not
    once per ``max_runs`` merges. With one run over the cap, the cap
    breaks that rule only when the runs' sizes span more than a factor
    of 2**(max_runs - 1)."""
    if len(runs) <= max_runs:
        return []
    runs = sorted(runs, key=lambda p: (rows[p], p))
    n, total = len(runs) - max_runs + 1, 0
    for j, p in enumerate(runs):
        if j and rows[p] <= total:
            n = max(n, j + 1)
        total += rows[p]
    return runs[:n]


def _compact(store: str, max_runs: int) -> list[int]:
    """Fold the runs :func:`_fold_group` picks in every shard holding
    more than ``max_runs`` live runs into one run, one shard at a time,
    and commit them as one record that removes the replaced runs (the
    sweep deletes them). Returns the compacted shards."""
    t0 = time.perf_counter()
    seq = _next_seq(store)
    records = _records(store)
    rows = {p: info["rows"] for r in records for p, info in r["adds"].items()}
    groups = {
        d: _fold_group(runs, rows, max_runs)
        for d, runs in _runs_by_shard(_replay(records)).items()
    }
    over = {d: runs for d, runs in groups.items() if runs}
    if not over:
        return []
    tag = _new_tag(seq)
    adds = {}
    for d, runs in over.items():
        rel = f"{d}/run-{tag}.parquet"
        pq.write_table(
            _fold_runs(store, runs).drop(["shard"]),
            os.path.join(store, rel),
        )
        adds[rel] = _run_info(store, rel)
    shards = [_shard_id(d) for d in over]
    _commit(
        store,
        seq,
        tag,
        {
            "kind": "compact",
            "adds": adds,
            "removes": [p for runs in over.values() for p in runs],
            "shards_compacted": shards,
            "phase_s": {"compact": time.perf_counter() - t0},
        },
    )
    return shards


def file_identity(path: str) -> dict:
    """How a merge record names an input file: its absolute path, its
    size in bytes and its parquet footer row count."""
    return {
        "path": os.path.abspath(path),
        "bytes": os.path.getsize(path),
        "rows": pq.read_metadata(path).num_rows,
    }


def _delta_identity(path: "str | list[str]") -> dict:
    files = [file_identity(f) for f in parquet_files(path)]
    return {
        "path": os.path.abspath(path) if isinstance(path, str) else None,
        "bytes": sum(f["bytes"] for f in files),
        "rows": sum(f["rows"] for f in files),
        "files": files,
    }


# --------------------------------------------------------- public API ----


def update_kg_state(
    state_dir: str, delta_pages_path: "str | list[str]", out_dir: str, config=None
) -> str:
    """Merge a DELTA crawl (a pages file, a list of them or a directory)
    into a persisted triple store: one Ray Data execution that writes
    the delta's folded rows as new runs, then one commit record (module
    docstring). Overlapping triples between base
    and delta MERGE (recrawled or re-reported relations bump
    n_mentions, advance score max, extend evidence) — that is the
    operator's purpose, mirroring update_url_state.
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

    t0 = time.perf_counter()
    state_dir = os.path.abspath(state_dir)
    out_dir = os.path.abspath(out_dir)
    if out_dir != state_dir and os.path.exists(out_dir):
        # publishing over it would need a delete step, and a crash in
        # that step would leave a partly deleted store
        raise FileExistsError(out_dir)
    meta = pq.read_table(os.path.join(state_dir, _META))
    n_shards = int(meta["n_shards"][0].as_py())
    if out_dir == state_dir:
        store = state_dir
    else:
        store = out_dir + ".tmp"
        shutil.rmtree(store, ignore_errors=True)
        _link_store(state_dir, store)
    _ensure_log(store)
    seq = _next_seq(store)
    tag = _new_tag(seq)
    staging = os.path.join(store, f"{_STAGING}{tag}")

    def delta_rows(batch: pa.Table) -> pa.Table:
        # per-batch combiner: one row per triple with the persisted
        # shard attached; meta rows pass as they are, in the reserved
        # shard
        is_meta = pc.starts_with(batch["pred"], "_")
        part = partial_dedup_batch(
            batch.filter(pc.invert(is_meta)), STATE_KEYS
        ).select(STATE_COLS)
        shard = _triple_shards(
            part.select(STATE_KEYS).to_pandas(), n_shards
        )
        meta = batch.filter(is_meta)
        n = meta.num_rows
        return pa.concat_tables([
            part.append_column("shard", pa.array(shard, pa.int64())).cast(
                STATE_SCHEMA
            ),
            meta.append_column("n_mentions", pa.nulls(n, pa.int64()))
            .append_column("shard", pa.array([_META_SHARD] * n, pa.int64()))
            .cast(STATE_SCHEMA),
        ])

    t1 = time.perf_counter()
    config = config or DEFAULT_CONFIG
    (
        doc_triples_dataset(
            linked_docs_dataset(read_pages(delta_pages_path), config), config
        )
        .map_batches(delta_rows, batch_format="pyarrow")
        .write_parquet(staging, partition_cols=["shard"])
    )
    t2 = time.perf_counter()
    runs = _move_runs(store, staging, tag)
    meta_rows = _meta_rows(staging)
    shutil.rmtree(staging, ignore_errors=True)
    record = {
        "kind": "merge",
        "delta": _delta_identity(delta_pages_path),
        "adds": runs,
        "removes": [],
        "shards_touched": sorted({_shard_id(p) for p in runs}),
        **meta_rows,
        "phase_s": {
            "prepare": t1 - t0,
            "execute": t2 - t1,
            "commit": time.perf_counter() - t2,
        },
    }
    _commit(store, seq, tag, record)
    try:
        _compact(store, MAX_RUNS)
    except FileExistsError:
        pass  # a racing writer took the seq; a later merge compacts
    _sweep(store)
    if store != out_dir:
        os.replace(store, out_dir)
    return out_dir


def init_kg_state(store: str, n_shards: int = 16) -> str:
    """Make ``store`` an empty triple store of ``n_shards`` shards
    unless it already is a store: write its ``_meta.parquet`` in place,
    by tmp + rename, so a crash leaves a whole meta file or none. Files
    already in the dir stay (``run.crawl_partitioned`` keeps its winner
    corpus there)."""
    meta = os.path.join(store, _META)
    if not os.path.isfile(meta):
        os.makedirs(store, exist_ok=True)
        pq.write_table(
            pa.table({"n_shards": pa.array([n_shards], pa.int64())}),
            meta + ".tmp",
        )
        os.replace(meta + ".tmp", meta)
    return store


def build_kg_state(
    pages_path: str, out_dir: str, n_shards: int = 16, config=None
) -> str:
    """Persist the triple store from a base crawl: the merge of that
    crawl into an empty store (:func:`init_kg_state`), so a killed
    build leaves no store at ``out_dir``. ``out_dir`` must not exist."""
    empty = out_dir + ".empty"
    shutil.rmtree(empty, ignore_errors=True)
    init_kg_state(empty, n_shards)
    try:
        return update_kg_state(empty, pages_path, out_dir, config)
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def compact_kg_state(state_dir: str) -> str:
    """Fold every shard of a store to one run, in place, committed as
    one compaction record. The state read back is unchanged."""
    _ensure_log(state_dir)
    _compact(state_dir, 1)
    _sweep(state_dir)
    return state_dir


def merge_records(state_dir: str) -> list[dict]:
    """The store's committed merge records, in seq order (none for a
    store without a log)."""
    if not os.path.isdir(os.path.join(state_dir, _LOG)):
        return []
    return [r for r in _records(state_dir) if r["kind"] == "merge"]


def kg_state_dataset(state_dir: str) -> "ray.data.Dataset":
    """The store's triples (STATE_COLS) as a Dataset, one row per
    triple: one read task per shard folds that shard's live runs, with
    no exchange. The live runs are those of the log at call time."""
    import ray.data

    # a store with no runs reads as one empty block
    shards = list(_runs_by_shard(_live_runs(state_dir)).values()) or [[]]

    def fold(batch: pa.Table) -> pa.Table:
        return _fold_runs(state_dir, batch["runs"][0].as_py()).select(STATE_COLS)

    return ray.data.from_items(
        [{"runs": runs} for runs in shards], override_num_blocks=len(shards)
    ).map_batches(fold, batch_size=1, batch_format="pyarrow")


def read_kg_state(state_dir: str) -> pd.DataFrame:
    """All state rows (STATE_COLS), sorted by triple key — the
    comparison/reporting shim: each shard's live runs folded into one
    row per triple. A store with no runs reads as an empty frame."""
    out = _fold_runs(state_dir, _live_runs(state_dir)).select(
        STATE_COLS
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
