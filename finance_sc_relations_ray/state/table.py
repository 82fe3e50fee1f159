"""One log-structured sharded table: the persisted store under the
triple store (pipelines/kg_state.py) and the url state
(pipelines/web.py).

The reference keeps its persisted outputs per partition and folds a
new crawl into them (``src/relation_extraction/reporter.py:39-73``).
Here a table is a directory of parquet files, log-structured as in an
LSM-tree. A :class:`Spec` parameterizes it: the key columns, the
schema of a run file and a fold that maps rows of that schema to one
row per key. The fold must be associative and commutative, so the
state does not depend on how rows are split into runs or in which
order they were merged.

- a row is routed to a ``shard=<k>/`` dir by a STABLE md5 of its key
  columns joined with ``\\x1f`` (:func:`route`); a one-row
  ``_meta.parquet`` records ``n_shards``;
- a shard holds immutable *run* files,
  ``shard=<k>/run-<seq>-<token>.parquet``: the ``seq`` of the record
  that adds the run and a token unique to the writing merge. A shard's
  state is the fold of its runs, and readers fold them;
- ``_log/<seq>.json`` records are the commits. A record names the runs
  it adds and the runs it removes; the live runs of a table are the
  replay of its log in ``seq`` order. A file no record names does not
  exist for readers, and a later writer deletes it once its ``seq`` is
  committed. A table without a ``_log/`` dir (written before the log)
  reads every shard file as live; its first writer adopts them in a
  record of its own;
- a merge (:func:`merge`) is one Ray Data execution: the caller's lazy
  Dataset of rows, each with its ``shard``, written by
  ``write_parquet(partition_cols=["shard"])`` into
  ``_staging-<seq>-<token>/``. The driver combines each shard's
  written files into ONE run of that shard (a read sized to the
  delta), so a merge adds at most one run per shard whatever the
  number of write tasks, and commits one record. Rows in the reserved
  shard :data:`RESERVED_SHARD` never become runs: the caller turns
  them into record fields. Base runs are never read, decoded or
  rewritten, so a merge costs the delta, not the table;
- compaction folds runs of a shard into one run, one shard at a time
  (peak memory is one shard), and commits them as one record that
  removes the runs it replaces. A merge compacts every shard that
  holds more than :data:`MAX_RUNS` live runs, folding its smallest
  runs of similar size (:func:`_fold_group`, size-tiered as in an
  LSM-tree), so a long chain of merges rewrites each row about
  log2(shard rows / merge rows) times, not once per ``MAX_RUNS``
  merges; :func:`compact` folds every shard to one run;
- a build is the same merge into an empty table (:func:`init`,
  :func:`empty_table`).

Crash safety, against the merging process dying at any point (not the
host losing power: nothing is fsync'ed). A commit creates its record
exclusively: it writes a tmp file private to the merge and hardlinks
it to ``_log/<seq>.json``, which fails if a record with that ``seq``
exists. Until the record exists, nothing the merge wrote is live;
after it, all of it is. In place (``out_dir == state_dir``) that is
the whole protocol: no tmp tree and no rmtree of the table. Into a new
directory, the source table's live runs, ``_meta.parquet`` and
``_log/`` as of one log listing are hardlinked into ``<out_dir>.tmp``
(copied across filesystems), the merge runs in place there, and the
tree is renamed to ``out_dir``, which must not exist (so publishing
deletes nothing); the source is never written.

Writers racing on one table: the loser of a ``seq`` is refused
(:class:`FileExistsError`), deletes only its own files (their names
carry its token) and none of its runs becomes visible; a compaction
that loses its ``seq`` leaves the merge it follows committed. A
writer deletes an unnamed file only when the file's ``seq`` is
already committed, so it cannot delete a merge still in flight (whose
``seq`` is not). A merge into a new directory from a source that
another writer is compacting may fail (a replaced run deleted before
it was linked); it publishes nothing then. Two merges into the same
new ``out_dir`` are not supported.

Each merge record carries the merge's numbers: the delta's identity
(path, bytes, parquet footer row count, and ``files``: one ``{path,
bytes, rows}`` per input file), the runs added with their rows and
bytes, the shards touched and the wall time per phase.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import re
import shutil
import time
import uuid
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.page_read import parquet_files

# live runs a shard may hold after a merge: a merge adds at most one
# run per shard, and a shard over the cap compacts (_fold_group)
MAX_RUNS = 8
# the shard a merge's rows take to reach the record instead of a run
RESERVED_SHARD = -1
_META = "_meta.parquet"
_LOG = "_log"
_STAGING = "_staging-"


@dataclass(frozen=True)
class Spec:
    """What a table holds: ``keys`` route a row to its shard,
    ``schema`` is a run file's schema (the shard lives in the dir
    name), and ``fold`` maps rows of ``schema`` to one row per key."""

    keys: list[str]
    schema: pa.Schema
    fold: Callable[[pa.Table], pa.Table]


def route(df: pd.DataFrame, keys: list[str], n_shards: int) -> np.ndarray:
    """Stable PERSISTED shard routing: md5 of the key columns joined
    with ``\\x1f`` (functions/textops.fingerprint, stable across
    processes, unlike pd.util.hash_pandas_object), computed once per
    distinct key. Tables on disk depend on it: never change it."""
    from ..functions import textops

    joined = df[keys[0]].astype(str)
    for k in keys[1:]:
        joined = joined + "\x1f" + df[k].astype(str)
    codes, uniq = pd.factorize(joined)
    shards = np.fromiter(
        (int(textops.fingerprint(k)[:8], 16) % n_shards for k in uniq),
        dtype=np.int64,
        count=len(uniq),
    )
    return shards[codes]


def sharded(spec: Spec, rows: pa.Table, n_shards: int) -> pa.Table:
    """``rows`` in ``spec.schema`` with the ``shard`` column a merge's
    write partitions by."""
    shard = route(rows.select(spec.keys).to_pandas(), spec.keys, n_shards)
    return (
        rows.select(spec.schema.names)
        .cast(spec.schema)
        .append_column("shard", pa.array(shard, pa.int64()))
    )


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
    """The seq stamped at the head of a run, staging or record tmp
    name; 0 for a name without one, such as a file adopted from a table
    written before the log (whose name may hold any digits)."""
    m = re.match(r"(?:run-|_staging-)?(\d{8})-", name)
    return int(m.group(1)) if m else 0


def _shard_id(rel: str) -> int:
    """The shard of a run path, ``shard=<k>/...``."""
    return int(rel.split("/", 1)[0].split("=", 1)[1])


def _records(store: str, seqs: list[int] | None = None) -> list[dict]:
    """The committed records of a table (or those of ``seqs``), in seq
    order."""
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
    log; every shard file when the table has no log."""
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
    """Give a table written before the log a ``_log/`` dir whose first
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
    """A new table at ``dst`` sharing the live files of ``src`` as of
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


def _fold_runs(spec: Spec, store: str, runs: list[str]) -> pa.Table:
    """The state of the given runs: one scan over their files, folded
    to one row per key. A key lives in one shard, so one fold over runs
    of many shards equals a fold per shard."""
    import pyarrow.dataset as ds

    if not runs:
        return spec.schema.empty_table()
    rows = ds.dataset(
        [os.path.join(store, p) for p in runs],
        schema=spec.schema,
        format="parquet",
    ).to_table()
    return spec.fold(rows).select(spec.schema.names).cast(spec.schema)


def _move_runs(store: str, staging: str, tag: str) -> dict[str, dict]:
    """Combine each shard's staged files into one run of that shard,
    ``shard=<k>/run-<tag>.parquet`` (a rename when the write produced
    one file), so a merge adds at most one run per shard whatever the
    number of write tasks. The rows read are the delta's; shards are
    combined on a few threads (parquet decode releases the GIL).
    Return the runs with their rows and bytes."""
    from concurrent.futures import ThreadPoolExecutor

    if not os.path.isdir(staging):  # a delta with no rows
        return {}
    shards = [d for d in _shard_dirs(staging) if _shard_id(d) != RESERVED_SHARD]

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
            # one write's files: every block was cast to the table's
            # schema before the write
            pq.write_table(
                pa.concat_tables(pq.ParquetFile(f).read() for f in files), dst
            )
        return rel, _run_info(store, rel)

    with ThreadPoolExecutor(4) as pool:
        return dict(pool.map(combine, shards))


def _reserved_rows(spec: Spec, staging: str) -> pa.Table:
    """The rows the merge's write put in the reserved shard."""
    d = os.path.join(staging, f"shard={RESERVED_SHARD}")
    if not os.path.isdir(d):
        return spec.schema.empty_table()
    return pq.read_table(d, partitioning=None)


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


def _compact(spec: Spec, store: str, max_runs: int) -> list[int]:
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
        pq.write_table(_fold_runs(spec, store, runs), os.path.join(store, rel))
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


def init(store: str, n_shards: int) -> str:
    """Make ``store`` an empty table of ``n_shards`` shards unless it
    already is a table: write its ``_meta.parquet`` in place, by tmp +
    rename, so a crash leaves a whole meta file or none. Files already
    in the dir stay."""
    meta = os.path.join(store, _META)
    if not os.path.isfile(meta):
        os.makedirs(store, exist_ok=True)
        pq.write_table(
            pa.table({"n_shards": pa.array([n_shards], pa.int64())}),
            meta + ".tmp",
        )
        os.replace(meta + ".tmp", meta)
    return store


@contextlib.contextmanager
def empty_table(out_dir: str, n_shards: int):
    """An empty table beside ``out_dir`` for a build to merge from
    into ``out_dir``, removed afterwards: a killed build leaves no
    table at ``out_dir``."""
    empty = out_dir + ".empty"
    shutil.rmtree(empty, ignore_errors=True)
    init(empty, n_shards)
    try:
        yield empty
    finally:
        shutil.rmtree(empty, ignore_errors=True)


def merge(
    spec: Spec,
    state_dir: str,
    out_dir: str,
    rows: "Callable[[int], ray.data.Dataset]",
    delta: "str | list[str]",
    reserved: Callable[[pa.Table], dict] | None = None,
) -> str:
    """Merge a delta into a table: ``rows(n_shards)`` is the lazy
    Dataset of the delta's rows in ``spec.schema`` plus ``shard``
    (:func:`sharded`). Its one execution writes them as at most one new
    run per shard, then one record commits them (module docstring).
    The record names ``delta`` (the input files) and carries
    ``reserved(rows)`` of the rows in :data:`RESERVED_SHARD`.
    ``out_dir`` may be ``state_dir``; otherwise it must not exist
    (:class:`FileExistsError`), and the merge runs on a hardlinked copy
    that is renamed to ``out_dir`` at the end."""
    t0 = time.perf_counter()
    state_dir = os.path.abspath(state_dir)
    out_dir = os.path.abspath(out_dir)
    if out_dir != state_dir and os.path.exists(out_dir):
        # publishing over it would need a delete step, and a crash in
        # that step would leave a partly deleted table
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
    t1 = time.perf_counter()
    rows(n_shards).write_parquet(staging, partition_cols=["shard"])
    t2 = time.perf_counter()
    runs = _move_runs(store, staging, tag)
    fields = reserved(_reserved_rows(spec, staging)) if reserved else {}
    shutil.rmtree(staging, ignore_errors=True)
    record = {
        "kind": "merge",
        "delta": _delta_identity(delta),
        "adds": runs,
        "removes": [],
        "shards_touched": sorted({_shard_id(p) for p in runs}),
        **fields,
        "phase_s": {
            "prepare": t1 - t0,
            "execute": t2 - t1,
            "commit": time.perf_counter() - t2,
        },
    }
    _commit(store, seq, tag, record)
    try:
        _compact(spec, store, MAX_RUNS)
    except FileExistsError:
        pass  # a racing writer took the seq; a later merge compacts
    _sweep(store)
    if store != out_dir:
        os.replace(store, out_dir)
    return out_dir


def compact(spec: Spec, state_dir: str) -> str:
    """Fold every shard of a table to one run, in place, committed as
    one compaction record. The state read back is unchanged."""
    _ensure_log(state_dir)
    _compact(spec, state_dir, 1)
    _sweep(state_dir)
    return state_dir


def merge_records(state_dir: str) -> list[dict]:
    """The table's committed merge records, in seq order (none for a
    table without a log)."""
    if not os.path.isdir(os.path.join(state_dir, _LOG)):
        return []
    return [r for r in _records(state_dir) if r["kind"] == "merge"]


def dataset(spec: Spec, state_dir: str) -> "ray.data.Dataset":
    """The table's rows as a Dataset, one row per key: one read task
    per shard folds that shard's live runs, with no exchange. The live
    runs are those of the log at call time."""
    import ray.data

    # a table with no runs reads as one empty block
    shards = list(_runs_by_shard(_live_runs(state_dir)).values()) or [[]]

    def fold(batch: pa.Table) -> pa.Table:
        return _fold_runs(spec, state_dir, batch["runs"][0].as_py())

    return ray.data.from_items(
        [{"runs": runs} for runs in shards], override_num_blocks=len(shards)
    ).map_batches(fold, batch_size=1, batch_format="pyarrow")


def read_frame(spec: Spec, state_dir: str) -> pd.DataFrame:
    """All rows, one per key, sorted by key — the comparison/reporting
    shim. A table with no runs reads as an empty frame."""
    out = _fold_runs(spec, state_dir, _live_runs(state_dir)).to_pandas()
    return out.sort_values(spec.keys).reset_index(drop=True)
