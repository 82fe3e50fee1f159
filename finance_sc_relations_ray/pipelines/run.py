"""Resumable execution of the KG pipeline into a triple store.

``out_dir`` is a triple store (pipelines/kg_state.py; 16 shards unless
``out_dir`` already is a store):

    out_dir/
      _meta.parquet                       n_shards
      shard=<k>/run-<seq>-<token>.parquet immutable runs of triples
      _log/<seq>.json                     commit records
      _winner_pages/                      crawl_partitioned's corpus

A part is a round-robin group of the sorted input files and a chunk is
``parts_per_chunk`` parts. Each chunk is one in-place
``update_kg_state(out_dir, chunk_files, out_dir)``: one Ray Data
execution and one commit record, which names the chunk's files
(``{path, bytes, rows}``) and carries their dead letters and
marker-drop count.

Resume is by file, as the reference resumes by the set difference of
processed file ids (src/glue/glue_etl.py:649-679). A file is done when a
merge record names it with the same bytes and parquet footer row count;
a run merges only the files that are not done, so it never reads a done
file and it merges a file added to the input since the last run. A file
is named by its path under the pages root (:func:`_held_name`), so the
input reached by another path is not merged again. A held name whose
bytes or rows changed raises ``ValueError``: merges are additive, so
merging it again would count its triples twice.

Crash granularity is the chunk: a chunk commits as one record, so a
crash leaves it wholly merged or not merged at all (the store's crash
protocol), and the next run merges it again. ``merge_parts(out_dir)``
reads the final triples.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa

from ..config import DEFAULT_CONFIG, KGConfig
from ..sources.page_read import parquet_files
from . import kg_state


def _held_name(held: str, root: str, names: dict) -> str | None:
    """The input file (key of ``names``) a record's absolute path names:
    its path under the pages ``root`` when it lies there, else (the
    input reached through another cwd, symlink, mount or job dir) its
    longest path suffix that names an input file."""
    if held.startswith(root + os.sep):
        name = os.path.relpath(held, root)
        return name if name in names else None
    parts = held.split(os.sep)
    for i in range(1, len(parts)):
        name = os.path.join(*parts[i:])
        if name in names:
            return name
    return None


def _done_files(out_dir: str, root: str, files: list[str]) -> set[str]:
    """The ``files`` a merge record of the store names with the same
    bytes and rows; ``ValueError`` for a named file that changed."""
    names = {os.path.relpath(f, root): f for f in files}
    held: dict[str, list] = {}
    for rec in kg_state.merge_records(out_dir):
        for f in rec["delta"].get("files", []):
            name = _held_name(f["path"], root, names)
            if name is not None:
                held.setdefault(name, []).append((rec["seq"], f))
    done = set()
    for name, entries in held.items():
        now = kg_state.file_identity(names[name])
        if not any((f["bytes"], f["rows"]) == (now["bytes"], now["rows"])
                   for _, f in entries):
            seq, was = entries[-1]
            raise ValueError(
                f"{now['path']} changed since merge record {seq} ({was} now "
                f"{now}); merging it again would count its triples twice"
            )
        done.add(names[name])
    return done


def run_partitioned(
    pages_path: str,
    out_dir: str,
    num_parts: int = 16,
    parts_per_chunk: int = 8,
    config: KGConfig = DEFAULT_CONFIG,
    max_chunks: int | None = None,
) -> dict:
    """Run (or resume) the pipeline over the input files the store at
    ``out_dir`` does not hold yet, one merge per chunk of parts (module
    docstring). Returns ``parts_done`` (parts whose files the store
    holds), ``parts_run``, ``files_read`` and ``rows_written`` (rows of
    the runs this run's merges added, which depends on the block
    layout; ``merge_parts`` has the triples). ``num_parts`` clamps to
    the input file count; ``max_chunks`` exists for tests to simulate
    an interrupted run."""
    root = os.path.abspath(pages_path)
    if not os.path.isdir(root):
        root = os.path.dirname(root)
    files = [os.path.abspath(f) for f in parquet_files(pages_path)]
    done = _done_files(out_dir, root, files)
    kg_state.init_kg_state(out_dir)
    num_parts = min(num_parts, len(files))
    parts = [files[p::num_parts] for p in range(num_parts)]
    todo = [p for p in range(num_parts) if not done.issuperset(parts[p])]
    chunks = [
        todo[i : i + parts_per_chunk] for i in range(0, len(todo), parts_per_chunk)
    ][:max_chunks]

    n_records = len(kg_state.merge_records(out_dir))
    for chunk in chunks:
        chunk_files = [f for p in chunk for f in parts[p] if f not in done]
        kg_state.update_kg_state(out_dir, chunk_files, out_dir, config)
    parts_run = sum(len(chunk) for chunk in chunks)
    added = kg_state.merge_records(out_dir)[n_records:]
    return {
        "parts_done": num_parts - len(todo) + parts_run,
        "parts_run": parts_run,
        "rows_written": sum(r["rows"] for rec in added for r in rec["adds"].values()),
        "files_read": sum(len(rec["delta"]["files"]) for rec in added),
    }


def merge_parts(out_dir: str) -> "ray.data.Dataset":
    """The store's triples, one row per triple: one Ray task per shard
    folds that shard's live runs (``kg_state.kg_state_dataset``)."""
    return kg_state.kg_state_dataset(out_dir)


def crawl_partitioned(
    pages_path: str,
    out_dir: str,
    num_parts: int = 16,
    parts_per_chunk: int = 8,
    config: KGConfig = DEFAULT_CONFIG,
    max_chunks: int | None = None,
) -> dict:
    """Resumable execution of the composed crawl flagship
    (kg.kg_from_crawl) — the shape a real crawl-scale run uses:

    - **Stage 0 (global, idempotent)**: the url-canonical winner fold
      (web.url_keep_latest_pages_ds carrying html+lang) writes the
      newest-snapshot corpus to ``out_dir/_winner_pages/`` via a
      distributed ``write_parquet`` into a tmp dir + atomic rename,
      marked with ``_WINNERS_DONE``. The fold is ONE exchange and is
      the cheap stage (no model inference); a crash before the marker
      reruns it from scratch — never trusting a half-written fold.
      Dedup must PRECEDE partitioning: snapshots of one page can sit
      in different input files, so a per-part fold would leak
      duplicate pages across resume units.
    - **Stage 1+ (per chunk, resumable)**: ``run_partitioned`` over the
      winner files into the store at ``out_dir`` — extraction/NER/RE
      pay per winner page exactly once, a rerun merges only the winner
      files the store's log does not hold.

    Final triples (``merge_parts(out_dir)``) equal the one-shot
    ``kg_from_crawl`` row-for-row (tests/test_resume_crawl.py, incl.
    an interrupted-and-resumed run that must not re-run the fold)."""

    winners_dir = os.path.join(out_dir, "_winner_pages")
    marker = os.path.join(winners_dir, "_WINNERS_DONE")
    if not os.path.isfile(marker):
        from .web import url_keep_latest_pages_ds

        page_schema = pa.schema(
            [("url", pa.string()), ("html", pa.binary()), ("lang", pa.string())]
        )
        n_shards = max(num_parts, 16)

        def to_pages(batch: pa.Table) -> pa.Table:
            import pandas as pd

            out = batch.select(["url", "html", "lang"]).cast(page_schema)
            # file-layout shard (hive wpart=<k>/): the winner corpus
            # must land in MANY files or stage 1's part granularity
            # collapses — sharding at the write costs no extra
            # exchange (each block scatters to the dirs it touches)
            wp = (
                pd.util.hash_pandas_object(
                    out["url"].to_pandas(), index=False
                ).to_numpy()
                % n_shards
            ).astype("int32")
            return out.append_column("wpart", pa.array(wp, pa.int32()))

        tmp = winners_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp, exist_ok=True)
        url_keep_latest_pages_ds(
            pages_path, columns=["html", "lang"]
        ).map_batches(to_pages, batch_format="pyarrow").write_parquet(
            tmp, partition_cols=["wpart"]
        )
        shutil.rmtree(winners_dir, ignore_errors=True)
        os.replace(tmp, winners_dir)
        with open(marker, "w") as fh:
            fh.write("ok\n")

    res = run_partitioned(
        winners_dir,
        out_dir,
        num_parts=num_parts,
        parts_per_chunk=parts_per_chunk,
        config=config,
        max_chunks=max_chunks,
    )
    res["winners_dir"] = winners_dir
    return res
