"""Checkpoint-resume of the partitioned runner: every chunk is one merge
into a triple store, a rerun skips the input files the store's log
holds, and the merged triples equal a fresh run however the work was
split, interrupted or extended."""

import os
import shutil

import pandas as pd
import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines import kg_state as K
from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
from finance_sc_relations_ray.pipelines.run import merge_parts, run_partitioned
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.state import table as T


class Crash(Exception):
    pass


@pytest.fixture(scope="module")
def page_files(tmp_path_factory):
    """Nine parquet files × 10 pages: parts are input FILE groups, so
    the fixture must be multi-file. Tests copy the first eight (or all
    nine) into their own input dir."""
    d = tmp_path_factory.mktemp("pages_resume")
    pages = generate_pages(list(range(90)))
    paths = []
    for i in range(9):
        paths.append(str(d / f"pages-{i}.parquet"))
        pq.write_table(pages.slice(i * 10, 10), paths[-1])
    return paths


def _inputs(d, page_files, n=8):
    os.makedirs(d)
    for f in page_files[:n]:
        shutil.copy(f, os.path.join(d, os.path.basename(f)))
    return str(d)


def _merged(out):
    df = merge_parts(out).to_pandas()
    df["sentence_ids"] = [list(x) for x in df["sentence_ids"]]
    return df.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def _fresh(tmp_path, page_files, n):
    out = str(tmp_path / f"fresh-out{n}")
    run_partitioned(_inputs(tmp_path / f"fresh{n}", page_files, n), out)
    return _merged(out)


def _named_files(out):
    return [f["path"] for r in K.merge_records(out) for f in r["delta"]["files"]]


def test_interrupt_and_resume(page_files, tmp_path):
    pages_path = _inputs(tmp_path / "pages", page_files)
    out = str(tmp_path / "out")
    # simulate an interrupted run: only the first chunk completes
    r1 = run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=4,
                         max_chunks=1)
    assert r1["parts_done"] == 4
    assert len(K.merge_records(out)) == 1
    # resume finishes the remaining parts and skips completed ones —
    # pruned at the READ: the resumed run touches only the 4 unfinished
    # parts' files (1 file per part here)
    r2 = run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=4)
    assert r2["parts_done"] == 8
    assert r2["parts_run"] == 4  # only the missing parts ran
    assert r2["files_read"] == 4  # skipped parts' files never read

    # per-chunk lineage in the commit records: the files with their
    # pages, the runs added with their rows, the phase times
    recs = K.merge_records(out)
    assert len(recs) == 2
    for rec in recs:
        assert {"delta", "adds", "phase_s", "n_errors"} <= set(rec)
    assert sum(f["rows"] for r in recs for f in r["delta"]["files"]) == 80
    assert r1["rows_written"] + r2["rows_written"] == sum(
        run["rows"] for r in recs for run in r["adds"].values()
    )

    # output readable, shard dirs exist
    assert [p for p in os.listdir(out) if p.startswith("shard=")]

    # a fresh complete run into a new dir yields the same global triples
    got = _merged(out)
    pd.testing.assert_frame_equal(got, _fresh(tmp_path, page_files, 8))
    # and so does the one-shot pipeline, without its meta rows
    exp = build_kg_pipeline(pages_path).to_pandas()
    exp = exp[~exp["pred"].str.startswith("_")].reset_index(drop=True)
    exp["sentence_ids"] = [list(x) for x in exp["sentence_ids"]]
    pd.testing.assert_frame_equal(
        got[list(exp.columns)],
        exp.sort_values(["subj", "pred", "obj"]).reset_index(drop=True),
    )


def test_resume_at_another_part_count_equals_a_fresh_run(page_files, tmp_path):
    """Parts are renumbered when ``num_parts`` changes, so resuming by
    part id skipped parts whose files were never merged."""
    pages_path = _inputs(tmp_path / "pages", page_files)
    out = str(tmp_path / "out")
    run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=4,
                    max_chunks=1)
    r = run_partitioned(pages_path, out, num_parts=4)
    assert r["files_read"] == 4 and r["parts_done"] == 4
    pd.testing.assert_frame_equal(_merged(out), _fresh(tmp_path, page_files, 8))
    assert sorted(_named_files(out)) == sorted(
        os.path.join(pages_path, f) for f in os.listdir(pages_path)
    )


def test_a_file_added_after_a_complete_run_is_merged(page_files, tmp_path):
    pages_path = _inputs(tmp_path / "pages", page_files)
    out = str(tmp_path / "out")
    run_partitioned(pages_path, out, num_parts=8)
    shutil.copy(page_files[8], pages_path)
    r = run_partitioned(pages_path, out, num_parts=8)
    assert r["files_read"] == 1
    pd.testing.assert_frame_equal(_merged(out), _fresh(tmp_path, page_files, 9))


def test_the_same_input_through_another_path_is_not_merged_again(
    page_files, tmp_path, monkeypatch
):
    """Records hold absolute paths; a file is named by its path under
    the pages root, so a symlink, a relative path from another cwd or a
    copy of the dir reaches the files the store already holds."""
    pages_path = _inputs(tmp_path / "pages", page_files)
    out = str(tmp_path / "out")
    run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=4,
                    max_chunks=1)
    link = str(tmp_path / "link")
    os.symlink(pages_path, link)
    assert run_partitioned(link, out, num_parts=8)["files_read"] == 4
    before = _tree_bytes(out)
    shutil.copytree(pages_path, tmp_path / "moved" / "pages")
    monkeypatch.chdir(tmp_path / "moved")
    for path in ("pages", link, pages_path):
        r = run_partitioned(path, out, num_parts=4)
        assert r["files_read"] == 0 and r["parts_run"] == 0
    assert _tree_bytes(out) == before
    pd.testing.assert_frame_equal(_merged(out), _fresh(tmp_path, page_files, 8))
    # a new file named like a held one in another dir is a new name
    os.makedirs("pages/sub")
    shutil.copy(page_files[8], "pages/sub/pages-0.parquet")
    assert run_partitioned("pages", out, num_parts=4)["files_read"] == 1
    pd.testing.assert_frame_equal(_merged(out), _fresh(tmp_path, page_files, 9))


def _tree_bytes(root):
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


def test_a_merged_file_rewritten_in_place_is_refused(page_files, tmp_path):
    pages_path = _inputs(tmp_path / "pages", page_files)
    out = str(tmp_path / "out")
    run_partitioned(pages_path, out, num_parts=8)
    before = _tree_bytes(out)
    pq.write_table(
        generate_pages(list(range(200, 212))),
        os.path.join(pages_path, "pages-3.parquet"),
    )
    with pytest.raises(ValueError, match="pages-3.parquet"):
        run_partitioned(pages_path, out, num_parts=8)
    assert _tree_bytes(out) == before


def test_a_failed_chunk_commit_is_merged_by_the_rerun(
    page_files, tmp_path, monkeypatch
):
    pages_path = _inputs(tmp_path / "pages", page_files)
    out = str(tmp_path / "out")
    real = T._commit
    calls = []

    def commit(store, seq, tag, record):
        # the second chunk's merge dies before its record is committed
        if record["kind"] == "merge":
            calls.append(seq)
            if len(calls) == 2:
                raise Crash
        return real(store, seq, tag, record)

    monkeypatch.setattr(T, "_commit", commit)
    with pytest.raises(Crash):
        run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=2)
    assert len(K.merge_records(out)) == 1
    monkeypatch.setattr(T, "_commit", real)
    r = run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=2)
    assert r["files_read"] == 6 and r["parts_run"] == 6
    pd.testing.assert_frame_equal(_merged(out), _fresh(tmp_path, page_files, 8))
    named = _named_files(out)
    assert len(named) == len(set(named)) == 8
    # nothing the failed merge wrote is left behind
    live = set(T._live_runs(out))
    assert set(T._shard_file_paths(out)) == live
    assert not [n for n in os.listdir(out) if n.startswith("_staging-")]
