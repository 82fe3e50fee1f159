"""Checkpoint-resume: partitioned output + manifest, interrupted run
resumed to completion, idempotent re-runs."""

import os

import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines.run import merge_parts, run_partitioned
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.state.manifest import Manifest


@pytest.fixture(scope="module")
def pages_path(tmp_path_factory):
    """Directory of 8 parquet files × 10 pages — partitions are input
    FILE groups, so the fixture must be multi-file."""
    d = tmp_path_factory.mktemp("pages_resume")
    pages = generate_pages(list(range(80)))
    for i in range(8):
        pq.write_table(pages.slice(i * 10, 10), str(d / f"pages-{i}.parquet"))
    return str(d)


def test_interrupt_and_resume(pages_path, tmp_path):
    out = str(tmp_path / "out")
    # simulate an interrupted run: only the first chunk completes
    r1 = run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=4,
                         max_chunks=1)
    assert r1["parts_done"] == 4
    m = Manifest(out)
    assert len(m.completed_parts()) == 4
    # resume finishes the remaining parts and skips completed ones —
    # pruned at the READ: the resumed run touches only the 4 unfinished
    # parts' files (1 file per part here)
    r2 = run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=4)
    assert r2["parts_done"] == 8
    assert r2["parts_run"] == 4  # only the missing parts ran
    assert r2["files_read"] == 4  # skipped parts' files never read

    # per-partition lineage metrics present
    for rec in m.metrics():
        assert {"part", "n_pages", "n_triples", "seconds"} <= set(rec)
    assert sum(rec["n_pages"] for rec in m.metrics()) == 80

    # output readable, partition dirs exist
    parts = [p for p in os.listdir(out) if p.startswith("part=")]
    assert len(parts) > 0

    # a fresh complete run into a new dir yields the same global triples
    out2 = str(tmp_path / "out2")
    run_partitioned(pages_path, out2, num_parts=8, parts_per_chunk=8)
    a = merge_parts(out).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    b = merge_parts(out2).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    assert a.equals(b)


def test_compact_parts(pages_path, tmp_path):
    from finance_sc_relations_ray.pipelines.run import compact_parts, merge_parts

    out = str(tmp_path / "compact_out")
    # two chunked runs produce multiple files per part
    run_partitioned(pages_path, out, num_parts=4, parts_per_chunk=2)
    before = merge_parts(out).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    stats = compact_parts(out)
    after = merge_parts(out).to_pandas().sort_values(
        ["subj", "pred", "obj"]).reset_index(drop=True)
    assert before.equals(after)  # compaction is content-preserving
    assert stats["files_after"] <= stats["files_before"]


def test_merge_parts_local_collapse_equals_distributed(pages_path, tmp_path):
    """The gate-scale local collapse (count-gated, minhash-pushdown
    pattern) must be row-for-row identical to the salted exchange it
    replaces — same merge kernels, associativity makes one local pass
    equal the bucketed plan."""
    out = str(tmp_path / "out")
    run_partitioned(pages_path, out, num_parts=8, parts_per_chunk=8)
    local = merge_parts(out).to_pandas()  # default gate: local path
    dist = merge_parts(out, local_rows_gate=0).to_pandas()  # exchange
    key = ["subj", "pred", "obj"]
    local = local.sort_values(key).reset_index(drop=True)
    dist = dist.sort_values(key).reset_index(drop=True)
    assert sorted(local.columns) == sorted(dist.columns)
    # one kernel: both branches hand back the same cell types
    assert {c: type(local[c][0]) for c in dist.columns} == {
        c: type(dist[c][0]) for c in dist.columns
    }
    for c in dist.columns:
        lv, dv = local[c].tolist(), dist[c].tolist()
        if c == "sentence_ids":
            lv = [list(x) for x in lv]
            dv = [list(x) for x in dv]
        assert lv == dv, c
