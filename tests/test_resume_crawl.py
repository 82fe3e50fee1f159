"""Resumable composed crawl runner (run.crawl_partitioned): an
interrupted run must resume at part granularity WITHOUT re-running the
global winner fold, and the final merged triples must equal the
one-shot kg_from_crawl row-for-row (in kg_from_crawl's column order)."""

import os

import pandas as pd

from finance_sc_relations_ray.pipelines.kg import (
    kg_from_crawl,
    pages_with_recrawl_content_parquet_for,
)
from finance_sc_relations_ray.pipelines.run import (
    crawl_partitioned,
    merge_parts,
)

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame, columns=None) -> pd.DataFrame:
    df = df[list(columns if columns is not None else df.columns)].copy()
    df["score"] = df["score"].astype("float64").round(4)
    df["sentence_ids"] = [list(x) for x in df["sentence_ids"]]
    return df.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def _winner_stats(winners_dir):
    return sorted(
        (os.path.join(root, f), os.stat(os.path.join(root, f)).st_mtime_ns)
        for root, _d, files in os.walk(winners_dir)
        for f in files
        if f.endswith(".parquet")
    )


def test_interrupt_resume_matches_one_shot(tmp_path):
    fixture = pages_with_recrawl_content_parquet_for(SF)
    out = str(tmp_path / "crawl_out")

    # interrupted run: winner fold completes, only the first chunk of
    # extraction parts does
    partial = crawl_partitioned(
        fixture, out, num_parts=4, parts_per_chunk=1, max_chunks=1
    )
    assert partial["parts_run"] == 1
    winners_dir = partial["winners_dir"]
    assert os.path.isfile(os.path.join(winners_dir, "_WINNERS_DONE"))
    stats_before = _winner_stats(winners_dir)

    # resume: remaining parts run; the winner fold must NOT rerun
    # (byte/mtime-identical files prove the stage-0 marker was honored)
    resumed = crawl_partitioned(
        fixture, out, num_parts=4, parts_per_chunk=1
    )
    assert resumed["parts_run"] == 3 and resumed["parts_done"] == 4
    assert _winner_stats(winners_dir) == stats_before

    exp = _norm(kg_from_crawl(fixture).to_pandas())
    got = _norm(merge_parts(out).to_pandas(), exp.columns)
    assert len(got) == len(exp)
    for c in exp.columns:
        assert got[c].tolist() == exp[c].tolist(), c


def test_fresh_run_matches_one_shot(tmp_path):
    fixture = pages_with_recrawl_content_parquet_for(SF)
    out = str(tmp_path / "crawl_out_fresh")
    res = crawl_partitioned(fixture, out, num_parts=2)
    assert res["parts_run"] == 2
    exp = _norm(kg_from_crawl(fixture).to_pandas())
    got = _norm(merge_parts(out).to_pandas(), exp.columns)
    pd.testing.assert_frame_equal(got, exp)
