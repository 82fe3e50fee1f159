"""Poison-row quarantine: a malformed page becomes a dead-letter row,
the rest of the job completes."""

import pyarrow as pa
import pyarrow.parquet as pq

from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
from finance_sc_relations_ray.pipelines.kg_state import merge_records
from finance_sc_relations_ray.pipelines.run import merge_parts, run_partitioned
from finance_sc_relations_ray.sources.pages import generate_pages


def _poisoned_pages(tmp_path):
    good = generate_pages(list(range(30)))
    poison = pa.table(
        {
            "url": ["https://poison.example/1"],
            "warc_ts": pa.array([good["warc_ts"][0].as_py()], pa.timestamp("us")),
            "html": [b"<html><body><p>\xff\xfe broken utf8</p></body></html>"],
            "text": ["x"],
            "lang": ["en"],
        }
    )
    t = pa.concat_tables([good, poison])
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)
    return path


def test_poison_page_quarantined(tmp_path):
    path = _poisoned_pages(tmp_path)
    df = build_kg_pipeline(path).to_pandas()
    errs = df[df["pred"] == "_error"]
    assert len(errs) == 1
    assert errs.iloc[0]["subj"] == "https://poison.example/1"
    assert "DecodeError" in errs.iloc[0]["obj"]
    # good pages still produced triples
    assert len(df[df["pred"] == "supplies_to"]) > 0


def test_partitioned_run_dead_letter(tmp_path):
    path = _poisoned_pages(tmp_path)
    out = str(tmp_path / "out")
    run_partitioned(path, out, num_parts=4, parts_per_chunk=4)
    recs = merge_records(out)
    assert sum(r["n_errors"] for r in recs) == 1
    # the merge record names the dead letter
    dead = [d for r in recs for d in r["dead_letters"]]
    assert len(dead) == 1
    assert dead[0]["url"] == "https://poison.example/1"
    assert "DecodeError" in dead[0]["error"]
    # dead letters excluded from the triples
    merged = merge_parts(out).to_pandas()
    assert (merged["pred"] == "_error").sum() == 0
    assert (merged["pred"] == "supplies_to").sum() > 0
