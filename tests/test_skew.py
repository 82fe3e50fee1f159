"""Skewed mega-entity stress (north rule: 'explicit salted shuffles
for skewed mega-entities — Apple/Samsung supplier hubs'): when ONE
triple dominates the corpus, the combiner-first dedup must stay
bounded per reducer and still merge exactly."""

import datetime

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
from finance_sc_relations_ray.stages.shuffle import (
    partial_dedup_batch,
    salted_dedup,
)


def _hub_pages(n_pages: int) -> pa.Table:
    """Every page asserts the same hub relation (worst-case key skew:
    one (subj, pred, obj) carries ~100% of the mentions)."""
    ts = datetime.datetime(2024, 1, 1)
    sent = "Apple Inc supplied Intel Corporation."
    return pa.table(
        {
            "url": [f"https://hub.example/{i}" for i in range(n_pages)],
            "warc_ts": pa.array([ts] * n_pages, pa.timestamp("us")),
            "html": [
                f"<html><body><p>{sent}</p></body></html>".encode()
            ] * n_pages,
            "text": [sent] * n_pages,
            "lang": ["en"] * n_pages,
        }
    )


def test_hub_skew_dedup_exact_and_bounded(tmp_path):
    n = 400
    path = str(tmp_path / "pages.parquet")
    pq.write_table(_hub_pages(n), path, row_group_size=32)
    df = build_kg_pipeline(path).to_pandas()
    main = df[df["pred"] == "supplies_to"]
    # the hot key collapses to ONE row with the full mention count and
    # the payload merged deterministically
    assert len(main) == 1
    row = main.iloc[0]
    assert row["n_mentions"] == n
    assert row["url"] == "https://hub.example/0"  # min witness url
    assert list(row["sentence_ids"]) == [0]


def test_combiner_bounds_exchange_rows():
    """The salted combiner's guarantee: regardless of skew, at most one
    row per (key, batch) enters the final exchange."""
    batch = pa.table(
        {
            "subj": pa.array(["A"] * 10_000),
            "pred": pa.array(["supplies_to"] * 10_000),
            "obj": pa.array(["B"] * 10_000),
            "score": pa.array([0.9] * 10_000, pa.float32()),
        }
    )
    out = partial_dedup_batch(batch, ["subj", "pred", "obj"])
    assert out.num_rows == 1  # 10k skewed rows -> 1 exchange row
    assert out["n_mentions"][0].as_py() == 10_000


def test_salted_dedup_hot_key_distributed():
    import ray.data

    rows = [
        {"subj": "A", "pred": "p", "obj": "B", "score": 0.5 + (i % 10) / 100}
        for i in range(50_000)
    ] + [{"subj": "C", "pred": "p", "obj": "D", "score": 0.7}]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(16)
    out = (
        salted_dedup(ds, ["subj", "pred", "obj"])
        .to_pandas()
        .sort_values("subj")
        .reset_index(drop=True)
    )
    assert len(out) == 2
    hot = out[out["subj"] == "A"].iloc[0]
    assert hot["n_mentions"] == 50_000
    assert abs(hot["score"] - 0.59) < 1e-6  # max over the hot key


@pytest.mark.parametrize("num_buckets", [1, 7, 64])
def test_salted_dedup_equals_one_merge_pass(num_buckets):
    """The bucketed merge runs once per sorted block, so a block holds
    many whole buckets (all of them at ``num_buckets=1``). Over a skewed
    input in 12 blocks (one hot key carries half the rows) the result
    must equal one ``_merge_frame`` pass over the whole input."""
    import ray.data

    from finance_sc_relations_ray.stages.shuffle import _merge_frame

    keys = ["subj", "pred", "obj"]
    n = 6000
    table = pa.table(
        {
            "subj": ["Hub" if i % 2 else f"S{i % 97}" for i in range(n)],
            "pred": ["supplies_to"] * n,
            "obj": ["Sink" if i % 2 else f"O{i % 13}" for i in range(n)],
            "score": pa.array([(i * 37 % 101) / 101 for i in range(n)],
                              pa.float32()),
            "subj_id": [None if i % 5 == 0 else f"id{i % 31}"
                        for i in range(n)],
            "obj_id": [None] * n,
            "url": [f"u{i * 7919 % 1000}" for i in range(n)],
            "sentence_ids": pa.array(
                [[i % 90, i * 3 % 101] for i in range(n)], pa.list_(pa.int64())
            ),
        }
    )
    ds = ray.data.from_arrow(table).repartition(12)
    got = salted_dedup(ds, keys, num_buckets=num_buckets).to_pandas()
    exp = _merge_frame(table.to_pandas(), keys)
    got = got.sort_values(keys).reset_index(drop=True)
    exp = exp.sort_values(keys).reset_index(drop=True)
    assert sorted(got.columns) == sorted(exp.columns)
    assert len(got) == len(exp) == 1 + 97 * 13  # the hub + every (S, O)
    assert exp["n_mentions"].max() == n // 2  # the hot key
    for col in exp.columns:
        if col == "sentence_ids":
            assert [list(x) for x in got[col]] == \
                [list(x) for x in exp[col]], col
        else:
            assert got[col].tolist() == exp[col].tolist(), col
