"""Skewed mega-entity stress (north rule: 'explicit salted shuffles
for skewed mega-entities — Apple/Samsung supplier hubs'): when ONE
triple dominates the corpus, the combiner-first dedup must stay
bounded per reducer and still merge exactly. The triple fold itself
equals a plain-Python per-key fold on random tables, and both table
folds (triples, url state) are invariant to how rows split into
runs."""

import datetime

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings, strategies as st

from finance_sc_relations_ray.pipelines import kg_state, web
from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
from finance_sc_relations_ray.stages.shuffle import (
    _PAYLOAD,
    _PAYLOAD_TYPES,
    SENTENCE_IDS_CAP,
    _merge_bucket,
    partial_dedup_batch,
    salted_dedup,
)

KEYS = ["subj", "pred", "obj"]


def _reference_fold(table: pa.Table, keys: list[str]) -> list[dict]:
    """The triple fold written per key in plain Python, like
    oracle/kg_oracle.py:expected_triples: score max, n_mentions sum (a
    row count when the column is absent), ids and url the min over
    non-null values, sentence_ids the sorted distinct ids, the
    ``SENTENCE_IDS_CAP`` smallest. Rows in key order, null keys last."""
    cols = [c for c in _PAYLOAD if c in table.column_names]
    groups: dict[tuple, list[dict]] = {}
    for r in table.to_pylist():
        groups.setdefault(tuple(r[k] for k in keys), []).append(r)
    out = []
    for key in sorted(groups, key=lambda k: [(v is None, v or "") for v in k]):
        rows = groups[key]
        row = dict(zip(keys, key))
        for c in cols:
            vals = [r[c] for r in rows]
            nonnull = [v for v in vals if v is not None]
            if c == "score":
                row[c] = max(nonnull, default=None)
            elif c == "sentence_ids":
                row[c] = sorted({i for v in nonnull for i in v})[
                    :SENTENCE_IDS_CAP
                ]
            elif c != "n_mentions":
                row[c] = min(nonnull, default=None)
        row["n_mentions"] = (
            sum(r["n_mentions"] or 0 for r in rows)
            if "n_mentions" in cols
            else len(rows)
        )
        out.append(row)
    return out


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
    must equal one plain-Python fold of the whole input."""
    import ray.data

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
    exp = pd.DataFrame(_reference_fold(table, keys))
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


_ROW = st.fixed_dictionaries({
    "subj": st.sampled_from(["A", "B", "Hub"]),
    "pred": st.sampled_from(["customer_of", "supplies_to"]),
    "obj": st.sampled_from(["Hub", "X"]),
    "score": st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # ties
    "n_mentions": st.none() | st.integers(0, 5),
    "subj_id": st.none() | st.sampled_from(["id1", "id2", "id10"]),
    "obj_id": st.none() | st.sampled_from(["id1", "id2"]),
    "url": st.none() | st.sampled_from(["u1", "u10", "u2"]),
    # null, empty and repeated ids; a key's union often passes the cap
    "sentence_ids": st.none() | st.lists(st.integers(0, 150), max_size=80),
})
# one hot key: every row of this list is the same triple
_HOT = _ROW.map(lambda r: {**r, "subj": "Hub", "pred": "supplies_to",
                           "obj": "X"})


def _triples(rows: list[dict], cols, cut: int) -> pa.Table:
    schema = pa.schema(
        [(k, pa.string()) for k in KEYS]
        + [(c, _PAYLOAD_TYPES[c]) for c in _PAYLOAD if c in cols]
    )
    t = pa.Table.from_pylist(rows, schema=schema)
    # two chunks, as a concatenation of batches arrives
    return pa.concat_tables([t.slice(0, cut), t.slice(cut)])


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(_ROW, max_size=40),
    hot=st.lists(_HOT, max_size=60),
    cols=st.sets(st.sampled_from(_PAYLOAD)),
    cut=st.integers(0, 100),
)
def test_fold_equals_plain_python_reference(rows, hot, cols, cut):
    """Every subset of payload columns (keys + score alone is the
    combiner's exchange test), zero rows included."""
    t = _triples(rows + hot, cols, cut)
    exp = _reference_fold(t, KEYS)
    got = partial_dedup_batch(t, KEYS)
    assert got.column_names == KEYS + [
        c for c in _PAYLOAD if c in cols and c != "n_mentions"
    ] + ["n_mentions"]
    assert got.to_pylist() == exp
    # perfbench's replay hands the bucket merge a pandas frame
    assert _merge_bucket(t.to_pandas(), KEYS).to_pylist() == exp


def test_fold_edge_inputs_keep_their_output():
    """Pinned outputs: a null n_mentions sums as 0, all-null ids and
    url stay null, null and empty sentence_ids fold to [], and a
    zero-row input keeps the typed schema (kg.triples_dataset's empty
    block); from pandas, zero rows keep pandas' null-typed keys."""
    t = pa.table({
        "subj": ["A", "A", "B", "C", "C"],
        "pred": ["p"] * 5,
        "obj": ["o"] * 5,
        "score": pa.array([0.5, 0.25, 0.75, 0.5, 0.5], pa.float32()),
        "subj_id": pa.array([None, None, "s1", None, "s0"], pa.string()),
        "obj_id": pa.array([None] * 5, pa.string()),
        "url": pa.array([None, None, "u1", "u2", "u0"], pa.string()),
        "sentence_ids": pa.array(
            [None, [], [3, 1], None, []], pa.list_(pa.int64())
        ),
        "n_mentions": pa.array([None, 2, None, 1, 1], pa.int64()),
    })
    exp = [
        {"subj": "A", "pred": "p", "obj": "o", "score": 0.5,
         "subj_id": None, "obj_id": None, "url": None,
         "sentence_ids": [], "n_mentions": 2},
        {"subj": "B", "pred": "p", "obj": "o", "score": 0.75,
         "subj_id": "s1", "obj_id": None, "url": "u1",
         "sentence_ids": [1, 3], "n_mentions": 0},
        {"subj": "C", "pred": "p", "obj": "o", "score": 0.5,
         "subj_id": "s0", "obj_id": None, "url": "u0",
         "sentence_ids": [], "n_mentions": 2},
    ]
    assert partial_dedup_batch(t, KEYS).to_pylist() == exp
    assert _merge_bucket(t.to_pandas(), KEYS).to_pylist() == exp
    # null keys fold together, after every other key
    nulls = t.set_column(0, "subj", pa.array(["A", None, "B", None, "A"]))
    assert partial_dedup_batch(nulls, KEYS).to_pylist() == \
        _reference_fold(nulls, KEYS)
    assert partial_dedup_batch(nulls, KEYS)["subj"].to_pylist() == \
        ["A", "B", None]

    payload = [pa.field(c, _PAYLOAD_TYPES[c]) for c in _PAYLOAD
               if c != "n_mentions"] + [pa.field("n_mentions", pa.int64())]
    for key_type, empty in ((pa.string(), t.slice(0, 0)),
                            (pa.null(), t.slice(0, 0).to_pandas())):
        schema = pa.schema([(k, key_type) for k in KEYS] + payload)
        assert _merge_bucket(empty, KEYS).schema == schema
    keys_only = partial_dedup_batch(t.select(KEYS).slice(0, 0), KEYS)
    assert keys_only.schema == pa.schema(
        [(k, pa.string()) for k in KEYS] + [("n_mentions", pa.int64())]
    )


def _fold(spec, rows: pa.Table) -> pa.Table:
    """A run's fold as the table applies it (table._fold_runs)."""
    return spec.fold(rows).select(spec.schema.names).cast(spec.schema)


_URL_ROW = st.fixed_dictionaries({
    "url": st.sampled_from(["a", "b", "c"]),
    "n_dups": st.integers(1, 3),
    "last_ts": st.none() | st.sampled_from(
        [datetime.datetime(2024, 1, d) for d in (1, 2, 3)]
    ),
})


@settings(max_examples=100, deadline=None)
@given(
    triples=st.lists(st.tuples(_ROW | _HOT, st.integers(0, 3)),
                     max_size=80),
    urls=st.lists(st.tuples(_URL_ROW, st.integers(0, 3)), max_size=40),
    order=st.permutations(range(4)),
)
def test_table_folds_are_split_invariant(triples, urls, order):
    """state/table.py requires every Spec's fold to be associative and
    commutative: the fold of the per-run folds, in any run order,
    equals the fold of all rows. Runs and size-tiered compaction rely
    on it."""
    for spec, pairs in ((kg_state.TRIPLES, triples), (web.URL_STATE, urls)):
        rows = [r for r, _ in pairs]
        whole = _fold(spec, pa.Table.from_pylist(rows, schema=spec.schema))
        runs = [
            _fold(spec, pa.Table.from_pylist(
                [r for r, run in pairs if run == i], schema=spec.schema))
            for i in order
        ]
        assert _fold(spec, pa.concat_tables(runs)).equals(whole)
