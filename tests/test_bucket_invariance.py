"""Exchange fan-out must be invisible in results (r4 verdict #1).

``config.exchange_fanout`` resolves every hash-bucketed exchange's
reducer count from the cluster size (``max(floor, 2×CPUs)``), so a
multi-node cluster is no longer capped at 64 reducers. Bucket count is
partitioning-only; this suite forces a pathological NON-default count
(``GRAFT_NUM_BUCKETS=7``) through the env override and re-runs a
representative SQL-oracled query per exchange family against DuckDB —
any result that depends on the bucket count hash-mismatches here.
"""

import math
import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry
from finance_sc_relations_ray.config import exchange_fanout

SF_DIR = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]

# one query per exchange family:
#   embedding LSH coarse + funnel   -> embedding_dup_pairs_lsh
#   bucket_lookup_join (tf-idf/pr)  -> tfidf_top_terms
#   %nb user windows                -> events_rolling, user_sessions
#   asof bucket exchange            -> events_asof_join
#   relational bucket join          -> segment_order_stats_bucket_join
BUCKETED_QUERIES = [
    "embedding_dup_pairs_lsh",
    "tfidf_top_terms",
    "events_rolling",
    "user_sessions",
    "events_asof_join",
    "segment_order_stats_bucket_join",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def test_exchange_fanout_resolution(monkeypatch):
    assert exchange_fanout(7) == 7  # explicit wins
    monkeypatch.setenv("GRAFT_NUM_BUCKETS", "13")
    assert exchange_fanout() == 13  # env next
    assert exchange_fanout(9) == 9
    monkeypatch.delenv("GRAFT_NUM_BUCKETS")
    # cluster-derived: >= floor, scales 2x CPUs
    assert exchange_fanout() >= 64
    assert exchange_fanout(floor=32) >= 32


@pytest.mark.parametrize("name", BUCKETED_QUERIES)
def test_query_invariant_at_seven_buckets(con, ray_session, monkeypatch, name):
    monkeypatch.setenv("GRAFT_NUM_BUCKETS", "7")
    assert exchange_fanout() == 7
    got = _normalize(_to_df(entry.queries()[name](SF_DIR)))
    exp = _normalize(con.execute(entry.oracle_sql()[name]).fetchdf())
    assert list(got.columns) == list(exp.columns), name
    assert len(got) == len(exp), f"{name}: {len(got)} vs {len(exp)} rows"
    for col in exp.columns:
        g, e = got[col].tolist(), exp[col].tolist()
        if exp[col].dtype.kind == "f":
            ok = all(
                (isinstance(a, float) and isinstance(b, float)
                 and (a == b or (math.isnan(a) and math.isnan(b))))
                or a == b
                for a, b in zip(g, e)
            )
            assert ok, f"{name}.{col}"
        else:
            assert g == e, f"{name}.{col}"
