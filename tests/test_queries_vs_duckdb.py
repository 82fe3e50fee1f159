"""The driver's correctness gate, replicated locally: every query with
an oracle runs at sf0.001 (fast) and is compared against DuckDB on
sorted-by-name columns and exact (rounded) values."""

import math
import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry

SF_DIR = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
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
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


QUERIES = sorted(entry.oracle_sql().keys())


@pytest.mark.parametrize("name", QUERIES)
def test_query_matches_duckdb(con, name):
    ray_fn = entry.queries()[name]
    got = _normalize(_to_df(ray_fn(SF_DIR)))
    exp = _normalize(con.execute(entry.oracle_sql()[name]).fetchdf())
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} vs {list(exp.columns)}"
    )
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
            assert ok, f"{name}.{col}: first diff at " + str(
                next((i, a, b) for i, (a, b) in enumerate(zip(g, e)) if a != b)
            )
        else:
            assert g == e, f"{name}.{col}: first diff " + str(
                next(((i, a, b) for i, (a, b) in enumerate(zip(g, e)) if a != b),
                     None)
            )


def test_rows_only_queries_run(con):
    """Queries without SQL oracles must still run and return rows with a
    stable schema (the driver's weaker check)."""
    qs = entry.queries()
    no_oracle = sorted(set(qs) - set(entry.oracle_sql()))
    for name in no_oracle:
        df = _to_df(qs[name](SF_DIR))
        assert df is not None and len(df.columns) > 0, name


def test_entry_smoke():
    ds = entry.entry()
    df = _to_df(ds)
    assert len(df) >= 0 and "subj" in df.columns


def test_segment_order_stats_drops_orphan_orders(tmp_path):
    """An order whose customer is missing joins nothing, as in the
    oracle's inner JOIN: it must be dropped, not fail the lookup."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(
        pa.table({
            "c_custkey": pa.array([1, 2, 3], pa.int64()),
            "c_mktsegment": ["AUTOMOBILE", "BUILDING", "AUTOMOBILE"],
        }),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table({
            "o_custkey": pa.array([1, 2, 3, 99, 1], pa.int64()),
            "o_totalprice": [10.5, 20.25, 30.0, 1000.0, 4.75],
        }),
        str(tmp_path / "orders.parquet"),
    )
    c = duckdb.connect()
    for t in ("customer", "orders"):
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{tmp_path}/{t}.parquet')"
        )
    exp = _normalize(c.execute(entry.oracle_sql()["segment_order_stats"]).fetchdf())
    got = _normalize(_to_df(entry.queries()["segment_order_stats"](str(tmp_path))))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert got["n_orders"].sum() == 4
