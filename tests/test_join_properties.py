"""Property tests for the temporal join family: on arbitrary small
event sets, every distributed variant must equal the brute-force
definition — including ties on (key, ts), matches exactly on epoch
boundaries, and keys present on only one side."""

import datetime

import hypothesis.strategies as st
import pandas as pd
import pyarrow as pa
import ray.data
from hypothesis import given, settings

from finance_sc_relations_ray.stages.joins import (
    asof_join,
    asof_join_time_partitioned,
    range_join,
    range_join_time_partitioned,
)

T0 = datetime.datetime(2024, 1, 1)
LEFT_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
    ]
)
RIGHT_SCHEMA = pa.schema(
    [
        ("event_id", pa.int64()),
        ("user_id", pa.int64()),
        ("ts", pa.timestamp("us")),
        ("value", pa.float64()),
    ]
)
PAYLOAD = {"event_id": "match_event_id", "value": "match_value"}
PAYLOAD_TYPES = {"match_event_id": pa.int64(), "match_value": pa.float64()}
WINDOW = datetime.timedelta(minutes=7)

# minutes drawn from a SMALL grid so ties and epoch-boundary hits are
# common, not astronomically rare
_minutes = st.integers(min_value=0, max_value=40)


@st.composite
def _events(draw):
    n_left = draw(st.integers(1, 12))
    n_right = draw(st.integers(0, 12))
    left = [
        {
            "event_id": i,
            "user_id": draw(st.integers(0, 2)),
            "ts": T0 + datetime.timedelta(minutes=draw(_minutes)),
        }
        for i in range(n_left)
    ]
    right = [
        {
            "event_id": 100 + i,
            "user_id": draw(st.integers(0, 2)),
            "ts": T0 + datetime.timedelta(minutes=draw(_minutes)),
            "value": float(i),
        }
        for i in range(n_right)
    ]
    return left, right


def _ds(rows, schema):
    return ray.data.from_arrow(pa.Table.from_pylist(rows, schema=schema))


def _norm(df: pd.DataFrame) -> list[tuple]:
    if len(df) == 0:
        return []
    return sorted(
        zip(
            df["event_id"].astype("int64"),
            df["match_event_id"].astype("int64"),
            df["match_value"].astype("float64"),
        )
    )


def _brute_asof(left, right):
    out = []
    for l in left:
        cands = [
            r for r in right
            if r["user_id"] == l["user_id"] and r["ts"] <= l["ts"]
        ]
        if not cands:
            continue
        best = max(cands, key=lambda r: (r["ts"], r["event_id"]))
        out.append((l["event_id"], best["event_id"], best["value"]))
    return sorted(out)


def _brute_range(left, right):
    out = []
    for l in left:
        for r in right:
            if (
                r["user_id"] == l["user_id"]
                and l["ts"] - WINDOW <= r["ts"] <= l["ts"]
            ):
                out.append((l["event_id"], r["event_id"], r["value"]))
    return sorted(out)


@settings(max_examples=12, deadline=None)
@given(_events())
def test_asof_variants_equal_bruteforce(ev):
    left, right = ev
    exp = _brute_asof(left, right)
    plain = asof_join(
        _ds(left, LEFT_SCHEMA), _ds(right, RIGHT_SCHEMA),
        by="user_id", ts="ts", payload=PAYLOAD,
        left_schema=LEFT_SCHEMA, payload_types=PAYLOAD_TYPES, num_buckets=3,
    ).to_pandas()
    assert _norm(plain) == exp
    epoch = asof_join_time_partitioned(
        _ds(left, LEFT_SCHEMA), _ds(right, RIGHT_SCHEMA),
        by="user_id", ts="ts", payload=PAYLOAD,
        left_schema=LEFT_SCHEMA, payload_types=PAYLOAD_TYPES,
        epoch=datetime.timedelta(minutes=9),  # co-prime-ish with the grid
        num_buckets=3,
    ).to_pandas()
    assert _norm(epoch) == exp


@settings(max_examples=12, deadline=None)
@given(_events())
def test_range_variants_equal_bruteforce(ev):
    left, right = ev
    exp = _brute_range(left, right)
    plain = range_join(
        _ds(left, LEFT_SCHEMA), _ds(right, RIGHT_SCHEMA),
        by="user_id", ts="ts",
        lower_offset=-WINDOW, upper_offset=datetime.timedelta(0),
        payload=PAYLOAD, left_schema=LEFT_SCHEMA,
        payload_types=PAYLOAD_TYPES, num_buckets=3,
    ).to_pandas()
    assert _norm(plain) == exp
    epoch = range_join_time_partitioned(
        _ds(left, LEFT_SCHEMA), _ds(right, RIGHT_SCHEMA),
        by="user_id", ts="ts",
        lower_offset=-WINDOW, upper_offset=datetime.timedelta(0),
        payload=PAYLOAD, left_schema=LEFT_SCHEMA,
        payload_types=PAYLOAD_TYPES,
        epoch=WINDOW,  # tight epoch == span
        num_buckets=3,
    ).to_pandas()
    assert _norm(epoch) == exp


def test_bucket_lookup_join_mixed_int_key_widths():
    """Equal keys must meet in one bucket whatever their integer width:
    an int32 left key joined against an int64 right key keeps every
    matching row, negative keys included (pandas hashes the same
    negative value differently as int32 and as int64)."""
    from finance_sc_relations_ray.stages.joins import bucket_lookup_join

    keys = list(range(-20, 20))
    left_schema = pa.schema([("k", pa.int32()), ("lid", pa.int64())])
    left = ray.data.from_arrow(
        pa.table(
            {"k": pa.array(keys, pa.int32()),
             "lid": pa.array(range(len(keys)), pa.int64())}
        )
    )
    right = ray.data.from_arrow(
        pa.table(
            {"rk": pa.array(keys, pa.int64()),
             "v": pa.array([10 * k for k in keys], pa.int64())}
        )
    )
    out = bucket_lookup_join(
        left, right, on="k", right_key="rk", payload={"v": "v"},
        left_schema=left_schema, payload_types={"v": pa.int64()},
        num_buckets=7,
    ).to_pandas()
    got = sorted(zip(out["k"].astype("int64"), out["v"].astype("int64")))
    assert got == [(k, 10 * k) for k in keys]

