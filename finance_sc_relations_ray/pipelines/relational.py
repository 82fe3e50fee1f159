"""Relational operator suite over the driver's TPC-H-ish tables.

Each function takes ``sf_dir`` and returns a Dataset / pandas DataFrame
whose columns match the DuckDB oracle SQL in ``__ray_entry__`` exactly
(names AND rounded values). These exercise the engine's generic
operators from SURVEY.md §2 on neutral inputs: column-pruned reads,
vectorized filters/projections (M13/M14), partial-then-final aggregation
(A3/A4), broadcast hash joins (J2/J4), anti joins (J5), distinct (A7),
sort/limit top-k (O3), and tumbling-window rollups (§2.10 analog).

Scale notes: every groupby here uses the per-batch combiner pattern
(map_batches partial → small final groupby) or aggregates on bounded
keys; small join sides are broadcast via ``ray.put`` once, never
re-shipped per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..sources.io import sized_read_parquet
from ray.data.aggregate import Count, Sum

from ..functions.rounding import round_half_away


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns: list[str]) -> "ray.data.Dataset":
    return sized_read_parquet(_t(sf_dir, name), columns=columns)


# ---------------------------------------------------------------- q1 ---
def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped rollup with per-batch partial aggregation."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02")))
        )
        if batch.num_rows == 0:
            return pa.table(
                {"l_returnflag": pa.array([], pa.string()),
                 "l_linestatus": pa.array([], pa.string()),
                 "sum_qty": pa.array([], pa.float64()),
                 "sum_base_price": pa.array([], pa.float64()),
                 "sum_disc4": pa.array([], pa.int64()),
                 "count_order": pa.array([], pa.int64())}
            )
        # disc_price is an exact 4-decimal quantity (2-dec price × 2-dec
        # discount): accumulate in int64 1e-4 units so the sum is EXACT
        # and rounding can never straddle a half-cent differently than
        # the DECIMAL-summing SQL oracle
        disc4 = np.rint(
            pc.multiply(
                batch["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), batch["l_discount"]),
            ).to_numpy(zero_copy_only=False)
            * 10000.0
        ).astype(np.int64)
        df = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "l_quantity": batch["l_quantity"],
                "l_extendedprice": batch["l_extendedprice"],
                "disc4": pa.array(disc4, pa.int64()),
            }
        ).to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_disc4=("disc4", "sum"),
            count_order=("l_quantity", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_price", alias_name="sum_base_price"),
            Sum("sum_disc4", alias_name="sum_disc4"),
            Sum("count_order", alias_name="count_order"),
        )
        .to_pandas()
    )
    out["avg_qty"] = round_half_away(out["sum_qty"] / out["count_order"], 6)
    # exact integer half-away rounding of the 1e-4-unit sum
    out["sum_disc_price"] = ((out["sum_disc4"] + 50) // 100) / 100.0
    out = out.drop(columns=["sum_disc4"])
    for c in ("sum_qty", "sum_base_price"):
        out[c] = round_half_away(out[c], 2)
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


# ------------------------------------------------------ top-k revenue ---
def top_revenue_orders(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """Per-order revenue (partial agg) → combiner top-k → join ONLY the
    final ≤k winners against orders with a read-layer key filter.

    Round-1 version broadcast the whole orders table as a Python dict
    into an actor pool just to decorate rows that top-k then threw
    away (VERDICT r01 #7); ordering top-k before the join means the
    orders side is touched for exactly k keys — at any scale."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        rev4 = np.rint(
            pc.multiply(
                batch["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), batch["l_discount"]),
            ).to_numpy(zero_copy_only=False)
            * 10000.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {"l_orderkey": batch["l_orderkey"].to_numpy(), "rev4": rev4}
        )
        g = df.groupby("l_orderkey", as_index=False)["rev4"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    # per-order final sum + local top-k in ONE hash-bucketed exchange:
    # Ray's AggregateFn reduce accumulates Python-per-group (measured
    # 32 s for 147k groups in one partition); a bucketed map_groups
    # runs a VECTORIZED pandas groupby-sum per bucket instead, and each
    # bucket emits only its local top-k (every order lands in exactly
    # one bucket, so bucket-local top-k is globally safe)
    n_buckets = 32

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy().astype(np.uint64)
        b = ((keys * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(58)).astype(
            np.int32
        ) % n_buckets
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("l_orderkey", as_index=False)["rev4"].sum()
        return s.sort_values(
            ["rev4", "l_orderkey"], ascending=[False, True]
        ).head(k)

    partials = (
        li.map_batches(partial, batch_format="pyarrow")
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(bucket_topk, batch_format="pandas")
        .to_pandas()
    )
    top = (
        partials.sort_values(["rev4", "l_orderkey"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )

    # decorate only the winners: key-filtered orders read (row-group
    # predicate pushdown at the parquet layer)
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    keys = top["l_orderkey"].tolist()
    orders_tbl = pq.read_table(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filters=pads.field("o_orderkey").isin(keys),
    ).to_pandas()
    top = top.merge(
        orders_tbl, left_on="l_orderkey", right_on="o_orderkey", how="left"
    )
    top["revenue"] = ((top["rev4"] + 50) // 100) / 100.0
    return top[["l_orderkey", "o_custkey", "o_orderdate", "revenue"]]


# ------------------------------------------- segment order statistics ---
def segment_order_stats(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer (broadcast) → per-mktsegment rollup."""
    import pyarrow.parquet as pq

    cust = pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    # broadcast a pandas Series keyed by custkey: get_indexer is the
    # vectorized hash lookup (the per-row dict .get loop was ~30x
    # slower on 150k-row batches)
    seg_ref = ray.put(
        pd.Series(
            cust["c_mktsegment"].to_pylist(),
            index=cust["c_custkey"].to_numpy(),
        )
    )

    class AddSegment:
        def __init__(self):
            self.seg = ray.get(seg_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            pos = self.seg.index.get_indexer(
                batch["o_custkey"].to_numpy(zero_copy_only=False)
            )
            # inner join: an order whose customer is missing is dropped
            found = pos >= 0
            segs = self.seg.to_numpy()[pos[found]]
            return batch.filter(pa.array(found)).append_column(
                "c_mktsegment", pa.array(segs, pa.string())
            )

    out = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(AddSegment, batch_format="pyarrow", concurrency=(1, 2))
        .groupby("c_mktsegment")
        .aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="sum_totalprice"),
        )
        .to_pandas()
    )
    out["avg_totalprice"] = round_half_away(out["sum_totalprice"] / out["n_orders"], 6)
    out["sum_totalprice"] = round_half_away(out["sum_totalprice"], 2)
    return out.sort_values("c_mktsegment").reset_index(drop=True)


# -------------------------------------------------- supplier revenue ----
def nation_supplier_revenue(sf_dir: str) -> pd.DataFrame:
    """lineitem ⋈ supplier ⋈ nation (two broadcast lookups) → revenue by
    nation."""
    import pyarrow.parquet as pq

    sup = pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    nat = pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    # dense-int keys → broadcast positional numpy lookup tables (the
    # per-row double-dict loop was the batch's dominant cost); a
    # suppkey outside the table raises IndexError rather than
    # silently skewing — same loud-failure contract as the dict form
    sup_keys = sup["s_suppkey"].to_numpy()
    sup_lut = np.full(int(sup_keys.max()) + 1, -1, dtype=np.int64)
    sup_lut[sup_keys] = sup["s_nationkey"].to_numpy()
    nat_keys = nat["n_nationkey"].to_numpy()
    nat_lut = np.empty(int(nat_keys.max()) + 1, dtype=object)
    nat_lut[nat_keys] = np.asarray(nat["n_name"].to_pylist(), dtype=object)
    sup_ref = ray.put(sup_lut)
    nat_ref = ray.put(nat_lut)

    class NationRev:
        def __init__(self):
            self.sup = ray.get(sup_ref)
            self.nat = ray.get(nat_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            rev4 = np.rint(
                pc.multiply(
                    batch["l_extendedprice"],
                    pc.subtract(pa.scalar(1.0), batch["l_discount"]),
                ).to_numpy(zero_copy_only=False)
                * 10000.0
            ).astype(np.int64)
            keys = batch["l_suppkey"].to_numpy(zero_copy_only=False)
            nk = self.sup[keys]
            if len(nk) and nk.min() < 0:
                raise KeyError("l_suppkey not present in supplier table")
            names = self.nat[nk]
            df = pd.DataFrame({"n_name": names, "rev4": rev4})
            g = df.groupby("n_name", as_index=False)["rev4"].sum()
            return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])
        .map_batches(NationRev, batch_format="pyarrow", concurrency=(1, 2))
        .groupby("n_name")
        .aggregate(Sum("rev4", alias_name="rev4"))
        .to_pandas()
    )
    out["revenue"] = ((out["rev4"] + 50) // 100) / 100.0
    out = out.drop(columns=["rev4"])
    return out.sort_values("n_name").reset_index(drop=True)


# -------------------------------------------------------- anti join -----
def customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """Anti semi-join via broadcast key set (J5 pattern)."""
    import pyarrow.parquet as pq

    custkeys = pq.read_table(_t(sf_dir, "orders"), columns=["o_custkey"])
    # broadcast the SORTED distinct key array; np.isin's sort-merge
    # probe replaces the per-row set-membership Python loop
    have_ref = ray.put(np.unique(custkeys["o_custkey"].to_numpy()))

    class AntiJoin:
        def __init__(self):
            self.have = ray.get(have_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = batch["c_custkey"].to_numpy(zero_copy_only=False)
            mask = pa.array(np.isin(keys, self.have, invert=True))
            return batch.filter(mask)

    out = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(AntiJoin, batch_format="pyarrow", concurrency=(1, 2), num_cpus=0.5)
        .to_pandas()
    )
    if out.empty:  # fully-filtered Dataset can lose its schema in to_pandas
        out = pd.DataFrame(
            {"c_custkey": pd.Series([], dtype="int64"),
             "c_name": pd.Series([], dtype="object")}
        )
    return out.sort_values("c_custkey").reset_index(drop=True)


# --------------------------------------------------------- distinct -----
def distinct_segments(sf_dir: str) -> pd.DataFrame:
    vals = sorted(
        _read(sf_dir, "customer", ["c_mktsegment"]).unique("c_mktsegment")
    )
    return pd.DataFrame({"c_mktsegment": vals})


# ------------------------------------------------- filter + project -----
def returned_items_revenue(sf_dir: str) -> pd.DataFrame:
    """Row-level vectorized filter + computed projection (M13/M14)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def fp(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        rev4 = np.rint(
            pc.multiply(
                batch["l_extendedprice"],
                pc.subtract(pa.scalar(1.0), batch["l_discount"]),
            ).to_numpy(zero_copy_only=False)
            * 10000.0
        ).astype(np.int64)
        rev = pa.array(((rev4 + 50) // 100) / 100.0)
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_linenumber": batch["l_linenumber"],
                "revenue": rev,
            }
        )

    return (
        ds.map_batches(fp, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["l_orderkey", "l_linenumber"])
        .reset_index(drop=True)
    )


# ------------------------------------------------- tumbling windows -----
def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour windows per event_type (streaming-shaped rollup,
    SURVEY.md §2.10 / ray_guide 'Streaming-shaped workloads'):
    partial per-batch combine then a small final groupby."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["window_start"] = df["ts"].dt.floor("h")
        g = df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value", alias_name="sum_value"),
        )
        .to_pandas()
    )
    out["sum_value"] = round_half_away(out["sum_value"], 4)
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


# -------------------------------------------------- sliding windows -----
def events_sliding(sf_dir: str, window_min: int = 60, step_min: int = 15) -> pd.DataFrame:
    """Sliding windows (60-min window, 15-min step) per event_type: each
    event fans out to window_min/step_min window rows, then the standard
    partial-combine + final groupby. Mirrors the ray_guide
    'streaming-shaped workloads' recipe; DuckDB oracle unnests the same
    offsets."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    fan = window_min // step_min

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        base = df["ts"].dt.floor(f"{step_min}min")
        frames = []
        for k in range(fan):
            w = df.copy()
            w["window_start"] = base - pd.Timedelta(minutes=step_min * k)
            frames.append(w)
        allw = pd.concat(frames)
        g = allw.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value", alias_name="sum_value"),
        )
        .to_pandas()
    )
    out["sum_value"] = round_half_away(out["sum_value"], 4)
    return out.sort_values(["event_type", "window_start"]).reset_index(drop=True)


# -------------------------------------------------- per-group top-k -----
def top_users_per_event_type(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k users by summed value within each event_type (grouped
    top-k: partial per-batch combine → final groupby → per-group head)."""
    ds = _read(sf_dir, "events", ["event_type", "user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby(["event_type", "user_id"], as_index=False)["value"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    sums = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("value", alias_name="sum_value"))
        .to_pandas()
    )
    sums = sums.sort_values(
        ["event_type", "sum_value", "user_id"], ascending=[True, False, True]
    )
    top = sums.groupby("event_type", as_index=False).head(k).copy()
    top["rank"] = top.groupby("event_type").cumcount() + 1
    top["sum_value"] = round_half_away(top["sum_value"], 4)
    return top[["event_type", "rank", "user_id", "sum_value"]].reset_index(drop=True)


# -------------------------------------------------- exact distinct ------
def distinct_user_count(sf_dir: str) -> pd.DataFrame:
    """Exact distinct count via mergeable per-batch partials: each batch
    emits its distinct user set (as rows), a tiny final distinct+count
    closes it — the exact counterpart of an HLL sketch merge (ray_guide
    'Aggregation at scale')."""
    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": pa.array(
                sorted(set(batch["user_id"].to_pylist())), pa.int64()
            )}
        )

    n = len(ds.map_batches(partial, batch_format="pyarrow").unique("user_id"))
    return pd.DataFrame({"n_users": [n]})


# --------------------------------------- global-aggregate then filter ---
def above_average_customers(sf_dir: str) -> pd.DataFrame:
    """Customers whose total order value exceeds the global average
    (two-pass pattern: small global aggregate computed first and
    broadcast into the filter — no correlated re-scan)."""
    per_cust = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .groupby("o_custkey")
        .aggregate(Sum("o_totalprice", alias_name="total_spend"))
    )
    avg_spend = per_cust.mean("total_spend")  # tiny global scalar

    def keep(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.greater(batch["total_spend"], avg_spend))
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "total_spend": pa.array(
                    round_half_away(
                        batch["total_spend"].to_numpy(zero_copy_only=False), 2
                    )
                ),
            }
        )

    out = per_cust.map_batches(keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("o_custkey").reset_index(drop=True)


# ---------------------------------------------------- sessionization ----
def user_sessions(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Per-user sessionization (gap > 30min starts a new session) via
    groupby(user).map_groups over ts-sorted groups — the
    actor-state-free windowing pattern. Returns per-user session
    counts + max session length."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    # coarse co-partitioning: one map_groups call handles many users
    # (per-group overhead amortized; see doc-agg bucketing)
    from ..config import exchange_fanout

    nb = exchange_fanout(floor=32)

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch["user_id"].to_numpy(zero_copy_only=False) % nb
        return batch.append_column(
            "bucket", pa.array(b.astype(np.int32), pa.int32())
        )

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        # whole-bucket vectorized: one sort, one diff, one cumsum over
        # ALL users in the bucket (no per-user Python loop) — a session
        # break is a user change OR a gap > threshold
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_sess = g["user_id"].ne(g["user_id"].shift()) | (
            g["ts"].diff() > pd.Timedelta(minutes=gap_minutes)
        )
        sess_id = new_sess.cumsum()
        per_sess = pd.DataFrame(
            {
                "user_id": g.groupby(sess_id, sort=False)["user_id"].first(),
                "size": g.groupby(sess_id, sort=False).size(),
            }
        )
        out = (
            per_sess.groupby("user_id", as_index=False)
            .agg(
                n_sessions=("size", "size"),
                max_session_events=("size", "max"),
                n_events=("size", "sum"),
            )
        )
        return out.astype(
            {"n_sessions": "int64", "max_session_events": "int64",
             "n_events": "int64"}
        )

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            sessions, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
        .to_pandas()
        .drop(columns=["bucket"], errors="ignore")
        .sort_values("user_id")
        .reset_index(drop=True)
    )


# ------------------------------------------------------- as-of join ----
def events_asof_join(sf_dir: str) -> "ray.data.Dataset":
    """Backward as-of join (stages/joins.asof_join): each 'click' event
    is joined to the latest 'view' event of the SAME user at or before
    its timestamp (the session-attribution shape). Unmatched clicks are
    dropped (inner). Oracle: DuckDB ``ASOF JOIN``."""
    left = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    left = left.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "click")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    right = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
    right = right.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "view")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )

    from ..stages.joins import asof_join

    out = asof_join(
        left,
        right,
        by="user_id",
        ts="ts",
        payload={"event_id": "match_event_id", "value": "match_value"},
        left_schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("ts", pa.timestamp("us")),
            ]
        ),
        payload_types={
            "match_event_id": pa.int64(),
            "match_value": pa.float64(),
        },
    )
    # match_value passes through unmodified (no arithmetic) — no
    # rounding, so engine and oracle compare bit-exact floats; the
    # per-click result is dataset-sized, so it streams (lazy Dataset)
    return out


def events_range_join(sf_dir: str, window_min: int = 10) -> "ray.data.Dataset":
    """Interval join (stages/joins.range_join): each 'click' event is
    joined to EVERY 'view' event of the same user within the preceding
    ``window_min`` minutes (inclusive) — the all-matches companion to
    ``events_asof_join``. Oracle: DuckDB BETWEEN range join."""
    import datetime

    left = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    left = left.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "click")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    right = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"]
    )
    right = right.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "view")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )

    from ..stages.joins import range_join

    out = range_join(
        left,
        right,
        by="user_id",
        ts="ts",
        lower_offset=datetime.timedelta(minutes=-window_min),
        upper_offset=datetime.timedelta(0),
        payload={"event_id": "match_event_id", "value": "match_value"},
        left_schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("ts", pa.timestamp("us")),
            ]
        ),
        payload_types={
            "match_event_id": pa.int64(),
            "match_value": pa.float64(),
        },
    )
    return out  # dataset-sized: streams


# -------------------------------------------- running-total window -----
def events_user_cumsum(sf_dir: str) -> "ray.data.Dataset":
    """Per-user running total of ``value`` ordered by ``ts`` — the
    ordered-window-function analog (SQL ``sum() OVER (PARTITION BY
    user ORDER BY ts)``). Distributed form: coarse user buckets via one
    exchange, then a fully vectorized pandas sort + per-user cumsum
    inside each group (no per-row Python). Values are exact 2-decimal
    inputs accumulated in int64 1e-2 units so the running sums compare
    bit-exact against DuckDB's window sum."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    from ..config import exchange_fanout

    nb = exchange_fanout(floor=32)

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch["user_id"].to_numpy(zero_copy_only=False) % nb
        return batch.append_column(
            "bucket", pa.array(b.astype(np.int32), pa.int32())
        )

    def cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v2 = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        run = (
            pd.Series(v2, index=g.index)
            .groupby(g["user_id"], sort=False)
            .cumsum()
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "ts": g["ts"].to_numpy(),
                "running_value": (run.to_numpy() / 100.0),
            }
        )

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    # returns the lazy Dataset: the result is per-EVENT (dataset-sized),
    # so it must stream to its consumer, never materialize on the driver
    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(cumsum, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


# --------------------------------- bounded rolling window (ROWS) --------
def events_rolling(sf_dir: str, window: int = 7) -> "ray.data.Dataset":
    """Per-user BOUNDED rolling aggregate over the trailing ``window``
    rows ordered by (ts, event_id) — the ``ROWS BETWEEN 6 PRECEDING
    AND CURRENT ROW`` window-function analog, the other half of the
    ordered-window family next to :func:`events_user_cumsum`'s
    unbounded running total (SURVEY.md §2.7's A3 rollups are the
    tumbling third).

    Same distributed shape as the cumsum: ONE exchange onto coarse
    user buckets (a user's history lands in exactly one group), then
    fully vectorized kernels per bucket. Exactness: 2-decimal values
    ride as int64 cents; the rolling sum is the cumsum-minus-shifted-
    cumsum difference (order-independent int arithmetic), the rolling
    max is over int64 cents (float64-exact ≤ 2^53); both divide by
    100.0 once at the end, matching the oracle's fixed tree.
    """
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    from ..config import exchange_fanout

    nb = exchange_fanout(floor=32)

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch["user_id"].to_numpy(zero_copy_only=False) % nb
        return batch.append_column(
            "bucket", pa.array(b.astype(np.int32), pa.int32())
        )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        v2 = np.rint(g["value"].to_numpy() * 100.0).astype(np.int64)
        n = len(uid)
        # users are contiguous after the sort: one global prefix sum +
        # per-row group-start offsets replace any per-group pass.
        # trailing-window sum at i = sum(v[lo:i+1]) with
        # lo = max(group_start, i - window + 1).
        is_start = np.r_[True, uid[1:] != uid[:-1]] if n else np.zeros(0, bool)
        starts = np.flatnonzero(is_start)
        sizes = np.diff(np.r_[starts, n])
        start = np.repeat(starts, sizes)  # per-row group start index
        c0 = np.r_[np.int64(0), np.cumsum(v2)]  # c0[i] = sum of v2[:i]
        idx = np.arange(n, dtype=np.int64)
        lo = np.maximum(start, idx - window + 1)
        roll_sum = c0[idx + 1] - c0[lo]
        roll_n = np.minimum(idx - start + 1, window).astype(np.int64)
        # rolling max has no prefix-sum form; ONE pandas groupby pass
        # (group-major order == row order because g is user-sorted)
        roll_max = (
            pd.Series(v2)
            .groupby(uid, sort=False)
            .rolling(window, min_periods=1)
            .max()
            .reset_index(drop=True)
            .to_numpy()
            .astype(np.int64)
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "ts": g["ts"].to_numpy(),
                "roll_n": roll_n,
                "roll_sum": roll_sum / 100.0,
                "roll_max": roll_max / 100.0,
            }
        )

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(roll, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


# --------------------------------- bucket-join relational rollup --------
def segment_order_stats_bucket_join(sf_dir: str) -> pd.DataFrame:
    """``segment_order_stats`` computed through the generic
    co-partitioned bucket join (stages/joins.bucket_lookup_join)
    instead of the broadcast lookup — the large×large join path for
    when neither side fits an actor heap. Identical oracle as a plain
    SQL join proves the shuffle join exact on relational data."""
    from ..stages.joins import bucket_lookup_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = bucket_lookup_join(
        orders,
        cust,
        on="o_custkey",
        right_key="c_custkey",
        payload={"c_mktsegment": "c_mktsegment"},
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_totalprice", pa.float64()),
            ]
        ),
        payload_types={"c_mktsegment": pa.string()},
    )

    def partial(batch: pa.Table) -> pa.Table:
        p2 = np.rint(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        df = pd.DataFrame(
            {"c_mktsegment": batch["c_mktsegment"].to_pylist(), "p2": p2}
        )
        g = df.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("p2", "size"), sum2=("p2", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("sum2", alias_name="sum2"),
        )
        .to_pandas()
    )
    out["total_price"] = out["sum2"] / 100.0
    out = out.drop(columns=["sum2"])
    return out.sort_values("c_mktsegment").reset_index(drop=True)


# ------------------------------------- approximate distinct (sketch) ---
def approx_distinct_users(sf_dir: str, p: int = 12) -> pd.DataFrame:
    """HyperLogLog approximate distinct users
    (functions/sketch.HyperLogLog): each batch combines to ONE 2^p-byte
    sketch row; the driver merges the per-batch sketches by register
    max (bounded: one 4 KiB row per batch enters the reduce, never the
    values). The exact ``distinct_user_count`` is the verifier — the
    pytest oracle asserts the estimate within the sketch's standard
    error. Rows-only at the driver gate (approximate ≠ SQL)."""
    from ..functions.sketch import HyperLogLog

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        for u in batch["user_id"].to_pylist():
            h.add(u)
        return pa.table({"sketch": pa.array([h.to_bytes()], pa.binary())})

    merged = HyperLogLog(p)
    for row in ds.map_batches(partial, batch_format="pyarrow").iter_rows():
        merged = merged.merge(HyperLogLog.from_bytes(row["sketch"], p))
    return pd.DataFrame({"n_users_approx": [int(round(merged.estimate()))]})


def events_asof_join_epoch(sf_dir: str) -> "ray.data.Dataset":
    """``events_asof_join`` computed through the time-partitioned plan
    (stages/joins.asof_join_time_partitioned, 6-hour epochs): per-task
    memory bounded by epoch width instead of a user's full history.
    Same DuckDB ASOF JOIN oracle — the epoch plan must be exactly
    equivalent."""
    import datetime

    left = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    left = left.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "click")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    right = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"]
    )
    right = right.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "view")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )

    from ..stages.joins import asof_join_time_partitioned

    out = asof_join_time_partitioned(
        left,
        right,
        by="user_id",
        ts="ts",
        payload={"event_id": "match_event_id", "value": "match_value"},
        left_schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("ts", pa.timestamp("us")),
            ]
        ),
        payload_types={
            "match_event_id": pa.int64(),
            "match_value": pa.float64(),
        },
        epoch=datetime.timedelta(hours=6),
    )
    return out  # dataset-sized: streams


def events_range_join_epoch(sf_dir: str, window_min: int = 10) -> "ray.data.Dataset":
    """``events_range_join`` through the bounded-memory plan
    (stages/joins.range_join_time_partitioned, 1-hour epochs ≥ the
    10-minute window): same DuckDB BETWEEN oracle — the epoch plan must
    be exactly equivalent."""
    import datetime

    left = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    left = left.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "click")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )
    right = _read(
        sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"]
    )
    right = right.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "view")).drop_columns(
            ["event_type"]
        ),
        batch_format="pyarrow",
    )

    from ..stages.joins import range_join_time_partitioned

    out = range_join_time_partitioned(
        left,
        right,
        by="user_id",
        ts="ts",
        lower_offset=datetime.timedelta(minutes=-window_min),
        upper_offset=datetime.timedelta(0),
        payload={"event_id": "match_event_id", "value": "match_value"},
        left_schema=pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("ts", pa.timestamp("us")),
            ]
        ),
        payload_types={
            "match_event_id": pa.int64(),
            "match_value": pa.float64(),
        },
        epoch=datetime.timedelta(hours=1),
    )
    return out  # dataset-sized: streams
