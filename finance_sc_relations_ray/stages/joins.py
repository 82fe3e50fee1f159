"""Co-partitioned bucket lookup join — the broadcast-free small×large
join primitive.

``bucket_lookup_join(left, right, ...)`` attaches columns of ``right``
to the rows of ``left`` that match on a key, WITHOUT materializing
either side on the driver and WITHOUT broadcasting: both sides are
hash-bucketed on the key (``_bucket_np``), unioned,
and a single ``groupby(bucket).map_groups`` builds a per-bucket dict
from the right rows and maps the left rows through it.

This is the Ray-Data composition for the joins the reference runs in
SQL (Athena JOIN, src/glue/glue_etl.py) re-expressed as
map_batches + groupby per the custom-operator guidance: no all-pairs
blowup, one all-to-all exchange, skew bounded by the hash bucketing
(a single hot KEY still lands in one bucket — salt upstream if a key's
right-side payload itself is huge).

Partitioning assumption (documented per the north rule): each bucket's
RIGHT-side rows must fit in one task's heap (~|right| / num_buckets
— size ``num_buckets`` to the right table, not the left). The left
side streams through the same exchange but is never dict-materialized.

Used by the unigram log-prob lookup (``pipelines/text.py``), the
TF-IDF / PMI / PageRank joins (``pipelines/graph.py``), the
embedding-LSH candidate fetch (``pipelines/mlops.py``) and the
relational bucket join (``pipelines/relational.py``).
"""

from __future__ import annotations

import pyarrow as pa
from pandas import isna as pd_isna

import ray.data

from .shuffle import NO_FUSE_NUM_CPUS

_BUCKET = "__jbucket"
_SIDE = "__jside"


def _bucket_np(col, num_buckets: int):
    """Vectorized within-job bucket routing for a key COLUMN (r5: the
    per-row crc32-of-str loop cost ~80-120 ms per 200k rows on every
    join prep; this is one siphash pass, ~3-8 ms — 15-28×). Stable
    across batches and worker processes (pandas' fixed default hash
    key — the salted_dedup add_bucket rationale); within one join all
    sides route through THIS function, which is the only consistency
    bucketing needs. Integer keys are hashed as int64 (nulls as 0):
    pandas hashes a negative value differently per width, and an
    integer column with nulls as float, so equal keys of an int32 and
    an int64 side would otherwise route to different buckets."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    if pa.types.is_integer(col.type):
        col = pc.fill_null(col.cast(pa.int64(), safe=False), 0)
    return (
        pd.util.hash_pandas_object(col.to_pandas(), index=False).to_numpy()
        % num_buckets
    ).astype(np.int32)


def bucket_lookup_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    right_key: str,
    payload: dict[str, str],
    left_schema: pa.Schema,
    payload_types: dict[str, pa.DataType],
    num_buckets: int | None = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Attach ``payload`` columns of ``right`` (renamed per the mapping
    ``{right_col: out_col}``) to ``left`` rows where
    ``left[on] == right[right_key]``.

    ``left_schema`` / ``payload_types`` are passed explicitly so the
    union schema is known at graph-build time (inspecting a lazy
    Dataset's schema would force partial execution). ``how`` is
    ``"inner"`` (drop unmatched left rows) or ``"left"`` (keep, null
    payload).
    """
    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)
    out_names = list(payload.values())
    left_names = list(left_schema.names)

    def prep_left(batch: pa.Table) -> pa.Table:
        cols = {_BUCKET: pa.array(
            _bucket_np(batch[on], num_buckets), pa.int32()
        ), _SIDE: pa.array([0] * batch.num_rows, pa.int8())}
        for name in left_names:
            cols[name] = batch[name]
        for name in out_names:
            cols[name] = pa.nulls(batch.num_rows, payload_types[name])
        return pa.table(cols)

    def prep_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        keys = batch[right_key].to_pylist()
        cols = {_BUCKET: pa.array(
            _bucket_np(batch[right_key], num_buckets), pa.int32()
        ), _SIDE: pa.array([1] * n, pa.int8())}
        for name in left_names:
            if name == on:
                # the right key rides in the left join column's slot so
                # the group fn needs no extra key column
                cols[name] = pa.array(keys, left_schema.field(on).type)
            else:
                cols[name] = pa.nulls(n, left_schema.field(name).type)
        for rcol, name in payload.items():
            cols[name] = batch[rcol].cast(payload_types[name])
        return pa.table(cols)

    nested = {
        name: pa.types.is_nested(payload_types[name]) for name in out_names
    }

    def join_group(g: pa.Table) -> pa.Table:
        # vectorized split + pandas hash merge — no Python row loop.
        # Deliberately NOT pyarrow Table.join: Acero's hash join run
        # inside many concurrent Ray tasks SILENTLY DROPPED rows in
        # this repo (deterministically at 32 CPUs on the chained-join
        # jaccard path: 17,356 of 1,130,536 rows survived; the same
        # pipeline with this pandas merge is exact on every trial).
        import pyarrow.compute as pc

        left_rows = g.filter(pc.equal(g[_SIDE], 0)).select(left_names)
        right_rows = g.filter(pc.equal(g[_SIDE], 1))
        right_tbl = right_rows.select([on] + out_names).rename_columns(
            ["__jkey"] + out_names
        )
        joined = left_rows.to_pandas().merge(
            right_tbl.to_pandas(),
            left_on=on,
            right_on="__jkey",
            how="inner" if how == "inner" else "left",
        )
        arrays = {}
        for name in left_names:
            t = left_schema.field(name).type
            col = joined[name]
            if pa.types.is_nested(t):
                arrays[name] = pa.array(
                    [None if v is None else list(v) for v in col], type=t
                )
            else:
                arrays[name] = pa.array(col.tolist(), type=t)
        for name in out_names:
            t = payload_types[name]
            if nested[name]:
                arrays[name] = pa.array(
                    [None if v is None or isinstance(v, float)
                     else (v if isinstance(v, (list, tuple)) else list(v))
                     for v in joined[name]],
                    type=t,
                )
            else:
                col = joined[name]
                if how == "left":
                    arrays[name] = pa.array(
                        [None if pd_isna(v) else v for v in col], type=t
                    )
                else:
                    arrays[name] = pa.array(col.tolist(), type=t)
        return pa.table(arrays)

    combined = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow")
    )
    return combined.groupby(_BUCKET).map_groups(
        join_group, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
    )


def _empty_joined(left_schema: pa.Schema, out_names, payload_types) -> pa.Table:
    return pa.table(
        {
            **{n: pa.array([], left_schema.field(n).type)
               for n in left_schema.names},
            **{n: pa.array([], payload_types[n]) for n in out_names},
        }
    )


def _prep_side(
    batch: pa.Table,
    side: int,
    bucket_vals: pa.Array,
    by: str,
    ts: str,
    left_schema: pa.Schema,
    payload: dict[str, str],
    payload_types: dict[str, "pa.DataType"],
) -> pa.Table:
    """Shared left/right prep for the temporal joins: EVERY column is
    explicitly cast to its declared type on BOTH sides (a left parquet
    whose physical ts is ns while the caller declares us would
    otherwise union blocks with conflicting schemas), and missing-side
    columns are typed nulls — so every unioned block carries the
    identical Arrow schema."""
    n = batch.num_rows
    cols = {
        _BUCKET: bucket_vals,
        _SIDE: pa.array([side] * n, pa.int8()),
    }
    if side == 0:
        for name in left_schema.names:
            cols[name] = batch[name].cast(left_schema.field(name).type)
        for name in payload.values():
            cols[name] = pa.nulls(n, payload_types[name])
    else:
        for name in left_schema.names:
            if name == by:
                cols[name] = batch[by].cast(left_schema.field(by).type)
            elif name == ts:
                cols[name] = batch[ts].cast(left_schema.field(ts).type)
            else:
                cols[name] = pa.nulls(n, left_schema.field(name).type)
        for rcol, name in payload.items():
            cols[name] = batch[rcol].cast(payload_types[name])
    return pa.table(cols)


def _key_buckets(batch: pa.Table, by: str, num_buckets: int) -> pa.Array:
    return pa.array(_bucket_np(batch[by], num_buckets), pa.int32())


def _asof_merge_group(
    g: pa.Table,
    by: str,
    ts: str,
    left_schema: pa.Schema,
    out_names: list,
    payload_types: dict,
    tiebreak: str,
) -> pa.Table:
    """Per-bucket backward-as-of merge. The merge_asof runs on a
    POSITIONAL index column (``__ridx``), never on the payload: pandas
    upcasts any int column with unmatched (NaN) slots to float64, which
    silently corrupts 64-bit ids above 2^53 — ``__ridx`` is bounded by
    the group size, so its float round-trip is always exact, and the
    payload is gathered from the untouched right frame afterwards."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    left_names = list(left_schema.names)
    lt = g.filter(pc.equal(g[_SIDE], 0)).select(left_names).to_pandas()
    rt = (
        g.filter(pc.equal(g[_SIDE], 1))
        .select([by, ts] + out_names)
        .to_pandas()
    )
    if len(lt) == 0 or len(rt) == 0:
        return _empty_joined(left_schema, out_names, payload_types)
    # deterministic tie-break among equal (by, ts) right rows
    rt = (
        rt.sort_values([ts, tiebreak], kind="mergesort")
        .drop_duplicates([by, ts], keep="last")
        .sort_values(ts, kind="mergesort")
        .reset_index(drop=True)
    )
    rt["__ridx"] = np.arange(len(rt), dtype=np.int64)
    joined = pd.merge_asof(
        lt.sort_values(ts, kind="mergesort"),
        rt[[by, ts, "__ridx"]],
        on=ts,
        by=by,
        direction="backward",
        allow_exact_matches=True,
    ).dropna(subset=["__ridx"])
    ridx = joined["__ridx"].astype("int64").to_numpy()
    matched = rt.iloc[ridx]
    arrays = {}
    for name in left_names:
        arrays[name] = pa.array(
            joined[name].tolist(), type=left_schema.field(name).type
        )
    for name in out_names:
        arrays[name] = pa.array(
            matched[name].tolist(), type=payload_types[name]
        )
    return pa.table(arrays)


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: str,
    ts: str,
    payload: dict[str, str],
    left_schema: pa.Schema,
    payload_types: dict[str, pa.DataType],
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Distributed backward as-of join (an operator Ray Data lacks):
    each left row gets the payload of the LATEST right row with the
    same ``by`` key and ``right[ts] <= left[ts]``; left rows with no
    such right row are dropped (inner semantics — keeps output types
    null-free for exact oracle comparison).

    Composition (custom-operator path (a)): both sides are hash-
    bucketed on ``by`` and unioned; one ``groupby(bucket).map_groups``
    runs a vectorized ``pandas.merge_asof`` per bucket. ONE all-to-all
    exchange; per-task memory is ~(|L|+|R|)/num_buckets.

    Partitioning assumption: all rows of one ``by`` key land in one
    bucket (required for correctness) and a bucket fits a task heap —
    size ``num_buckets`` to the combined table. For time-series where
    single keys outgrow a task, use ``asof_join_time_partitioned``.

    Determinism with duplicate right timestamps: among right rows that
    tie on ``(by, ts)`` the one with the greatest first-payload value
    wins (callers pass a unique id as the first payload column), on
    both this side and the DuckDB ``ASOF JOIN`` oracle (arg_max).
    """
    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)
    out_names = list(payload.values())
    tiebreak = out_names[0]

    def prep_left(batch: pa.Table) -> pa.Table:
        return _prep_side(
            batch, 0, _key_buckets(batch, by, num_buckets),
            by, ts, left_schema, payload, payload_types,
        )

    def prep_right(batch: pa.Table) -> pa.Table:
        return _prep_side(
            batch, 1, _key_buckets(batch, by, num_buckets),
            by, ts, left_schema, payload, payload_types,
        )

    def join_group(g: pa.Table) -> pa.Table:
        return _asof_merge_group(
            g, by, ts, left_schema, out_names, payload_types, tiebreak
        )

    combined = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow")
    )
    return combined.groupby(_BUCKET).map_groups(
        join_group, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
    )


def range_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: str,
    ts: str,
    lower_offset,
    upper_offset,
    payload: dict[str, str],
    left_schema: pa.Schema,
    payload_types: dict[str, pa.DataType],
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Distributed interval (range) join: emit one output row for EVERY
    right row with the same ``by`` key whose timestamp falls in
    ``[left[ts] + lower_offset, left[ts] + upper_offset]`` (both
    pandas/``datetime.timedelta`` offsets, bounds inclusive — the
    all-matches companion to ``asof_join``'s latest-match). Inner
    semantics: left rows with no match emit nothing.

    Same physical plan as ``asof_join``; inside a bucket both sides are
    grouped by key ONCE (a dict of left frames — not a per-key rescan
    of the whole bucket) and every left row's window is located with
    two vectorized ``searchsorted`` calls.

    Partitioning assumption: as ``asof_join``. Additionally the OUTPUT
    is data-dependent (a hot key with a dense window emits
    |L_w|×|R_w| rows); if a key's window density is unbounded,
    sub-partition by coarse time range so each task's emit stays
    bounded, or cap the window span upstream.
    """
    import numpy as np

    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)
    out_names = list(payload.values())
    left_names = list(left_schema.names)
    # numpy rejects datetime64 + datetime.timedelta; normalize once
    lower_np = np.timedelta64(lower_offset)
    upper_np = np.timedelta64(upper_offset)

    def prep_left(batch: pa.Table) -> pa.Table:
        return _prep_side(
            batch, 0, _key_buckets(batch, by, num_buckets),
            by, ts, left_schema, payload, payload_types,
        )

    def prep_right(batch: pa.Table) -> pa.Table:
        return _prep_side(
            batch, 1, _key_buckets(batch, by, num_buckets),
            by, ts, left_schema, payload, payload_types,
        )

    def join_group(g: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        lt = g.filter(pc.equal(g[_SIDE], 0)).select(left_names).to_pandas()
        rt = (
            g.filter(pc.equal(g[_SIDE], 1))
            .select([by, ts] + out_names)
            .to_pandas()
        )
        if len(lt) == 0 or len(rt) == 0:
            return _empty_joined(left_schema, out_names, payload_types)
        # group BOTH sides once; never rescan the bucket per key
        left_groups = {k: v for k, v in lt.groupby(by, sort=False)}
        left_parts, right_parts = [], []
        for key, rgrp in rt.groupby(by, sort=False):
            lgrp = left_groups.get(key)
            if lgrp is None:
                continue
            rgrp = rgrp.sort_values(ts, kind="mergesort")
            rts = rgrp[ts].to_numpy()
            lts = lgrp[ts].to_numpy()
            lo = np.searchsorted(rts, lts + lower_np, side="left")
            hi = np.searchsorted(rts, lts + upper_np, side="right")
            counts = hi - lo
            keep = counts > 0
            if not keep.any():
                continue
            left_idx = np.repeat(np.flatnonzero(keep), counts[keep])
            right_idx = np.concatenate(
                [np.arange(a, b) for a, b in zip(lo[keep], hi[keep])]
            )
            left_parts.append(lgrp.iloc[left_idx])
            right_parts.append(rgrp.iloc[right_idx])
        if not left_parts:
            return _empty_joined(left_schema, out_names, payload_types)
        lout = pd.concat(left_parts, ignore_index=True)
        rout = pd.concat(right_parts, ignore_index=True)
        arrays = {}
        for name in left_names:
            arrays[name] = pa.array(
                lout[name].tolist(), type=left_schema.field(name).type
            )
        for name in out_names:
            arrays[name] = pa.array(
                rout[name].tolist(), type=payload_types[name]
            )
        return pa.table(arrays)

    combined = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow")
    )
    return combined.groupby(_BUCKET).map_groups(
        join_group, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
    )


def asof_join_time_partitioned(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: str,
    ts: str,
    payload: dict[str, str],
    left_schema: pa.Schema,
    payload_types: dict[str, pa.DataType],
    epoch,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """``asof_join`` for time-series where a single key's history
    outgrows one task: rows are sub-partitioned into ``(key-bucket,
    epoch)`` groups of bounded time span (``epoch`` a timedelta), so
    per-task memory is bounded by epoch width × arrival rate instead of
    a key's full history.

    Correctness across epoch boundaries (a left row whose latest match
    lies in an EARLIER epoch) is restored by a carry stage: a small
    per-(key, epoch) aggregate keeps each epoch's LAST right row, and a
    per-key binary search injects the latest-earlier right row into
    every LEFT-active epoch (left-active, not right-active: a left row
    in an epoch with no right rows still needs its carry). Three
    bounded exchanges total; no group ever holds more than one epoch of
    one bucket plus one carry row per key.

    All epoch computation happens on the Arrow side with an explicit
    cast to ``timestamp(us)`` — pandas-side int64 views of ns-resolution
    inputs would silently compute epochs on a 1000× scale.

    Same tie-break and inner semantics as ``asof_join`` (equivalence-
    tested against it on random cross-epoch data,
    tests/test_asof_join.py).
    """
    import datetime

    import pandas as pd
    import pyarrow.compute as pc

    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)
    out_names = list(payload.values())
    tiebreak = out_names[0]
    raw_payload = list(payload.keys())
    raw_tiebreak = raw_payload[0]
    ts_type = left_schema.field(ts).type
    by_type = left_schema.field(by).type
    epoch_us = int(epoch / datetime.timedelta(microseconds=1))

    import numpy as _np

    def _epochs(ts_arr):
        us = (
            ts_arr.cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return us // epoch_us  # numpy int64 // is floor-div, like python

    def _epoch_buckets(col, eps) -> pa.Array:
        kb = _bucket_np(col, num_buckets).astype(_np.int64)
        return pa.array(kb * 1_000_003 + eps, pa.int64())

    def prep_left(batch: pa.Table) -> pa.Table:
        bv = _epoch_buckets(batch[by], _epochs(batch[ts]))
        return _prep_side(
            batch, 0, bv, by, ts, left_schema, payload, payload_types
        )

    def prep_right(batch: pa.Table) -> pa.Table:
        bv = _epoch_buckets(batch[by], _epochs(batch[ts]))
        return _prep_side(
            batch, 1, bv, by, ts, left_schema, payload, payload_types
        )

    # ---- carry stage ------------------------------------------------
    # homogeneous schema for every block feeding the carry groupby:
    # [by, ts, raw payload (cast), __e, __mark, __kb]
    def _carry_norm(batch: pa.Table, mark_val: int) -> pa.Table:
        n = batch.num_rows
        cols = {"__kb": pa.array(
            _bucket_np(batch[by], num_buckets), pa.int32()
        )}
        cols[by] = batch[by].cast(by_type)
        cols[ts] = (
            batch[ts].cast(ts_type)
            if ts in batch.column_names
            else pa.nulls(n, ts_type)
        )
        for rcol in raw_payload:
            cols[rcol] = (
                batch[rcol].cast(payload_types[payload[rcol]])
                if rcol in batch.column_names
                else pa.nulls(n, payload_types[payload[rcol]])
            )
        cols["__e"] = batch["__e"].cast(pa.int64())
        cols["__mark"] = pa.array([mark_val] * n, pa.int8())
        return pa.table(cols)

    # 1) per (key, epoch): last right row (tie-break aware); epochs
    #    computed on the Arrow side (us-normalized)
    def last_per_epoch(batch: pa.Table) -> pa.Table:
        ep = _epochs(batch[ts])
        df = batch.to_pandas()
        df["__e"] = ep
        df = df.sort_values([ts, raw_tiebreak], kind="mergesort")
        lastr = df.groupby([by, "__e"], as_index=False).last()
        return pa.Table.from_pandas(lastr, preserve_index=False)

    def merge_last(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts, raw_tiebreak], kind="mergesort")
        return g.groupby([by, "__e"], as_index=False).last()

    lasts = (
        right.select_columns([by, ts] + raw_payload)
        .map_batches(last_per_epoch, batch_format="pyarrow")
        .map_batches(lambda b: _carry_norm(b, 0), batch_format="pyarrow")
        .groupby("__kb")
        .map_groups(
            lambda g: pa.Table.from_pandas(
                merge_last(
                    g.drop_columns(["__mark"]).to_pandas()
                ).drop(columns="__kb"),
                preserve_index=False,
            ),
            batch_format="pyarrow",
            num_cpus=NO_FUSE_NUM_CPUS,
        )
        .map_batches(lambda b: _carry_norm(b, 0), batch_format="pyarrow")
    )

    # 2) distinct LEFT (key, epoch) pairs — the epochs that NEED a carry
    def left_epochs(batch: pa.Table) -> pa.Table:
        keys = batch[by].to_pylist()
        ep = _epochs(batch[ts])
        pairs = sorted(set(zip(keys, ep)))
        return pa.table(
            {
                by: pa.array([p[0] for p in pairs], by_type),
                "__e": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )

    left_marks = left.map_batches(
        left_epochs, batch_format="pyarrow"
    ).map_batches(lambda b: _carry_norm(b, 1), batch_format="pyarrow")

    # 3) per key: binary-search the latest right epoch-last strictly
    #    before each left-active epoch. Sides are split on the ARROW
    #    table (mark-row nulls never touch the payload frame, so int64
    #    ids never round-trip through float64).
    def carries(g: pa.Table) -> pa.Table:
        import numpy as np

        marks = (
            g.filter(pc.equal(g["__mark"], 1)).select([by, "__e"]).to_pandas()
        )
        lastr = (
            g.filter(pc.equal(g["__mark"], 0))
            .select([by, ts] + raw_payload + ["__e"])
            .to_pandas()
        )
        carry_schema = pa.schema(
            [(by, by_type), (ts, ts_type)]
            + [(rcol, payload_types[payload[rcol]]) for rcol in raw_payload]
            + [("__e", pa.int64())]
        )
        if len(marks) == 0 or len(lastr) == 0:
            return pa.table(
                {f.name: pa.array([], f.type) for f in carry_schema}
            )
        outs = []
        last_by_key = {
            k: kg.sort_values("__e", kind="mergesort")
            for k, kg in lastr.groupby(by, sort=False)
        }
        for k, mk in marks.groupby(by, sort=False):
            kg = last_by_key.get(k)
            if kg is None:
                continue
            eps = kg["__e"].to_numpy()
            for e in sorted(set(mk["__e"])):
                i = int(np.searchsorted(eps, e, side="left")) - 1
                if i >= 0:
                    row = kg.iloc[i].copy()
                    row["__e"] = e
                    outs.append(row)
        if not outs:
            return pa.table(
                {f.name: pa.array([], f.type) for f in carry_schema}
            )
        out = pd.DataFrame(outs)
        return pa.table(
            {
                f.name: pa.array(out[f.name].tolist(), type=f.type)
                for f in carry_schema
            }
        )

    carry_ds = lasts.union(left_marks).groupby("__kb").map_groups(
        carries, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
    )

    def prep_carry(batch: pa.Table) -> pa.Table:
        bv = _epoch_buckets(
            batch[by],
            batch["__e"].to_numpy(zero_copy_only=False),
        )
        return _prep_side(
            batch, 1, bv, by, ts, left_schema, payload, payload_types
        )

    def join_group(g: pa.Table) -> pa.Table:
        return _asof_merge_group(
            g, by, ts, left_schema, out_names, payload_types, tiebreak
        )

    combined = (
        left.map_batches(prep_left, batch_format="pyarrow")
        .union(right.map_batches(prep_right, batch_format="pyarrow"))
        .union(carry_ds.map_batches(prep_carry, batch_format="pyarrow"))
    )
    return combined.groupby(_BUCKET).map_groups(
        join_group, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
    )


def range_join_time_partitioned(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: str,
    ts: str,
    lower_offset,
    upper_offset,
    payload: dict[str, str],
    left_schema: pa.Schema,
    payload_types: dict[str, pa.DataType],
    epoch,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """``range_join`` with bounded per-task memory (the mitigation its
    docstring prescribes): rows sub-partition into ``(key-bucket,
    epoch)`` groups. Because the window is bounded and ``epoch`` must
    be ≥ the window span, a left row's window can only reach into its
    own epoch and the one before — so each right row is emitted twice
    (its epoch and the NEXT one) and the per-group searchsorted join is
    exact with no carry scan at all. Each right row appears in exactly
    one group a given left row joins against, so no dedup is needed.

    Requires ``epoch >= upper_offset - lower_offset`` (asserted) and,
    for the backward window shape used here, ``upper_offset <= 0 or
    lower_offset >= -epoch`` style bounds are implied by that span
    check. Two× right-row duplication is the entire overhead.
    """
    import datetime

    import numpy as np

    span = upper_offset - lower_offset
    assert span <= epoch, (
        f"epoch ({epoch}) must cover the window span ({span})"
    )
    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)
    out_names = list(payload.values())
    left_names = list(left_schema.names)
    lower_np = np.timedelta64(lower_offset)
    upper_np = np.timedelta64(upper_offset)
    epoch_us = int(epoch / datetime.timedelta(microseconds=1))
    # shift epochs so the WINDOW (not the row ts) defines alignment:
    # left row epoch is computed at ts+lower (window start), right row
    # at its own ts; right duplicated into the next epoch covers a
    # window crossing one boundary
    lower_us = int(
        (lower_offset if isinstance(lower_offset, datetime.timedelta)
         else datetime.timedelta(0)) / datetime.timedelta(microseconds=1)
    )

    def _epochs(ts_arr, shift_us: int = 0):
        us = (
            ts_arr.cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return (us + shift_us) // epoch_us

    def _epoch_buckets(col, eps) -> pa.Array:
        kb = _bucket_np(col, num_buckets).astype(np.int64)
        return pa.array(kb * 1_000_003 + eps, pa.int64())

    def prep_left(batch: pa.Table) -> pa.Table:
        # left rows grouped by the epoch of their WINDOW START
        bv = _epoch_buckets(batch[by], _epochs(batch[ts], lower_us))
        return _prep_side(
            batch, 0, bv, by, ts, left_schema, payload, payload_types
        )

    def prep_right(batch: pa.Table) -> pa.Table:
        # Coverage argument: a left row in group e has its window
        # start in real-time epoch e (left groups use the +lower
        # shift), so the window [start, start+span] with span ≤ W lies
        # inside real-time epochs {e, e+1}. A right row with UNSHIFTED
        # epoch g can therefore only match left groups {g-1, g} —
        # duplicating each right row into exactly those two groups
        # makes the per-group join exact, and since a left row lives
        # in one group and each right copy in distinct groups, no
        # output dedup is needed.
        eps = _epochs(batch[ts])
        t1 = _prep_side(
            batch, 1, _epoch_buckets(batch[by], eps),
            by, ts, left_schema, payload, payload_types,
        )
        t2 = _prep_side(
            batch, 1, _epoch_buckets(batch[by], eps - 1),
            by, ts, left_schema, payload, payload_types,
        )
        return pa.concat_tables([t1, t2])

    def join_group(g: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        lt = g.filter(pc.equal(g[_SIDE], 0)).select(left_names).to_pandas()
        rt = (
            g.filter(pc.equal(g[_SIDE], 1))
            .select([by, ts] + out_names)
            .to_pandas()
        )
        if len(lt) == 0 or len(rt) == 0:
            return _empty_joined(left_schema, out_names, payload_types)
        left_groups = {k: v for k, v in lt.groupby(by, sort=False)}
        left_parts, right_parts = [], []
        for key, rgrp in rt.groupby(by, sort=False):
            lgrp = left_groups.get(key)
            if lgrp is None:
                continue
            rgrp = rgrp.sort_values(ts, kind="mergesort")
            rts = rgrp[ts].to_numpy()
            lts = lgrp[ts].to_numpy()
            lo = np.searchsorted(rts, lts + lower_np, side="left")
            hi = np.searchsorted(rts, lts + upper_np, side="right")
            counts = hi - lo
            keep = counts > 0
            if not keep.any():
                continue
            left_idx = np.repeat(np.flatnonzero(keep), counts[keep])
            right_idx = np.concatenate(
                [np.arange(a, b) for a, b in zip(lo[keep], hi[keep])]
            )
            left_parts.append(lgrp.iloc[left_idx])
            right_parts.append(rgrp.iloc[right_idx])
        if not left_parts:
            return _empty_joined(left_schema, out_names, payload_types)
        lout = pd.concat(left_parts, ignore_index=True)
        rout = pd.concat(right_parts, ignore_index=True)
        arrays = {}
        for name in left_names:
            arrays[name] = pa.array(
                lout[name].tolist(), type=left_schema.field(name).type
            )
        for name in out_names:
            arrays[name] = pa.array(
                rout[name].tolist(), type=payload_types[name]
            )
        return pa.table(arrays)

    combined = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow")
    )
    return combined.groupby(_BUCKET).map_groups(
        join_group, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
    )
