"""Skew-safe shuffle helpers: salted / two-phase aggregation.

A bare ``groupby(key).map_groups`` ships every row of a hot key to one
task (the Apple/Samsung-hub problem, SURVEY.md §7.4). These helpers
implement the combiner pattern the north rule asks for explicitly:

- ``partial_dedup_batch``: inside ``map_batches``, collapse each batch
  to one row per key (a per-batch combiner — this is the "salt": the
  partial key-space is (key × batch), so no single reducer sees more
  than #batches rows per key);
- a final bucketed merge (a sort on a key-hash bucket, then one merge
  per sorted block) merges the partials with the same merge function
  (the merge is associative + commutative, so combiner-then-merge
  equals a single global pass).

Merge semantics per key (matching the reference's per-item payload,
reference src/relation_extraction/reporter.py:39-73 — ``sentenceIds``,
``extractedNameId``, ``extractedNameCandidateIds``):

- ``score``        → max
- ``n_mentions``   → sum
- ``subj_id`` / ``obj_id`` → min non-null (a deterministic
  "first non-null": linking is name-keyed so ids agree across
  mentions; min makes the pick independent of batch order)
- ``url``          → min (deterministic witness document)
- ``sentence_ids`` → sorted union, capped at ``SENTENCE_IDS_CAP``
  (bounded: a mega-triple mentioned on 10^9 pages must not grow an
  unbounded list; ``n_mentions`` keeps the true count)

Payload columns are merged only if present, so the same fold serves
the build's dedup, a store merge's combiner, the triple store's run
fold and bare (subj,pred,obj) dedup. It is one Arrow kernel
(:func:`partial_dedup_batch`); its output is sorted by key.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

# Fusion blocker for whole-group map_groups stages. Ray 2.49's operator
# fusion will fuse a map_groups-generated map op with a downstream map
# op when their remote args are compatible, and the fused stage
# re-bundles the SORTED input blocks before the group fn runs — the fn
# then sees PARTIAL groups. Any group fn that needs the whole group
# (hash joins; dedup merges; per-group argmax) silently corrupts:
# reproduced at sf0.1 on an n-gram Jaccard bucket join, where ~1 run
# in 5 lost 98% of join rows (inner-join left rows split from their
# right rows).
# A non-default num_cpus makes `_are_remote_args_compatible` fail
# (canonicalized 0.99 != 1), so fusion is skipped and each call gets a
# whole sorted block, 8/8 stable. The 0.01-CPU difference is
# scheduling noise. (The KG actor stages were never affected — their
# num_cpus=0.5 blocked fusion already.)
NO_FUSE_NUM_CPUS = 0.99

SENTENCE_IDS_CAP = 64

# payload columns (merged when present); anything else non-key is dropped
_PAYLOAD = ("score", "n_mentions", "subj_id", "obj_id", "url", "sentence_ids")

_PAYLOAD_TYPES = {
    "score": pa.float32(),
    "n_mentions": pa.int64(),
    "subj_id": pa.string(),
    "obj_id": pa.string(),
    "url": pa.string(),
    "sentence_ids": pa.list_(pa.int64()),
}


def partial_dedup_batch(batch: pa.Table, keys: list[str]) -> pa.Table:
    """Collapse ``batch`` to ONE row per key with the merged payload,
    sorted by key: columns ``keys + payload + n_mentions``, the payload
    cast to ``_PAYLOAD_TYPES`` first. A missing ``n_mentions`` counts
    rows.

    Sort once by the keys; a row whose keys differ from the previous
    row's starts a group (null keys group together). One Arrow
    ``group_by`` over the group id folds score, the ids, url and
    n_mentions; the sentence_ids union is a numpy sort of the
    (group, id) pairs of the flattened lists, deduplicated, each group
    cut at ``SENTENCE_IDS_CAP``."""
    import numpy as np
    import pyarrow.compute as pc

    present = [c for c in _PAYLOAD if c in batch.column_names]
    t = batch.select(keys + present)
    t = t.cast(
        pa.schema(
            [t.schema.field(k) for k in keys]
            + [pa.field(c, _PAYLOAD_TYPES[c]) for c in present]
        )
    )
    t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
    n = t.num_rows
    starts = np.ones(n, dtype=bool)
    if n:
        starts[1:] = False
        for k in keys:
            a, b = t[k].slice(1), t[k].slice(0, n - 1)
            differ = pc.fill_null(
                pc.not_equal(a, b), pc.xor(pc.is_null(a), pc.is_null(b))
            )
            starts[1:] |= differ.to_numpy()
    gid = np.cumsum(starts) - 1
    ngroups = int(starts.sum())

    aggs = {
        c: (c, "max" if c == "score" else "min")
        for c in present
        if c not in ("n_mentions", "sentence_ids")
    }
    aggs["n_mentions"] = (
        ("n_mentions", "sum", pc.ScalarAggregateOptions(min_count=0))
        if "n_mentions" in present
        else ([], "count_all")
    )
    folded = (
        t.append_column("__g", pa.array(gid, pa.int64()))
        .group_by("__g", use_threads=False)
        .aggregate(list(aggs.values()))
    )
    folded = dict(zip(aggs, folded.drop_columns(["__g"]).columns))
    if "sentence_ids" in present:
        folded["sentence_ids"] = _bottom_union(
            t["sentence_ids"].combine_chunks(), gid, ngroups
        )

    out = t.select(keys).take(np.flatnonzero(starts))
    for c in [c for c in present if c != "n_mentions"] + ["n_mentions"]:
        out = out.append_column(c, folded[c])
    return out


def _bottom_union(
    lists: pa.ListArray, gid: "np.ndarray", ngroups: int
) -> pa.ListArray:
    """Per group of rows (``gid``, nondecreasing): the sorted distinct
    ids of its lists, the ``SENTENCE_IDS_CAP`` smallest. Null and empty
    cells contribute nothing; a group with no id gets ``[]``."""
    import numpy as np
    import pyarrow.compute as pc

    g = gid[pc.list_parent_indices(lists).to_numpy()]
    s = pc.list_flatten(lists).to_numpy()
    o = np.lexsort((s, g))
    g, s = g[o], s[o]
    keep = np.ones(len(g), dtype=bool)
    keep[1:] = (g[1:] != g[:-1]) | (s[1:] != s[:-1])
    g, s = g[keep], s[keep]
    first = np.searchsorted(g, np.arange(ngroups))
    keep = np.arange(len(g)) - first[g] < SENTENCE_IDS_CAP
    g, s = g[keep], s[keep]
    offsets = np.searchsorted(g, np.arange(ngroups + 1))
    return pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(s, pa.int64())
    )


def _merge_bucket(t: "pa.Table | pd.DataFrame", keys: list[str]) -> pa.Table:
    """:func:`partial_dedup_batch` over a table or a pandas frame
    (perfbench's replay passes one), converted first."""
    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t, preserve_index=False)
    return partial_dedup_batch(t, keys)


def salted_dedup(
    ds: "ray.data.Dataset", keys: list[str], num_buckets: int | None = None
) -> "ray.data.Dataset":
    """Two-phase exact dedup: per-batch combiner → bucketed final merge.

    The final all-to-all only moves one row per (key, batch) — bounded
    regardless of key skew. The exchange sorts on a ``hash(key) % B``
    coarse bucket (NOT the key itself) and each sorted block, which
    holds whole buckets, is merged with one vectorized aggregation
    (:func:`partial_dedup_batch`); the merge is associative+commutative, so
    combiner-then-merge equals a single global pass.

    ``num_buckets`` defaults to the cluster-derived
    ``config.exchange_fanout()`` (resolved at plan time) so reducer
    parallelism scales with the cluster instead of capping at 64."""
    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)
    partial = ds.map_batches(
        lambda b: partial_dedup_batch(b, keys), batch_format="pyarrow"
    )

    def add_bucket(batch: pa.Table) -> pa.Table:
        # vectorized, batch-independent key hash (pandas siphash with
        # its fixed default key — stable across batches AND worker
        # processes, which bucket routing requires; the old per-row
        # crc32-of-joined-strings Python loop was measured at ~0.3 s
        # per 100k rows)
        import pandas as pd

        hb = (
            pd.util.hash_pandas_object(
                batch.select(keys).to_pandas(), index=False
            ).to_numpy()
            % num_buckets
        ).astype("int32")
        return batch.append_column("__dbucket", pa.array(hb, pa.int32()))

    def merge(block: pa.Table) -> pa.Table:
        return partial_dedup_batch(block.drop_columns(["__dbucket"]), keys)

    # The sort range-partitions on the bucket, so a bucket never spans
    # blocks and one merge per sorted block (batch_size=None: the whole
    # block) is exact. This is what ``groupby().map_groups`` compiles
    # to in Ray 2.49, minus its per-group UDF call. num_cpus blocks
    # downstream-map fusion: a fused map re-bundles the sorted blocks
    # and the merge fn would see partial buckets → duplicate keys
    # (NO_FUSE_NUM_CPUS rationale above).
    return (
        partial.map_batches(add_bucket, batch_format="pyarrow")
        .sort("__dbucket")
        .map_batches(
            merge,
            batch_size=None,
            batch_format="pyarrow",
            num_cpus=NO_FUSE_NUM_CPUS,
        )
    )


# -------------------------------------------- distributed DISTINCT -----
_PAIR_H1 = 0x9E3779B97F4A7C15
_PAIR_H2 = 0xC2B2AE3D27D4EB4F


def distinct_pairs_ds(
    pairs: "ray.data.Dataset",
    col_a: str = "doc_id_a",
    col_b: str = "doc_id_b",
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Distributed DISTINCT over int64 (col_a, col_b) pair rows — the
    combiner pattern above specialized to candidate-pair streams:
    per-batch ``drop_duplicates`` → numpy-hashed bucket exchange →
    per-bucket distinct. At most one row per (pair, batch) crosses the
    exchange; nothing touches the driver (r2 verdict item #1)."""
    import numpy as np
    import pandas as pd

    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets, floor=32)
    h1, h2 = np.uint64(_PAIR_H1), np.uint64(_PAIR_H2)

    def local(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.drop_duplicates().astype({col_a: "int64", col_b: "int64"})
        a = df[col_a].to_numpy().astype(np.uint64)
        b = df[col_b].to_numpy().astype(np.uint64)
        # wrapping uint64 mix; bucket skew is irrelevant here (each
        # bucket only runs a vectorized drop_duplicates)
        df["__dbucket"] = (((a * h1) ^ (b * h2)) % num_buckets).astype(
            np.int32
        )
        return df

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        return g.drop(columns="__dbucket").drop_duplicates()

    return (
        pairs.map_batches(local, batch_format="pandas")
        .groupby("__dbucket")
        .map_groups(merge, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


def bucketed_sum_ds(
    ds: "ray.data.Dataset",
    keys: list[str],
    value_cols: list[str],
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Distributed per-key SUM for HIGH-CARDINALITY keys: per-batch
    vectorized partial sums → coarse-bucket exchange → one vectorized
    pandas sum per bucket. ``groupby(keys).aggregate(Sum)`` pays Ray's
    per-group overhead once per distinct key (measured: 14.3 s for a
    591k-group two-key sum at sf0.1 vs 2-3 s bucketed — the same
    pathology salted_dedup/distinct_pairs_ds already avoid for
    dedup); this helper is the sum-shaped sibling. At most one row per
    (key, batch) crosses the exchange."""
    import pandas as pd

    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)

    def local(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(keys, as_index=False, sort=False)[value_cols].sum()
        g["__dbucket"] = (
            pd.util.hash_pandas_object(g[keys], index=False).to_numpy()
            % num_buckets
        ).astype("int32")
        return g

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        return (
            g.drop(columns="__dbucket")
            .groupby(keys, as_index=False, sort=False)[value_cols]
            .sum()
        )

    return (
        ds.map_batches(local, batch_format="pandas")
        .groupby("__dbucket")
        .map_groups(merge, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


def distinct_pair_ids_ds(
    pairs: "ray.data.Dataset",
    col_a: str = "doc_id_a",
    col_b: str = "doc_id_b",
    out_col: str = "doc_id",
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Distinct ids appearing on either side of a pair stream, as a
    Dataset (same combiner-first shape as ``distinct_pairs_ds``)."""
    import numpy as np
    import pandas as pd

    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets, floor=32)
    h1 = np.uint64(_PAIR_H1)

    def local(df: "pd.DataFrame") -> "pd.DataFrame":
        ids = pd.unique(
            np.concatenate([df[col_a].to_numpy(), df[col_b].to_numpy()])
        )
        out = pd.DataFrame({out_col: ids.astype("int64")})
        out["__dbucket"] = (
            (out[out_col].to_numpy().astype(np.uint64) * h1) % num_buckets
        ).astype(np.int32)
        return out

    def merge(g: "pd.DataFrame") -> "pd.DataFrame":
        return g.drop(columns="__dbucket").drop_duplicates()

    return (
        pairs.map_batches(local, batch_format="pandas")
        .groupby("__dbucket")
        .map_groups(merge, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )
