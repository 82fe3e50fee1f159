"""Graph/term analytics over the corpus and the relational tables:
TF-IDF top terms per document, within-document co-occurrence pair
mining (PMI lift), and integer-exact distributed PageRank.

These extend the KG-construction surface the same way the dedup
operators extend the reference's cleaning surface: the reference
builds (subj, pred, obj) relation triples (see
`/root/reference/src/relation_extraction/` — graded by SURVEY.md §2
as M7/R1/A1); once a corpus-scale graph exists, ranking its nodes and
mining term association edges are the standard next pipeline stages
(TF-IDF: Sparck Jones 1972; PMI association mining: Church & Hanks
1990; PageRank: Page et al. 1999 — all public-knowledge algorithms,
implemented Ray-Data-first here).

Cross-engine exactness policy (shared with unigram_logprob /
mlops.kmeans): every value the DuckDB oracle compares is either an
integer produced by order-independent integer arithmetic, or a float
produced by a FIXED tree of IEEE +,-,*,/ ops on exactly-representable
integers — never a transcendental (ln/exp differ by ULPs across
libms) and never an order-dependent float sum. PMI is therefore
reported as the *lift* ratio N·c_ab/(c_a·c_b) (PMI = ln(lift),
monotone — filtering and ranking on lift are identical); TF-IDF drops
the constant-N log and scores tf·N/df (one exact int multiply, one
correctly-rounded divide; the ln(N/df) variant ranks identically
whenever df-ordering does and is trivially derived downstream).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import textops
from ..sources.io import sized_read_parquet
from ..stages.joins import bucket_lookup_join
from ..stages.shuffle import NO_FUSE_NUM_CPUS, bucketed_sum_ds


def _read_docs(
    sf_dir: str, columns: list[str], fanout: bool = False
) -> "ray.data.Dataset":
    return sized_read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=columns,
        fanout=fanout,
    )


def _read_lineitem(sf_dir: str, columns: list[str]) -> "ray.data.Dataset":
    return sized_read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=columns
    )


# ------------------------------------------------------------------
# shared explode: one row per (doc_id, term) with the in-doc term
# frequency. (doc_id, term) rows are unique GLOBALLY (one row per
# pair, emitted by exactly one task), so per-term row counts equal
# document frequency under ANY downstream re-batching — the df
# combiner relies on that, never on batch boundaries.
# ------------------------------------------------------------------
_TF_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("term", pa.string()), ("tf", pa.int64())]
)


def _explode_tf(batch: pa.Table) -> pa.Table:
    texts = batch["text"].to_pylist()
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    flat, counts = textops.tokens_lower_batch(texts)
    if len(flat) == 0:
        return _TF_SCHEMA.empty_table()
    rep = np.repeat(doc_ids, counts)
    g = (
        pd.DataFrame({"doc_id": rep, "term": flat})
        .groupby(["doc_id", "term"], as_index=False, sort=False)
        .size()
        .rename(columns={"size": "tf"})
    )
    return pa.table(
        {
            "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
            "term": pa.array(g["term"].tolist(), pa.string()),
            "tf": pa.array(g["tf"].to_numpy(), pa.int64()),
        }
    )


def _tf_ds(sf_dir: str) -> "ray.data.Dataset":
    return _read_docs(sf_dir, ["doc_id", "text"], fanout=True).map_batches(
        _explode_tf, batch_format="pyarrow"
    )


def _df_table(sf_dir: str) -> "ray.data.Dataset":
    """Document frequency per term: combiner-first (each batch emits
    one (term, partial_df) row per distinct term — valid because
    (doc, term) rows are unique within a batch), then ONE small
    groupby(term). The vocabulary table stays distributed (web-scale
    vocab = billions of noise tokens; nothing is broadcast)."""

    def partial_df(batch: pa.Table) -> pa.Table:
        g = (
            pd.DataFrame({"term": batch["term"].to_pylist()})
            .groupby("term", as_index=False, sort=False)
            .size()
        )
        return pa.table(
            {
                "term": pa.array(g["term"].tolist(), pa.string()),
                "df": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    # bucketed, not groupby(term).aggregate: the vocabulary is
    # web-scale high-cardinality and Ray's aggregate pays per-group
    # overhead (stages/shuffle.bucketed_sum_ds rationale)
    return bucketed_sum_ds(
        _tf_ds(sf_dir).map_batches(partial_df, batch_format="pyarrow"),
        keys=["term"],
        value_cols=["df"],
    )


# ------------------------------------------------------- TF-IDF ---------
def tfidf_top_terms(sf_dir: str, k: int = 5) -> "ray.data.Dataset":
    """Top-``k`` characteristic terms per document by TF-IDF.

    ``score = CAST(tf * n_docs AS DOUBLE) / df`` — the log-free IDF
    variant (see module docstring: one exact integer multiply
    ``tf * n_docs`` ≤ 2^53, one correctly-rounded IEEE divide, so the
    engine and the DuckDB oracle produce bit-identical doubles on any
    platform; ranking by ``tf·ln(N/df)`` can flip on 1-ULP libm
    differences when two (tf, df) pairs are log-collinear, e.g.
    ``2·ln(N/x)`` vs ``ln(N/x²)``). Ties (equal score) break on term
    ascending — total and engine-independent because term is unique
    per document.

    Distributed plan (the unigram_logprob shape, text.py:761): tf
    explode is map-only and REDERIVED for each consumer (nothing
    corpus-sized is pinned); df via per-batch combiner + groupby(term);
    df attaches to tf rows through a term-bucketed
    ``bucket_lookup_join`` (vocab stays distributed — no broadcast);
    the per-doc top-k is ONE doc-bucketed groupby with a vectorized
    sort + head(k) per bucket. Exactly two corpus-sized exchanges.
    Only the scalar n_docs touches the driver.
    """
    n_docs = int(_read_docs(sf_dir, ["doc_id"]).count())

    joined = bucket_lookup_join(
        _tf_ds(sf_dir),
        _df_table(sf_dir),
        on="term",
        right_key="term",
        payload={"df": "df"},
        left_schema=_TF_SCHEMA,
        payload_types={"df": pa.int64()},
    )

    from ..config import exchange_fanout

    num_doc_buckets = exchange_fanout()

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (batch["doc_id"].to_numpy(zero_copy_only=False) % num_doc_buckets)
        return batch.append_column("__db", pa.array(b, pa.int32()))

    def topk(g: pa.Table) -> pa.Table:
        df = g.select(["doc_id", "term", "tf", "df"]).to_pandas()
        # exact: int64 tf * n_docs ≤ 2^53 cast to double, one divide
        df["score"] = (df["tf"].to_numpy() * n_docs).astype(np.float64) / df[
            "df"
        ].to_numpy().astype(np.float64)
        df = df.sort_values(
            ["doc_id", "score", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        df["rank"] = df.groupby("doc_id", sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
                "term": pa.array(df["term"].tolist(), pa.string()),
                "tf": pa.array(df["tf"].to_numpy(), pa.int64()),
                "df": pa.array(df["df"].to_numpy(), pa.int64()),
                "score": pa.array(df["score"].to_numpy(), pa.float64()),
                "rank": pa.array(df["rank"].to_numpy(), pa.int64()),
            }
        )

    return (
        joined.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__db")
        .map_groups(topk, batch_format="pyarrow")
    )


# ------------------------------------------------ inverted index --------
def inverted_index(sf_dir: str, n_shards: int = 16) -> "ray.data.Dataset":
    """Sharded inverted index: one row per (term, shard) holding that
    shard's sorted posting list — ``postings`` = comma-joined doc_ids
    ascending, ``tfs`` = the parallel in-doc term frequencies, ``df``
    = postings length. ``shard = doc_id % n_shards``.

    The corpus-indexing shape (Lucene-style segmented postings): a
    stopword's posting list is corpus-sized, so an index keyed by term
    alone hands one reducer the whole corpus — the doc-id shard key
    bounds every reducer to ~df/n_shards rows BY CONSTRUCTION (no
    count pass, no heuristics), and n_shards scales with the corpus.
    Readers union a term's shards; consumers that want the classic
    single-row layout concat shard rows in shard order.

    Distributed plan: the globally-unique (doc_id, term, tf) explode
    (`_explode_tf`) is map-only; ONE exchange on a coarse
    hash(term)+shard bucket; inside each bucket a vectorized
    sort + pandas groupby builds the posting strings. SQL-replayable
    exactly (string_agg ORDER BY doc_id); all outputs are
    integers/strings — no float policy needed.
    """
    n_coarse = 64

    def add_keys(batch: pa.Table) -> pa.Table:
        # __b is internal routing only (never oracle-compared), so it
        # needs cross-batch/worker determinism, not SQL parity — the
        # vectorized pandas siphash (salted_dedup's bucket kernel),
        # not a per-row Python crc loop over corpus-sized tf rows
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        shard = (ids % n_shards).astype(np.int64)
        h = pd.util.hash_pandas_object(
            pd.Series(batch["term"].to_pandas()), index=False
        ).to_numpy()
        coarse = ((h % np.uint64(n_coarse)).astype(np.int64) + shard) % n_coarse
        return batch.append_column(
            "shard", pa.array(shard, pa.int64())
        ).append_column("__b", pa.array(coarse.astype(np.int32), pa.int32()))

    def build(g: pa.Table) -> pa.Table:
        df = g.select(["term", "shard", "doc_id", "tf"]).to_pandas()
        df = df.sort_values(["term", "shard", "doc_id"], kind="mergesort")
        df["doc_s"] = df["doc_id"].astype(str)
        df["tf_s"] = df["tf"].astype(str)
        agg = df.groupby(["term", "shard"], sort=False).agg(
            df_=("doc_id", "size"),
            postings=("doc_s", ",".join),
            tfs=("tf_s", ",".join),
        )
        agg = agg.reset_index()
        return pa.table(
            {
                "term": pa.array(agg["term"].tolist(), pa.string()),
                "shard": pa.array(agg["shard"].to_numpy(), pa.int64()),
                "df": pa.array(
                    agg["df_"].to_numpy().astype(np.int64), pa.int64()
                ),
                "postings": pa.array(agg["postings"].tolist(), pa.string()),
                "tfs": pa.array(agg["tfs"].tolist(), pa.string()),
            }
        )

    return (
        _tf_ds(sf_dir)
        .map_batches(add_keys, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(
            build, batch_format="pyarrow", num_cpus=NO_FUSE_NUM_CPUS
        )
    )


# ----------------------------------------------- co-occurrence PMI ------
def token_pmi_pairs(
    sf_dir: str, min_count: int = 2, max_doc_terms: int = 4096
) -> "ray.data.Dataset":
    """Within-document term co-occurrence pairs with association lift.

    For every unordered pair (a < b) of terms co-occurring in
    ``min_count``+ documents: ``n_ab`` = documents containing both,
    ``n_a``/``n_b`` = documents containing each, and
    ``lift = (CAST(n_ab AS DOUBLE) * n_docs) / (CAST(n_a AS DOUBLE)
    * n_b)`` — PMI = ln(lift), monotone, left to the consumer (module
    docstring: transcendentals are excluded from oracle-compared
    values; the fixed *,/ op tree is bit-identical cross-engine while
    each operand stays ≤ 2^53, i.e. corpora under ~9·10^15 docs).

    Distributed plan: per-doc distinct terms ride the shared tf
    explode; per-doc pairs are generated batch-locally with
    ``np.triu_indices`` (each doc's pair fan-out is quadratic in its
    DISTINCT term count, so docs above ``max_doc_terms`` distinct
    terms raise loudly rather than silently exploding — same contract
    as the bounded-cluster raise in SemDeDup); per-batch partial pair
    counts (combiner) → ONE groupby((a, b)) sum → the ``min_count``
    filter drops the long noise tail BEFORE the two term-bucketed
    lookup joins that attach n_a / n_b. Nothing is broadcast; only
    the scalar n_docs reaches the driver.
    """
    n_docs = int(_read_docs(sf_dir, ["doc_id"]).count())

    def pair_partials(batch: pa.Table) -> pa.Table:
        # pairs are generated from DOCUMENT rows (one row = one whole
        # doc), never from exploded (doc, term) rows: Ray re-batches
        # streams between operators (default batch_size=1024), and a
        # doc whose term rows straddled a batch boundary would
        # silently undercount its pairs. A document row is atomic
        # under any re-batching.
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        texts = batch["text"].to_pylist()
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for doc_id, text in zip(doc_ids, texts):
            t = np.unique(
                np.array(textops.tokens_lower(text), dtype=object)
            )
            n = len(t)
            if n > max_doc_terms:
                raise ValueError(
                    f"token_pmi_pairs: document {int(doc_id)} has "
                    f"{n} distinct terms > max_doc_terms={max_doc_terms} "
                    "(quadratic pair fan-out); raise the cap explicitly"
                )
            if n < 2:
                continue
            ia, ib = np.triu_indices(n, k=1)
            out_a.append(t[ia])
            out_b.append(t[ib])
        if not out_a:
            return pa.table(
                {
                    "term_a": pa.array([], pa.string()),
                    "term_b": pa.array([], pa.string()),
                    "n_ab": pa.array([], pa.int64()),
                }
            )
        g = (
            pd.DataFrame(
                {
                    "term_a": np.concatenate(out_a),
                    "term_b": np.concatenate(out_b),
                }
            )
            .groupby(["term_a", "term_b"], as_index=False, sort=False)
            .size()
        )
        return pa.table(
            {
                "term_a": pa.array(g["term_a"].tolist(), pa.string()),
                "term_b": pa.array(g["term_b"].tolist(), pa.string()),
                "n_ab": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    pair_counts = bucketed_sum_ds(
        _read_docs(sf_dir, ["doc_id", "text"], fanout=True).map_batches(
            pair_partials, batch_format="pyarrow"
        ),
        keys=["term_a", "term_b"],
        value_cols=["n_ab"],
    )

    def keep_frequent(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater_equal(batch["n_ab"], min_count))

    frequent = pair_counts.map_batches(keep_frequent, batch_format="pyarrow")

    pair_schema = pa.schema(
        [
            ("term_a", pa.string()),
            ("term_b", pa.string()),
            ("n_ab", pa.int64()),
        ]
    )
    # df table materialized ONCE and reused by both joins (it is
    # vocab-sized — the bounded side — while re-deriving it would cost
    # a full tokenize+explode pass per join; contrast the tf explode,
    # which is corpus-sized and therefore rederived, never pinned)
    df_tbl = _df_table(sf_dir).materialize()
    with_na = bucket_lookup_join(
        frequent,
        df_tbl,
        on="term_a",
        right_key="term",
        payload={"df": "n_a"},
        left_schema=pair_schema,
        payload_types={"n_a": pa.int64()},
    )
    with_nb = bucket_lookup_join(
        with_na,
        df_tbl,
        on="term_b",
        right_key="term",
        payload={"df": "n_b"},
        left_schema=pair_schema.append(pa.field("n_a", pa.int64())),
        payload_types={"n_b": pa.int64()},
    )

    def score(batch: pa.Table) -> pa.Table:
        n_ab = batch["n_ab"].to_numpy(zero_copy_only=False)
        n_a = batch["n_a"].to_numpy(zero_copy_only=False)
        n_b = batch["n_b"].to_numpy(zero_copy_only=False)
        # fixed IEEE op tree, mirrored verbatim by the oracle SQL:
        # (double(n_ab) * n_docs) / (double(n_a) * n_b)
        lift = (n_ab.astype(np.float64) * float(n_docs)) / (
            n_a.astype(np.float64) * n_b.astype(np.float64)
        )
        return pa.table(
            {
                "term_a": batch["term_a"],
                "term_b": batch["term_b"],
                "n_ab": batch["n_ab"],
                "n_a": batch["n_a"],
                "n_b": batch["n_b"],
                "lift": pa.array(lift, pa.float64()),
            }
        )

    return with_nb.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------- PageRank ----------
_PR_TOTAL = 1_000_000_000_000  # rank mass in micro-units (1e-12)
_PR_DAMP_NUM = 85  # d = 0.85 as the integer pair (85, 100)
_PR_DAMP_DEN = 100


def pagerank_edges_ds(
    edges: "ray.data.Dataset",
    iters: int = 8,
    node_type: pa.DataType = pa.int64(),
    num_buckets: int | None = None,
    rank_broadcast_max_bytes: int = 128 << 20,
) -> "ray.data.Dataset":
    """Integer-exact distributed PageRank core over a SYMMETRIC
    weighted edge list ``(s, d, w)`` (both directions present; callers
    symmetrize). Returns ``(node, r)`` with ``r`` in 1e-12 micro-rank
    units. Node columns may be any groupable/bucketable type (int64
    keys, string entity names).

    All arithmetic is int64 micro-rank (the k-means integer-centroid
    trick, mlops.py): per-edge contribution ``(r[s] * w) // ow[s]``,
    damped update ``base + (85 * Σcontrib) // 100`` with
    ``base = 150_000_000_000 // n_nodes`` — order-independent under
    any partitioning, so results are bit-identical run-to-run (and
    equal to an oracle replaying the recurrence) in EITHER execution
    mode below. All quantities are positive, so numpy floor-div and
    DuckDB ``//`` agree. Symmetric edges mean no dangling nodes;
    overflow is impossible while ``max edge weight ≤ 9e6``
    (r·w ≤ 1e12·9e6 < 2^63) — callers check at edge-build time.

    Two execution modes, chosen by the rank table's measured size
    (the repo's broadcast-vs-exchange rule, cf. the company-DB
    broadcast and the embedding-LSH candidate funnel):

    - **broadcast** (rank table ≤ ``rank_broadcast_max_bytes``): the
      per-iteration state is one int64 per node — usually orders of
      magnitude smaller than the edge list. Nodes get a dense integer
      index once, edges re-encode to int64 index columns once, and
      each iteration is ONE map-only streaming pass over the
      never-re-shuffled edges: workers read the broadcast rank vector
      and emit sparse integer partial sums that the driver folds (the
      k-means broadcast-assign idiom, mlops.kmeans_fit). Zero
      exchanges per iteration. Earlier cuts measured at sf0.1
      (1.1M edges, 8 iterations): per-iteration src-bucketed join
      re-sorting the edge list = 74.8 s; per-iteration groupby(d) of
      blocks × nodes partials = 53 s; this mode ≈ 2-3 s total.
    - **exchange** (web-scale node counts, e.g. 1e9 nodes ≈ 16 GB of
      ranks — too big for every worker's heap): per-iteration
      src-bucketed lookup join of ranks onto edges + dst groupby.
      Honest caveat: the join's sort exchange moves the edge list
      each iteration (the classic distributed-PageRank cost without
      a co-partitioned static edge store); partition-pinned edge
      blocks would remove it and are the named upgrade path.

    Out-weights attach to edges once; the combined (s, d, w, ow) edge
    list is materialized ONCE in the object store and re-read
    (zero-copy) by every iteration. Only scalar n_nodes and — in
    broadcast mode — the node-sized rank table touch the driver.
    """

    def to_ow(batch: pa.Table) -> pa.Table:
        return pa.table({"s": batch["s"], "ow": batch["w"]})

    outw = bucketed_sum_ds(
        edges.map_batches(to_ow, batch_format="pyarrow"),
        keys=["s"],
        value_cols=["ow"],
        num_buckets=num_buckets,
    ).materialize()
    n_nodes = int(outw.count())
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {"node": pa.array([], node_type), "r": pa.array([], pa.int64())}
            )
        )
    init_r = _PR_TOTAL // n_nodes
    base = (15 * _PR_TOTAL // 100) // n_nodes

    edge_schema = pa.schema(
        [("s", node_type), ("d", node_type), ("w", pa.int64())]
    )
    edges_ow = bucket_lookup_join(
        edges,
        outw,
        on="s",
        right_key="s",
        payload={"ow": "ow"},
        left_schema=edge_schema,
        payload_types={"ow": pa.int64()},
        num_buckets=num_buckets,
    ).materialize()

    ew_schema = edge_schema.append(pa.field("ow", pa.int64()))

    def contrib_partials(batch: pa.Table) -> pa.Table:
        r = batch["r"].to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False)
        ow = batch["ow"].to_numpy(zero_copy_only=False)
        c = (r * w) // ow
        g = (
            pd.DataFrame({"d": batch["d"].to_pandas(), "c": c})
            .groupby("d", as_index=False, sort=False)
            .sum()
        )
        return pa.table(
            {
                "d": pa.array(g["d"].tolist(), node_type),
                "c": pa.array(g["c"].to_numpy(), pa.int64()),
            }
        )

    def damp(batch: pa.Table) -> pa.Table:
        s = batch["c"].to_numpy(zero_copy_only=False)
        r = base + (_PR_DAMP_NUM * s) // _PR_DAMP_DEN
        return pa.table({"node": batch["d"], "r": pa.array(r, pa.int64())})

    if int(outw.size_bytes() or 0) <= rank_broadcast_max_bytes:
        # broadcast mode — the k-means broadcast-assign idiom
        # (mlops.kmeans_fit): nodes get a dense integer index ONCE;
        # edges are re-encoded to (s_idx, d_idx, w, ow) int64 columns
        # and materialized ONCE (for entity graphs this also drops the
        # string keys from the hot loop). Each iteration is then ONE
        # map-only streaming pass: workers read the broadcast rank
        # vector, compute integer contributions, and emit SPARSE
        # (node_idx, partial_sum) rows — ≤ min(block_edges, n_nodes)
        # per block — which the driver folds into the next rank
        # vector. Zero exchanges per iteration. (The first cut ran a
        # groupby(d) exchange per iteration: blocks × nodes partial
        # rows re-sorted 8 times measured 53 s at sf0.1; this pass
        # measures ~0.2-0.3 s/iteration on the same input.)
        ranks_pd = outw.to_pandas()
        node_index = pd.Series(
            np.arange(n_nodes, dtype=np.int64), index=ranks_pd["s"]
        )
        idx_ref = ray.put(node_index)

        def to_idx(batch: pa.Table) -> pa.Table:
            ix = ray.get(idx_ref)
            s_idx = ix.reindex(batch["s"].to_pandas()).to_numpy()
            d_idx = ix.reindex(batch["d"].to_pandas()).to_numpy()
            return pa.table(
                {
                    "s_idx": pa.array(s_idx.astype(np.int64), pa.int64()),
                    "d_idx": pa.array(d_idx.astype(np.int64), pa.int64()),
                    "w": batch["w"],
                    "ow": batch["ow"],
                }
            )

        edges_idx = edges_ow.map_batches(
            to_idx, batch_format="pyarrow"
        ).materialize()

        r_vec = np.full(n_nodes, init_r, dtype=np.int64)
        for _ in range(iters):
            r_ref = ray.put(r_vec)

            def sparse_partials(
                batch: pa.Table, _r=r_ref, _n=n_nodes
            ) -> pa.Table:
                r = ray.get(_r)
                s_idx = batch["s_idx"].to_numpy(zero_copy_only=False)
                d_idx = batch["d_idx"].to_numpy(zero_copy_only=False)
                w = batch["w"].to_numpy(zero_copy_only=False)
                ow = batch["ow"].to_numpy(zero_copy_only=False)
                c = (r[s_idx] * w) // ow
                acc = np.zeros(_n, dtype=np.int64)
                np.add.at(acc, d_idx, c)
                nz = np.nonzero(acc)[0]
                return pa.table(
                    {
                        "i": pa.array(nz, pa.int64()),
                        "c": pa.array(acc[nz], pa.int64()),
                    }
                )

            acc = np.zeros(n_nodes, dtype=np.int64)
            for b in edges_idx.map_batches(
                sparse_partials, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow"):
                # indices are unique within a partial block; across
                # blocks they repeat — integer adds, order-independent
                np.add.at(
                    acc,
                    b["i"].to_numpy(zero_copy_only=False),
                    b["c"].to_numpy(zero_copy_only=False),
                )
            r_vec = base + (_PR_DAMP_NUM * acc) // _PR_DAMP_DEN
        out = pa.table(
            {
                "node": pa.array(node_index.index.tolist(), node_type),
                "r": pa.array(r_vec, pa.int64()),
            }
        )
        return ray.data.from_arrow(out)

    # exchange mode: rank table too big to broadcast — per-iteration
    # src-bucketed lookup join (see docstring caveat)
    def init_ranks(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": batch["s"],
                "r": pa.array(np.full(n, init_r, dtype=np.int64), pa.int64()),
            }
        )

    ranks = outw.map_batches(init_ranks, batch_format="pyarrow").materialize()
    for _ in range(iters):
        joined = bucket_lookup_join(
            edges_ow,
            ranks,
            on="s",
            right_key="node",
            payload={"r": "r"},
            left_schema=ew_schema,
            payload_types={"r": pa.int64()},
            num_buckets=num_buckets,
        )
        ranks = (
            bucketed_sum_ds(
                joined.map_batches(contrib_partials, batch_format="pyarrow"),
                keys=["d"],
                value_cols=["c"],
                num_buckets=num_buckets,
            )
            .map_batches(damp, batch_format="pyarrow")
            .materialize()
        )
    return ranks


def pagerank_lineitem(sf_dir: str, iters: int = 8) -> "ray.data.Dataset":
    """Integer-exact PageRank over the supplier↔part bipartite graph.

    Graph: one undirected edge per (l_suppkey, l_partkey) pair that
    appears in ``lineitem``, weighted by its lineitem count — the
    relational stand-in for the entity graph the KG pipeline emits
    (:func:`kg_entity_pagerank` runs the same
    :func:`pagerank_edges_ds` core on real triples). Nodes encode
    ``part → key*2``, ``supplier → key*2 + 1``. The DuckDB oracle is
    a recursive CTE replaying the identical int64 recurrence, so
    ranks match bit-for-bit after ``iters`` iterations (see the core
    docstring for the exactness argument).
    """

    def edge_partials(batch: pa.Table) -> pa.Table:
        supp = batch["l_suppkey"].to_numpy(zero_copy_only=False)
        part = batch["l_partkey"].to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"s": supp * 2 + 1, "d": part * 2})
            .groupby(["s", "d"], as_index=False, sort=False)
            .size()
        )
        return pa.table(
            {
                "s": pa.array(g["s"].to_numpy(), pa.int64()),
                "d": pa.array(g["d"].to_numpy(), pa.int64()),
                "w": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    # bucketed sum, NOT groupby([s, d]).aggregate: edge keys are
    # high-cardinality (~one group per distinct supplier-part pair) and
    # Ray's aggregate paid 14.3 s of per-group overhead at sf0.1 where
    # the bucketed merge takes ~2 s (stages/shuffle.bucketed_sum_ds)
    directed = bucketed_sum_ds(
        _read_lineitem(sf_dir, ["l_suppkey", "l_partkey"]).map_batches(
            edge_partials, batch_format="pyarrow"
        ),
        keys=["s", "d"],
        value_cols=["w"],
    )

    def symmetrize(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy(zero_copy_only=False)
        if len(w) and int(w.max()) > 9_000_000:
            raise ValueError(
                "pagerank_lineitem: edge weight > 9e6 would overflow "
                "the int64 micro-rank product; rescale weights first"
            )
        s = batch["s"].to_numpy(zero_copy_only=False)
        d = batch["d"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s": pa.array(np.concatenate([s, d]), pa.int64()),
                "d": pa.array(np.concatenate([d, s]), pa.int64()),
                "w": pa.array(np.concatenate([w, w]), pa.int64()),
            }
        )

    edges = directed.map_batches(symmetrize, batch_format="pyarrow")
    ranks = pagerank_edges_ds(edges, iters=iters, node_type=pa.int64())

    def decode(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "is_supplier": pa.array(node % 2, pa.int64()),
                "key": pa.array(node // 2, pa.int64()),
                "rank_micro": batch["r"],
            }
        )

    return ranks.map_batches(decode, batch_format="pyarrow")


def kg_entity_pagerank(sf_dir: str, iters: int = 8) -> "ray.data.Dataset":
    """PageRank over the entity graph the flagship KG pipeline emits:
    nodes are canonical entity names, one undirected edge per
    (subj, obj) pair weighted by its triple count (relation direction
    dropped — co-mention salience, the standard entity-importance
    signal over an extracted KG). Runs the same integer-exact
    :func:`pagerank_edges_ds` core as the SQL-oracled
    :func:`pagerank_lineitem`; this variant is non-SQL (the triples
    come from the model-stage extraction pipeline, not a table) and is
    pytest-oracled against a pure-pandas replay of the recurrence on
    the oracle triples (tests/test_graph_ops.py). Returns
    ``(entity, rank_micro)``.
    """
    import pyarrow.compute as pc

    from ..sources.pages import pages_parquet_for
    from .kg import build_kg_pipeline

    triples = build_kg_pipeline(pages_parquet_for(sf_dir))

    def edge_partials(batch: pa.Table) -> pa.Table:
        # meta rows (pred beginning "_") are pipeline bookkeeping, not
        # relations
        keep = pc.invert(pc.starts_with(batch["pred"], "_"))
        batch = batch.filter(keep)
        g = (
            pd.DataFrame(
                {
                    "subj": batch["subj"].to_pylist(),
                    "obj": batch["obj"].to_pylist(),
                }
            )
            .groupby(["subj", "obj"], as_index=False, sort=False)
            .size()
        )
        return pa.table(
            {
                "subj": pa.array(g["subj"].tolist(), pa.string()),
                "obj": pa.array(g["obj"].tolist(), pa.string()),
                "w": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    directed = bucketed_sum_ds(
        triples.map_batches(edge_partials, batch_format="pyarrow"),
        keys=["subj", "obj"],
        value_cols=["w"],
    )

    def symmetrize(batch: pa.Table) -> pa.Table:
        w = batch["w"].to_numpy(zero_copy_only=False)
        if len(w) and int(w.max()) > 9_000_000:
            raise ValueError(
                "kg_entity_pagerank: edge weight > 9e6 would overflow "
                "the int64 micro-rank product; rescale weights first"
            )
        subj = batch["subj"].to_pylist()
        obj = batch["obj"].to_pylist()
        return pa.table(
            {
                "s": pa.array(subj + obj, pa.string()),
                "d": pa.array(obj + subj, pa.string()),
                "w": pa.array(np.concatenate([w, w]), pa.int64()),
            }
        )

    edges = directed.map_batches(symmetrize, batch_format="pyarrow")
    ranks = pagerank_edges_ds(edges, iters=iters, node_type=pa.string())
    return ranks.map_batches(
        lambda b: pa.table({"entity": b["node"], "rank_micro": b["r"]}),
        batch_format="pyarrow",
    )
