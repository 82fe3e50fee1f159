"""Embedding near-dup (sign-LSH), similarity-search, unigram and Bloom
operators, checked on planted fixtures with known ground truth."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from finance_sc_relations_ray.pipelines.similarity import knn_cosine, lsh_bucketed_knn


def _planted_embeddings(d) -> None:
    """embeddings.parquet: vec 1 a near copy of vec 0 (cosine ~0.999)
    among 60 random vectors."""
    rng = np.random.RandomState(7)
    base = rng.normal(size=64)
    near = base + rng.normal(scale=0.05, size=64)
    noise = rng.normal(size=(60, 64))
    mat = np.vstack([base, near, noise]).astype(np.float32)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    pq.write_table(tbl, str(d / "embeddings.parquet"))


def test_lsh_knn_recall_vs_exact():
    sf = "/root/testdata/sf0.001"
    exact = knn_cosine(sf, n_queries=8, k=5)
    approx = lsh_bucketed_knn(sf, n_queries=8, k=5, n_planes=4)
    # approximate results are a subset of the same scoring space and
    # must agree with exact cosine wherever they overlap
    e = {(r.query_id, r.vec_id): r.cosine for r in exact.itertuples()}
    a = {(r.query_id, r.vec_id): r.cosine for r in approx.itertuples()}
    overlap = set(e) & set(a)
    assert all(abs(e[k] - a[k]) < 1e-9 for k in overlap)
    # recall of top-5 with 4 hyperplanes should be nonzero on 500 vecs
    recall = len(overlap) / len(e)
    assert recall > 0.1, recall


def test_ivf_knn_recall_vs_exact():
    from finance_sc_relations_ray.pipelines.similarity import ivf_knn

    sf = "/root/testdata/sf0.001"
    exact = knn_cosine(sf, n_queries=8, k=5)
    approx = ivf_knn(sf, n_queries=8, k=5, n_lists=8, n_probe=3)
    e = {(r.query_id, r.vec_id): r.cosine for r in exact.itertuples()}
    a = {(r.query_id, r.vec_id): r.cosine for r in approx.itertuples()}
    overlap = set(e) & set(a)
    # cosines agree exactly wherever exact and IVF overlap
    assert all(abs(e[x] - a[x]) < 1e-9 for x in overlap)
    # probing 3/8 lists on 500 vecs must recover a good chunk of top-5
    recall = len(overlap) / len(e)
    assert recall > 0.4, recall
    # determinism (seeded codebook)
    again = ivf_knn(sf, n_queries=8, k=5, n_lists=8, n_probe=3)
    assert approx.equals(again)


def test_unigram_logprob_ranks_common_above_rare(tmp_path):
    """Semantic check for the perplexity-proxy score: a document made of
    corpus-common words must score strictly higher (less negative) than
    one made of corpus-unique words, and a doc's score is the exact
    integer mean of its tokens' quantized unigram log-probs."""
    import math

    from finance_sc_relations_ray.pipelines.text import (
        unigram_logprob_documents,
    )

    texts = [
        "alpha beta alpha beta alpha beta",   # 0: common tokens
        "alpha beta gamma delta",             # 1: mixed
        "zeta eta theta iota",                # 2: all corpus-unique
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))

    out = unigram_logprob_documents(str(tmp_path)).to_pandas()
    got = dict(zip(out["doc_id"], out["micro_logprob"]))
    assert got[0] > got[1] > got[2]

    # exact-value check for doc 0: alpha=4/14, beta=4/14 of all tokens
    li = math.floor(math.log10(4 / 14) * 1e6 + 0.5)
    assert got[0] == -((-2 * 6 * li + 6) // 12)


def test_bloom_distributed_build_matches_serial():
    """The AggregateFn OR-reduce build equals the serial build bit for
    bit (same capacity → same (m,k); union is the set-union monoid)."""
    import ray

    from finance_sc_relations_ray.functions.bloom import (
        BloomFilter,
        build_distributed,
    )

    keys = [f"k{i}" for i in range(500)]
    ds = ray.data.from_items([{"key": k} for k in keys]).repartition(7)
    bf = build_distributed(ds, "key", capacity=len(keys))
    serial = BloomFilter.build(keys)
    assert (bf.m, bf.k) == (serial.m, serial.k)
    assert np.array_equal(bf.bits, serial.bits)
    assert all(k in bf for k in keys)


def test_embedding_lsh_planted_high_threshold(tmp_path):
    """Realistic near-dup regime (threshold 0.9): the tuner picks deep
    bands (r=10, B=58 — strong pruning), and the miner still exactly
    matches the exact path on planted near-identical vectors among
    random noise."""
    _planted_embeddings(tmp_path)

    from finance_sc_relations_ray.pipelines.mlops import (
        embedding_dup_pairs,
        embedding_dup_pairs_lsh,
        lsh_pair_params,
    )

    assert lsh_pair_params(0.9) == (10, 58)
    exact = embedding_dup_pairs(str(tmp_path), threshold=0.9)
    lsh = embedding_dup_pairs_lsh(str(tmp_path), threshold=0.9)
    assert len(exact) >= 1  # the planted pair
    assert (0, 1) in set(zip(exact["vec_id_a"], exact["vec_id_b"]))
    assert exact[["vec_id_a", "vec_id_b"]].values.tolist() == \
        lsh[["vec_id_a", "vec_id_b"]].values.tolist()
    assert np.allclose(exact["cosine"], lsh["cosine"], atol=1e-6)


def test_embedding_lsh_bloom_scale_path_matches_gated(tmp_path):
    """pushdown_max_ids=0 forces candidate_filtered_read's scale path
    (full scan + distributed Bloom OR-reduce semi-join): it must emit
    exactly the verified pairs of the default gated exact-isin path, on
    a fixture whose candidate set is not empty."""
    from finance_sc_relations_ray.pipelines.mlops import (
        embedding_dup_pairs_lsh_ds,
    )

    _planted_embeddings(tmp_path)

    def pairs(**kw):
        return (
            embedding_dup_pairs_lsh_ds(str(tmp_path), threshold=0.9, **kw)
            .to_pandas()
            .sort_values(["vec_id_a", "vec_id_b"])
            .reset_index(drop=True)
        )

    gated = pairs()
    bloom = pairs(pushdown_max_ids=0)
    assert (0, 1) in set(zip(gated["vec_id_a"], gated["vec_id_b"]))
    assert gated.equals(bloom)


def test_embedding_lsh_star_cap(tmp_path):
    """A degenerate bucket (many identical vectors sharing every band)
    must verify star pairs only — bounded O(n), connectivity kept."""
    same = np.ones(16, dtype=np.float32)
    mat = np.tile(same, (25, 1))
    tbl = pa.table(
        {
            "vec_id": pa.array(range(25), pa.int64()),
            "embedding": pa.array(
                [v.tolist() for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    from finance_sc_relations_ray.pipelines.mlops import (
        embedding_dup_pairs_lsh,
    )

    out = embedding_dup_pairs_lsh(
        str(tmp_path), threshold=0.9, max_bucket_vecs=10
    )
    # star: every pair anchors at vec 0; all-pairs would be C(25,2)
    assert (out["vec_id_a"] == 0).all()
    assert sorted(out["vec_id_b"]) == list(range(1, 25))
    assert (out["cosine"] == 1.0).all()
