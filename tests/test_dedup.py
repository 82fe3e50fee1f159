"""Near-dup (MinHash+LSH) and similarity-search operators, checked on
planted fixtures with known ground truth."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from finance_sc_relations_ray.functions import textops
from finance_sc_relations_ray.pipelines.similarity import knn_cosine, lsh_bucketed_knn
from finance_sc_relations_ray.pipelines.text import (
    dedup_exact,
    minhash_dup_pairs,
    simhash_documents,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden trees "
)


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    """documents.parquet with: 0/1 exact dups, 2/3 near dups (one word
    changed), 4.. unrelated."""
    d = tmp_path_factory.mktemp("planted")
    texts = [
        BASE,                                   # 0
        BASE,                                   # 1 exact dup of 0
        BASE + "extra tail sentence here",      # 2
        BASE + "extra tail sentence there",     # 3 near dup of 2
        "completely different content about quarterly earnings reports "
        "and financial statements of corporations " * 3,  # 4
        "yet another unrelated document discussing weather patterns and "
        "climate models across the hemisphere " * 3,      # 5
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(texts), pa.string()),
            "source": pa.array(["t"] * len(texts), pa.string()),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, os.path.join(str(d), "documents.parquet"))
    return str(d)


def test_dedup_exact_planted(planted_dir):
    out = dedup_exact(planted_dir)
    assert len(out) == 5  # 6 docs, one exact-dup pair
    dup_row = out[out["n_dups"] == 2]
    assert len(dup_row) == 1 and dup_row.iloc[0]["doc_id"] == 0


def test_minhash_finds_planted_near_dups(planted_dir):
    pairs = minhash_dup_pairs(planted_dir, jaccard_threshold=0.5)
    got = set(zip(pairs["doc_id_a"], pairs["doc_id_b"]))
    assert (0, 1) in got  # exact dup
    assert (2, 3) in got  # near dup
    # unrelated docs never pair with the BASE family
    assert not any(4 in p or 5 in p for p in got)
    # reported jaccard matches the exact shingle jaccard
    row = pairs[(pairs["doc_id_a"] == 2) & (pairs["doc_id_b"] == 3)].iloc[0]
    exact = textops.jaccard(
        textops.shingles(BASE + "extra tail sentence here", 3),
        textops.shingles(BASE + "extra tail sentence there", 3),
    )
    assert abs(row["jaccard"] - exact) < 1e-6


def test_simhash_near_dups_close(planted_dir):
    out = simhash_documents(planted_dir).to_pandas().set_index("doc_id")["simhash"]
    def hamming(a, b):
        return bin(np.uint64(a) ^ np.uint64(b)).count("1")
    assert hamming(out[0], out[1]) == 0          # exact dup
    assert hamming(out[2], out[3]) <= 8          # near dup → close
    assert hamming(out[0], out[4]) > 10          # unrelated → far


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


def test_ngram_jaccard_stable_across_runs_sf01():
    """Regression for the Ray operator-fusion partial-group hazard
    (stages/shuffle.py NO_FUSE_NUM_CPUS): before the fix, ~1 run in 5
    lost 98% of join rows when the bucket join's map_groups fused with
    the downstream finalize map. Three runs at the size that triggered
    it must agree with each other and with DuckDB."""
    import os

    import duckdb

    from finance_sc_relations_ray.pipelines.text import ngram_jaccard_pairs

    sf = "/root/testdata/sf0.1"
    if not os.path.exists(os.path.join(sf, "documents.parquet")):
        import pytest

        pytest.skip("sf0.1 testdata not present")
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    import __ray_entry__ as e

    expected = len(con.execute(e.oracle_sql()["ngram_jaccard_pairs"]).df())
    for run in range(3):
        got = ngram_jaccard_pairs(sf)
        assert len(got) == expected, (run, len(got), expected)


def test_minhash_degenerate_bucket_star_cap(tmp_path):
    """When one LSH bucket holds more docs than max_bucket_docs (here:
    31 identical docs sharing every band), the candidate generator must
    emit STAR pairs to the min id instead of all-pairs — bounded O(n)
    per degenerate bucket, with connectivity (and the exact verify
    gate) preserved."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from finance_sc_relations_ray.pipelines.text import minhash_dup_pairs

    same = "exactly the same duplicated filler document body here " * 4
    texts = [same] * 31 + [
        "a completely different unrelated document about volcanoes",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"), row_group_size=8)

    out = minhash_dup_pairs(str(tmp_path), max_bucket_docs=10)
    # star: every pair anchors at doc 0; all-pairs would be C(31,2)=465
    assert len(out) == 30
    assert (out["doc_id_a"] == 0).all()
    assert sorted(out["doc_id_b"]) == list(range(1, 31))
    assert (out["jaccard"] == 1.0).all()  # exact verify still ran


def test_dup_clusters_transitive_chain(tmp_path):
    """Connected components must merge A~B~C into ONE cluster even when
    A and C are themselves below the similarity threshold (the property
    pairs alone cannot express), leave unrelated docs as singletons,
    and pick min-doc_id as the canonical representative."""
    from finance_sc_relations_ray.pipelines.text import (
        dup_clusters,
        ngram_jaccard_pairs,
    )

    base = " ".join(f"w{i}" for i in range(40))           # 38 shingles
    texts = [
        base,                                             # 0: A
        base + " ta tb tc td",                            # 1: B (~0.905 vs A)
        base + " ta tb tc td te tf tg th",                # 2: C (~0.913 vs B,
                                                          #    ~0.826 vs A)
        "unrelated material entirely about other things " * 8,  # 3
        "second unrelated body of text on different topics " * 8,  # 4
        "second unrelated body of text on different topics " * 8,  # 5 exact dup of 4
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"), row_group_size=2)

    # fixture self-check at threshold 0.9: the chain's ends are NOT a
    # pair — only components can connect them
    pairs = ngram_jaccard_pairs(str(tmp_path), threshold=0.9)
    pairset = set(zip(pairs["doc_id_a"], pairs["doc_id_b"]))
    assert (0, 1) in pairset and (1, 2) in pairset and (4, 5) in pairset
    assert (0, 2) not in pairset

    out = dup_clusters(str(tmp_path), threshold=0.9)
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 4}
    canon = dict(zip(out["doc_id"], out["is_canonical"]))
    assert canon == {0: 1, 1: 0, 2: 0, 3: 1, 4: 1, 5: 0}


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


def test_span_dedup_removes_later_copies(tmp_path):
    """C4 span dedup: a 3-sentence block repeated in a later document is
    removed from the later doc only; unique content survives; docs are
    rebuilt from their surviving sentences in order."""
    from finance_sc_relations_ray.pipelines.text import span_dedup_documents

    block = "First shared sentence. Second shared sentence. Third shared sentence."
    texts = [
        f"Intro unique to zero. {block} Tail unique to zero.",
        f"{block} Something else entirely here.",     # later copy -> cut
        "No duplicates in this one. Just two sentences.",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"), row_group_size=1)

    out = span_dedup_documents(str(tmp_path)).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got[0] == (
        "Intro unique to zero. First shared sentence. "
        "Second shared sentence. Third shared sentence. Tail unique to zero."
    )
    assert got[1] == "Something else entirely here."
    assert got[2] == "No duplicates in this one. Just two sentences."

def test_minhash_bloom_scale_path_matches_gated(planted_dir):
    """pushdown_max_ids=0 forces the scale path (distributed Bloom
    OR-reduce semi-join, full scan) — it must emit exactly the same
    verified pairs as the gated exact-isin path."""
    gated = minhash_dup_pairs(planted_dir, jaccard_threshold=0.5)
    bloom = minhash_dup_pairs(
        planted_dir, jaccard_threshold=0.5, pushdown_max_ids=0
    )
    assert gated.equals(bloom)


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
    rng = np.random.RandomState(7)
    base = rng.normal(size=64)
    near = base + rng.normal(scale=0.05, size=64)  # cosine ~0.999
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
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))

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


def test_simhash_dup_pairs_matches_bruteforce(planted_dir):
    """Pigeonhole banding must equal the all-pairs hamming filter
    exactly (perfect recall + popcount verify) on the planted corpus."""
    from finance_sc_relations_ray.pipelines.text import (
        _popcount64,
        simhash_dup_pairs,
    )

    k = 8  # wide enough to capture the 2/3 near-dup pair
    got = (
        simhash_dup_pairs(planted_dir, max_hamming=k)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
        .reset_index(drop=True)
    )
    sig = (
        simhash_documents(planted_dir)
        .to_pandas()
        .sort_values("doc_id")
    )
    ids = sig["doc_id"].to_numpy()
    u = sig["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    ia, ib = np.triu_indices(len(ids), k=1)
    ham = _popcount64(u[ia] ^ u[ib])
    keep = ham <= k
    exp = sorted(zip(ids[ia][keep], ids[ib][keep], ham[keep]))
    assert list(zip(got["doc_id_a"], got["doc_id_b"], got["hamming"])) == exp
    assert (0, 1, 0) in exp  # the exact-dup pair at hamming 0


def test_simhash_dup_pairs_star_cap_and_raise(tmp_path):
    """25 identical docs share every band bucket: 'star' bounds the
    blowup to n-1 anchor pairs; 'raise' fails loudly (the oracle-gated
    registration)."""
    from finance_sc_relations_ray.pipelines.text import simhash_dup_pairs

    tbl = pa.table(
        {
            "doc_id": pa.array(range(25), pa.int64()),
            "text": pa.array(["same text body here"] * 25),
        }
    )
    pq.write_table(tbl, str(tmp_path / "documents.parquet"))
    out = (
        simhash_dup_pairs(str(tmp_path), max_bucket_docs=10)
        .to_pandas()
        .sort_values(["doc_id_a", "doc_id_b"])
    )
    assert (out["doc_id_a"] == 0).all()
    assert sorted(out["doc_id_b"]) == list(range(1, 25))
    assert (out["hamming"] == 0).all()
    with pytest.raises(ray.exceptions.RayTaskError):
        simhash_dup_pairs(
            str(tmp_path), max_bucket_docs=10, on_degenerate="raise"
        ).to_pandas()


def test_popcount64_kernel():
    from finance_sc_relations_ray.pipelines.text import _popcount64

    x = np.array(
        [0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000, 0x5555555555555555],
        dtype=np.uint64,
    )
    assert _popcount64(x).tolist() == [0, 1, 64, 1, 32]
