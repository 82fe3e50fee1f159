"""Cross-validation of the embedding near-dup pair miner: the sign-LSH
path must find exactly the exact path's pairs on the driver's real
testdata."""

SF = "/root/testdata/sf0.001"


def test_embedding_lsh_and_exact_agree():
    """The sign-LSH pair miner must find exactly the exact-path pairs
    on the driver's testdata — in BOTH exchange plans (r3 verdict #2):
    the default reduced-copy funnel (id-only band rows + candidate
    re-fetch) and the legacy ride-along plan (embedding in the band
    exchange, within-bucket matmul verify). Worst-case per-pair miss
    at cosine 0.4 is < 1e-6 (lsh_pair_params); candidates are
    hash-identical across plans (same planes, same packing)."""
    from finance_sc_relations_ray.pipelines.mlops import (
        embedding_dup_pairs,
        embedding_dup_pairs_lsh,
    )

    exact = embedding_dup_pairs(SF)
    ep = set(zip(exact["vec_id_a"], exact["vec_id_b"]))
    ee = exact.set_index(["vec_id_a", "vec_id_b"])["cosine"]
    for payload in ("ids", "embedding"):
        lsh = embedding_dup_pairs_lsh(SF, band_payload=payload)
        lp = set(zip(lsh["vec_id_a"], lsh["vec_id_b"]))
        assert lp <= ep  # exact verify → no false positives
        assert lp == ep, (payload, sorted(ep - lp))
        le = lsh.set_index(["vec_id_a", "vec_id_b"])["cosine"]
        for k in lp:
            assert abs(le[k] - ee[k]) < 1e-6, (payload, k)
