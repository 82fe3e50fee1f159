"""HyperLogLog accuracy, determinism and mergeability, and the
histogram quantile sketch's error bound."""

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------ HyperLogLog ----
def test_hll_accuracy_and_determinism():
    from finance_sc_relations_ray.functions.sketch import HyperLogLog

    for true_n in (50, 1000, 20_000):
        h = HyperLogLog(p=12)
        for i in range(true_n):
            h.add(f"user-{i}")
        est = h.estimate()
        # standard error 1.04/sqrt(4096) ~ 1.6%; allow 4 sigma
        assert abs(est - true_n) / true_n < 0.065, (true_n, est)
        h2 = HyperLogLog(p=12)
        for i in range(true_n):
            h2.add(f"user-{i}")
        assert h2.to_bytes() == h.to_bytes()  # deterministic


def test_hll_merge_equals_union():
    from finance_sc_relations_ray.functions.sketch import HyperLogLog

    a, b, u = HyperLogLog(8), HyperLogLog(8), HyperLogLog(8)
    for i in range(500):
        a.add(i)
        u.add(i)
    for i in range(300, 900):  # overlapping range
        b.add(i)
        u.add(i)
    assert a.merge(b).to_bytes() == u.to_bytes()


def test_hll_query_matches_exact_within_error():
    import os

    import __ray_entry__ as entry

    sf = os.environ.get("GRAFT_TEST_SF", "/root/testdata/sf0.001")
    approx = entry.queries()["approx_distinct_users"](sf)["n_users_approx"][0]
    exact = entry.queries()["distinct_user_count"](sf)["n_users"][0]
    assert abs(approx - exact) / exact < 0.065, (approx, exact)


def test_quantile_sketch_error_bound_and_rank_rule():
    """Histogram quantile sketch: within one bin width of the exact
    quantile on real data, and the integer rank rule hits the exact
    boundary where float ceil(q*n) would not."""
    import duckdb

    import __ray_entry__ as entry
    from finance_sc_relations_ray.pipelines.mlops import (
        QUANTILE_SKETCH_QS,
        value_quantile_sketch,
    )

    sf = "/root/testdata/sf0.001"
    got = value_quantile_sketch(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'"
    )
    for (q, num, den), row in zip(QUANTILE_SKETCH_QS, got.itertuples()):
        assert row.quantile == q
        # lower bin edge of the rank-ceil(q*n) value → the true
        # order statistic lies in [value, value + width)
        exact = con.execute(
            "SELECT quantile_disc(value, ?) FROM events", [q]
        ).fetchone()[0]
        assert row.value <= exact < row.value + 0.25, (q, row.value, exact)

    # the rank rule at an exact integer boundary: ceil(9/11 * 77)
    # must be 63 (9*77 = 693 = 63*11 exactly), but the double for
    # 9/11 rounds up, the product lands just ABOVE 63, and float
    # ceil gives 64 — exactly the cross-engine divergence the
    # integer rank rule avoids for any quantile
    n, num, den = 77, 9, 11
    assert (num * n + den - 1) // den == 63
    assert __import__("math").ceil((num / den) * n) == 64  # float trap

    # non-power-of-two bin scale is rejected (float parity contract)
    try:
        value_quantile_sketch(sf, bin_scale=3.0)
        raise AssertionError("expected ValueError")
    except ValueError:
        pass
