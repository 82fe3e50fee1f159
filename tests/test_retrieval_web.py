"""Domain stats, the bounded rolling window and url-canonical dedup —
behavioral tests beyond the DuckDB parity gate (which covers the
queries at sf0.001 in test_queries_vs_duckdb.py)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines.relational import events_rolling
from finance_sc_relations_ray.pipelines.web import domain_stats

SF = "/root/testdata/sf0.001"


def test_domain_stats_unparseable_url_raises(tmp_path):
    p = tmp_path / "pages.parquet"
    pq.write_table(
        pa.table(
            {
                "url": pa.array(["not a url"], pa.string()),
                "warc_ts": pa.array(
                    [pd.Timestamp("2024-01-01")], pa.timestamp("us")
                ),
            }
        ),
        str(p),
    )
    with pytest.raises(Exception, match="unparseable page url"):
        domain_stats(str(p)).to_pandas()


def test_domain_stats_partitions_doc_ids(tmp_path):
    from finance_sc_relations_ray.sources.pages import pages_parquet_for

    out = domain_stats(pages_parquet_for(SF)).to_pandas()
    # every doc lands in exactly one domain; totals add up
    n_docs = len(pq.read_table(os.path.join(SF, "documents.parquet")))
    assert out["n_pages"].sum() == n_docs
    assert out["domain"].is_unique
    # doc-id ranges are consistent with the modulus partitioning
    for _, r in out.iterrows():
        d = int(r["domain"].removeprefix("example").removesuffix(".com"))
        assert r["min_doc_id"] % 127 == d
        assert r["max_doc_id"] % 127 == d


# ---------------------------------------------------- rolling window ---
def test_events_rolling_matches_bruteforce():
    got = (
        events_rolling(SF)
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"])
        .reset_index(drop=True)
    )
    ev = (
        pq.read_table(os.path.join(SF, "events.parquet"))
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"])
        .reset_index(drop=True)
    )
    cents = np.rint(ev["value"].to_numpy() * 100.0).astype(np.int64)
    exp_sum, exp_n, exp_max = [], [], []
    for uid, idx in ev.groupby("user_id", sort=False).indices.items():
        c = cents[idx]
        for i in range(len(c)):
            w = c[max(0, i - 6) : i + 1]
            exp_sum.append(w.sum())
            exp_n.append(len(w))
            exp_max.append(w.max())
    assert got["roll_n"].tolist() == exp_n
    assert np.array_equal(
        np.rint(got["roll_sum"].to_numpy() * 100.0).astype(np.int64),
        np.array(exp_sum),
    )
    assert np.array_equal(
        np.rint(got["roll_max"].to_numpy() * 100.0).astype(np.int64),
        np.array(exp_max),
    )


# ------------------------------------------------ url-canonical dedup ---


def test_canonicalize_urls_policy():
    from finance_sc_relations_ray.pipelines.web import canonicalize_urls

    raw = pd.Series(
        [
            "http://WWW.Example5.COM:80/page/3?utm_source=x&fbclid=1#top",
            "https://example5.com:443/page/3/",
            "https://example5.com/page/3?a=1&utm_medium=m&b=2",
            "https://example5.com/page/3?ref=rss",
            "http://example5.com:8080/page/3",
            "https://example5.com/",
        ]
    )
    assert canonicalize_urls(raw).tolist() == [
        "https://example5.com/page/3",
        "https://example5.com/page/3",
        "https://example5.com/page/3?a=1&b=2",  # param order preserved
        "https://example5.com/page/3",
        "https://example5.com:8080/page/3",  # non-default port kept
        "https://example5.com",
    ]


def test_canonicalize_urls_unparseable_raises():
    from finance_sc_relations_ray.pipelines.web import canonicalize_urls

    with pytest.raises(ValueError, match="unparseable url"):
        canonicalize_urls(pd.Series(["ftp://x.com/a"]))


def _write_pages(path, rows):
    pq.write_table(
        pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "warc_ts": pa.array(
                    [pd.Timestamp(r[1]) for r in rows], pa.timestamp("us")
                ),
                "text": pa.array([r[2] for r in rows], pa.string()),
            }
        ),
        str(path),
    )


def test_url_dedup_merges_across_files(tmp_path):
    """Snapshots of one page split across parquet FILES (hence read
    blocks) must still merge: the combiner exchange is what's under
    test, not the per-batch groupby."""
    from finance_sc_relations_ray.pipelines.web import url_dedup_pages

    d = tmp_path / "pages"
    d.mkdir()
    _write_pages(
        d / "a.parquet",
        [("https://a.com/x", "2024-01-01", "old"),
         ("https://b.com/y", "2024-01-02", "only")],
    )
    _write_pages(
        d / "b.parquet",
        [("http://WWW.a.com:80/x?utm_source=f#s", "2024-01-03", "new")],
    )
    out = (
        url_dedup_pages(str(d))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert out["url"].tolist() == ["https://a.com/x", "https://b.com/y"]
    assert out["n_dups"].tolist() == [2, 1]
    assert pd.Timestamp(out["last_ts"][0]) == pd.Timestamp("2024-01-03")


def test_url_keep_latest_winner_rows(tmp_path):
    from finance_sc_relations_ray.pipelines.web import (
        url_keep_latest_pages_ds,
    )

    d = tmp_path / "pages"
    d.mkdir()
    # page A: later snapshot wins; page C: ts TIE -> lexicographically
    # larger RAW url wins (the https:// raw beats the http://WWW. raw)
    _write_pages(
        d / "a.parquet",
        [("https://a.com/x", "2024-01-01", "a-old"),
         ("https://c.com/x?a=1", "2024-01-05", "c-https")],
    )
    _write_pages(
        d / "b.parquet",
        [("http://WWW.a.com:80/x?utm_source=f", "2024-01-03", "a-new"),
         ("http://WWW.c.com:80/x?a=1&utm_source=t", "2024-01-05",
          "c-http-www")],
    )
    out = (
        url_keep_latest_pages_ds(str(d))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert out["url"].tolist() == ["https://a.com/x", "https://c.com/x?a=1"]
    assert out["text"].tolist() == ["a-new", "c-https"]
    assert pd.Timestamp(out["warc_ts"][0]) == pd.Timestamp("2024-01-03")


def test_url_dedup_variant_planting_end_to_end():
    """The driver-gated path: variant-planted pages at sf0.001 — every
    doc_id % 10 in (0, 5) group merges to n_dups=2, and keep-latest
    picks the recrawl text for %10==0 but the ORIGINAL for %10==5."""
    from finance_sc_relations_ray.pipelines.web import (
        pages_with_url_variants_parquet_for,
        url_dedup_pages,
        url_keep_latest_pages_ds,
    )

    p = pages_with_url_variants_parquet_for(SF)
    dd = url_dedup_pages(p).to_pandas()
    ids = dd["url"].str.extract(r"/page/(\d+)$")[0].astype(int)
    assert (dd["n_dups"] == 1 + (ids % 10).isin([0, 5])).all()
    kl = url_keep_latest_pages_ds(p).to_pandas()
    kids = kl["url"].str.extract(r"/page/(\d+)$")[0].astype(int)
    assert len(kl) == len(dd)
    assert (kl["text"].str.endswith(" (recrawl)") == (kids % 10 == 0)).all()
    assert not kl["text"].str.endswith(" (stale crawl)").any()


# --------------------------------------------- incremental url state ---


def test_url_state_update_equals_rebuild(tmp_path):
    """update(build(base), delta) must be row-identical to
    build(base ∪ delta) — including a url that RECRAWLS across the
    base/delta boundary (n_dups sums, last_ts advances)."""
    from finance_sc_relations_ray.pipelines.web import (
        build_url_state,
        read_url_state,
        update_url_state,
    )

    base_rows = [
        ("https://a.com/x", "2024-01-01", "a1"),
        ("https://b.com/y", "2024-01-02", "b1"),
        ("http://WWW.a.com:80/x?utm_source=f", "2024-01-03", "a2"),
    ]
    delta_rows = [
        ("https://a.com/x/", "2024-02-01", "a3"),  # recrawl of base url
        ("https://c.com/z", "2024-02-02", "c1"),  # brand-new url
    ]
    b = tmp_path / "base"
    d = tmp_path / "delta"
    both = tmp_path / "both"
    for p, rows in [(b, base_rows), (d, delta_rows),
                    (both, base_rows + delta_rows)]:
        p.mkdir()
        _write_pages(p / "pages.parquet", rows)
    s_base = build_url_state(str(b / "pages.parquet"),
                             str(tmp_path / "s_base"), n_shards=4)
    merged = update_url_state(s_base, str(d / "pages.parquet"),
                              str(tmp_path / "s_merged"))
    rebuilt = build_url_state(str(both / "pages.parquet"),
                              str(tmp_path / "s_rebuilt"), n_shards=4)
    got, exp = read_url_state(merged), read_url_state(rebuilt)
    pd.testing.assert_frame_equal(got, exp)
    a = got[got["url"] == "https://a.com/x"].iloc[0]
    assert a["n_dups"] == 3
    assert pd.Timestamp(a["last_ts"]) == pd.Timestamp("2024-02-01")
    # an empty delta touches no shard: the merge carries the state over
    e = tmp_path / "empty"
    e.mkdir()
    _write_pages(e / "pages.parquet", [])
    same = update_url_state(merged, str(e / "pages.parquet"),
                            str(tmp_path / "s_same"))
    pd.testing.assert_frame_equal(read_url_state(same), got)


def test_url_state_update_prunes_untouched_shards(tmp_path):
    """Shards the delta does not touch must carry forward at FILE
    level: byte-identical files, proving they were hardlinked — never
    read, re-folded, or re-written."""
    import os

    from finance_sc_relations_ray.pipelines.web import (
        build_url_state,
        update_url_state,
    )
    from finance_sc_relations_ray.state.table import route

    n_shards = 8
    base_rows = [
        (f"https://h{i}.com/p", "2024-01-01", f"t{i}") for i in range(40)
    ]
    b = tmp_path / "base"
    b.mkdir()
    _write_pages(b / "pages.parquet", base_rows)
    s_base = build_url_state(str(b / "pages.parquet"),
                             str(tmp_path / "s"), n_shards=n_shards)
    # a delta touching exactly one url (hence one shard)
    d = tmp_path / "delta"
    d.mkdir()
    _write_pages(d / "pages.parquet",
                 [("https://h0.com/p", "2024-03-01", "re")])
    touched = int(route(pd.DataFrame({"url": ["https://h0.com/p"]}), ["url"],
                        n_shards)[0])
    merged = update_url_state(s_base, str(d / "pages.parquet"),
                              str(tmp_path / "s2"))
    for k in range(n_shards):
        bd = os.path.join(s_base, f"shard={k}")
        md = os.path.join(merged, f"shard={k}")
        if not os.path.isdir(bd):
            continue
        if k == touched:
            continue
        assert os.path.isdir(md), k
        bf = sorted(os.listdir(bd))
        assert sorted(os.listdir(md)) == bf, k
        for f in bf:
            with open(os.path.join(bd, f), "rb") as f1, open(
                os.path.join(md, f), "rb"
            ) as f2:
                assert f1.read() == f2.read(), (k, f)


def test_empty_url_state_reads_as_an_empty_frame(tmp_path):
    """A state built from a crawl with no rows holds no run; reading it
    gives an empty (url, n_dups, last_ts) frame (it used to raise: a
    read of no parquet paths), and a delta merges into it."""
    from finance_sc_relations_ray.pipelines.web import (
        build_url_state,
        read_url_state,
        update_url_state,
    )

    empty = tmp_path / "empty.parquet"
    _write_pages(empty, [])
    s = build_url_state(str(empty), str(tmp_path / "s"), n_shards=4)
    got = read_url_state(s)
    assert len(got) == 0
    assert list(got.columns) == ["url", "n_dups", "last_ts"]
    delta = tmp_path / "delta.parquet"
    _write_pages(delta, [("https://a.com/x", "2024-01-01", "a")])
    merged = read_url_state(update_url_state(s, str(delta), str(tmp_path / "m")))
    assert merged["url"].tolist() == ["https://a.com/x"]
    assert merged["n_dups"].tolist() == [1]


def test_url_state_written_before_the_log_merges(tmp_path):
    """A state in the layout of the url-state code before the shared
    table (write_parquet(partition_cols=["shard"]): Ray-named files, no
    ``_log/``) is adopted by its first merge: the merge into a new
    directory equals a rebuild and leaves the source byte-identical. A
    compaction then deletes the adopted files it replaces, whatever
    digits their names hold."""
    from finance_sc_relations_ray.pipelines.web import (
        URL_STATE,
        build_url_state,
        read_url_state,
        update_url_state,
    )
    from finance_sc_relations_ray.state import table as T

    base_rows = [(f"https://h{i}.com/p", f"2024-01-{1 + i % 9:02d}", f"t{i}")
                 for i in range(30)]
    delta_rows = [("http://www.h3.com/p/", "2024-03-01", "re"),
                  ("https://new.com/q", "2024-03-02", "n")]
    old = tmp_path / "old"
    os.makedirs(old)
    pq.write_table(pa.table({"n_shards": pa.array([4], pa.int64())}),
                   str(old / "_meta.parquet"))
    urls = [r[0] for r in base_rows]
    state = pa.table({
        "url": pa.array(urls, pa.string()),
        "n_dups": pa.array([1] * len(urls), pa.int64()),
        "last_ts": pa.array([pd.Timestamp(r[1]) for r in base_rows],
                            pa.timestamp("us")),
    })
    shards = T.route(pd.DataFrame({"url": urls}), ["url"], 4)
    for k in sorted(set(shards.tolist())):
        os.makedirs(old / f"shard={k}")
        pq.write_table(
            state.filter(pa.array(shards == k)),
            str(old / f"shard={k}"
                / "4_d5312345678f4f92bfcf71bda08792b9_000000_000000-0.parquet"),
        )

    def tree(root):
        out = {}
        for d, _, files in os.walk(root):
            for f in files:
                with open(os.path.join(d, f), "rb") as fh:
                    out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
        return out

    before = tree(old)
    b = tmp_path / "base.parquet"
    d = tmp_path / "delta.parquet"
    both = tmp_path / "both.parquet"
    _write_pages(b, base_rows)
    _write_pages(d, delta_rows)
    _write_pages(both, base_rows + delta_rows)
    merged = update_url_state(str(old), str(d), str(tmp_path / "merged"))
    rebuilt = build_url_state(str(both), str(tmp_path / "rebuilt"), n_shards=4)
    pd.testing.assert_frame_equal(read_url_state(merged),
                                  read_url_state(rebuilt))
    assert read_url_state(merged).set_index("url").loc[
        "https://h3.com/p", "n_dups"] == 2
    assert tree(old) == before
    pd.testing.assert_frame_equal(
        read_url_state(str(old)),
        read_url_state(build_url_state(str(b), str(tmp_path / "b"),
                                       n_shards=4)),
    )
    got = read_url_state(merged)
    T.compact(URL_STATE, merged)
    assert T._shard_file_paths(merged) == T._live_runs(merged)
    pd.testing.assert_frame_equal(read_url_state(merged), got)


def test_url_state_into_existing_out_dir_is_refused(tmp_path, monkeypatch):
    """Publishing over an existing state used to delete it first; a
    crash in that delete, here after one shard dir, left a state that
    read without error with urls missing. Both a build and a merge
    (in place included) must refuse before any work."""
    import shutil

    from finance_sc_relations_ray.pipelines.web import (
        build_url_state,
        read_url_state,
        update_url_state,
    )

    base = tmp_path / "base.parquet"
    delta = tmp_path / "delta.parquet"
    _write_pages(base, [(f"https://h{i}.com/p", "2024-01-01", f"t{i}")
                        for i in range(20)])
    _write_pages(delta, [("https://h0.com/p", "2024-03-01", "re")])
    src = build_url_state(str(base), str(tmp_path / "src"), n_shards=4)
    out = build_url_state(str(base), str(tmp_path / "out"), n_shards=4)
    old = read_url_state(out)

    def tree(root):
        out = {}
        for d, _, files in os.walk(root):
            for f in files:
                with open(os.path.join(d, f), "rb") as fh:
                    out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
        return out

    before = tree(out)
    real_rmtree = shutil.rmtree

    def rmtree(path, *a, **kw):
        if os.path.abspath(path) != out:
            return real_rmtree(path, *a, **kw)
        shard = sorted(n for n in os.listdir(path) if n.startswith("shard="))
        real_rmtree(os.path.join(path, shard[0]))
        raise RuntimeError("crash in rmtree")

    with monkeypatch.context() as m:
        m.setattr(shutil, "rmtree", rmtree)
        with pytest.raises(FileExistsError):
            build_url_state(str(base), out, n_shards=4)
        with pytest.raises(FileExistsError):
            update_url_state(src, str(delta), out)
        with pytest.raises(FileExistsError):
            update_url_state(out, str(delta), out)
    assert tree(out) == before
    assert not os.path.exists(out + ".tmp")
    pd.testing.assert_frame_equal(read_url_state(out), old)


def test_url_state_matches_one_shot_dedup():
    """State content == url_dedup_pages output on the same input, and
    the driver's incremental query shim lands on the oracle rows."""
    from finance_sc_relations_ray.pipelines.web import (
        pages_with_url_variants_parquet_for,
        url_dedup_pages,
        url_state_update,
    )

    p = pages_with_url_variants_parquet_for(SF)
    one_shot = (
        url_dedup_pages(p).to_pandas().sort_values("url")
        .reset_index(drop=True)
    )
    incr = url_state_update(SF)
    assert incr["url"].tolist() == one_shot["url"].tolist()
    assert incr["n_dups"].tolist() == one_shot["n_dups"].tolist()
    assert [pd.Timestamp(t) for t in incr["last_ts"]] == [
        pd.Timestamp(t) for t in one_shot["last_ts"]
    ]
