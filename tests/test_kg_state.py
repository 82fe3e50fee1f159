"""Incremental KG triple-store ingest (pipelines/kg_state.py): the
shard-pruned merge must equal a from-scratch rebuild row-for-row and,
over a chain of merges, the single-process oracle (fold associativity,
incl. the sentence_ids bottom-64 cap), untouched shards must be carried
forward at file level (byte-identical — never read or re-folded),
overlapping triples must MERGE, meta rows must never enter the state,
and empty deltas and empty stores must merge without raising. Runs
stay byte-identical until a compaction replaces them, compaction
leaves the state unchanged, commit records carry the merge's numbers,
stores written before the commit log still read and merge, and the
persisted shard routing is pinned."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines import kg_state as K
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.state import table as T
from oracle.kg_oracle import expected_triples


@pytest.fixture(scope="module")
def crawls(tmp_path_factory):
    d = tmp_path_factory.mktemp("kgstate")
    base = str(d / "base.parquet")
    delta = str(d / "delta.parquet")
    both = str(d / "both.parquet")
    pq.write_table(generate_pages(list(range(120))), base)
    pq.write_table(generate_pages(list(range(120, 160))), delta)
    pq.write_table(generate_pages(list(range(160))), both)
    return {"dir": d, "base": base, "delta": delta, "both": both}


@pytest.fixture(scope="module")
def base_state(crawls):
    out = str(crawls["dir"] / "state_base")
    K.build_kg_state(crawls["base"], out)
    return out


def _shard_bytes(state_dir):
    out = {}
    for name in sorted(os.listdir(state_dir)):
        if not name.startswith("shard="):
            continue
        blobs = []
        sd = os.path.join(state_dir, name)
        for f in sorted(os.listdir(sd)):
            with open(os.path.join(sd, f), "rb") as fh:
                blobs.append((f, fh.read()))
        out[name] = blobs
    return out


def test_update_equals_rebuild(crawls, base_state):
    upd = str(crawls["dir"] / "state_upd")
    K.update_kg_state(base_state, crawls["delta"], upd)
    merged = K.read_kg_state(upd)

    reb = str(crawls["dir"] / "state_rebuild")
    K.build_kg_state(crawls["both"], reb)
    rebuilt = K.read_kg_state(reb)

    pd.testing.assert_frame_equal(merged, rebuilt)
    # the delta genuinely added triples
    base = K.read_kg_state(base_state)
    assert len(merged) > len(base)
    assert merged["n_mentions"].sum() > base["n_mentions"].sum()


def test_untouched_shards_carried_forward_byte_identical(crawls, base_state):
    # a tiny delta (3 pages → a handful of triples) leaves most of the
    # 16 shards untouched — those shard files must be byte-identical
    # (proving they were copied, never read / re-folded / re-written)
    tiny = str(crawls["dir"] / "tiny.parquet")
    pq.write_table(generate_pages([500, 501, 502]), tiny)
    upd = str(crawls["dir"] / "state_tiny_upd")
    K.update_kg_state(base_state, tiny, upd)

    before = _shard_bytes(base_state)
    after = _shard_bytes(upd)
    identical = [k for k in before if after.get(k) == before[k]]
    changed = [k for k in before if after.get(k) != before[k]]
    assert identical, "tiny delta should leave some shards untouched"
    # and the update is still exact vs rebuild over base+tiny
    both = str(crawls["dir"] / "base_plus_tiny.parquet")
    pq.write_table(
        generate_pages(list(range(120)) + [500, 501, 502]), both
    )
    reb = str(crawls["dir"] / "state_tiny_rebuild")
    K.build_kg_state(both, reb)
    pd.testing.assert_frame_equal(K.read_kg_state(upd), K.read_kg_state(reb))
    assert changed or K.read_kg_state(upd).equals(K.read_kg_state(base_state))


def test_overlapping_triples_merge_not_duplicate(crawls, base_state):
    # re-ingesting the SAME crawl must keep one row per triple with
    # n_mentions doubled and identical evidence (same sentence ids,
    # same score, same witness url)
    upd = str(crawls["dir"] / "state_selfmerge")
    K.update_kg_state(base_state, crawls["base"], upd)
    base = K.read_kg_state(base_state)
    merged = K.read_kg_state(upd)
    assert len(merged) == len(base)
    assert merged[K.STATE_KEYS].equals(base[K.STATE_KEYS])
    assert (
        merged["n_mentions"].to_numpy() == 2 * base["n_mentions"].to_numpy()
    ).all()
    assert merged["score"].equals(base["score"])
    assert merged["url"].equals(base["url"])
    assert [list(x) for x in merged["sentence_ids"]] == [
        list(x) for x in base["sentence_ids"]
    ]


def test_no_meta_rows_in_state(base_state):
    state = K.read_kg_state(base_state)
    assert not state["pred"].str.startswith("_").any()


def test_driver_shim_runs_and_is_folded():
    out = K.kg_state_update("/root/testdata/sf0.001")
    assert len(out) > 0
    # folded: one row per triple key
    assert not out.duplicated(K.STATE_KEYS).any()
    assert (out["n_mentions"] >= 1).all()


def _normalized(df):
    """Triples as the benchmark compares them: meta rows dropped, score
    at 4 decimals, sentence ids as int lists, sorted by key."""
    cols = ["subj", "pred", "obj", "score", "n_mentions", "subj_id",
            "obj_id", "url", "sentence_ids"]
    df = df[~df["pred"].astype(str).str.startswith("_")][cols].copy()
    df["score"] = df["score"].astype("float64").round(4)
    df["n_mentions"] = df["n_mentions"].astype("int64")
    df["sentence_ids"] = [[int(x) for x in v] for v in df["sentence_ids"]]
    return df.sort_values(K.STATE_KEYS).reset_index(drop=True)


def test_delta_chain_in_place_equals_oracle(crawls, base_state):
    # base + two deltas, the second merged in place (out_dir ==
    # state_dir): the state must equal the single-process oracle over
    # every page merged, not just another run of the same fold
    d = crawls["dir"]
    state = str(d / "state_chain")
    K.update_kg_state(base_state, crawls["delta"], state)
    delta2 = str(d / "delta2.parquet")
    pq.write_table(generate_pages(list(range(160, 200))), delta2)
    assert K.update_kg_state(state, delta2, state) == state
    assert not os.path.exists(state + ".tmp")

    exp = expected_triples(generate_pages(list(range(200))))
    got = K.read_kg_state(state)
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(_normalized(got), _normalized(exp))


def _no_triple_delta(kind):
    pages = generate_pages(list(range(600, 605)))
    if kind == "non_english":
        # no rows at all come out of the pipeline
        col, values = "lang", ["de"] * pages.num_rows
    else:
        # every page is a poison page (tests/test_quarantine.py html):
        # the pipeline emits only _error meta rows, which the merge's
        # per-batch combiner filters out of non-empty batches
        col = "html"
        values = [
            b"<html><body><p>\xff\xfe broken utf8</p></body></html>"
        ] * pages.num_rows
    return pages.set_column(
        pages.schema.get_field_index(col), col,
        pa.array(values, pages.schema.field(col).type),
    )


@pytest.mark.parametrize("kind", ["non_english", "all_dead_letter"])
def test_empty_delta_keeps_state_byte_identical(crawls, base_state, kind):
    # a delta with no triples merges to the base state: every shard and
    # _meta.parquet carried over unchanged
    empty = str(crawls["dir"] / f"delta_{kind}.parquet")
    pq.write_table(_no_triple_delta(kind), empty)
    upd = str(crawls["dir"] / f"state_empty_delta_{kind}")
    K.update_kg_state(base_state, empty, upd)
    # the dead letters are in the merge's record, not in the state
    rec = K.merge_records(upd)[-1]
    n_dead = pq.read_metadata(empty).num_rows if kind == "all_dead_letter" else 0
    assert rec["n_errors"] == len(rec["dead_letters"]) == n_dead

    pd.testing.assert_frame_equal(
        K.read_kg_state(upd), K.read_kg_state(base_state)
    )
    assert _shard_bytes(upd) == _shard_bytes(base_state)
    with open(os.path.join(base_state, "_meta.parquet"), "rb") as a, open(
        os.path.join(upd, "_meta.parquet"), "rb"
    ) as b:
        assert a.read() == b.read()


def test_empty_store_reads_empty_and_merges(crawls):
    # a build over a crawl with no triples is a store with no shards:
    # it reads as an empty frame, and a merge into it equals a build
    pages = pq.read_table(crawls["delta"])
    none = str(crawls["dir"] / "no_triples.parquet")
    pq.write_table(
        pages.filter(pc.equal(pages["lang"], "xx")), none
    )
    empty = str(crawls["dir"] / "state_empty")
    K.build_kg_state(none, empty)
    assert not [n for n in os.listdir(empty) if n.startswith("shard=")]
    got = K.read_kg_state(empty)
    assert len(got) == 0 and list(got.columns) == K.STATE_COLS

    upd = str(crawls["dir"] / "state_empty_upd")
    K.update_kg_state(empty, crawls["delta"], upd)
    reb = str(crawls["dir"] / "state_delta_only")
    K.build_kg_state(crawls["delta"], reb)
    merged = K.read_kg_state(upd)
    assert len(merged) > 0
    pd.testing.assert_frame_equal(merged, K.read_kg_state(reb))


def test_triple_shard_routing_is_pinned():
    # stores on disk route by this function: literal keys pin it, and
    # the per-row md5 loop it replaced stays the reference; the url
    # state routes by the same function on its one key column
    import hashlib

    keys = pd.DataFrame(
        [
            ("Apple Inc.", "supplies_to", "Foxconn"),
            ("Foxconn", "customer_of", "Apple Inc."),
            ("Raytheon Technologies", "supplies_to",
             "Synthco 000111 Industries"),
            ("", "", ""),
            ("Ünïcode GmbH", "supplies_to", "Apple Inc."),
            ("Apple Inc.", "supplies_to", "Foxconn"),
        ],
        columns=K.STATE_KEYS,
    )
    assert T.route(keys, K.STATE_KEYS, 16).tolist() == [6, 14, 9, 5, 15, 6]
    assert T.route(keys, K.STATE_KEYS, 7).tolist() == [2, 0, 6, 2, 0, 2]
    assert T.route(keys.iloc[:0], K.STATE_KEYS, 16).tolist() == []

    many = pd.concat([keys] * 3 + [
        pd.DataFrame({"subj": [f"s{i % 37}" for i in range(200)],
                      "pred": "supplies_to",
                      "obj": [f"o{i % 11}" for i in range(200)]})
    ], ignore_index=True)
    ref = [
        int(hashlib.md5("\x1f".join(r).encode("utf-8")).hexdigest()[:8], 16)
        % 16
        for r in many[K.STATE_KEYS].itertuples(index=False)
    ]
    assert T.route(many, K.STATE_KEYS, 16).tolist() == ref

    urls = pd.DataFrame({"url": [
        "https://a.com/x", "https://example3.com/page/3", "https://h0.com/p",
        "https://ünïcode.example/straße?q=1", "",
        "https://example126.com/page/126",
    ]})
    assert T.route(urls, ["url"], 16).tolist() == [2, 14, 10, 1, 9, 1]
    assert T.route(urls, ["url"], 7).tolist() == [3, 2, 4, 3, 4, 4]


def test_commit_record_carries_the_merge_numbers(
    crawls, base_state, monkeypatch
):
    # no compaction, so every run the merge added stays live
    monkeypatch.setattr(T, "MAX_RUNS", 10**6)
    real = T._move_runs

    def split(store, staging, tag):
        # as if each shard's rows came from two write tasks (on a large
        # cluster, dozens): the merge must still add one run per shard
        for rel in T._shard_file_paths(staging):
            path = os.path.join(staging, rel)
            t = pq.read_table(path, partitioning=None)
            half = t.num_rows // 2
            pq.write_table(t.slice(0, half), path)
            pq.write_table(t.slice(half), path[:-8] + "-b.parquet")
        return real(store, staging, tag)

    monkeypatch.setattr(T, "_move_runs", split)
    upd = str(crawls["dir"] / "state_record")
    K.update_kg_state(base_state, crawls["delta"], upd)
    rec = T._records(upd)[-1]
    assert len(rec["adds"]) == len(rec["shards_touched"])
    reb = str(crawls["dir"] / "state_record_rebuild")
    K.build_kg_state(crawls["both"], reb)
    pd.testing.assert_frame_equal(K.read_kg_state(upd), K.read_kg_state(reb))
    assert rec["kind"] == "merge"
    delta = crawls["delta"]
    ident = {
        "path": os.path.abspath(delta),
        "bytes": os.path.getsize(delta),
        "rows": pq.read_metadata(delta).num_rows,
    }
    assert rec["delta"] == {**ident, "files": [ident]}
    assert rec["n_errors"] == 0 and rec["dead_letters"] == []
    assert rec["n_dropped_markers"] >= 0
    assert rec["adds"] and rec["removes"] == []
    for rel, info in rec["adds"].items():
        path = os.path.join(upd, rel)
        assert info == {
            "rows": pq.read_metadata(path).num_rows,
            "bytes": os.path.getsize(path),
        }
        assert rel.startswith("shard=") and "/run-" in rel
    assert rec["shards_touched"] == sorted(
        {int(p.split("/")[0][len("shard="):]) for p in rec["adds"]}
    )
    assert set(rec["phase_s"]) == {"prepare", "execute", "commit"}
    # over the whole log, the recorded rows of the live runs are the
    # rows in the run files
    live = T._live_runs(upd)
    recorded = {}
    for r in T._records(upd):
        recorded.update(r["adds"])
    assert sum(recorded[p]["rows"] for p in live) == sum(
        pq.read_metadata(os.path.join(upd, p)).num_rows for p in live
    )


def _file_bytes(store, rels):
    out = {}
    for rel in rels:
        with open(os.path.join(store, rel), "rb") as fh:
            out[rel] = fh.read()
    return out


def test_compaction_chain_in_place_equals_oracle(
    crawls, base_state, monkeypatch
):
    # ten 3-5-page deltas merged in place; a lower MAX_RUNS makes the
    # chain cross it several times
    monkeypatch.setattr(T, "MAX_RUNS", 3)
    d = crawls["dir"]
    state = str(d / "state_compaction_chain")
    shutil.copytree(base_state, state)
    ids, start = [], 700
    seen = _file_bytes(state, T._live_runs(state))
    for i, n in enumerate([3, 4, 5, 3, 4, 5, 3, 4, 5, 4]):
        delta = str(d / f"chain_{i}.parquet")
        pq.write_table(generate_pages(list(range(start, start + n))), delta)
        ids += list(range(start, start + n))
        start += n
        K.update_kg_state(state, delta, state)
        live = T._live_runs(state)
        removed = {p for r in T._records(state) if r["kind"] == "compact"
                   for p in r["removes"]}
        for rel, blob in seen.items():
            # a run stays byte-identical until a compaction replaces it
            assert rel in live or rel in removed
            if rel in live:
                assert _file_bytes(state, [rel])[rel] == blob
        seen.update(_file_bytes(state, [p for p in live if p not in seen]))
        assert max(map(len, T._runs_by_shard(live).values())) <= T.MAX_RUNS
    compactions = [r for r in T._records(state) if r["kind"] == "compact"]
    assert len(compactions) >= 2

    got = K.read_kg_state(state)
    exp = expected_triples(generate_pages(list(range(120)) + ids))
    pd.testing.assert_frame_equal(_normalized(got), _normalized(exp))

    assert K.compact_kg_state(state) == state
    assert all(len(v) == 1 for v in T._runs_by_shard(
        T._live_runs(state)).values())
    assert T._shard_file_paths(state) == T._live_runs(state)
    pd.testing.assert_frame_equal(K.read_kg_state(state), got)


def test_compaction_rewrites_each_row_a_logarithmic_number_of_times():
    # 256 equal merges into one shard at the default cap, counting the
    # rows every compaction writes (no triple shared between merges, the
    # worst case). Folding every run of a shard over the cap rewrote
    # about N**2 / (2 * MAX_RUNS) merge sizes (~40 000 rows here);
    # folding runs of similar size rewrites a row at most log2(N) times.
    rows, live, rewritten = {}, [], 0
    for i in range(256):
        run = f"shard=0/run-{i:08d}-a.parquet"
        rows[run] = 10
        live.append(run)
        group = T._fold_group(live, rows, T.MAX_RUNS)
        if group:
            assert len(group) >= 2
            folded = f"shard=0/run-{i:08d}-b.parquet"
            rows[folded] = sum(rows[r] for r in group)
            rewritten += rows[folded]
            live = [r for r in live if r not in group] + [folded]
        assert len(live) <= T.MAX_RUNS
    assert sum(rows[r] for r in live) == 2560
    assert rewritten <= 2560 * 8
    # a large base run is left alone until the runs beside it add up
    # to its size; compact_kg_state's cap of one folds every run
    runs = {"base": 1000, **{f"d{i}": 10 for i in range(9)}}
    assert "base" not in T._fold_group(list(runs), runs, T.MAX_RUNS)
    assert len(T._fold_group(list(runs), runs, 1)) == 10


def test_store_without_log_reads_every_file_and_merges(crawls, base_state):
    # a store written before the commit log (no _log/): every shard
    # file is live, and the first merge adopts them
    d = crawls["dir"]
    legacy = str(d / "state_legacy")
    shutil.copytree(base_state, legacy)
    shutil.rmtree(os.path.join(legacy, T._LOG))
    pd.testing.assert_frame_equal(
        K.read_kg_state(legacy), K.read_kg_state(base_state)
    )
    K.update_kg_state(legacy, crawls["delta"], legacy)
    assert T._records(legacy)[0]["kind"] == "adopt"
    reb = str(d / "state_rebuild_legacy")
    K.build_kg_state(crawls["both"], reb)
    pd.testing.assert_frame_equal(K.read_kg_state(legacy), K.read_kg_state(reb))
