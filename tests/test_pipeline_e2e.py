"""End-to-end: distributed Ray Data pipeline == single-process oracle,
exactly (stronger than the P/R ≥ 0.95 target)."""

import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
from finance_sc_relations_ray.sources.pages import generate_pages
from oracle.kg_oracle import expected_triples


@pytest.fixture(scope="module")
def pages_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    path = str(d / "pages.parquet")
    pq.write_table(generate_pages(list(range(120))), path)
    return path


def test_kg_pipeline_matches_oracle(pages_path):
    ds = build_kg_pipeline(pages_path)
    got = (
        ds.to_pandas()
        .astype({"score": "float64"})
        .round({"score": 4})
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )
    exp = expected_triples(pq.read_table(pages_path))
    assert sorted(got.columns) == sorted(exp.columns)
    got = got[exp.columns]
    assert len(got) == len(exp), (len(got), len(exp))
    for col in exp.columns:
        if col == "sentence_ids":
            assert [list(x) for x in got[col]] == [
                list(x) for x in exp[col]
            ], col
        else:
            assert got[col].tolist() == exp[col].tolist(), col
    # payload sanity: the dedup must not have dropped linkage — at least
    # one triple carries a resolved entity id and a non-empty witness
    assert got["url"].notna().all()
    assert any(len(x) > 0 for x in got["sentence_ids"])


def test_kg_pipeline_deterministic_across_runs(pages_path):
    a = build_kg_pipeline(pages_path).to_pandas().sort_values(
        ["subj", "pred", "obj"]
    ).reset_index(drop=True)
    b = build_kg_pipeline(pages_path).to_pandas().sort_values(
        ["subj", "pred", "obj"]
    ).reset_index(drop=True)
    assert a.equals(b)


def test_alias_items_linked(pages_path):
    """Alias items carry the linked entity id + reference-shaped keys
    (reporter.py:347-385 keying, target-linked — see docstring)."""
    from finance_sc_relations_ray.pipelines.kg import alias_items_dataset

    df = alias_items_dataset(pages_path).to_pandas()
    assert set(df.columns) == {
        "url", "target", "alias", "entity_id", "item_key", "sort_key"
    }
    assert len(df) > 0
    linked = df[df["entity_id"].notna()]
    assert len(linked) > 0
    r = linked.iloc[0]
    assert r["item_key"] == f"alias#{r['entity_id']}#{r['alias']}"
    assert r["sort_key"] == f"url#{r['url']}#{r['alias']}"
    # unlinked rows keyed deterministically too
    unlinked = df[df["entity_id"].isna()]
    assert (unlinked["item_key"].str.startswith("alias#unlinked#")).all()


def test_relation_items_and_kv_sink(pages_path, tmp_path):
    """S11: relationship items in the reference's KV shape
    (reporter.py:30-73) + bucket-sharded parquet sink."""
    import os

    import ray.data

    from finance_sc_relations_ray.pipelines.kg import (
        relation_items_dataset,
        write_kv_items,
    )

    items = relation_items_dataset(pages_path)
    df = items.to_pandas()
    assert len(df) > 0
    assert df["pk"].str.startswith("page#").all()
    assert (df["item_type"] == "relationship").all()
    assert set(df["relationship_label"]) <= {"supplier", "customer", "other"}
    linked = df[df["extracted_name_id"] != "null"]
    assert len(linked) > 0  # entity linkage carried into the items

    out = str(tmp_path / "items")
    write_kv_items(relation_items_dataset(pages_path), out, num_buckets=8)
    buckets = [d for d in os.listdir(out) if d.startswith("bucket=")]
    assert 1 <= len(buckets) <= 8
    back = ray.data.read_parquet(out).to_pandas()
    assert len(back) == len(df)


def _relabelled_db(db, prefix: str):
    """``db`` with every entity id rewritten under ``prefix``: the same
    names resolve, to ids only this table holds."""
    import pyarrow as pa

    ids = [prefix + r for r in db["rgid"].to_pylist()]
    return db.set_column(
        db.schema.get_field_index("rgid"), "rgid", pa.array(ids, pa.string())
    )


def _ids(df) -> set:
    return set(df["subj_id"].dropna()) | set(df["obj_id"].dropna())


def test_cached_linker_follows_the_company_db(pages_path):
    """Builds in one session with the same config and alternating
    company DBs: the worker-side linker cache must never link a build
    against the previous build's DB. Each output's ids come from its
    own table, and relabelling the DB relabels the output exactly.
    (Six builds, so some worker runs the page stage for both DBs.)"""
    from finance_sc_relations_ray.gazetteer import company_db_table

    dbs = {
        "A": _relabelled_db(company_db_table(), "A"),
        "B": _relabelled_db(company_db_table(), "B"),
    }
    keys = ["subj", "pred", "obj"]
    outs = []
    for name in "ABABAB":
        out = build_kg_pipeline(pages_path, company_db=dbs[name]).to_pandas()
        out = out.sort_values(keys).reset_index(drop=True)
        assert _ids(out) and _ids(out) <= set(dbs[name]["rgid"].to_pylist())
        outs.append(out)
    for out in outs[1:]:
        for col in ("subj_id", "obj_id"):
            assert [None if x is None else x[1:] for x in out[col]] == \
                [None if x is None else x[1:] for x in outs[0][col]], col


class MarkerOrderScorer:
    """An RE backend that, unlike the rule scorer, is not symmetric
    under ``inverse_relations``, so the reverse ensemble changes its
    scores: "supplier" when [E1] comes first, "other" otherwise."""

    def score(self, tagged: str) -> list[float]:
        if tagged.find("[E1]") < tagged.find("[E2]"):
            return [0.7, 0.2, 0.1]
        return [0.1, 0.3, 0.6]


def test_page_stage_cache_keys_on_reverse_and_db(pages_path):
    """In-process ``PageKGActor`` calls that alternate ``reverse`` and
    the company DB table each return what a cold cache returns for
    their own arguments."""
    from finance_sc_relations_ray.config import KGConfig
    from finance_sc_relations_ray.gazetteer import company_db_table
    from finance_sc_relations_ray.stages import fused

    cfg = KGConfig(re_backend=f"{__name__}:MarkerOrderScorer")
    batch = pq.read_table(pages_path, columns=["url", "html", "lang"])
    dbs = {
        "A": _relabelled_db(company_db_table(), "A"),
        "B": _relabelled_db(company_db_table(), "B"),
    }
    runs = [(False, "A"), (True, "B"), (False, "B"), (True, "A")]

    def call(reverse, db):
        return fused.PageKGActor(cfg, reverse=reverse, db_ref=dbs[db])(
            batch
        ).to_pylist()

    cold = {}
    for reverse, db in runs:
        fused._SCORER.clear()
        fused._LINKER.clear()
        cold[reverse, db] = call(reverse, db)
    # the flag and the table both change the output, so a cache that
    # ignored either would be caught below
    assert cold[False, "A"] != cold[True, "A"]
    assert cold[True, "A"] != cold[True, "B"]
    for reverse, db in runs + runs:  # warm, alternating
        assert call(reverse, db) == cold[reverse, db], (reverse, db)
