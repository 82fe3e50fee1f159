"""End-to-end: distributed Ray Data pipeline == single-process oracle,
exactly (stronger than the P/R ≥ 0.95 target)."""

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

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


@pytest.mark.parametrize(
    "build, tagger",
    [("build_kg_pipeline", "BuildRendezvousTagger"),
     ("kg_from_crawl", "CrawlRendezvousTagger")],
)
def test_page_stage_overlaps_behind_the_dedup_exchange(pages_path, build, tagger):
    """A deduplicating plan runs its page stage in two processes at
    once: the first page call of each worker waits on a two-party
    barrier (tests/page_rendezvous.py), and a partner must arrive.
    With Ray Data's per-operator reservation on, the page operator in
    front of the sort barrier got one CPU and its calls never met."""
    import ray

    from finance_sc_relations_ray.config import KGConfig
    from finance_sc_relations_ray.pipelines import kg
    from tests import page_rendezvous

    backend = getattr(page_rendezvous, tagger)
    barrier = page_rendezvous.TwoPartyBarrier.options(
        name=backend.BARRIER
    ).remote()
    try:
        cfg = KGConfig(ner_backend=f"tests.page_rendezvous:{tagger}")
        assert len(getattr(kg, build)(pages_path, cfg).to_pandas()) > 0
        assert ray.get(barrier.met.remote())
    finally:
        ray.kill(barrier)


def test_page_stage_overlaps_in_a_merge(tmp_path):
    """A triple-store merge runs its page stage in two processes at
    once (the barrier of the test above). With the page read as its own
    operator and the per-operator reservation on, one merge ran a single
    page task at a time."""
    from finance_sc_relations_ray.config import KGConfig
    from finance_sc_relations_ray.pipelines.kg_state import (
        build_kg_state,
        read_kg_state,
        update_kg_state,
    )
    from tests import page_rendezvous

    base, delta = str(tmp_path / "base.parquet"), str(tmp_path / "delta.parquet")
    pq.write_table(generate_pages(list(range(20))), base)
    pq.write_table(generate_pages(list(range(20, 60))), delta)
    state = build_kg_state(base, str(tmp_path / "state"))
    n_base = len(read_kg_state(state))
    backend = page_rendezvous.MergeRendezvousTagger
    barrier = page_rendezvous.TwoPartyBarrier.options(
        name=backend.BARRIER
    ).remote()
    try:
        cfg = KGConfig(ner_backend="tests.page_rendezvous:MergeRendezvousTagger")
        update_kg_state(state, delta, state, config=cfg)
        assert len(read_kg_state(state)) > n_base
        assert ray.get(barrier.met.remote())
    finally:
        ray.kill(barrier)


def test_page_stage_plans_run_without_reservation(pages_path, tmp_path, monkeypatch):
    """Every plan holding the page stage starts with the page read fused
    into it (no read operator of its own) and executes with the
    per-operator reservation off: the build, the composed crawl, the
    triple-store build and merge, and the partitioned runner. The global
    ``DataContext`` keeps its values after each, and ``merge_parts``,
    which has no page stage, runs with the default."""
    import inspect

    from ray.data import DataContext
    from ray.data._internal.execution import resource_manager

    from finance_sc_relations_ray.pipelines.kg import kg_from_crawl
    from finance_sc_relations_ray.pipelines.kg_state import (
        build_kg_state,
        update_kg_state,
    )
    from finance_sc_relations_ray.pipelines.run import merge_parts, run_partitioned

    seen = []
    init = resource_manager.ResourceManager.__init__

    def spy(self, *args, **kwargs):
        bound = inspect.signature(init).bind(self, *args, **kwargs).arguments
        seen.append((
            [op.name for op in bound["topology"]],
            bound["data_context"].op_resource_reservation_enabled,
        ))
        init(self, *args, **kwargs)

    monkeypatch.setattr(resource_manager.ResourceManager, "__init__", spy)
    glob = DataContext.get_current()

    def page_plans(fused_read=True):
        plans = [(ops, on) for ops, on in seen if any(
            "PageKGActor" in op for op in ops)]
        assert plans, seen
        for ops, on in plans:
            assert on is False, ops
            if fused_read:
                reads = [op for op in ops if op.startswith("Read")]
                assert len(reads) == 1, ops
                assert reads[0].startswith("ReadPageRows->"), ops
                assert "MapBatches(PageKGActor)" in reads[0], ops
        assert glob.op_resource_reservation_enabled is True
        seen.clear()
        return len(plans)

    build_kg_pipeline(pages_path).to_pandas()
    assert page_plans() == 1
    build_kg_pipeline(pages_path, dedup=False).to_pandas()
    assert page_plans() == 1
    # the page stage follows the url-winner exchange there
    kg_from_crawl(pages_path).to_pandas()
    assert page_plans(fused_read=False) == 1

    delta = str(tmp_path / "delta.parquet")
    pq.write_table(generate_pages(list(range(120, 130))), delta)
    state = build_kg_state(pages_path, str(tmp_path / "state"))
    update_kg_state(state, delta, state)
    assert page_plans() == 2

    out = str(tmp_path / "parts")
    run_partitioned(pages_path, out, num_parts=1)
    assert page_plans() >= 1
    merge_parts(out, local_rows_gate=0).to_pandas()
    assert [on for _, on in seen] and all(on for _, on in seen), seen


def test_fused_page_read_keeps_pages_out_of_the_object_store(tmp_path, monkeypatch):
    """Without the reservation Ray Data has no object-store backpressure
    on a read, but a read fused into the page tasks puts no page bytes
    into the object store. The execution's object-store limit is set to
    256 KiB; the test samples the bytes every operator of the plan holds
    in the object store on every scheduling step. The fused plan stays
    far below the input; the same pages read by a separate read operator
    (``ray.data.read_parquet``) in front of the same page stage pile up
    in the object store."""
    import copy

    from ray.data._internal.execution import resource_manager
    from ray.data._internal.execution.interfaces.execution_options import (
        ExecutionResources,
    )

    from finance_sc_relations_ray.pipelines.kg import linked_docs_dataset

    # 24 MiB of html in 8 files (boilerplate markup the extractor skips)
    pad = b"<div class='nav'>" + b"<a href='/s'>section</a>" * 850 + b"</div>"
    src = tmp_path / "pages"
    src.mkdir()
    for f in range(8):
        t = generate_pages(list(range(f * 150, (f + 1) * 150)))
        html = [h.replace(b"<body>", b"<body>" + pad, 1)
                for h in t.column("html").to_pylist()]
        t = t.set_column(t.schema.get_field_index("html"), "html",
                         pa.array(html, pa.binary()))
        pq.write_table(t, str(src / f"part-{f}.parquet"), row_group_size=25)
    input_bytes = 1200 * (len(pad) + 500)

    held = []
    update = resource_manager.ResourceManager.update_usages

    def spy(self, *args, **kwargs):
        update(self, *args, **kwargs)
        held.append(sum(
            state.outqueue_memory_usage()
            + op.metrics.obj_store_mem_internal_outqueue
            + op.metrics.obj_store_mem_internal_inqueue
            + op.metrics.obj_store_mem_pending_task_inputs
            for op, state in self._topology.items()
        ))

    monkeypatch.setattr(resource_manager.ResourceManager, "update_usages", spy)

    def peak_held(ds):
        ctx = ds.context
        opts = copy.copy(ctx.execution_options)
        opts.resource_limits = ExecutionResources.for_limits(
            object_store_memory=256 << 10
        )
        ctx.execution_options = opts
        held.clear()
        assert ds.count() > 0
        return max(held)

    fused = peak_held(build_kg_pipeline(str(src)))
    separate = peak_held(linked_docs_dataset(ray.data.read_parquet(
        str(src), columns=["url", "html", "lang"], override_num_blocks=96)))
    assert fused < 0.25 * input_bytes, (fused, separate, input_bytes)
    assert separate > 0.4 * input_bytes, (fused, separate, input_bytes)


def test_no_english_page_keeps_the_triple_columns(tmp_path):
    """Pages with no English page make no triples. The Dataset still has
    the triple columns (Ray calls no map UDF on an empty block and
    passed the block on without its columns), and merging such a delta
    commits an empty merge."""
    import json

    from finance_sc_relations_ray.pipelines.kg_state import (
        build_kg_state,
        read_kg_state,
        update_kg_state,
    )
    from finance_sc_relations_ray.stages.triples import TRIPLES_SCHEMA

    pages = generate_pages(list(range(20)))
    de = str(tmp_path / "de.parquet")
    pq.write_table(pages.set_column(
        pages.schema.get_field_index("lang"), "lang",
        pa.array(["de"] * pages.num_rows, pa.string()),
    ), de)

    docs = build_kg_pipeline(de, dedup=False)
    assert docs.count() == 0
    assert docs.schema().names == TRIPLES_SCHEMA.names
    triples = build_kg_pipeline(de)
    assert triples.count() == 0
    assert sorted(triples.schema().names) == sorted(
        TRIPLES_SCHEMA.names + ["n_mentions"])

    base = str(tmp_path / "base.parquet")
    pq.write_table(pages, base)
    state = build_kg_state(base, str(tmp_path / "state"))
    before = read_kg_state(state)
    update_kg_state(state, de, state)
    log = sorted(os.listdir(os.path.join(state, "_log")))
    with open(os.path.join(state, "_log", log[-1])) as f:
        record = json.load(f)
    assert record["kind"] == "merge"
    assert record["adds"] == {} and record["shards_touched"] == []
    assert record["delta"]["rows"] == pages.num_rows
    pd.testing.assert_frame_equal(read_kg_state(state), before)
