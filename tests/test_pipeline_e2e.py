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


def test_dedup_reservation_stays_on_its_own_plan(pages_path, tmp_path, monkeypatch):
    """The deduplicating build executes with the per-operator
    reservation off and the read-ahead bound on, the global
    ``DataContext`` keeps its values, and the triple-store merge plan
    (no exchange) still runs with the default."""
    import inspect

    from ray.data import DataContext
    from ray.data._internal.execution import resource_manager
    from ray.data._internal.execution.backpressure_policy import (
        ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY as POLICIES,
    )

    from finance_sc_relations_ray.pipelines.kg_state import (
        build_kg_state,
        update_kg_state,
    )
    from finance_sc_relations_ray.stages.shuffle import ReadAheadBound

    seen = []
    init = resource_manager.ResourceManager.__init__

    def spy(self, *args, **kwargs):
        bound = inspect.signature(init).bind(self, *args, **kwargs).arguments
        ctx = bound["data_context"]
        seen.append((
            " ".join(op.name for op in bound["topology"]),
            ctx.op_resource_reservation_enabled,
            ReadAheadBound in ctx.get_config(POLICIES, []),
        ))
        init(self, *args, **kwargs)

    monkeypatch.setattr(resource_manager.ResourceManager, "__init__", spy)
    glob = DataContext.get_current()

    def unchanged():
        assert glob.op_resource_reservation_enabled is True
        assert glob.get_config(POLICIES) is None

    unchanged()

    build_kg_pipeline(pages_path).to_pandas()
    assert [(on, rab) for ops, on, rab in seen if "PageKGActor" in ops] == [
        (False, True)
    ]
    unchanged()

    seen.clear()
    delta = str(tmp_path / "delta.parquet")
    pq.write_table(generate_pages(list(range(120, 130))), delta)
    state = build_kg_state(pages_path, str(tmp_path / "state"))
    update_kg_state(state, delta, state)
    merges = [(on, rab) for ops, on, rab in seen if "PageKGActor" in ops]
    assert merges == [(True, False), (True, False)], seen
    unchanged()


def test_read_ahead_bound_holds_back_the_page_read(tmp_path, monkeypatch):
    """Without the reservation, ``ReadAheadBound`` keeps the page read
    from loading its input into the object store ahead of the page
    stage. The execution's object-store limit is set to 256 KiB; the test
    samples the bytes the read has produced that are still in the plan
    on every scheduling step. Bounded, that stays near the blocks the
    page tasks hold; the same plan without the bound holds most of the
    input."""
    import copy

    import pyarrow as pa
    from ray.data._internal.execution import resource_manager
    from ray.data._internal.execution.backpressure_policy import (
        ENABLED_BACKPRESSURE_POLICIES,
        ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY,
    )
    from ray.data._internal.execution.interfaces.execution_options import (
        ExecutionResources,
    )

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
        for op, state in self._topology.items():
            if op.name.startswith("ReadParquet"):
                held.append(
                    state.outqueue_memory_usage()
                    + op.metrics.obj_store_mem_internal_outqueue
                    + sum(
                        c.metrics.obj_store_mem_internal_inqueue
                        + c.metrics.obj_store_mem_pending_task_inputs
                        for c in op.output_dependencies
                    )
                )

    monkeypatch.setattr(resource_manager.ResourceManager, "update_usages", spy)

    def peak_held(bounded: bool):
        ds = build_kg_pipeline(str(src), read_blocks=96)
        ctx = ds.context
        opts = copy.copy(ctx.execution_options)
        opts.resource_limits = ExecutionResources.for_limits(
            object_store_memory=256 << 10
        )
        ctx.execution_options = opts
        if not bounded:
            ctx.set_config(
                ENABLED_BACKPRESSURE_POLICIES_CONFIG_KEY,
                ENABLED_BACKPRESSURE_POLICIES,
            )
        held.clear()
        assert ds.count() > 0
        return max(held)

    bounded = peak_held(True)
    unbounded = peak_held(False)
    assert bounded < 0.25 * input_bytes, (bounded, unbounded, input_bytes)
    assert unbounded > 0.4 * input_bytes, (bounded, unbounded, input_bytes)
