"""Alias items (reference reporter.py:347-385): the page-local stage
against a plain-Python reference, and the shape of its plan."""

import collections
import inspect

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.config import DEFAULT_CONFIG
from finance_sc_relations_ray.functions.grouping import (
    detect_alias_candidates,
    filter_aliases,
)
from finance_sc_relations_ray.functions.names import similarity
from finance_sc_relations_ray.gazetteer import company_db_table
from finance_sc_relations_ray.pipelines.kg import alias_items_dataset
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.stages import extract
from finance_sc_relations_ray.stages.link import Linker
from finance_sc_relations_ray.stages.ner import make_tagger

COLS = ["url", "target", "alias", "entity_id", "item_key", "sort_key"]


def _reference_alias_items(pages: pa.Table, config=DEFAULT_CONFIG) -> list[tuple]:
    """Per English page row: every cleaned sentence → ``tagger.spans``
    → alias candidates next to the tagged names → alias filter; the
    row's distinct pairs, each target linked by ``Linker.link``."""
    tagger = make_tagger(config)
    linker = Linker(company_db_table(), config)
    rows = []
    for page in pages.to_pylist():
        if page["lang"] != "en":
            continue
        url = page["url"]
        sents = extract.sentencize_batch(pa.table(
            {"url": [url], "page_text": [extract.extract_text(page["html"])]}
        ))["sent"].to_pylist()
        pairs = set()
        for sent in sents:
            spans = tagger.spans(sent)
            if not spans:
                continue
            ents = sorted({sp["text"] for sp in spans})
            pairs.update(filter_aliases(
                detect_alias_candidates(sent, ents), similarity,
                config.alias_sim_threshold,
            ))
        for target, alias in sorted(pairs):
            eid, _, _ = linker.link(target)
            rows.append((url, target, alias, eid,
                         f"alias#{eid if eid else 'unlinked'}#{alias}",
                         f"url#{url}#{alias}"))
    return rows


PLANTED = (
    "<html><body><p>International Business Machines Corporation "
    '("IBM") and Fujitsu Limited ("Fujitsu") signed a deal. Amazon Web '
    'Services ("AWS") announced results. International Business Machines '
    'Corporation ("IBM") supplied chips to Intel Corporation.</p></body></html>'
).encode()
NO_ALIAS = b"<html><body><p>Apple Inc supplied Foxconn Technology Co Ltd.</p></body></html>"


@pytest.fixture(scope="module")
def pages(tmp_path_factory):
    """40 generated pages, then: a page whose alias sentences are
    ungated (no supply word) and one that holds two pairs, with the IBM
    pair in two sentences; the same html in German; a page with
    entities and no alias; and a second row of the first of these,
    same url and html. With ``row_group_size=8`` the two rows of that
    url go to different page tasks."""
    t = generate_pages(list(range(40)))
    extra = [
        ("https://planted.example/a", PLANTED, "en"),
        ("https://planted.example/de", PLANTED, "de"),
        ("https://planted.example/none", NO_ALIAS, "en"),
    ]
    extra = pa.Table.from_pylist(
        [{"url": u, "warc_ts": None, "html": h, "text": "", "lang": lang}
         for u, h, lang in extra],
        schema=t.schema,
    )
    t = pa.concat_tables([t, extra, extra.slice(0, 1)])
    path = str(tmp_path_factory.mktemp("alias_pages") / "pages.parquet")
    pq.write_table(t, path, row_group_size=8)
    return t, path


def test_alias_items_equal_plain_python_reference(pages):
    """The stage's rows equal the reference's as a multiset. The
    within-document dedup is per page row, so a url held by two rows
    gives each of its items twice; ``write_kv_items`` puts both under
    the same key, an idempotent re-put."""
    table, path = pages
    got = alias_items_dataset(path).to_pandas()
    assert list(got.columns) == COLS
    got_rows = collections.Counter(got.itertuples(index=False, name=None))
    assert got_rows == collections.Counter(_reference_alias_items(table))

    by_url = collections.defaultdict(list)
    for row, n in got_rows.items():
        by_url[row[0]].append((row[1], row[2], n))
    assert sorted(by_url["https://planted.example/a"]) == [
        ("Amazon Web Services", "AWS", 2),
        ("Fujitsu Limited", "Fujitsu", 2),
        ("International Business Machines Corporation", "IBM", 2),
    ]
    assert "https://planted.example/de" not in by_url
    assert "https://planted.example/none" not in by_url


def test_alias_items_plan_is_one_fused_task_operator(pages, monkeypatch):
    """``alias_items_dataset`` is one execution of one task operator,
    the page read fused with the alias stage: no all-to-all operator,
    no actor pool, and the per-operator reservation off (as in every
    page-stage plan). ``build_training_data`` reads the same way, and
    its one all-to-all operator is the seeded shuffle."""
    from ray.data._internal.execution import resource_manager

    from finance_sc_relations_ray.pipelines.training_data import (
        build_training_data,
    )

    seen = []
    init = resource_manager.ResourceManager.__init__

    def spy(self, *args, **kwargs):
        bound = inspect.signature(init).bind(self, *args, **kwargs).arguments
        seen.append((
            [(type(op).__name__, op.name) for op in bound["topology"]
             if type(op).__name__ != "InputDataBuffer"],
            bound["data_context"].op_resource_reservation_enabled,
        ))
        init(self, *args, **kwargs)

    monkeypatch.setattr(resource_manager.ResourceManager, "__init__", spy)
    _, path = pages
    alias_items_dataset(path).materialize()
    assert seen == [(
        [("TaskPoolMapOperator", "ReadPageRows->MapBatches(PageAliasItems)")],
        False,
    )], seen

    seen.clear()
    build_training_data(path).materialize()
    [(ops, reserved)] = seen
    assert reserved is False
    assert [kind for kind, _ in ops] == ["AllToAllOperator"], ops
    assert ops[0][1].startswith(
        "ReadPageRows->MapBatches(PageTrainingExamples)->"), ops
    assert ops[0][1].endswith("->RandomShuffle"), ops
