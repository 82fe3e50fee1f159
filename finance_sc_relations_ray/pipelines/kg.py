"""The flagship KG-construction pipeline (SURVEY.md §7.1 DAG).

One streaming ``ray.data.Dataset`` lineage, one physical plan:

    read_pages(url,html,lang; one row range     ┐ one fused operator:
               per CPU, row group by row group) │ a read task is a
      → map_batches(PageKGActor(...))           │ page task [models
          per page: lang filter → extract       │ cached per process]
          html→text → sentencize + clean → SC   │
          gate → NER + alias grouping → pair    │
          enumeration + tagging → RE scoring →  │
          per-document aggregation → entity     │
          linking (broadcast company DB)        │
      → map_batches(to_triples)                 ┘ [stateless]
      → salted dedup on (subj,pred,obj)            [the one exchange,
                                                    combiner-first]

The input is one row per document, so every stage up to linking is
local to a page and runs fused in one task UDF (stages/fused.py). Ray
Data fuses it further with the page read in front of it
(``sources.page_read``: the read plans row ranges from the parquet
footers, so no split operator sits between), with ``to_triples`` and
with the dedup combiner. The composable stage classes (stages/ner.py,
stages/scoring.py, stages/doc_agg.py, stages/link.py) are what
``oracle/kg_oracle.py`` composes, and tests/test_pipeline_e2e.py holds
the pipeline equal to it.

Every plan holding the page stage runs without Ray Data's per-operator
reservation (why: :func:`linked_docs_dataset`).

Ray is never initialised here (driver / bench / tests own the session).
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import actor_resources, DEFAULT_CONFIG, KGConfig
from ..gazetteer import company_db_table
from ..sources.page_read import PageRowsDatasource, parquet_files
from ..stages import extract
from ..stages.shuffle import partial_dedup_batch, salted_dedup
from ..stages.triples import TRIPLES_SCHEMA, to_triples_batch


def _cluster_cpus() -> int:
    """The cluster's CPU count (8 when the cluster cannot be asked)."""
    try:
        return max(1, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


def default_read_blocks() -> int:
    """Block count for ``kg_from_crawl``'s page stage, which the url
    fold's exchange feeds: three per cluster CPU, at least 8."""
    return max(8, 3 * _cluster_cpus())


def read_pages(
    path: "str | list[str]",
    read_blocks: int | None = None,
) -> "ray.data.Dataset":
    """The page read of a page-stage plan: a column-pruned row-range
    read of ``path`` (a file, a list of files or a directory). The
    pipeline needs only url, html, lang (never the duplicate ``text``
    column or warc_ts). The read fuses into the page stage that follows
    it (``sources.page_read``), so a read task is a page task.

    ``read_blocks`` is the number of read tasks. It defaults to one per
    cluster CPU. It is raised only when a task's share of the input's
    uncompressed row-group bytes would pass Ray Data's
    ``target_max_block_size``: to a multiple of the CPU count, so that
    no last wave of tasks runs on part of the CPUs, but never past the
    input's row-group count, since a row group shared by more tasks is
    decoded once by each of them.
    """
    src = PageRowsDatasource(parquet_files(path), ["url", "html", "lang"])
    if read_blocks is None:
        read_blocks = _cluster_cpus()
        limit = ray.data.DataContext.get_current().target_max_block_size
        if limit:
            waves = -(-src.estimate_inmemory_data_size() // (limit * read_blocks))
            if waves > 1:
                read_blocks = max(
                    read_blocks, min(read_blocks * waves, src.num_row_groups)
                )
    return ray.data.read_datasource(
        src, override_num_blocks=max(1, min(read_blocks, src.num_rows))
    )


def read_page_columns(
    path: str, read_blocks: int | None = None
) -> "ray.data.Dataset":
    """``read_parquet`` of the page columns, for the plans that feed an
    actor pool rather than the page stage (alias items, training data):
    Ray's own block sizing, or ``read_blocks`` blocks."""
    kw = {"override_num_blocks": read_blocks} if read_blocks else {}
    return ray.data.read_parquet(path, columns=["url", "html", "lang"], **kw)


def sentences_dataset(pages: "ray.data.Dataset") -> "ray.data.Dataset":
    return (
        pages.map_batches(extract.filter_english, batch_format="pyarrow")
        .map_batches(extract.extract_batch, batch_format="pyarrow")
        .map_batches(extract.sentencize_batch, batch_format="pyarrow")
    )


def linked_docs_dataset(
    pages: "ray.data.Dataset",
    config: KGConfig = DEFAULT_CONFIG,
    company_db: pa.Table | None = None,
    db_ref=None,
) -> "ray.data.Dataset":
    """Page rows (url, html, lang) → linked
    per-document verdict rows, through one ``PageKGActor`` stage run as
    Ray tasks. The company DB is broadcast once via ``ray.put`` (pass
    ``db_ref`` to reuse a ref across executions) and linked inline.

    The stage is a ``PageKGActor`` instance, not the class, so Ray Data
    runs it on its task pool: task workers keep the models in a
    per-process cache across executions. It takes whole blocks
    (``batch_size=None``), so it fuses with the page read in front of it
    (:func:`read_pages`) and the stateless maps behind it. ``num_gpus``
    (and a batch size, which Ray requires with it) is requested only
    when ``config.actor_num_gpus`` is set.

    The plan runs without Ray Data's per-operator reservation. The
    setting goes on ``pages.context``, which the whole lineage shares (a
    read copies the global context), so the global ``DataContext`` keeps
    its defaults. With the reservation on, the page operator got one CPU
    slot: at most one ``PageKGActor`` call ran at a time behind the
    dedup exchange's sort barrier, on a 2- and a 4-CPU session, and in a
    200-page triple-store merge. With it off, the page tasks run on
    every CPU. perfbench, 2-CPU session on a 4-vCPU host, medians of 10
    pairs: ``crawl_build`` (1 500 pages) went from 443 to 728 pages/s
    when the reservation came off behind the exchange; with the read
    fused and the reservation off in every page-stage plan, a 200-page
    ``delta_ingest`` merge went from 0.61 to 0.37 s and ``crawl_build``
    from 829 to 1 018 pages/s. Both parts are needed: in a probe of
    each alone, a merge's page calls still ran one at a time (a separate
    read operator held a CPU slot while the page tasks waited for its
    blocks). In Ray 2.49 the
    reservation is also the only object-store backpressure, but a fused
    page read puts no page bytes into the object store: each task reads
    its row groups one at a time and emits doc rows."""
    from ..stages.fused import PageKGActor

    if db_ref is None:
        db_ref = ray.put(
            company_db if company_db is not None else company_db_table()
        )
    pages.context.op_resource_reservation_enabled = False
    kw = (
        {"num_gpus": config.actor_num_gpus, "batch_size": 64}
        if config.actor_num_gpus
        else {"batch_size": None}
    )
    return pages.map_batches(
        PageKGActor(config, db_ref=db_ref), batch_format="pyarrow", **kw
    )


def _with_columns(
    ds: "ray.data.Dataset", empty: pa.Table
) -> "ray.data.Dataset":
    """``ds`` plus ``empty``, a block with no rows and ``ds``'s columns.

    Ray 2.49 calls no ``map_batches`` UDF on an empty block and passes
    the block on without columns, so a plan whose blocks all come out
    empty (pages with no English page) had no schema. The typed block
    keeps the triple columns in ``schema()`` whatever the input."""
    return ds.union(ray.data.from_arrow(empty))


def doc_triples_dataset(
    linked: "ray.data.Dataset", config: KGConfig = DEFAULT_CONFIG
) -> "ray.data.Dataset":
    """Linked doc rows → per-document triple rows, meta rows included."""
    return linked.map_batches(
        functools.partial(to_triples_batch, config=config), batch_format="pyarrow"
    )


def triples_dataset(
    linked: "ray.data.Dataset", config: KGConfig = DEFAULT_CONFIG
) -> "ray.data.Dataset":
    keys = ["subj", "pred", "obj"]
    return _with_columns(
        salted_dedup(doc_triples_dataset(linked, config), keys),
        partial_dedup_batch(TRIPLES_SCHEMA.empty_table(), keys),
    )


class AliasExtractActor:
    """Alias-detection stage state (tagger) loaded ONCE per actor in
    ``__init__`` — the same load-once contract as every other model
    stage (r4 verdict #2: the old form built the page stage's models
    on the DRIVER and pickled them into a map-fn default argument, which
    with real weights would ship the models inside the function blob
    and bypass the contract the backend suite proves). Per batch:
    tag each sentence, enumerate alias candidates next to tagged
    entities, keep pairs passing the similarity filter (reference
    reporter.py:347-385 alias-item semantics)."""

    def __init__(self, config: KGConfig = DEFAULT_CONFIG):
        from ..functions.grouping import detect_alias_candidates, filter_aliases
        from ..functions.names import similarity
        from ..stages.ner import make_tagger

        self.config = config
        self.tagger = make_tagger(config)
        self._detect = detect_alias_candidates
        self._filter = filter_aliases
        self._sim = similarity

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls, targets, aliases = [], [], []
        for url, sent in zip(
            batch["url"].to_pylist(), batch["sent"].to_pylist()
        ):
            spans = self.tagger.spans(sent)
            if not spans:
                continue
            ents = sorted({sp["text"] for sp in spans})
            for t, a in self._filter(
                self._detect(sent, ents),
                self._sim,
                self.config.alias_sim_threshold,
            ):
                urls.append(url)
                targets.append(t)
                aliases.append(a)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "target": pa.array(targets, pa.string()),
                "alias": pa.array(aliases, pa.string()),
            }
        )


def alias_items_dataset(
    pages_path: str,
    config: KGConfig = DEFAULT_CONFIG,
    company_db: pa.Table | None = None,
    read_blocks: int | None = None,
) -> "ray.data.Dataset":
    """Alias items — the reference's second KG output type (alias
    DynamoDB items keyed ``alias#<cik>`` after linking,
    reporter.py:347-385): one row per (url, target, alias) pair
    detected and accepted by the alias filter, deduplicated within
    document, then LINKED — the alias target resolves against the
    company DB (broadcast, same Linker as the triple path) and the item
    key becomes ``alias#<entity_id>#<alias>`` with a
    ``url#<url>#<alias>`` sort key. Deviation from the reference,
    documented: the reference keys by the FILER's cik (filing metadata
    Common-Crawl pages don't have); we key by the alias target's linked
    entity id, which is the canonical-entity attachment a KG consumer
    needs. Unlinked targets keep a null entity_id and an
    ``alias#unlinked#...`` key."""
    pages = read_page_columns(pages_path, read_blocks)
    sentences = sentences_dataset(pages)

    ds = sentences.map_batches(
        AliasExtractActor,
        fn_constructor_kwargs={"config": config},
        batch_format="pyarrow",
        batch_size=config.ner_batch_size,
        concurrency=config.ner_concurrency,
        **actor_resources(config),
    )
    # within-url dedup via the combiner pattern
    def combine(batch: pa.Table) -> pa.Table:
        seen = sorted(
            {(u, t, a) for u, t, a in zip(
                batch["url"].to_pylist(),
                batch["target"].to_pylist(),
                batch["alias"].to_pylist(),
            )}
        )
        return pa.table(
            {
                "url": pa.array([x[0] for x in seen], pa.string()),
                "target": pa.array([x[1] for x in seen], pa.string()),
                "alias": pa.array([x[2] for x in seen], pa.string()),
            }
        )

    deduped = ds.map_batches(combine, batch_format="pyarrow").groupby(
        ["url", "target", "alias"]
    ).count().select_columns(["url", "target", "alias"])

    db_ref = ray.put(company_db if company_db is not None else company_db_table())

    class LinkAliasActor:
        def __init__(self):
            from ..stages.link import Linker

            self.linker = Linker(ray.get(db_ref), config)

        def __call__(self, batch: pa.Table) -> pa.Table:
            eids, keys, sks = [], [], []
            for url, target, alias in zip(
                batch["url"].to_pylist(),
                batch["target"].to_pylist(),
                batch["alias"].to_pylist(),
            ):
                eid, _, _ = self.linker.link(target)
                eids.append(eid)
                keys.append(f"alias#{eid if eid else 'unlinked'}#{alias}")
                sks.append(f"url#{url}#{alias}")
            return (
                batch.append_column("entity_id", pa.array(eids, pa.string()))
                .append_column("item_key", pa.array(keys, pa.string()))
                .append_column("sort_key", pa.array(sks, pa.string()))
            )

    return deduped.map_batches(
        LinkAliasActor,
        batch_format="pyarrow",
        batch_size=config.link_batch_size,
        concurrency=config.link_concurrency,
        **actor_resources(config),
    )


ITEM_SCHEMA = pa.schema(
    [
        ("pk", pa.string()),
        ("sk", pa.string()),
        ("item_type", pa.string()),
        ("extracted_name", pa.string()),
        ("extracted_name_id", pa.string()),
        ("candidate_ids", pa.list_(pa.string())),
        ("representative_name", pa.string()),
        ("reporter_name", pa.string()),
        ("relationship_label", pa.string()),
        ("prediction_score", pa.float64()),
        ("sentence_ids", pa.list_(pa.int64())),
    ]
)


def relation_items_dataset(
    pages_path: str,
    config: KGConfig = DEFAULT_CONFIG,
    company_db: pa.Table | None = None,
    read_blocks: int | None = None,
) -> "ray.data.Dataset":
    """Per-document relationship ITEMS — the reference's primary KV
    output shape (reporter.py:30-73: PK per filing, SK per company,
    extractedName(+Id/Candidates), representativeName, sentenceIds,
    relationshipLabel, predictionScore). Common-Crawl analog: PK =
    ``page#<url>`` (pages have no accession number), values from the
    linked per-doc verdict stream."""
    pipeline = linked_docs_dataset(
        read_pages(pages_path, read_blocks), config, company_db
    )

    def to_items(batch: pa.Table) -> pa.Table:
        out = {n: [] for n in ITEM_SCHEMA.names}
        for row in batch.to_pylist():
            if row["relation"] in ("_error", "_meta_dropped"):
                continue
            out["pk"].append(f"page#{row['url']}")
            out["sk"].append(row["company"])
            out["item_type"].append("relationship")
            out["extracted_name"].append(row["company"])
            out["extracted_name_id"].append(row.get("entity_id") or "null")
            out["candidate_ids"].append(row.get("candidate_ids") or [])
            out["representative_name"].append(
                row.get("entity_name_db") or "null"
            )
            out["reporter_name"].append(row["reporter"])
            out["relationship_label"].append(row["relation"])
            out["prediction_score"].append(round(float(row["score"]), 3))
            out["sentence_ids"].append(row["sentence_ids"])
        return pa.table(
            {n: pa.array(out[n], type=ITEM_SCHEMA.field(n).type)
             for n in ITEM_SCHEMA.names}
        )

    return pipeline.map_batches(to_items, batch_format="pyarrow")


def write_kv_items(
    items: "ray.data.Dataset", out_dir: str, num_buckets: int | None = None
) -> None:
    """S11 KV batch sink (parquet substitute for the DynamoDB
    batch_write the environment has no endpoint for): items land in
    ``bucket=<crc32(pk)%B>/`` hive partitions — the key-range sharding
    a KV bulk-loader consumes shard-by-shard with idempotent re-puts;
    the distributed write never funnels through the driver."""
    import zlib

    from ..config import exchange_fanout

    num_buckets = exchange_fanout(num_buckets)

    def add_bucket(batch: pa.Table) -> pa.Table:
        # crc32, not pd.util.hash: the bucket is a PERSISTED partition
        # key (state/table.route rationale — cross-job stability)
        b = [
            zlib.crc32(k.encode("utf-8")) % num_buckets
            for k in batch["pk"].to_pylist()
        ]
        return batch.append_column("bucket", pa.array(b, pa.int32()))

    items.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )


def build_kg_pipeline(
    pages_path: str,
    config: KGConfig = DEFAULT_CONFIG,
    company_db: pa.Table | None = None,
    dedup: bool = True,
    read_blocks: int | None = None,
) -> "ray.data.Dataset":
    """pages parquet → deduplicated canonical triples Dataset (lazy).

    The input is one row per document, so the per-document work is
    local: one ``PageKGActor`` task stage does extract → sentencize →
    score → doc-aggregate → link, and the only exchange is the
    combiner-first triple dedup (``dedup=False`` skips it and returns
    the per-document triple rows, meta rows included). ``read_blocks``
    is the number of page tasks (:func:`read_pages`).
    """
    linked = linked_docs_dataset(
        read_pages(pages_path, read_blocks), config, company_db
    )
    if not dedup:
        return _with_columns(
            doc_triples_dataset(linked, config), TRIPLES_SCHEMA.empty_table()
        )
    return triples_dataset(linked, config)


# ---------------------------------------- composed crawl flagship ----


def kg_from_crawl(
    pages_path: str,
    config: KGConfig = DEFAULT_CONFIG,
    company_db: pa.Table | None = None,
) -> "ray.data.Dataset":
    """The full-crawl composition the north star describes: URL-CANONICAL
    DEDUP (keep the newest snapshot per page — web.url_keep_latest_pages_ds,
    the same winner fold the SQL-oracled url_dedup_pages gate checks)
    runs BEFORE extraction, then the page-local KG pipeline consumes the
    winner rows. At crawl scale this is mandatory ordering: recrawled
    snapshots would otherwise pay NER/RE inference per copy and leak
    stale relations into the triple store; deduping first makes the
    expensive model stage see each page exactly once, and the
    triple witness urls come out CANONICAL.

    Triples are exactly ``build_kg_pipeline`` over the winner snapshots
    (pytest-oracled against the pure-Python oracle on formula-derived
    winner pages, including a planted case where a stale snapshot
    carries different html — tests/test_kg_from_crawl.py)."""
    from .web import url_keep_latest_pages_ds

    winners = url_keep_latest_pages_ds(
        pages_path, columns=["html", "lang"]
    )

    page_schema = pa.schema(
        [("url", pa.string()), ("html", pa.binary()), ("lang", pa.string())]
    )

    def to_pages(batch: pa.Table) -> pa.Table:
        return batch.select(["url", "html", "lang"]).cast(page_schema)

    # the fold's output keeps its read's block count, one block for a
    # small crawl, which would run the whole page stage as one task;
    # split it, three blocks per CPU (each block is one page call)
    pages = winners.repartition(default_read_blocks()).map_batches(
        to_pages, batch_format="pyarrow"
    )
    linked = linked_docs_dataset(pages, config, company_db)
    return triples_dataset(linked, config)


def pages_with_recrawl_content_parquet_for(sf_dir: str) -> str:
    """Fixture for the crawl composition (cached): the synthesized pages
    plus DETERMINISTIC content-differing recrawls — ``doc_id % 7 == 3``
    gains a LATER snapshot (+3600 s) under the messy url variant
    ``http://WWW.example{N}.com:80/page/{id}`` whose html keeps only the
    FIRST paragraph (a page that shrank between crawls). Dedup-before-
    extract is therefore OBSERVABLE in the triples: processing both
    snapshots (or the wrong winner) yields different relations than the
    newest-snapshot corpus. Winner formula is replayed by the pytest
    oracle (tests/test_kg_from_crawl.py)."""
    import os
    import re as _re

    import numpy as np
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from ..sources.pages import pages_parquet_for

    base_path = pages_parquet_for(sf_dir)
    out_dir = os.path.normpath(base_path) + "-recrawl"
    marker = os.path.join(out_dir, "pages.parquet")
    if os.path.isfile(marker):
        return marker
    t = pads.dataset(base_path).to_table()
    df = t.to_pandas()
    import pandas as pd

    doc_id = df["url"].str.extract(r"/page/(\d+)$")[0].astype(np.int64)
    dom = df["url"].str.extract(r"^https://([^/]+)/")[0]
    sel = (doc_id % 7 == 3).to_numpy()
    re_rows = df[sel].copy()
    first_p = _re.compile(rb"(.*?<p>.*?</p>).*(<footer>.*)", _re.DOTALL)
    re_rows["html"] = [
        first_p.sub(rb"\1\2", h) for h in re_rows["html"]
    ]
    re_rows["url"] = (
        "http://WWW." + dom[sel] + ":80/page/" + doc_id[sel].astype(str)
    )
    re_rows["warc_ts"] = re_rows["warc_ts"] + pd.Timedelta(seconds=3600)
    allrows = pd.concat([df, re_rows], ignore_index=True)
    out = pa.Table.from_pandas(allrows, preserve_index=False).cast(t.schema)
    os.makedirs(out_dir, exist_ok=True)
    tmp = marker + ".tmp"
    pq.write_table(out, tmp, row_group_size=1024)
    os.replace(tmp, marker)
    return marker


# ------------------------------------------ alias planted fixture ----
# Alias pairs planted by pages_with_alias_sentences_parquet_for — the
# subset of sources/pages._PAIRS_WITH_ABBR that (a) the alias
# detect+filter accepts and (b) the company-DB linker resolves
# ('3M Company' fails the similarity filter, 'Raytheon Technologies'
# does not link) — FROZEN here because the SQL oracle embeds the pool
# as literals; a pytest asserts
# every frozen pair still passes detection, filtering and linking, so
# drift fails loudly instead of hash-mismatching confusingly.
ALIAS_PLANT_EXCLUDED = ("3M Company", "Raytheon Technologies")


def alias_plant_pairs() -> list[tuple[str, str]]:
    from ..sources.pages import _PAIRS_WITH_ABBR

    return [
        (f, a) for f, a in _PAIRS_WITH_ABBR if f not in ALIAS_PLANT_EXCLUDED
    ]


def pages_with_alias_sentences_parquet_for(sf_dir: str) -> str:
    """Alias-planted pages table (cached): FULLY formula-derived pages
    (no rng — organic quote/or-alias sentences of the synthesized
    corpus are seeded-random and would not be SQL-replayable) carrying
    exactly one alias-pattern sentence each:

        ``PAIRS[doc_id % 44].full ("PAIRS[...].abbr") supplied
        components to POOL[(doc_id*11 + 5) % 61].``

    — so alias DETECTION (M3), FILTERING (M4) and LINKING (J2/S12) all
    sit under the driver's hard hash signal: the oracle replays the
    formula with the pair pool (and each pair's company-DB rgid) as
    literals. The builder VERIFIES the plant: every distinct
    (pair, other) combination is run through the real actor once and
    must yield exactly its (full, abbr) row."""
    import pyarrow.dataset as pads

    from ..sources.pages import _DEFAULT_FULL_NAMES, pages_parquet_for

    base_path = pages_parquet_for(sf_dir)
    out_dir = os.path.normpath(base_path) + "-alias1"
    marker = os.path.join(out_dir, "pages.parquet")
    if os.path.isfile(marker):
        return marker
    t = pads.dataset(base_path).to_table()
    n = t.num_rows
    pairs = alias_plant_pairs()
    pool = _DEFAULT_FULL_NAMES

    import numpy as np

    doc_id = np.arange(n, dtype=np.int64)
    pi = doc_id % len(pairs)
    oi = (doc_id * 11 + 5) % len(pool)

    # verify every distinct (pair, other) combo through the REAL actor
    combos = sorted({(int(a), int(b)) for a, b in zip(pi, oi)})
    sents = [
        f'{pairs[a][0]} ("{pairs[a][1]}") supplied components to {pool[b]}.'
        for a, b in combos
    ]
    probe = AliasExtractActor()(
        pa.table(
            {
                "url": pa.array([str(i) for i in range(len(combos))]),
                "sent_id": pa.array(range(len(combos)), pa.int64()),
                "sent": pa.array(sents, pa.string()),
            }
        )
    ).to_pandas()
    got = list(
        zip(probe["url"].astype(int), probe["target"], probe["alias"])
    )
    exp = [(i, pairs[a][0], pairs[a][1]) for i, (a, _) in enumerate(combos)]
    if got != exp:
        raise AssertionError(
            "alias plant verification failed — a planted combination "
            f"does not round-trip the detect/filter path: {got[:3]!r} vs "
            f"{exp[:3]!r}"
        )

    urls = [f"https://example{d % 127}.com/page/{d}" for d in doc_id]
    tss = (
        np.datetime64("2024-01-01", "us") + doc_id.astype("timedelta64[s]")
    )
    htmls = [
        (
            "<html><head><title>t</title></head><body><nav>n</nav>"
            f"<p>{pairs[a][0]} (\"{pairs[a][1]}\") supplied components "
            f"to {pool[b]}.</p>"
            "<footer>(c) 2024 Example Media. All rights reserved."
            "</footer></body></html>"
        ).encode("utf-8")
        for a, b in zip(pi, oi)
    ]
    out = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array([""] * n, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    ).cast(t.schema)
    os.makedirs(out_dir, exist_ok=True)
    tmp = marker + ".tmp"
    pq.write_table(out, tmp, row_group_size=1024)
    os.replace(tmp, marker)
    return marker


def alias_items_planted(sf_dir: str) -> "ray.data.Dataset":
    """Driver-gate query: the full alias-items pipeline (detect →
    filter → within-doc dedup → company-DB link → item keys) over the
    alias-planted pages; every stage is under the hash signal via
    :func:`alias_items_oracle`'s formula replay."""
    return alias_items_dataset(
        pages_with_alias_sentences_parquet_for(sf_dir)
    )


def alias_items_oracle() -> str:
    """Formula replay of :func:`alias_items_planted`: one row per
    document; (target, alias, entity_id) come from the frozen planted
    pool joined on ``doc_id % 44``, with each pair's company-DB rgid
    embedded as a literal (pure DB data — normalizedname → rgid; the
    LINKER resolving the target to exactly that rgid is what the hash
    match checks). Key formulas mirror the engine's
    ``alias#<rgid>#<alias>`` / ``url#<url>#<alias>``."""
    from ..gazetteer import company_db_table, normalize_name

    pairs = alias_plant_pairs()
    db = company_db_table()
    dbmap = dict(
        zip(db["normalizedname"].to_pylist(), db["rgid"].to_pylist())
    )
    rows = []
    for i, (full, abbr) in enumerate(pairs):
        rgid = dbmap[normalize_name(full)]
        if "'" in full or "'" in abbr:
            raise ValueError("planted alias name contains a quote")
        rows.append(f"({i}, '{full}', '{abbr}', '{rgid}')")
    values = ", ".join(rows)
    return f"""
        WITH pairs(idx, target, alias, entity_id) AS (
            SELECT * FROM (VALUES {values}) p(idx, target, alias, entity_id)
        )
        SELECT 'https://example' || CAST(d.doc_id % 127 AS VARCHAR)
                   || '.com/page/' || CAST(d.doc_id AS VARCHAR) AS url,
               p.target,
               p.alias,
               p.entity_id,
               'alias#' || p.entity_id || '#' || p.alias AS item_key,
               'url#https://example' || CAST(d.doc_id % 127 AS VARCHAR)
                   || '.com/page/' || CAST(d.doc_id AS VARCHAR)
                   || '#' || p.alias AS sort_key
        FROM documents d
        JOIN pairs p ON p.idx = d.doc_id % {len(pairs)}
    """
