"""Single-process replay of a workload's pages through the public stage
functions, with a span around each call into a layer.

The stages are composed the way ``oracle/kg_oracle.py`` composes them
(extract → sentencize → NER → SC gate → pair enumeration → RE scorer →
per-document aggregation → linking → triples), in batches of 64 pages,
followed by the shuffle layer's combiner and merge kernels. A second
pass runs the fused ``PageKGActor`` over the same batches. No Ray is
involved: this is the single-threaded baseline, and its spans give the
per-layer self times.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from finance_sc_relations_ray.config import KGConfig
from finance_sc_relations_ray.gazetteer import company_db_table
from finance_sc_relations_ray.stages import extract, ner, scoring
from finance_sc_relations_ray.stages.doc_agg import aggregate_doc
from finance_sc_relations_ray.stages.fused import PageKGActor
from finance_sc_relations_ray.stages.link import Linker
from finance_sc_relations_ray.stages.shuffle import (
    _merge_bucket,
    partial_dedup_batch,
)
from finance_sc_relations_ray.stages.triples import to_triples_batch

from tracing import Tracer

BATCH = 64
KEYS = ["subj", "pred", "obj"]


def replay_stages(pages: pa.Table, config: KGConfig, tr: Tracer) -> dict:
    """Composable-stage replay; returns the per-layer counts."""
    c = dict.fromkeys(
        ["pages", "sentences", "spans", "gated", "re_calls",
         "variants_dropped", "doc_rows", "link_calls", "link_hits",
         "triples", "combined"], 0)
    with tr.span("replay.init"):
        ner_actor = ner.NerActor(config)
        sc_actor = scoring.ScGateActor(config)
        re_actor = scoring.ReScorerActor(config)
        linker = Linker(company_db_table(), config)
    seen_names: set[str] = set()
    partials = []
    pages = pages.filter(pc.equal(pages["lang"], "en"))
    c["pages"] = pages.num_rows
    with tr.span("replay.stages"):
        for off in range(0, pages.num_rows, BATCH):
            batch = pages.slice(off, BATCH)
            with tr.span("extract"):
                texts = [extract.extract_text(h)
                         for h in batch["html"].to_pylist()]
                sents = extract.sentencize_batch(pa.table(
                    {"url": batch["url"],
                     "page_text": pa.array(texts, pa.string())}))
            c["sentences"] += sents.num_rows
            if sents.num_rows == 0:
                continue
            with tr.span("ner"):
                tagged = ner_actor(sents)
            c["spans"] += sum(len(s) for s in tagged["spans"].to_pylist())
            with tr.span("scoring.gate"):
                gated = scoring.gate_filter(sc_actor(tagged))
            c["gated"] += gated.num_rows
            with tr.span("scoring.pairs"):
                pairs = scoring.enumerate_pairs_batch(
                    gated, config.num_positions)
            if pairs.num_rows == 0:
                continue
            before = re_actor.n_dropped_markers
            with tr.span("scoring.re"):
                scored = re_actor(pairs)
            c["re_calls"] += pairs.num_rows
            c["variants_dropped"] += re_actor.n_dropped_markers - before
            with tr.span("doc_agg"):
                urls = scored["url"].to_pylist()
                starts = [i for i in range(len(urls))
                          if i == 0 or urls[i] != urls[i - 1]]
                docs = [
                    aggregate_doc(scored.slice(s, e - s), config)
                    for s, e in zip(starts, starts[1:] + [len(urls)])
                ]
                docs = pa.concat_tables(docs)
            c["doc_rows"] += docs.num_rows
            names = docs["company"].to_pylist() + docs["reporter"].to_pylist()
            c["link_calls"] += len(names)
            c["link_hits"] += len(names) - len(set(names) - seen_names)
            seen_names.update(names)
            with tr.span("link"):
                linked = linker.link_batch(docs)
            with tr.span("triples"):
                trip = to_triples_batch(linked, config)
            c["triples"] += trip.num_rows
            with tr.span("shuffle.combine"):
                part = partial_dedup_batch(trip, KEYS)
            c["combined"] += part.num_rows
            partials.append(part)
    if partials:
        with tr.span("shuffle.merge"):
            merged = _merge_bucket(
                pa.concat_tables(partials).to_pandas(), KEYS)
        c["merged"] = len(merged)
    return c


def replay_fused(pages: pa.Table, config: KGConfig, tr: Tracer) -> dict:
    """The fused page-local actor, run in-process on the same batches."""
    db = company_db_table()
    with tr.span("fused.init"):
        actor = PageKGActor(config, db_ref=db)
    with tr.span("replay.fused"):
        for off in range(0, pages.num_rows, BATCH):
            batch = pages.slice(off, BATCH).select(["url", "html", "lang"])
            with tr.span("fused.call"):
                actor(batch)
    return {"pages": pages.num_rows}
