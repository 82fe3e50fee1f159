"""Fused per-page model stage: NER + alias/grouping + SC gate +
pair enumeration/tagging + RE scoring (with reverse ensemble and
position averaging), per-document aggregation and entity linking in ONE
``map_batches`` UDF — the one physical plan of ``build_kg_pipeline``.

Why fuse: the composable stages (stages/ner.py, stages/scoring.py,
stages/doc_agg.py, stages/link.py) would serialize spans/org_groups/
aliases (Arrow list<struct>) and tagged variant strings between every
stage — at 10^12 docs that intermediate traffic dwarfs the compute when
models are cheap. The fused stage keeps all per-page state in-process:
the input is one row per document, so every pair of a document is
produced, position-averaged and aggregated locally.

The stage runs as Ray tasks, not an actor pool: ``PageKGActor`` is a
cheap picklable instance, and its models and linker live in
module-level caches of the worker process. Task workers outlive a
Dataset execution, so a worker loads its models once per session and
no execution waits for an actor process to start.

The composable stages remain the documented seam (real GPU models would
run NER and RE on separate pools): ``oracle/kg_oracle.py`` composes
them, and tests/test_pipeline_e2e.py holds this stage's pipeline equal
to that oracle.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, KGConfig
from ..functions.grouping import detect_alias_candidates, filter_aliases, group_entities
from ..functions.names import encode_names, similarity
from ..functions.tagging import entity_annotation, inverse_relations
from .ner import ALIAS_T, ORG_GROUP_T, make_tagger
from .scoring import _SUPPLY_RE, _representative, make_scorer, prepare_for_scoring
from .schema import check_schema

SCORED_PAIRS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("sent_id", pa.int64()),
        ("r_id", pa.string()),
        ("entity1", pa.string()),
        ("entity2", pa.string()),
        ("scores", pa.list_(pa.float32(), 3)),
        ("org_groups", pa.list_(ORG_GROUP_T)),
        ("aliases", pa.list_(ALIAS_T)),
    ]
)


class SentencePairScorer:
    """Per-sentence model state (tagger, RE scorer, tokenizer) and the
    sentence → position-averaged scored pair rows step that
    ``PageKGActor`` runs per page (``build_training_data`` reuses its
    models)."""

    def __init__(self, config: KGConfig = DEFAULT_CONFIG, reverse: bool = True):
        from ..functions.tokenizer import StubTokenizer

        self.config = config
        self.reverse = reverse
        self.tagger = make_tagger(config)
        self.re_model = make_scorer(config)
        self.supply_re = _SUPPLY_RE
        self.tokenizer = StubTokenizer(config.max_token_len)
        self.n_dropped_markers = 0  # cumulative M10 drop count

    def _score(self, tagged: str) -> list[float]:
        fwd = self.re_model.score(tagged)
        if self.reverse:
            rev = self.re_model.score(inverse_relations(tagged))
            fwd = [
                (fwd[0] + rev[1]) / 2.0,
                (fwd[1] + rev[0]) / 2.0,
                (fwd[2] + rev[2]) / 2.0,
            ]
        return fwd

    def score_sentence(self, url: str, sent_id: int, sent: str, out: dict) -> int:
        """Score one cleaned sentence, appending pair rows to ``out``
        (column lists in SCORED_PAIRS_SCHEMA order). Returns the number
        of variants dropped by the M10 marker-survival check."""
        cfg = self.config
        dropped = 0
        # SC gate first (cheapest): negative sentences short-circuit
        # before the NER model runs — at scale with a real SC model the
        # gate ordering follows the reference (NER feeds SC), but
        # gate-vs-NER order is commutative on the kept set
        if self.supply_re.search(sent) is None:
            return 0
        spans = self.tagger.spans(sent)
        if not spans:
            return 0
        ents = sorted({sp["text"] for sp in spans})
        cand = detect_alias_candidates(sent, ents)
        filtered = filter_aliases(cand, similarity, cfg.alias_sim_threshold)
        ents_vec = dict(zip(ents, encode_names(ents)))
        groups = group_entities(
            ents, filtered, filtered, ents_vec, cfg.group_threshold
        )
        gids: dict[int, list[str]] = {}
        for name, gid in groups.items():
            gids.setdefault(gid, []).append(name)
        if len(gids) < 2:
            return 0
        group_ids = sorted(gids)
        reps = {g: _representative(gids[g]) for g in group_ids}
        org_groups_cells = [{"name": k, "gid": v} for k, v in groups.items()]
        alias_cells = [{"target": t, "alias": a} for t, a in filtered]
        pair_i = 0
        for a in range(len(group_ids)):
            for b in range(a + 1, len(group_ids)):
                e1, e2 = reps[group_ids[a]], reps[group_ids[b]]
                variants = entity_annotation(sent, e1, e2, groups, cfg.num_positions)
                # M8/M10 front half — same gate as the composable
                # ReScorerActor, so the pipeline and the oracle drop
                # identical variants
                texts = []
                for t in variants:
                    prepared = prepare_for_scoring(
                        t, org_groups_cells, cfg, self.tokenizer
                    )
                    if prepared is None:
                        dropped += 1
                    else:
                        texts.append(prepared)
                if texts:
                    vs = [self._score(t) for t in texts]
                    inv_n = 1.0 / len(vs)
                    sc = [sum(col) * inv_n for col in zip(*vs)]
                    out["url"].append(url)
                    out["sent_id"].append(sent_id)
                    out["r_id"].append(f"{sent_id}_{pair_i}")
                    out["entity1"].append(e1)
                    out["entity2"].append(e2)
                    out["scores"].append(sc)
                    out["org_groups"].append(org_groups_cells)
                    out["aliases"].append(alias_cells)
                pair_i += 1
        self.n_dropped_markers += dropped
        return dropped


# Per-process caches of the page stage. A task worker outlives a
# Dataset execution, so it loads its models and builds its linker once
# per session instead of once per execution. Each cache holds ONE
# entry, cleared before the next load: a worker keeps one model set
# resident (as a real model on a GPU must) and a new company DB
# replaces the old linker.
_SCORER: dict[tuple[KGConfig, bool], SentencePairScorer] = {}
_LINKER: dict[tuple, tuple] = {}


def _cached(cache: dict, key, load):
    hit = cache.get(key)
    if hit is None:
        cache.clear()
        hit = cache[key] = load()
    return hit


def _linker(db_ref, config: KGConfig):
    """The linker for ``db_ref``. A broadcast DB is keyed by its ref's
    hex id, never the ref itself, so the cache does not keep an old DB
    alive in the object store; an in-process table is kept beside its
    linker, so its id() cannot be reused while the entry lives."""
    in_process = isinstance(db_ref, pa.Table)

    def load():
        import ray

        from .link import Linker

        if in_process:
            return Linker(db_ref, config), db_ref
        return Linker(ray.get(db_ref), config), None

    key = id(db_ref) if in_process else db_ref.hex()
    return _cached(_LINKER, (key, config), load)[0]


class PageKGActor:
    """Page-stage UDF: (url, html, lang) page rows → per-document
    verdict rows, with extraction, sentencizing, scoring, the
    per-document aggregation and (given ``db_ref``, a ``ray.put`` ref or
    an in-process ``pa.Table``) entity linking all in-process.

    Legitimate because the input is ONE ROW PER DOCUMENT — every pair of
    a document is produced locally, so the per-document aggregation
    needs no groupby(url) exchange.

    An instance holds only ``(config, reverse, db_ref)``: it is cheap to
    build and pickle, and ``map_batches`` runs it as tasks. Models and
    the linker come from the per-process caches above. Keep the class
    name: perfbench finds the stage by it in Ray Data operator names.
    """

    def __init__(
        self,
        config: KGConfig = DEFAULT_CONFIG,
        reverse: bool = True,
        db_ref=None,
    ):
        self.config = config
        self.reverse = reverse
        self.db_ref = db_ref

    def __call__(self, batch: pa.Table) -> pa.Table:  # noqa: D102
        from ..functions.clean import clean_text
        from ..functions.textops import sentencize
        from .extract import extract_text
        from .doc_agg import DOC_RELATIONS_SCHEMA, _AGG_COLS, _aggregate_doc_into

        agg_out = {k: [] for k in DOC_RELATIONS_SCHEMA.names}
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else ["en"] * batch.num_rows
        )
        # optional partition lineage: when the partitioned runner tags
        # pages with a ``__part`` file-group id, every emitted doc row
        # inherits its page's part so one chunk-wide execution can
        # still write/mark parts independently (pipelines/run.py)
        parts = (
            batch["__part"].to_pylist()
            if "__part" in batch.column_names
            else None
        )
        scorer = _cached(
            _SCORER,
            (self.config, self.reverse),
            lambda: SentencePairScorer(self.config, self.reverse),
        )
        out_parts: list[int] = []
        dead: list[dict] = []
        for row_i, (url, html, lang) in enumerate(zip(
            batch["url"].to_pylist(), batch["html"].to_pylist(), langs
        )):
            n_before = len(agg_out["url"])
            if lang != "en":
                continue
            # poison-row quarantine (SURVEY.md §4): one malformed page
            # (bad utf-8, pathological markup) must not kill the job —
            # it becomes a dead-letter row the sink routes aside. The
            # reference records failed file ids and moves on
            # (glue_etl.py:411-414); per-row quarantine is the
            # streaming-native equivalent.
            try:
                cols = {k: [] for k in SCORED_PAIRS_SCHEMA.names}
                page_drops = 0
                for sent_id, raw in enumerate(sentencize(extract_text(html))):
                    page_drops += scorer.score_sentence(
                        url, sent_id, clean_text(raw), cols
                    )
                if cols["url"]:
                    _aggregate_doc_into(
                        {c: cols[c] for c in _AGG_COLS}, agg_out, self.config
                    )
                if page_drops:
                    # M10 drop accounting rides the stream as a meta
                    # row (like the _error dead-letter channel):
                    # to_triples turns it into a pred="_dropped_markers"
                    # row the partitioned runner records per part and
                    # excludes from output
                    agg_out["url"].append(url)
                    agg_out["reporter"].append("")
                    agg_out["company"].append("")
                    agg_out["relation"].append("_meta_dropped")
                    agg_out["score"].append(0.0)
                    agg_out["sentence_ids"].append([])
                    agg_out["n_pairs"].append(page_drops)
            except Exception as exc:  # noqa: BLE001 — quarantine, don't crash
                dead.append(
                    {
                        "url": url,
                        "reporter": "",
                        "company": type(exc).__name__,
                        "relation": "_error",
                        "score": 0.0,
                        "sentence_ids": [],
                        "n_pairs": 0,
                        "__part": parts[row_i] if parts is not None else None,
                    }
                )
            if parts is not None:
                out_parts.extend(
                    [parts[row_i]] * (len(agg_out["url"]) - n_before)
                )
        for d in dead:
            for k in DOC_RELATIONS_SCHEMA.names:
                agg_out[k].append(d[k])
            if parts is not None:
                out_parts.append(d["__part"])
        out = pa.table(
            {name: pa.array(agg_out[name],
                            type=DOC_RELATIONS_SCHEMA.field(name).type)
             for name in DOC_RELATIONS_SCHEMA.names}
        )
        check_schema(out, DOC_RELATIONS_SCHEMA, "page_kg")
        if parts is not None:
            out = out.append_column("__part", pa.array(out_parts, pa.int32()))
        if self.db_ref is not None:
            out = _linker(self.db_ref, self.config).link_batch(out)
        return out
