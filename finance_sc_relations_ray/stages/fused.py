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

A block is scored in phases over slices of ``SLICE_PAGES`` pages, not
sentence by sentence:

1. extract, sentencize, clean and SC-gate every page of the slice;
2. one NER call (``spans_batch``) over the slice's gated sentences;
3. alias detection and grouping, per sentence;
4. every pair's tagged position variants and their marker check, with
   each sentence's group names sorted once for all its pairs;
5. one RE call (``score_batch``) over the forward and the inverted
   variant texts;
6. the reverse ensemble and position mean in plain float64, then the
   per-page aggregation.

A real model pays a fixed cost per call, so the two model calls are
made once per slice. The slice is a fixed page count rather than the
block, so the texts held for one call do not grow with the row-group
size. A page that raises becomes a dead-letter row and the rest of the
slice goes on; when a batched model call raises, the slice is re-run
page by page, so only the page whose sentence raised is lost.

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
from ..functions.tagging import annotate_pair, inverse_relations
from .backends import score_batch, spans_batch
from .doc_agg import _AGG_COLS, DOC_RELATIONS_SCHEMA, _aggregate_doc_into
from .ner import make_tagger
from .scoring import _SUPPLY_RE, _representative, make_scorer, prepare_for_scoring
from .schema import check_schema

#: pages per phase pass of the page stage: one NER and one RE call each
SLICE_PAGES = 64


class PageModels:
    """The page stage's models: NER tagger, RE scorer and tokenizer
    (loaded once per worker process, see the caches below)."""

    def __init__(self, config: KGConfig = DEFAULT_CONFIG, reverse: bool = True):
        from ..functions.tokenizer import StubTokenizer

        self.config = config
        self.reverse = reverse
        self.tagger = make_tagger(config)
        self.re_model = make_scorer(config)
        self.tokenizer = StubTokenizer(config.max_token_len)


def group_sentence(sent: str, spans: list[dict], config: KGConfig):
    """One sentence's NER spans → ``(groups, aliases, members)``: the
    entity name → group id map, the kept (target, alias) pairs and each
    group's names in group-id order; None when the sentence holds fewer
    than two groups (no pair to tag). The page stage and the training
    data share this step."""
    if not spans:
        return None
    ents = sorted({sp["text"] for sp in spans})
    cand = detect_alias_candidates(sent, ents)
    filtered = filter_aliases(cand, similarity, config.alias_sim_threshold)
    ents_vec = dict(zip(ents, encode_names(ents)))
    groups = group_entities(ents, filtered, filtered, ents_vec, config.group_threshold)
    gids: dict[int, list[str]] = {}
    for name, gid in groups.items():
        gids.setdefault(gid, []).append(name)
    if len(gids) < 2:
        return None
    return groups, filtered, [gids[g] for g in sorted(gids)]


def _page_sentences(html: bytes) -> list[tuple[int, str]]:
    """Phase 1: a page's gated sentences as (sent_id, cleaned text)."""
    from ..functions.clean import clean_text
    from ..functions.textops import sentencize
    from .extract import extract_text

    out = []
    for sent_id, raw in enumerate(sentencize(extract_text(html))):
        sent = clean_text(raw)
        # SC gate first (cheapest): negative sentences never reach the
        # NER model — gate-vs-NER order is commutative on the kept set
        if _SUPPLY_RE.search(sent) is not None:
            out.append((sent_id, sent))
    return out


def _page_pairs(url: str, sents, spans_list, models: PageModels):
    """Phases 3-4 for one page: its pair rows (the aggregation's
    columns but the scores, still to come), the variant texts to
    score, each row's variant count and the number of variants dropped
    by the M10 marker-survival check."""
    cfg, tok = models.config, models.tokenizer
    rows = {k: [] for k in _AGG_COLS if k != "scores"}
    texts: list[str] = []
    counts: list[int] = []
    dropped = 0
    for (sent_id, sent), spans in zip(sents, spans_list):
        grouped = group_sentence(sent, spans, cfg)
        if grouped is None:
            continue
        groups, aliases, members = grouped
        reps = [_representative(m) for m in members]
        names = [sorted(m, reverse=True) for m in members]
        org_groups_cells = [{"name": k, "gid": v} for k, v in groups.items()]
        alias_cells = [{"target": t, "alias": a} for t, a in aliases]
        pair_i = 0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                variants = annotate_pair(
                    sent, reps[a], reps[b], names[a], names[b], cfg.num_positions
                )
                # M8/M10 front half — same gate as the composable
                # ReScorerActor, so the pipeline and the oracle drop
                # identical variants
                kept = 0
                for t in variants:
                    prepared = prepare_for_scoring(t, org_groups_cells, cfg, tok)
                    if prepared is None:
                        dropped += 1
                    else:
                        texts.append(prepared)
                        kept += 1
                if kept:
                    rows["url"].append(url)
                    rows["sent_id"].append(sent_id)
                    rows["r_id"].append(f"{sent_id}_{pair_i}")
                    rows["entity1"].append(reps[a])
                    rows["entity2"].append(reps[b])
                    rows["org_groups"].append(org_groups_cells)
                    rows["aliases"].append(alias_cells)
                    counts.append(kept)
                pair_i += 1
    return rows, texts, counts, dropped


def _pair_scores(fwd, rev, counts) -> list[list[float]]:
    """Phase 6 front half: each pair's reverse-ensembled (R3), then
    position-averaged (R4) scores, from its variants' forward scores
    and (unless ``rev`` is None) their inverted texts' scores. The
    float64 operations and their order are fixed: the 4-decimal
    rounding and label ties downstream read these bits."""
    out = []
    i = 0
    for k in counts:
        vs = fwd[i:i + k]
        if rev is not None:
            vs = [
                [(f[0] + r[1]) / 2.0, (f[1] + r[0]) / 2.0, (f[2] + r[2]) / 2.0]
                for f, r in zip(vs, rev[i:i + k])
            ]
        inv_n = 1.0 / len(vs)
        out.append([sum(col) * inv_n for col in zip(*vs)])
        i += k
    return out


def _meta_row(agg_out: dict, url: str, company: str, relation: str, n_pairs: int):
    """A page's meta row: a dead letter or its marker-drop count."""
    for k, v in (("url", url), ("reporter", ""), ("company", company),
                 ("relation", relation), ("score", 0.0),
                 ("sentence_ids", []), ("n_pairs", n_pairs)):
        agg_out[k].append(v)


def _score_slice(pages, models: PageModels, agg_out: dict, dead: list) -> None:
    """Phases 1-6 over one slice of (url, html) pages: verdict rows go
    to ``agg_out`` and ``(url, exception)`` dead letters to ``dead``,
    both in page order. A batched model call that raises propagates,
    and nothing of the slice has been written then."""
    cfg = models.config
    errors: list[BaseException | None] = [None] * len(pages)

    def guarded(p, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 — quarantine, don't crash
            errors[p] = exc
            return None

    # phase 1: extract, sentencize, clean and gate
    sents = [guarded(p, _page_sentences, html) for p, (_, html) in enumerate(pages)]
    # phase 2: one NER call over the slice's gated sentences
    flat = [s for ps in sents if ps for _, s in ps]
    flat_spans = spans_batch(models.tagger, flat) if flat else []
    if len(flat_spans) != len(flat):
        raise ValueError(f"spans_batch returned {len(flat_spans)} results "
                         f"for {len(flat)} sentences")
    # phases 3-4: grouping, pairs, tagged variants and the marker check
    pairs = []
    pos = 0
    for p, (url, _) in enumerate(pages):
        ps = sents[p] or []
        spans = flat_spans[pos:pos + len(ps)]
        pos += len(ps)
        if errors[p] is None:
            pairs.append(guarded(p, _page_pairs, url, ps, spans, models))
        else:
            pairs.append(None)
    # phase 5: one RE call over forward (then inverted) variant texts
    texts = [t for pp in pairs if pp for t in pp[1]]
    if models.reverse:
        texts = texts + [inverse_relations(t) for t in texts]
    scores = score_batch(models.re_model, texts) if texts else []
    if len(scores) != len(texts):
        raise ValueError(f"score_batch returned {len(scores)} results "
                         f"for {len(texts)} texts")
    n = len(texts) // 2 if models.reverse else len(texts)
    # phase 6: ensemble + position mean, then per-page aggregation
    pos = 0
    for p, (url, _) in enumerate(pages):
        if pairs[p] is None:
            dead.append((url, errors[p]))
            continue
        rows, page_texts, counts, dropped = pairs[p]
        lo, pos = pos, pos + len(page_texts)
        rev = scores[n + lo:n + pos] if models.reverse else None
        try:
            if counts:
                rows["scores"] = _pair_scores(scores[lo:pos], rev, counts)
                _aggregate_doc_into(rows, agg_out, cfg)
            if dropped:
                # M10 drop accounting rides the stream as a meta row
                # (like the _error dead-letter channel): to_triples
                # turns it into a pred="_dropped_markers" row, which a
                # triple-store merge counts into its commit record and
                # keeps out of the state
                _meta_row(agg_out, url, "", "_meta_dropped", dropped)
        except Exception as exc:  # noqa: BLE001 — quarantine, don't crash
            dead.append((url, exc))


# Per-process caches of the page stage. A task worker outlives a
# Dataset execution, so it loads its models and builds its linker once
# per session instead of once per execution. Each cache holds ONE
# entry, cleared before the next load: a worker keeps one model set
# resident (as a real model on a GPU must) and a new company DB
# replaces the old linker.
_SCORER: dict[tuple[KGConfig, bool], PageModels] = {}
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
        agg_out = {k: [] for k in DOC_RELATIONS_SCHEMA.names}
        langs = (
            batch["lang"].to_pylist()
            if "lang" in batch.column_names
            else ["en"] * batch.num_rows
        )
        models = _cached(
            _SCORER,
            (self.config, self.reverse),
            lambda: PageModels(self.config, self.reverse),
        )
        pages = [
            (url, html)
            for url, html, lang in zip(
                batch["url"].to_pylist(), batch["html"].to_pylist(), langs
            )
            if lang == "en"
        ]
        dead: list[tuple[str, BaseException]] = []
        for lo in range(0, len(pages), SLICE_PAGES):
            part = pages[lo:lo + SLICE_PAGES]
            try:
                _score_slice(part, models, agg_out, dead)
            except Exception:  # noqa: BLE001 — a batched model call raised
                for page in part:
                    try:
                        _score_slice([page], models, agg_out, dead)
                    except Exception as exc:  # noqa: BLE001
                        dead.append((page[0], exc))
        # poison-row quarantine (SURVEY.md §4): one malformed page must
        # not kill the job. The reference records failed file ids and
        # moves on (glue_etl.py:411-414); a per-row dead letter
        # carrying the exception type is the streaming-native
        # equivalent
        for url, exc in dead:
            _meta_row(agg_out, url, type(exc).__name__, "_error", 0)
        out = pa.table(
            {name: pa.array(agg_out[name],
                            type=DOC_RELATIONS_SCHEMA.field(name).type)
             for name in DOC_RELATIONS_SCHEMA.names}
        )
        check_schema(out, DOC_RELATIONS_SCHEMA, "page_kg")
        if self.db_ref is not None:
            out = _linker(self.db_ref, self.config).link_batch(out)
        return out
