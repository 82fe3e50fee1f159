"""Stage 4: NER + alias detection + per-sentence entity grouping.

A stateful actor-pool ``map_batches`` stage (reference loads spaCy
en_core_web_trf once per process, src/language_model/spacy_loader.py:115-143;
we load the tagger + encoder once per ACTOR in ``__init__``). The stub
tagger is a gazetteer longest-match regex (deterministic; the real-model
swap point is documented on :class:`NerActor`). Alias detection /
filtering / grouping reproduce spacy_loader.py:144-357 semantics (see
functions/grouping.py for the quirk-by-quirk mapping).

Scoping note: grouping uses the sentence's own filtered aliases as the
alias universe; the document-level alias closure is applied at the
per-document aggregation (stages/doc_agg.py), mirroring
reporter.py:270-277. See SURVEY.md §7.5 "Cross-record state scoping".
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..config import DEFAULT_CONFIG, KGConfig
from ..functions.grouping import detect_alias_candidates, filter_aliases, group_entities
from ..functions.names import encode_names, similarity
from ..gazetteer import all_surface_forms
from .schema import check_schema

SPAN_T = pa.struct(
    [("text", pa.string()), ("label", pa.string()), ("start", pa.int32()), ("end", pa.int32())]
)
ORG_GROUP_T = pa.struct([("name", pa.string()), ("gid", pa.int32())])
ALIAS_T = pa.struct([("target", pa.string()), ("alias", pa.string())])

NER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("sent_id", pa.int64()),
        ("sent", pa.string()),
        ("spans", pa.list_(SPAN_T)),
        ("org_groups", pa.list_(ORG_GROUP_T)),
        ("aliases", pa.list_(ALIAS_T)),
        ("num_orgs", pa.int32()),
    ]
)


class GazetteerTagger:
    """Deterministic ORG tagger: word-boundary longest-match over the
    fixed gazetteer (stub for spaCy NER — same span dict shape as
    spacy_loader.py:84-97).

    ``extra_entities`` recognizes the synthetic bench names
    (gazetteer.synthetic_entity_names) via ONE shape pattern with an
    index-range check instead of growing the alternation — per-token
    cost stays constant as the entity space scales (a real NER model's
    cost is entity-count independent; a 10k-way regex alternation's is
    not)."""

    def __init__(
        self, surfaces: list[str] | None = None, extra_entities: int = 0
    ):
        surfaces = surfaces or all_surface_forms()
        self.extra_entities = extra_entities
        alts = [re.escape(s) for s in sorted(surfaces, key=len, reverse=True)]
        if extra_entities:
            alts.insert(0, r"Synthco (\d{6}) Industries")
        self._re = re.compile(rf"\b(?:{'|'.join(alts)})\b")

    def spans(self, sent: str) -> list[dict]:
        out = []
        for m in self._re.finditer(sent):
            if m.lastindex and m.group(1) is not None:
                if int(m.group(1)) >= self.extra_entities:
                    continue  # shaped like a synthetic name, not issued
            out.append(
                {"text": m.group(0), "label": "ORG",
                 "start": m.start(), "end": m.end()}
            )
        return out


_CORP_SUFFIX_TOKENS = (
    "Inc", "Corp", "Corporation", "Company", "Co", "Ltd", "Limited",
    "LLC", "Industries", "Holdings", "Group", "Technologies", "Systems",
    "AG", "Enterprise", "Incorporated",
)


class HeuristicOrgTagger:
    """Second NER backend (M2' — the reference ships BOTH a spaCy and
    an HF token-classifier loader, src/language_model/spacy_loader.py vs
    trf_loader.py, behind one span interface): model-free capitalized-
    run + corporate-suffix heuristic emitting the same span dicts.

    Unlike the gazetteer it recognizes UNSEEN org names (any capitalized
    run ending in a corp suffix), so outputs differ by design — the
    pipeline contract (schema, actor shape, determinism) is what both
    backends share; pick via ``config.ner_backend``."""

    # runs of Capitalized/ALLCAPS tokens whose LAST token is a corp
    # suffix — e.g. "Acme Widget Corp", "Taiwan Semiconductor Ltd"
    _RUN_RE = re.compile(
        r"\b(?:[A-Z][\w&.]*\s+)*(?:" + "|".join(_CORP_SUFFIX_TOKENS) + r")\b"
    )

    def spans(self, sent: str) -> list[dict]:
        out = []
        for m in self._RUN_RE.finditer(sent):
            text = m.group(0).strip()
            if " " not in text:
                continue  # a bare suffix token is not an org mention
            out.append(
                {"text": text, "label": "ORG",
                 "start": m.start(), "end": m.start() + len(text)}
            )
        return out


def make_tagger(config: KGConfig):
    """Backend registry (M2/M2'): ``config.ner_backend`` selects the
    tagger class; real spaCy/HF models slot in here. Any backend must
    pass ``stages.backends.check_tagger_contract`` — "heavy_fake" is
    the real-model-sized fake proving the actor plumbing holds."""
    if config.ner_backend == "heuristic":
        return HeuristicOrgTagger()
    if config.ner_backend == "heavy_fake":
        from .backends import HeavyFakeTagger

        return HeavyFakeTagger()
    if ":" in config.ner_backend:
        # bring-your-own-weights seam: "module.path:ClassName" imports
        # and constructs INSIDE the actor's __init__ (load-once on the
        # worker — the contract `cli check-backend` validates)
        import importlib

        mod, _, cls = config.ner_backend.partition(":")
        return getattr(importlib.import_module(mod), cls)()
    return GazetteerTagger(extra_entities=config.extra_entities)


class NerActor:
    """Actor-pool callable: spans + org_groups + aliases per sentence.

    Real-model swap point: replace the tagger from ``make_tagger`` with
    a spaCy/HF pipeline and ``similarity``/``encode_names`` with a
    SimCSE encoder in ``__init__`` — the __call__ body is
    model-agnostic.
    """

    def __init__(self, config: KGConfig = DEFAULT_CONFIG):
        self.config = config
        self.tagger = make_tagger(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sents = batch["sent"].to_pylist()
        all_spans, all_groups, all_aliases, num_orgs = [], [], [], []

        # encode each batch's unique entity names once (reference encodes
        # per call corpus, spacy_loader.py:262-274 — per-sentence grouping
        # only compares co-occurring names, so results are identical)
        span_lists = [self.tagger.spans(s) for s in sents]
        uniq = sorted({sp["text"] for spans in span_lists for sp in spans})
        ents_vec = dict(zip(uniq, encode_names(uniq))) if uniq else {}

        for sent, spans in zip(sents, span_lists):
            ents = sorted({sp["text"] for sp in spans})
            cand = detect_alias_candidates(sent, ents)
            filtered = filter_aliases(
                cand, similarity, self.config.alias_sim_threshold
            )
            groups = group_entities(
                ents,
                filtered,
                filtered,  # sentence-scoped alias universe (see module doc)
                ents_vec,
                self.config.group_threshold,
            )
            all_spans.append(spans)
            all_groups.append([{"name": k, "gid": v} for k, v in groups.items()])
            all_aliases.append([{"target": t, "alias": a} for t, a in filtered])
            num_orgs.append(len(set(groups.values())))

        out = pa.table(
            {
                "url": batch["url"],
                "sent_id": batch["sent_id"],
                "sent": batch["sent"],
                "spans": pa.array(all_spans, type=pa.list_(SPAN_T)),
                "org_groups": pa.array(all_groups, type=pa.list_(ORG_GROUP_T)),
                "aliases": pa.array(all_aliases, type=pa.list_(ALIAS_T)),
                "num_orgs": pa.array(num_orgs, type=pa.int32()),
            }
        )
        return check_schema(out, NER_SCHEMA, "ner")
