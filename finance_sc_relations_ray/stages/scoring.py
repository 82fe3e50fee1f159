"""Stages 5-7: supply-chain sentence gate, pair enumeration + tagging,
and the relation scorer.

- SC gate (reference src/sc_classifier/trainer.py:512-538 forward +
  src/sagemaker/re_inference.py:95-107 gating): a stateful actor stage
  scoring each sentence, then a vectorized filter
  ``supply_label == 1 AND num_orgs > 1`` (infer.py:250-251).
- Pair enumeration + ``[E1]/[E2]`` tagging (infer.py:254-288 +
  utils/preprocess.py:109-220): stateless high-fanout flat map — one
  sentence → C(n,2) pairs × position variants; ``r_id = f"{sent_id}_{pair_i}"``
  (infer.py:282 scoped per url).
- RE scorer (infer.py:135-223): actor pool; scores every variant row,
  fusing the reverse-direction ensemble (R3, infer.py:149-167 —
  score-column swap + mean) into a single pass. Position averaging (R4)
  happens at the per-document aggregation where all of a pair's
  variants are guaranteed co-located (stages/doc_agg.py).

The stub models are deterministic rule scorers behind the same actor
interface as the real BERT models (swap point = ``__init__``).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, KGConfig
from ..functions.tagging import entity_annotation, inverse_relations
from ..functions.tokenizer import tokenizer_markers_survive
from .ner import ALIAS_T, ORG_GROUP_T

SUPPLY_KEYWORDS = (
    "supplier",
    "supplied",
    "supplies",
    "supply",
    "customer",
    "customers",
    "vendor",
)
_SUPPLY_RE = re.compile("|".join(SUPPLY_KEYWORDS), re.IGNORECASE)

PAIRS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("sent_id", pa.int64()),
        ("r_id", pa.string()),
        ("pos_id", pa.int32()),
        ("entity1", pa.string()),
        ("entity2", pa.string()),
        ("tagged", pa.string()),
        ("org_groups", pa.list_(ORG_GROUP_T)),
        ("aliases", pa.list_(ALIAS_T)),
    ]
)

LABELS = ("supplier", "customer", "other")


class ScGateActor:
    """Supply-chain sentence classifier (stub: keyword rule → score
    0.97/0.03; swap point for the sec-bert SC model)."""

    def __init__(self, config: KGConfig = DEFAULT_CONFIG):
        self.config = config
        self.pattern = _SUPPLY_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        sents = batch["sent"].to_pylist()
        scores = [0.97 if self.pattern.search(s) else 0.03 for s in sents]
        labels = [1 if sc >= self.config.sc_threshold else 0 for sc in scores]
        return batch.append_column(
            "supply_score", pa.array(scores, type=pa.float32())
        ).append_column("supply_label", pa.array(labels, type=pa.int8()))


def gate_filter(batch: pa.Table) -> pa.Table:
    """Vectorized C1 gate: positive SC sentences with >1 entity group."""
    mask = pc.and_(
        pc.equal(batch["supply_label"], 1), pc.greater(batch["num_orgs"], 1)
    )
    return batch.filter(mask)


def _representative(names: list[str]) -> str:
    """Longest name first (reference sorted(...,key=len)[::-1][0],
    infer.py:264-268)."""
    return sorted(names, key=len)[::-1][0]


def enumerate_pairs_batch(
    batch: pa.Table, num_positions: float = DEFAULT_CONFIG.num_positions
) -> pa.Table:
    """Sentence rows → tagged pair-variant rows (high fanout)."""
    out = {k: [] for k in PAIRS_SCHEMA.names}
    for row in batch.to_pylist():
        org_groups = {d["name"]: d["gid"] for d in row["org_groups"]}
        id2org: dict[int, list[str]] = {}
        for name, gid in org_groups.items():
            id2org.setdefault(gid, []).append(name)
        group_ids = sorted(id2org)
        reps = {gid: _representative(id2org[gid]) for gid in group_ids}
        pairs = [
            (reps[group_ids[i]], reps[group_ids[j]])
            for i in range(len(group_ids))
            for j in range(i + 1, len(group_ids))
        ]
        for pair_i, (e1, e2) in enumerate(pairs):
            variants = entity_annotation(
                row["sent"], e1, e2, org_groups, num_positions
            )
            for pos_id, tagged in enumerate(variants):
                out["url"].append(row["url"])
                out["sent_id"].append(row["sent_id"])
                out["r_id"].append(f"{row['sent_id']}_{pair_i}")
                out["pos_id"].append(pos_id)
                out["entity1"].append(e1)
                out["entity2"].append(e2)
                out["tagged"].append(tagged)
                out["org_groups"].append(row["org_groups"])
                out["aliases"].append(row["aliases"])
    return pa.table(
        {name: pa.array(out[name], type=PAIRS_SCHEMA.field(name).type)
         for name in PAIRS_SCHEMA.names}
    )


class RuleReScorer:
    """Deterministic relation scorer (stub for the sec-bert-num RE
    model, re_trf.py:22-65). Zone rule: in a supply sentence the
    entities BEFORE the supply verb are the suppliers and those after it
    the customers; in a customers-listing sentence the entities between
    "including" and "accounted" are customers and the entity after
    "attributable to" is the supplier. The emitted label is the role of
    the [E2]-tagged entity relative to [E1] ("supplier" = e2 supplies
    e1), matching the classifier's label semantics (infer.py:446-460)."""

    _verb_re = re.compile(r"supplied|supplies|is a supplier of")

    def score(self, tagged: str) -> list[float]:
        label = "other"
        pos1, pos2 = tagged.find("[E1]"), tagged.find("[E2]")
        if pos1 >= 0 and pos2 >= 0:
            role1, role2 = self._roles(tagged, pos1, pos2)
            if role1 and role2 and role1 != role2:
                label = role2  # e2's role relative to e1
        return [0.90 if lab == label else 0.05 for lab in LABELS]

    def _roles(self, sent: str, pos1: int, pos2: int):
        """The zone roles (None outside every zone) of the entities at
        ``pos1`` and ``pos2``, with the zones found once per sentence."""
        if "customers, including" in sent:
            inc = sent.find("including")
            acc = sent.find("accounted")
            att = sent.find("attributable to")
            return (
                "customer" if inc <= pos1 < acc
                else "supplier" if att >= 0 and pos1 > att else None,
                "customer" if inc <= pos2 < acc
                else "supplier" if att >= 0 and pos2 > att else None,
            )
        m = self._verb_re.search(sent)
        if m is None:
            return None, None
        start, end = m.span()
        return (
            "supplier" if pos1 < start else "customer" if pos1 >= end else None,
            "supplier" if pos2 < start else "customer" if pos2 >= end else None,
        )


def make_scorer(config: KGConfig):
    """RE-scorer backend registry (ST3 seam): ``config.re_backend``
    selects the scorer; a real sec-bert forward slots in here. Any
    backend must pass ``stages.backends.check_scorer_contract``."""
    if config.re_backend == "heavy_fake":
        from .backends import HeavyFakeScorer

        return HeavyFakeScorer()
    if ":" in config.re_backend:
        # bring-your-own-weights seam (mirrors make_tagger)
        import importlib

        mod, _, cls = config.re_backend.partition(":")
        return getattr(importlib.import_module(mod), cls)()
    return RuleReScorer()


def prepare_for_scoring(
    tagged: str, org_groups, config: KGConfig, tokenizer
) -> str | None:
    """Shared M8+M10 front half for every scoring path (composable
    ReScorerActor and the fused page stage — both must drop the
    SAME variants for the pipeline to equal the oracle):
    optional org pseudonymization (mutate_sent, reference re_dataset
    mutate=True), then marker-survival check after stub tokenization +
    truncation. Returns the text to score, or None → drop + count.
    ``org_groups`` is the list<struct{name,gid}> cell or None."""
    if config.mutate_before_scoring and org_groups:
        from ..functions.tagging import mutate_sent

        tagged = mutate_sent(
            tagged,
            {d["name"]: d["gid"] for d in org_groups},
            seed_key=tagged,
        )
    if config.tokenize_markers:
        # dispatches: StubTokenizer → fast short-circuit; any other
        # backend → general get_e1e2_start(tokenizer.encode(...)) path
        if not tokenizer_markers_survive(tokenizer, tagged):
            return None
    return tagged


class ReScorerActor:
    """Actor-pool relation scorer with the reverse-direction ensemble
    fused in (R3): scores(s) averaged with supplier↔customer-permuted
    scores(inverse(s)) (infer.py:149-167).

    M10/M8 front half (reference re_dataset,
    preprocessing_funcs.py:287-339): each variant is optionally
    mutated (org pseudonymization, M8) then tokenized; variants whose
    [E1]/[E2] markers do not survive tokenization+truncation are
    DROPPED from the batch and counted in ``n_dropped_markers`` —
    the reference's "Invalid rows/total" dropna accounting."""

    def __init__(self, config: KGConfig = DEFAULT_CONFIG, reverse: bool = True):
        from ..functions.tokenizer import StubTokenizer

        self.config = config
        self.reverse = reverse
        self.model = make_scorer(config)
        self.tokenizer = StubTokenizer(config.max_token_len)
        self.n_dropped_markers = 0

    def _prepare(self, tagged: str, org_groups) -> str | None:
        return prepare_for_scoring(tagged, org_groups, self.config, self.tokenizer)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ogs = (
            batch["org_groups"].to_pylist()
            if self.config.mutate_before_scoring
            and "org_groups" in batch.column_names
            else None
        )
        keep, scores = [], []
        for i, tagged in enumerate(batch["tagged"].to_pylist()):
            text = self._prepare(tagged, ogs[i] if ogs else None)
            if text is None:
                self.n_dropped_markers += 1
                continue
            fwd = self.model.score(text)
            if self.reverse:
                rev = self.model.score(inverse_relations(text))
                # permute supplier<->customer then average
                rev = [rev[1], rev[0], rev[2]]
                fwd = [(a + b) / 2 for a, b in zip(fwd, rev)]
            keep.append(i)
            scores.append(fwd)
        if len(keep) < batch.num_rows:
            batch = batch.take(keep)
        return batch.append_column(
            "scores", pa.array(scores, type=pa.list_(pa.float32(), 3))
        )
