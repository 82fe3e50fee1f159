"""Stage 10: canonical triple materialization + skew-safe dedup.

Per-doc verdicts → canonical ``(subj, supplies_to, obj)`` triples
(direction per resort_relation semantics,
reference src/labels_generator/utils.py:54-59: supplier-label → company
supplies reporter; customer-label → reporter supplies company; "other"
verdicts emit no triple). Dedup on (subj, pred, obj) keeps max score and
counts mentions, via the salted two-phase combiner in
stages/shuffle.py.
"""

from __future__ import annotations

import pyarrow as pa

from ..config import DEFAULT_CONFIG, KGConfig

TRIPLES_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("subj_id", pa.string()),
        ("obj_id", pa.string()),
        ("score", pa.float32()),
        ("url", pa.string()),
        ("sentence_ids", pa.list_(pa.int64())),
    ]
)


def to_triples_batch(
    batch: pa.Table, config: KGConfig = DEFAULT_CONFIG
) -> pa.Table:
    """Linked doc_relations rows → per-document triple rows."""
    out = {name: [] for name in TRIPLES_SCHEMA.names}
    pred = config.canonical_pred
    has_link = "entity_id" in batch.column_names
    rows = batch.to_pylist()
    for row in rows:
        label = row["relation"]
        if label == "_error":
            # dead-letter passthrough (poison-row quarantine): ride the
            # triples stream as a (url, "_error", exc_type) row so one
            # pipeline pass carries both outputs; a triple-store merge
            # lists them in its commit record (pipelines/kg_state.py)
            out["subj"].append(row["url"])
            out["pred"].append("_error")
            out["obj"].append(row["company"])
            out["subj_id"].append(None)
            out["obj_id"].append(None)
            out["score"].append(0.0)
            out["url"].append(row["url"])
            out["sentence_ids"].append([])
            continue
        if label == "_meta_dropped":
            # M10 marker-drop accounting (n_pairs = drop count rides in
            # obj): a triple-store merge sums it into its commit record
            # and keeps it out of the state
            out["subj"].append(row["url"])
            out["pred"].append("_dropped_markers")
            out["obj"].append(str(row["n_pairs"]))
            out["subj_id"].append(None)
            out["obj_id"].append(None)
            out["score"].append(0.0)
            out["url"].append(row["url"])
            out["sentence_ids"].append([])
            continue
        if label not in config.main_relations:
            continue
        company, reporter = row["company"], row["reporter"]
        cid = row.get("entity_id") if has_link else None
        rid = row.get("reporter_id") if has_link else None
        if label == "supplier":
            subj, obj, sid, oid = company, reporter, cid, rid
        else:  # customer: reporter supplies the company
            subj, obj, sid, oid = reporter, company, rid, cid
        out["subj"].append(subj)
        out["pred"].append(pred)
        out["obj"].append(obj)
        out["subj_id"].append(sid)
        out["obj_id"].append(oid)
        out["score"].append(row["score"])
        out["url"].append(row["url"])
        out["sentence_ids"].append(row["sentence_ids"])
    return pa.table(
        {
            n: pa.array(out[n], type=TRIPLES_SCHEMA.field(n).type)
            for n in TRIPLES_SCHEMA.names
        }
    )
