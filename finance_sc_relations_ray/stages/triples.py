"""Stage 10: canonical triple materialization + skew-safe dedup.

Per-doc verdicts → canonical ``(subj, supplies_to, obj)`` triples
(direction per resort_relation semantics,
reference src/labels_generator/utils.py:54-59: supplier-label → company
supplies reporter; customer-label → reporter supplies company; "other"
verdicts emit no triple). The rows are deduplicated on (subj, pred,
obj) downstream by the Arrow fold of stages/shuffle.py (score max,
n_mentions sum, ids and url min, sentence_ids bottom-64 union): per
batch and per bucket in the build's salted two-phase dedup, per batch
and per run in the triple store.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

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
    """Linked doc_relations rows → per-document triple rows, in Arrow
    compute, input order kept. Three kinds of row pass:

    - a main-relation verdict: supplier-label → company supplies the
      reporter, any other main label → the reporter supplies the
      company, with the linked ids when ``batch`` has them;
    - an ``_error`` dead letter, as ``(url, "_error", exception type)``:
      one pipeline pass carries both outputs, and a triple-store merge
      lists them in its commit record (pipelines/kg_state.py);
    - a ``_meta_dropped`` row, as ``(url, "_dropped_markers", count)``
      (the M10 marker-drop count rides in ``n_pairs``): a triple-store
      merge sums it into its commit record and keeps it out of the
      state.

    Other verdicts ("other") emit nothing."""
    main = pa.array(config.main_relations, pa.string())
    meta = pa.array(["_error", "_meta_dropped"], pa.string())
    t = batch.filter(pc.is_in(batch["relation"], pa.concat_arrays([main, meta])))
    rel = t["relation"]
    is_main = pc.is_in(rel, main)
    is_err = pc.equal(rel, "_error")
    is_sup = pc.equal(rel, "supplier")

    def main_or(value, other):
        return pc.if_else(is_main, value, other)

    company, reporter, url = t["company"], t["reporter"], t["url"]
    null_id = pa.nulls(t.num_rows, pa.string())
    if "entity_id" in t.column_names:
        cid = t["entity_id"]
        rid = t["reporter_id"] if "reporter_id" in t.column_names else null_id
        subj_id = main_or(pc.if_else(is_sup, cid, rid), null_id)
        obj_id = main_or(pc.if_else(is_sup, rid, cid), null_id)
    else:
        subj_id = obj_id = null_id
    ids_t = TRIPLES_SCHEMA.field("sentence_ids").type
    cols = {
        "subj": main_or(pc.if_else(is_sup, company, reporter), url),
        "pred": main_or(
            pa.scalar(config.canonical_pred),
            pc.if_else(is_err, "_error", "_dropped_markers"),
        ),
        "obj": main_or(
            pc.if_else(is_sup, reporter, company),
            pc.if_else(is_err, company, pc.cast(t["n_pairs"], pa.string())),
        ),
        "subj_id": subj_id,
        "obj_id": obj_id,
        "score": main_or(
            pc.cast(t["score"], pa.float32()), pa.scalar(0.0, pa.float32())
        ),
        "url": url,
        "sentence_ids": main_or(
            pc.cast(t["sentence_ids"], ids_t), pa.array([[]] * t.num_rows, ids_t)
        ),
    }
    return pa.Table.from_arrays(
        [pc.cast(cols[f.name], f.type) for f in TRIPLES_SCHEMA],
        schema=TRIPLES_SCHEMA,
    )
