"""Stage 8: per-document relation aggregation. The input is one row
per page, so a document's pairs are all produced in one
``PageKGActor`` call and aggregated there (stages/fused.py), with no
exchange; ``aggregate_doc`` is the same step over one document's Arrow
table, composed by ``oracle/kg_oracle.py``.

Re-implements the reference's per-filing reporter semantics
(src/relation_extraction/reporter.py:240-346) plus the pair-level steps
that must see all of a pair's position variants (R4/R5/R6,
infer.py:339-366), which co-locate here for free:

1. position-mean per ``r_id`` then dedup (infer.py:339-344),
2. argmax → (relation, score) (infer.py:346-353),
3. relation dicts ``{e2: rel, e1: inverse(rel), score}`` (infer.py:446-460),
4. document alias closure (reporter.py:270-277),
5. within-doc org clustering: cosine ≥ 0.96 + alias edges, greedy,
   representative = longest name (reporter.py:283-312),
6. reporter-mention identification and removal (reporter.py:313-345),
7. per-company score-sum + argmax verdict (reporter.py:12-73) with the
   reference's tie order supplier > customer > other.

Reporter derivation: the reference takes the filer name from filing
metadata; Common-Crawl pages have none, so the engine derives it — the
group representative appearing in the most sentences of the document
(ties → lexicographically smallest). The test oracle applies the same
rule.

Determinism deviations from the reference (documented): org iteration
and reporter-mention iteration are sorted (the reference iterates Python
sets — PYTHONHASHSEED-dependent); cluster representatives tie-break on
(len desc, name).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa

from ..config import DEFAULT_CONFIG, INVERSE_RELATION, KGConfig
from ..functions.names import encode_names

LABELS = ("supplier", "customer", "other")

DOC_RELATIONS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("reporter", pa.string()),
        ("company", pa.string()),
        ("relation", pa.string()),
        ("score", pa.float32()),
        ("sentence_ids", pa.list_(pa.int64())),
        ("n_pairs", pa.int32()),
    ]
)


def _cluster_doc_orgs(
    all_orgs: list[str],
    alias2name: dict[str, list[str]],
    name2alias: dict[str, list[str]],
    threshold: float,
):
    """Greedy similarity+alias clustering (reporter.py:283-312).
    Returns (org2id, id2org, similar) where ``similar[i]`` lists the
    orgs whose similarity to ``all_orgs[i]`` reaches ``threshold``
    (reused for the reporter-name search)."""
    vecs = encode_names(all_orgs)
    sims = vecs @ vecs.T if len(all_orgs) else np.zeros((0, 0), dtype=np.float32)
    similar: list[list[str]] = [[] for _ in all_orgs]
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(sims >= threshold))):
        similar[i].append(all_orgs[j])
    org2id: dict[str, int] = {}
    id2org: dict[int, list[str]] = {}
    seen: set[str] = set()
    ids_c = 0
    for i, org in enumerate(all_orgs):
        if org in seen:
            continue
        matches = similar[i]
        n_matches = matches + [n for m in matches for n in alias2name.get(m, [])]
        n_matches = n_matches + [n for m in n_matches for n in name2alias.get(m, [])]
        for name in n_matches:
            org2id[name] = ids_c
        id2org[ids_c] = sorted(
            set(filter(None, n_matches)), key=lambda x: (-len(x), x)
        )
        ids_c += 1
        seen.update(n_matches)
    return org2id, id2org, similar


def _derive_reporter(sent_groups: dict[int, list[dict]]) -> str:
    """Most-mentioned group representative across the doc's sentences
    (ties → lexicographically smallest)."""
    counts: dict[str, int] = defaultdict(int)
    for groups in sent_groups.values():
        id2names: dict[int, list[str]] = defaultdict(list)
        for d in groups:
            id2names[d["gid"]].append(d["name"])
        for names in id2names.values():
            counts[sorted(names, key=len)[::-1][0]] += 1
    best = max(counts.values())
    return min(name for name, c in counts.items() if c == best)


_AGG_COLS = ("url", "sent_id", "r_id", "entity1", "entity2",
             "scores", "org_groups", "aliases")


def aggregate_doc(
    group: pa.Table, config: KGConfig = DEFAULT_CONFIG
) -> pa.Table:
    """One document's scored pair-variants → per-company verdict rows."""
    out = {k: [] for k in DOC_RELATIONS_SCHEMA.names}
    _aggregate_doc_into(
        {c: group.column(c).to_pylist() for c in _AGG_COLS}, out, config
    )
    return pa.table(
        {name: pa.array(out[name], type=DOC_RELATIONS_SCHEMA.field(name).type)
         for name in DOC_RELATIONS_SCHEMA.names}
    )


def pair_verdicts(
    r_ids: list[str], scores: list[list[float]]
) -> list[tuple[int, str, float]]:
    """R4 + R5: each pair's position-mean scores (deduplicated by
    ``r_id``, first row wins, reference drop_duplicates infer.py:344),
    then its argmax label and 4-decimal score, as ``(first row, label,
    score)`` in first-row order.

    Plain float64 Python: the per-column sums in row order and one
    division by the count are the operations of a numpy float64
    accumulation, and the first maximum wins as in ``np.argmax``, so
    the rounding and the label ties see the same bits."""
    sums: dict[str, list[float]] = {}
    cnt: dict[str, int] = {}
    first_row: dict[str, int] = {}
    for i, (rid, sc) in enumerate(zip(r_ids, scores)):
        acc = sums.get(rid)
        if acc is None:
            sums[rid] = [float(x) for x in sc]
            cnt[rid] = 1
            first_row[rid] = i
        else:
            for j, x in enumerate(sc):
                acc[j] += float(x)
            cnt[rid] += 1
    out = []
    for rid, i in first_row.items():
        mean = [v / cnt[rid] for v in sums[rid]]
        k = max(range(len(mean)), key=mean.__getitem__)
        out.append((i, LABELS[k], round(mean[k], 4)))
    return out


def _aggregate_doc_into(
    col: dict[str, list], out: dict[str, list], config: KGConfig = DEFAULT_CONFIG
) -> None:
    """Aggregate one document, appending verdict rows to shared column
    lists (Arrow table built ONCE per batch by the caller)."""
    n = len(col["url"])
    url = col["url"][0]

    pair_rows = pair_verdicts(col["r_id"], col["scores"])

    # document alias closure (reporter.py:270-277)
    alias_pairs = {
        (d["target"], d["alias"]) for lst in col["aliases"] for d in (lst or [])
    }
    alias2name: dict[str, list[str]] = defaultdict(list)
    name2alias: dict[str, list[str]] = defaultdict(list)
    for target, alias in sorted(alias_pairs):
        name2alias[target].append(alias)
        alias2name[alias].append(target)

    all_orgs = sorted({d["name"] for lst in col["org_groups"] for d in lst})
    org2id, id2org, similar = _cluster_doc_orgs(
        all_orgs, alias2name, name2alias, config.cluster_threshold
    )

    sent_groups = {}
    for i in range(n):
        sent_groups.setdefault(col["sent_id"][i], col["org_groups"][i])
    reporter = _derive_reporter(sent_groups)
    # reporter-similar names (reporter.py:313-315): search over doc orgs
    if reporter in all_orgs:
        reporter_names = similar[all_orgs.index(reporter)]
    else:
        rv = encode_names([reporter])[0]
        vecs = encode_names(all_orgs)
        reporter_names = [
            all_orgs[j] for j in np.flatnonzero(vecs @ rv >= config.cluster_threshold)
        ]
    reporter_mentions = sorted(
        set(alias2name.get(reporter, []))
        | {n for x in reporter_names for n in name2alias.get(x, [])}
        | {reporter}
        | set(reporter_names)
    )

    # reporter removal + per-company bucketing (reporter.py:313-345)
    companies_relations: dict[str, list[dict]] = defaultdict(list)
    for i, rel_label, rel_score in pair_rows:
        relation = {
            col["entity2"][i]: rel_label,
            col["entity1"][i]: INVERSE_RELATION.get(rel_label, "other"),
            "score": rel_score,
        }
        for rep_name in reporter_mentions:
            if relation.get(rep_name) and relation:
                relation.pop(rep_name)
                if not relation:
                    continue
                score = relation.pop("score")
                company = next(iter(relation.keys()))
                representative = id2org[org2id[company]][0]
                companies_relations[representative].append(
                    {
                        "sentence_id": int(col["sent_id"][i]),
                        "relation": relation[company],
                        "score": float(score),
                    }
                )

    # per-company score-sum + argmax (reporter.py:12-73); tie order
    # supplier > customer > other via dict insertion order
    for company in sorted(companies_relations):
        rels = companies_relations[company]
        scores = {"supplier": 0.0, "customer": 0.0, "other": 0.0}
        sent_ids = []
        for rel in rels:
            sent_ids.append(rel["sentence_id"])
            scores[rel["relation"]] += rel["score"]
        label, win = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)[0]
        out["url"].append(url)
        out["reporter"].append(reporter)
        out["company"].append(company)
        out["relation"].append(label)
        out["score"].append(round(win, 3))
        out["sentence_ids"].append(sorted(set(sent_ids)))
        out["n_pairs"].append(len(rels))
