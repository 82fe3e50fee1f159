"""Weak-label aggregation + conflict search (the reference's LLM
labeling path: src/labels_generator/data_aggregation.py:140-253,
src/labels_generator/utils.py:262-356, agg_utils.py:21-59).

These feed training-data creation (offline), re-implemented with:
- the same control flow and quirks (e.g. ``group2id.get(filer)`` can
  return a group ID whose falsiness short-circuits the filer filter —
  replicated);
- a deterministic name matcher: the SimCSE similarity is replaced by
  ``name_similarity`` = max(char-trigram cosine, core-token
  containment) so fuzzy variants like "Sony Inc" ↔ "Sony" match above
  the reference's 0.9 threshold without a model;
- seeded negative sampling (the reference's random.sample is unseeded).

The reference's own test cases (test/test_re_dataset_creation.py:31-155,
test/test_conflict_finder.py:25-76) are ported against this module in
tests/test_weak_labels.py.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

import numpy as np

from .fuzzy import negative_sample
from .names import similarity as _trigram_similarity

_CORP_SUFFIXES = {
    "inc", "corp", "co", "ltd", "llc", "limited", "corporation", "company",
    "group", "holdings", "ag", "gmbh", "sa", "plc",
}


def _core_tokens(name: str) -> set[str]:
    return {
        t for t in name.lower().replace(",", " ").replace(".", " ").split()
        if t and t not in _CORP_SUFFIXES
    }


def name_similarity(a: str, b: str) -> float:
    """Deterministic stand-in for SimCSE company-name similarity:
    trigram cosine, boosted by core-token containment (suffix-stripped)
    so "Sony Inc" ↔ "Sony" scores 1.0 as the transformer would score
    ≈0.95."""
    ca, cb = _core_tokens(a), _core_tokens(b)
    containment = 0.0
    if ca and cb:
        inter = len(ca & cb)
        containment = inter / min(len(ca), len(cb))
        if inter == 0:
            containment = 0.0
    return max(_trigram_similarity(a, b), containment if containment == 1.0 else 0.0)


def similarity_vector(query: str, candidates: list[str]) -> np.ndarray:
    return np.array([name_similarity(query, c) for c in candidates])


def check_relation_tuples(relations: list[Iterable]) -> bool:
    """Shape check (agg_utils.py:21-27)."""
    return all(
        hasattr(r, "__len__") and not isinstance(r, str) and len(r) == 3
        for r in relations
    )


def return_possible_pairs(ids: list) -> list[tuple]:
    """All ordered index pairs i<j (agg_utils.py:29-34)."""
    return [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]


def get_other_relations(id2group: dict[int, list[str]]) -> list[tuple[str, str, str]]:
    """All group pairs as 'other' tuples (agg_utils.py:37-59)."""
    pairs = sorted(set(return_possible_pairs(sorted(id2group.keys()))))
    return [(id2group[a][0], "other", id2group[b][0]) for a, b in pairs]


def extract_relations_from_llm(
    datapoint: dict,
    threshold: float = 0.9,
    only_filer: bool = False,
    max_others: int = 3,
    seed_key: str = "agg-42",
) -> tuple[list[tuple], list[tuple]]:
    """LLM relation tuples → matched relations + sampled 'other' pairs
    (data_aggregation.py:140-253 semantics; see module docstring for
    the stub-matcher substitution)."""
    group2id: dict[str, int] = dict(datapoint["org_groups"])
    id2group: dict[int, list[str]] = defaultdict(list)
    for k, v in group2id.items():
        id2group[v].append(k)

    relations = datapoint["relations"]
    if not check_relation_tuples(relations):
        raise ValueError(
            "Invalid relations list on the datapoint, must be "
            "List[Tuple[Text, Text, Text]]"
        )

    llms_companies: list[str] = []
    if isinstance(relations, list) and relations:
        llms_companies = sorted({x for r in relations for x in (r[0], r[2])})

    group_names = list(group2id.keys())
    llms_ids: dict[str, int] = {}
    for llm_company in llms_companies:
        sims = similarity_vector(llm_company, group_names) if group_names else np.array([])
        if sims.size and sims.max() > threshold:
            llms_ids[llm_company] = group2id[group_names[int(sims.argmax())]]
        elif llm_company in datapoint["sentence"]:
            # hallucination guard: accept unknown names only when they
            # literally occur in the sentence (data_aggregation.py:196-200)
            new_id = max(id2group.keys()) + 1 if id2group else 1
            group2id[llm_company] = new_id
            id2group[new_id] = [llm_company]
            llms_ids[llm_company] = new_id

    llms_names = {k: id2group[v][0] for k, v in llms_ids.items()}
    available_relations = return_possible_pairs(sorted(set(llms_ids.values())))

    exist_relations: list[tuple] = []
    llms_relations: list[tuple] = []
    for relation in relations or []:
        c1_name = llms_names.get(relation[0])
        c2_name = llms_names.get(relation[2])
        c1_id, c2_id = llms_ids.get(relation[0]), llms_ids.get(relation[2])
        if None in (c1_id, c2_id):
            continue
        llms_relations.append((c1_name, relation[1], c2_name))
        exist_relations.append(tuple(sorted([c1_id, c2_id])))

    other_ids = sorted(set(available_relations) ^ set(exist_relations))
    other_relations = [
        (id2group[a][0], "other", id2group[b][0]) for a, b in other_ids
    ]
    if not llms_relations and not other_relations:
        other_relations = get_other_relations(id2group)

    if only_filer:
        given_filer = datapoint.get("filer")
        filer_name = None
        if given_filer:
            filer_name = group2id.get(given_filer)  # reference quirk:
            # an exact hit yields the group ID (falsy for id 0), which
            # disables the filter below — replicated
            if not filer_name and group2id:
                scope = list(group2id.keys())
                sims = similarity_vector(given_filer, scope)
                if sims.max() > threshold:
                    filer_name = scope[int(sims.argmax())]
        if filer_name:
            llms_relations = [
                x for x in llms_relations if filer_name in (x[0], x[2])
            ]
            other_relations = [
                x for x in other_relations if filer_name in (x[0], x[2])
            ]

    other_relations = sorted(other_relations)
    other_relations = negative_sample(
        other_relations, min(len(other_relations), max_others), seed_key
    )
    return llms_relations, other_relations


def relation_search(
    query_relation: tuple[str, str, str],
    relations_tuples: list[tuple[str, str, str]],
    threshold: float = 0.85,
    main_relations: list[str] = ("supplier",),
) -> bool:
    """Conflict check: does ``query_relation`` align with the known
    relation list? (labels_generator/utils.py:262-356 semantics —
    True = NO conflict for non-main relations, True = found for main.)"""
    source_orgs: dict[str, list[str]] = defaultdict(list)
    dist_orgs: dict[str, list[str]] = defaultdict(list)
    for rel in relations_tuples or []:
        if isinstance(rel, str):
            continue
        if rel[1] in main_relations:
            source_orgs[rel[0]].append(rel[2])
            dist_orgs[rel[2]].append(rel[0])
    source_list = list(source_orgs.keys())
    dist_list = list(dist_orgs.keys())

    def _match(query: str, candidates: list[str]) -> tuple[bool, int]:
        sims = similarity_vector(query, candidates)
        idx = int(sims.argmax())
        hit = bool(sims.max() > threshold) or any(
            query.lower() in x.lower() for x in candidates
        )
        return hit, idx

    s2d = d2s = False
    if source_orgs:
        source_hit, idx = _match(query_relation[0], source_list)
        if source_hit:
            dist_hit, _ = _match(
                query_relation[2], source_orgs[source_list[idx]]
            )
            s2d = source_hit and dist_hit
    if query_relation[1] in main_relations:
        return s2d
    if dist_orgs:
        dist_hit, idx = _match(query_relation[0], dist_list)
        if dist_hit:
            source_hit, _ = _match(query_relation[2], dist_orgs[dist_list[idx]])
            d2s = dist_hit and source_hit
    return not (s2d or d2s)


# ------------------------------------------------- A6 conflict alignment --
def is_aligned(
    entity_1: str,
    entity_2: str,
    expected_relation: str,
    label: int,
    llms_relations: list,
    org_groups: dict[str, int],
    threshold: float = 0.85,
) -> tuple[bool, tuple[str, str, str]]:
    """The reference's ``is_conflict`` alignment check
    (llm_annotator.py:330-424): expand LLM supplier→customer relations
    over org groups, orient the SME relation into supplier-first form,
    then decide alignment.

    Quirk replicated (llm_annotator.py:420-421): the customer-side
    substring fallback is ``any()`` over a list of LISTS, which is
    truthy whenever the matched supplier has ANY customers — so a
    supplier match effectively implies alignment. Kept for parity;
    the similarity clause is the intended check."""
    align = False
    sme_relation = (entity_2, expected_relation, entity_1)
    id2c: dict[int, list[str]] = defaultdict(list)
    for name, gid in (org_groups or {}).items():
        id2c[gid].append(name)
    if label == 0:
        expected_relation = "other"
    elif expected_relation == "supplier":
        sme_relation = (entity_2, "supplier", entity_1)
    elif expected_relation == "customer":
        sme_relation = (entity_1, "supplier", entity_2)

    llm_relations: dict[str, list[str]] = defaultdict(list)
    if isinstance(llms_relations, (list, tuple)):
        for rel in llms_relations:
            if not isinstance(rel, (list, tuple)) or len(rel) != 3:
                continue
            if rel[1] == "supplier":
                sup, cust = rel[0], rel[2]
                sup_id = (org_groups or {}).get(sup)
                cust_id = (org_groups or {}).get(cust)
                sup_names = id2c[sup_id] if sup_id else [sup]
                cust_names = id2c[cust_id] if cust_id else [cust]
                for s in sup_names:
                    llm_relations[s] += cust_names

    llm_suppliers = list(llm_relations.keys())
    expected_supplier, _, expected_customer = sme_relation

    if expected_relation == "other":
        if not llm_relations:
            align = True
        else:
            align = not (
                similarity_vector(expected_supplier, llm_suppliers).max()
                > threshold
            )
    elif llm_relations:
        sims = similarity_vector(expected_supplier, llm_suppliers)
        max_idx = int(sims.argmax())
        if sims.max() > threshold or any(
            expected_supplier in x for x in llm_suppliers
        ):
            customers = llm_relations[llm_suppliers[max_idx]]
            align = bool(
                similarity_vector(expected_customer, customers).max()
                > threshold
            ) or bool(
                [[expected_customer.lower() in x.lower() for x in customers]]
                and customers
            )
    return align, sme_relation


def alignment_rate(rows: Iterable[dict], threshold: float = 0.85) -> dict:
    """Alignment percentage + conflicts (detect_conflicts,
    llm_annotator.py:426-453): rows need entity_1/entity_2/
    inf_relations/label/llms_relations/org_groups. Returns
    {'rate', 'n', 'conflicts'} where conflicts are the misaligned
    rows (the reference writes them to the card's reports dir)."""
    n = 0
    conflicts = []
    for row in rows:
        align, sme = is_aligned(
            row.get("entity_1"),
            row.get("entity_2"),
            row.get("inf_relations"),
            row.get("label", 1),
            row.get("llms_relations"),
            row.get("org_groups"),
            threshold,
        )
        n += 1
        if not align:
            conflicts.append({**row, "sme_relation": sme})
    rate = (n - len(conflicts)) / n if n else 1.0
    return {"rate": round(rate, 4), "n": n, "conflicts": conflicts}
