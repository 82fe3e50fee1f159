"""Per-sentence alias detection / filtering and entity grouping.

Re-implements the semantics of the reference's SpacyLoader grouping path
(src/language_model/spacy_loader.py:144-357) without spaCy:

- alias-pattern candidates: the three regex shapes over a copy of the
  sentence in which entity surface forms are replaced (longest-first) by
  ``ORG{i}`` placeholders — parenthesis, quote, and "or" patterns
  (spacy_loader.py:296-339). Pattern triggering mirrors the spaCy
  ``Matcher`` rules for tokens ``(``, ``"``, ``“``, ``or``
  (spacy_loader.py:146-149).
- alias filtering (spacy_loader.py:157-196): word overlap OR ≥80%
  initials coverage OR embedding similarity > 0.8 — including the
  reference's quirks (``.replace("the", "")`` removes the substring
  anywhere; the initials test counts alias characters present in the
  target initials string).
- grouping (spacy_loader.py:198-244): aliases seed groups pair-by-pair
  (later pairs override earlier ids — reference behavior), remaining
  names join a group when a reference name or the name itself has
  cosine > 0.95 against an existing grouped name, else start a new
  group. The reference's ``filter(None, pre_exist)`` drops group id 0
  (a falsy-int quirk) — replicated deliberately for parity.

Deviations from the reference (documented, determinism-motivated):
- leftover entities are assigned singleton ids in SORTED order (the
  reference iterates a Python set, spacy_loader.py:240-242 — order is
  PYTHONHASHSEED-dependent); singleton id numbering never changes group
  membership.
- ``ents_vec`` is scoped per sentence-batch rather than per whole call
  corpus (spacy_loader.py:262-274): grouping only ever compares names
  co-occurring in one sentence, so per-sentence results are identical.
"""

from __future__ import annotations

import re
import string
from collections import defaultdict

import numpy as np

from .names import encode_names

_PAREN_RE = re.compile(r'(ORG\d+)\s*\W*[a-zA-Z-\s]*[(]\s?\w*\W?\s?["]?(ORG\d+)["]?[)]')
_QUOTE_RE = re.compile(r'(ORG\d+)\s*\w*["“](ORG\d+)["”]')
# reference quirk: single \d in the OR pattern (spacy_loader.py:332)
_OR_RE = re.compile(r"(ORG\d)\W?\sor\s\W*(ORG\d)\W*")
_OR_TRIGGER = re.compile(r"\bor\b", re.IGNORECASE)
_PUNCT_SPACE_RE = re.compile(f"[{re.escape(string.punctuation)} ]+")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def detect_alias_candidates(text: str, ents: list[str]) -> list[tuple[str, str]]:
    """Candidate (target, alias) pairs from the three alias shapes."""
    if not ents:
        return []
    ents_sorted = sorted(ents, key=len, reverse=True)
    ent2id = {ent: f"ORG{i}" for i, ent in enumerate(ents_sorted)}
    id2ent = {v: k for k, v in ent2id.items()}
    spare = text
    for ent in ents_sorted:
        spare = spare.replace(ent, ent2id[ent])

    candidates: list[tuple[str, str]] = []
    if "(" in text:
        for a, b in _PAREN_RE.findall(spare):
            target, alias = id2ent.get(a), id2ent.get(b)
            if target and alias:
                candidates.append((target, alias))
    if '"' in text or "“" in text:
        for a, b in _QUOTE_RE.findall(spare):
            candidates.append((id2ent[a], id2ent[b]))
    if _OR_TRIGGER.search(text):
        for a, b in _OR_RE.findall(spare):
            candidates.append((id2ent[a], id2ent[b]))
    return candidates


def _clean_words(name: str) -> list[str]:
    cleaned = _PUNCT_SPACE_RE.sub(" ", name).lower().replace("the", "").strip()
    return [w for w in cleaned.split() if w.isalpha()]


def filter_aliases(
    candidates: list[tuple[str, str]],
    sim_fn,
    sim_threshold: float = 0.8,
) -> list[tuple[str, str]]:
    """Keep plausible (target, alias) pairs (spacy_loader.py:157-196).

    ``sim_fn(a, b) -> float`` is the embedding-similarity fallback.
    """
    kept = []
    for target, alias in candidates:
        target_words = _clean_words(target)
        alias_words = _clean_words(alias)
        if any(w in target_words for w in alias_words):
            kept.append((target, alias))
        elif len(alias_words) == 1 and len(target_words) > 1:
            target_initials = "".join(w[0] for w in target_words)
            alias_chars = alias.translate(_PUNCT_TABLE).lower()
            if alias_chars:
                hits = len(re.findall(f"[{re.escape(alias_chars)}]", target_initials))
                if hits >= 0.8 * len(alias):
                    kept.append((target, alias))
        else:
            if sim_fn(target, alias) > sim_threshold:
                kept.append((target, alias))
    return kept


def _ref2group(
    ents_vec: dict[str, np.ndarray],
    references: list[str],
    target_names: list[str],
    threshold: float,
) -> str | None:
    """First reference whose best cosine against an existing grouped name
    exceeds ``threshold`` wins (spacy_loader.py:52-72)."""
    if not target_names:
        return None
    target_mat = np.array([ents_vec[t] for t in target_names])
    for ref in references:
        v = ents_vec.get(ref)
        if v is None:
            continue
        scores = target_mat @ v
        best = int(np.argmax(scores))
        if scores[best] > threshold:
            return target_names[best]
    return None


def group_entities(
    ents: list[str],
    filtered_aliases: list[tuple[str, str]],
    all_aliases: list[tuple[str, str]],
    ents_vec: dict[str, np.ndarray] | None = None,
    threshold: float = 0.95,
) -> dict[str, int]:
    """Assign a group id to every entity name in one sentence
    (spacy_loader.py:198-244). ``all_aliases`` is the document-level
    alias set (the reference builds it across the call corpus at
    :339-341; we scope it per document — see stages/ner.py)."""
    if ents_vec is None:
        names = sorted(set(ents) | {n for pair in all_aliases for n in pair})
        ents_vec = dict(zip(names, encode_names(names)))

    name2alias: dict[str, list[str]] = defaultdict(list)
    alias2name: dict[str, list[str]] = defaultdict(list)
    for k, v in all_aliases:
        name2alias[k].append(v)
        alias2name[v].append(k)

    org_keys: dict[str, int] = {}
    counter = 0
    for target, alias in filtered_aliases:
        org_keys[target] = counter
        org_keys[alias] = counter
        counter += 1

    # candidate order: length-descending, as the reference sorts ents
    # before matching (spacy_loader.py:281)
    for name in sorted(ents, key=len, reverse=True):
        if name in org_keys:
            continue
        references = list(name2alias.get(name, [])) + list(alias2name.get(name, []))
        # reference quirk: filter(None, ...) drops group id 0
        pre_exist = [
            gid for gid in (org_keys.get(ref) for ref in references) if gid
        ]
        if pre_exist:
            org_keys[name] = pre_exist[0]
            continue
        ref_group = _ref2group(
            ents_vec, references + [name], list(org_keys.keys()), threshold
        )
        if ref_group is not None:
            org_keys[name] = org_keys[ref_group]
        else:
            org_keys[name] = counter
            counter += 1

    for name in sorted(set(ents) - org_keys.keys()):
        org_keys[name] = counter
        counter += 1
    return org_keys
