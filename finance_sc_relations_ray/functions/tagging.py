"""Entity-pair tagging: ``[E1] … [/E1] [E2] … [/E2]`` marker insertion.

Re-implements the reference's tagging semantics:

- the reference's word search (src/utils/preprocess.py:50-65) is the
  placeholder search of ``annotate_pair`` (``_find_all``): literal
  spans, found case-sensitively in the sentence's own coordinates. The
  reference has a second, shuffling variant (:81-96) — we keep only
  the deterministic one.
- ``entity_annotation`` (src/utils/preprocess.py:109-220): replace every
  surface form of the two groups (longest-first) with
  ``<entity_1>/<entity_2>`` placeholders (with the ``’s``→``'s``
  possessive normalization at :163-169), then enumerate all
  non-overlapping (E1-position, E2-position) combinations, inserting the
  markers and restoring the representative names, capped at
  ``num_positions``.
- ``inverse_relations`` (src/relation_extraction/preprocessing_funcs.py:53-62):
  swap E1↔E2 markers through E3/E4 temporaries.
- ``extract_tagged_names`` (src/relation_extraction/misc.py:28-52):
  recover e1/e2 strings between markers.
- ``mutate_sent`` (src/utils/preprocess.py:471-496): replace org names
  (len>3) with ``org-<numword>`` pseudonyms shared per group. The
  reference draws ``random.randint(0,100)`` unseeded; we seed the RNG
  from a caller-provided key so reruns/resumes are bit-stable.
"""

from __future__ import annotations

import math
import random
import re
import zlib
from collections import defaultdict

_E1_START, _E1_END = "[E1] ", " [/E1]"
_E2_START, _E2_END = "[E2] ", " [/E2]"

_NUMWORDS_SMALL = (
    "zero one two three four five six seven eight nine ten eleven twelve "
    "thirteen fourteen fifteen sixteen seventeen eighteen nineteen"
).split()
_NUMWORDS_TENS = "twenty thirty forty fifty sixty seventy eighty ninety".split()


def num2word(n: int) -> str:
    """0..100 → english words (what the reference gets from num2words,
    preprocess.py:493), lowercase, hyphenated tens."""
    if n < 20:
        return _NUMWORDS_SMALL[n]
    if n < 100:
        tens, rem = divmod(n, 10)
        word = _NUMWORDS_TENS[tens - 2]
        return f"{word}-{_NUMWORDS_SMALL[rem]}" if rem else word
    return "one hundred"


def _find_all(sub: str, text: str) -> list[tuple[int, int]]:
    """Non-overlapping literal spans via str.find — identical output to
    re.finditer(re.escape(sub)) (tagging runs it twice per pair, so the
    regex machinery is skipped)."""
    out = []
    i = text.find(sub)
    step = len(sub)
    while i != -1:
        out.append((i, i + step))
        i = text.find(sub, i + step)
    return out


_P1, _P2 = "<entity_1>", "<entity_2>"


def entity_annotation(
    sent: str,
    ent1: str,
    ent2: str,
    org_groups: dict[str, int],
    num_positions: float = math.inf,
) -> list[str]:
    """All marker-tagged variants of ``sent`` for the ordered pair
    (ent1, ent2) — reference preprocess.py:109-220 semantics."""
    id2org: dict[int, list[str]] = defaultdict(list)
    for k, v in org_groups.items():
        id2org[v].append(k)

    g1 = org_groups.get(ent1)
    ent1_names = sorted(id2org[g1], reverse=True) if g1 is not None else [ent1]
    g2 = org_groups.get(ent2)
    ent2_names = sorted(id2org[g2], reverse=True) if g2 is not None else [ent2]
    return annotate_pair(sent, ent1, ent2, ent1_names, ent2_names, num_positions)


def annotate_pair(
    sent: str,
    ent1: str,
    ent2: str,
    ent1_names: list[str],
    ent2_names: list[str],
    num_positions: float = math.inf,
) -> list[str]:
    """:func:`entity_annotation` given each entity's surface forms
    (its group's names, sorted descending), so a caller tagging many
    pairs of one sentence builds the group maps once.

    The placeholders are found in the replaced sentence's own
    coordinates: offsets found in a lowercased copy would slice the
    original wrongly whenever lowercasing changes a length (``"İ"``
    lowercases to two characters). Inserting the E1 markers around a
    placeholder moves every later placeholder by their 11 characters,
    so each variant's E2 offsets follow without searching again."""
    # later (ent2) assignment wins on collisions, as in the reference's
    # dict-merge at preprocess.py:159-161
    names = {k: 1 for k in ent1_names}
    names.update({k: 2 for k in ent2_names})
    for k, v in sorted(names.items(), key=lambda kv: len(kv[0]), reverse=True):
        k = k.replace("’", "'")
        if k.strip().endswith("'s"):
            k = k.replace("'s", "")
            sent = sent.replace(k, f"<entity_{v}> ")
        else:
            sent = sent.replace(k, f"<entity_{v}>")

    res2 = _find_all(_P2, sent)
    shift = len(_E1_START) + len(_E1_END)
    out: list[str] = []
    for a1, b1 in _find_all(_P1, sent):
        s = sent[:a1] + _E1_START + sent[a1:b1] + _E1_END + sent[b1:]
        for a2, b2 in res2:
            # the reference skips overlapping E1/E2 spans; an <entity_1>
            # and an <entity_2> match can never overlap ('<' and '>'
            # only bound them), so every E2 placeholder pairs
            if a2 >= b1:
                a2, b2 = a2 + shift, b2 + shift
            tagged = s[:a2] + _E2_START + s[a2:b2] + _E2_END + s[b2:]
            out.append(tagged.replace(_P1, ent1).replace(_P2, ent2))
            if len(out) >= num_positions:
                return out
    return out


def inverse_relations(sent: str) -> str:
    sent = sent.replace("[E1]", "[E3]").replace("[/E1]", "[/E3]")
    sent = sent.replace("[E2]", "[E1]").replace("[/E2]", "[/E1]")
    return sent.replace("[E3]", "[E2]").replace("[/E3]", "[/E2]")


def extract_tagged_names(text: str) -> tuple[str, str]:
    """e1, e2 strings between the markers (misc.py:28-52 /
    infer.py:446-452 extraction arithmetic: find → rfind)."""
    e1 = text[text.find(_E1_START) + len(_E1_START) : text.rfind(_E1_END)]
    e2 = text[text.find(_E2_START) + len(_E2_START) : text.rfind(_E2_END)]
    return e1, e2


def mutate_sent(
    sent: str,
    org_groups: dict[str, int] | None,
    seed_key: str = "",
) -> str:
    """Pseudonymize org mentions, one pseudonym per group
    (preprocess.py:471-496) — RNG seeded from ``seed_key`` for
    bit-stable reruns (the reference is unseeded, a documented
    nondeterminism we fix)."""
    if not org_groups:
        return sent
    rng = random.Random(zlib.crc32(seed_key.encode("utf-8")))
    org_list = sorted(org_groups.items(), key=lambda kv: len(kv[0]), reverse=True)
    ids_shift = {gid: rng.randint(0, 100) for gid in sorted({v for _, v in org_list})}
    for org, gid in org_list:
        if len(org) > 3:
            sent = re.sub(re.escape(org), f"org-{num2word(ids_shift[gid])}", sent)
    return sent
