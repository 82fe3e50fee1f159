"""Tokenizer-side marker location, truncation accounting and batch
collate (M10) — the reference's main robustness surface.

Re-implements the structural behavior of the reference's ``re_dataset``
(src/relation_extraction/preprocessing_funcs.py:287-339) without the
learned vocab:

- ``StubTokenizer.encode``: special-token framing ([CLS]/[SEP]),
  marker tokens ([E1]/[/E1]/[E2]/[/E2]) as single ids, greedy 4-char
  word pieces hashed into a fixed id space, truncation at ``max_len``;
- ``get_e1e2_start``: first [E1]/[E2] token positions, ``None`` when a
  marker is missing (reference ``get_e1e2_start``,
  preprocessing_funcs.py:289-297) — corrupted-marker rows and rows
  whose markers were truncated away are DROPPED and COUNTED (the
  reference prints "Invalid rows/total" and ``dropna``s;
  ``invalid_rows.json`` at the reference root is a whole corpus of
  such rows);
- ``pad_collate``: the ``Pad_Sequence`` collate analog
  (preprocessing_funcs.py:233-285) — pad a batch of id sequences to
  the batch max with the pad id and return the true lengths.

The id SPACE is a deterministic stub (crc32 buckets — no model in this
environment), but every structural behavior the Ray plumbing must get
right for the real BERT tokenizer swap (special ids, truncation point,
marker survival, drop accounting, padding) is real and tested.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

CLS_ID, SEP_ID, PAD_ID = 0, 1, 2
E1_ID, E1_END_ID, E2_ID, E2_END_ID = 3, 4, 5, 6
_VOCAB_OFFSET = 8
_VOCAB_BUCKETS = 30522 - _VOCAB_OFFSET  # bert-base-sized id space

_MARKER_IDS = {
    "[E1]": E1_ID,
    "[/E1]": E1_END_ID,
    "[E2]": E2_ID,
    "[/E2]": E2_END_ID,
}
_MARKER_RE = re.compile(r"(\[E1\]|\[/E1\]|\[E2\]|\[/E2\])")
_WORD_RE = re.compile(r"\w+|[^\w\s]")
_PIECE = 4  # greedy word-piece length
# one match per id of a marker-free piece: a word's 4-char pieces and
# each other non-space character (what encode makes of _WORD_RE tokens)
_ID_CHUNK_RE = re.compile(r"\w{1,%d}|[^\w\s]" % _PIECE)
# the same with a marker string as one match (markers first)
_ID_RE = re.compile(r"\[/?E[12]\]|" + _ID_CHUNK_RE.pattern)

# word → piece-id tuple memo (per worker). Natural-language words
# repeat massively, and tokenization is ~1/3 of the per-page cost in
# the fused page stage without this (profiled at 300 pages / 400 entities).
_WORD_IDS: dict[str, tuple[int, ...]] = {}
_WORD_IDS_MAX = 500_000


def _word_ids(word: str) -> tuple[int, ...]:
    hit = _WORD_IDS.get(word)
    if hit is None:
        hit = tuple(
            _VOCAB_OFFSET
            + zlib.crc32(word[i : i + _PIECE].encode("utf-8")) % _VOCAB_BUCKETS
            for i in range(0, len(word), _PIECE)
        )
        if len(_WORD_IDS) < _WORD_IDS_MAX:
            _WORD_IDS[word] = hit
    return hit


class StubTokenizer:
    """Deterministic tokenizer stub behind the HF-encode-shaped
    interface the reference swaps in (tokenizer.encode →
    ids with specials, truncated at max_len)."""

    pad_id = PAD_ID
    e1_id = E1_ID
    e2_id = E2_ID

    def __init__(self, max_len: int = 128):
        self.max_len = max_len

    def encode(self, text: str) -> list[int]:
        ids = [CLS_ID]
        for piece in _MARKER_RE.split(text):
            if not piece:
                continue
            marker = _MARKER_IDS.get(piece)
            if marker is not None:
                ids.append(marker)
                continue
            for word in _WORD_RE.findall(piece.lower()):
                ids.extend(_word_ids(word))
        ids.append(SEP_ID)
        # truncation loses the tail INCLUDING any markers there — that
        # is exactly the invalid-row condition the drop accounting
        # downstream must catch
        return ids[: self.max_len]


def markers_survive(text: str, max_len: int) -> bool:
    """``get_e1e2_start(StubTokenizer(max_len).encode(text)) is not
    None`` without materializing the ids: counts token positions
    piece-by-piece and short-circuits as soon as both [E1] and [E2]
    sit below the truncation limit (or the budget is exhausted).
    Exactly equivalent because marker ids (3-6) are below
    ``_VOCAB_OFFSET``, so a word piece can never alias a marker —
    property-tested against the encode path in tests/test_tokenizer.py.
    This is the scoring hot path (one call per scored variant; the
    full encode was ~22% of per-page time).

    Without building ids: a marker-free piece gives one id per match
    of ``_ID_CHUNK_RE`` (a word's 4-character pieces, each other
    non-space character). In ASCII text lowercasing changes no
    character class, so the later opening marker's position is one
    count of ``_ID_RE`` (markers, chunks) over the text before it, and
    a text short enough that even one id per non-space character keeps
    that position below ``max_len`` needs no count at all.
    """
    pos1, pos2 = text.find("[E1]"), text.find("[E2]")
    if pos1 < 0 or pos2 < 0:
        return False
    if text.isascii():
        # ids ≤ [CLS] + [SEP] + non-space chars − 3 per [E1]/[E2]
        # string, and the markers sit before [SEP]
        if len(text) - text.count(" ") - 4 <= max_len + 1:
            return True
        return 1 + len(_ID_RE.findall(text, 0, max(pos1, pos2))) < max_len
    n = 1  # [CLS]
    seen1 = seen2 = False
    for piece in _MARKER_RE.split(text):
        if n >= max_len:
            break
        if not piece:
            continue
        if piece in _MARKER_IDS:
            if piece == "[E1]":
                seen1 = True
            elif piece == "[E2]":
                seen2 = True
            if seen1 and seen2:
                return True
            n += 1
            continue
        n += len(_ID_CHUNK_RE.findall(piece.lower()))
    return seen1 and seen2


def get_e1e2_start(
    ids: list[int], e1_id: int = E1_ID, e2_id: int = E2_ID
) -> tuple[int, int] | None:
    """First positions of the [E1]/[E2] marker tokens; None when either
    is missing (corrupted or truncated away)."""
    try:
        return (ids.index(e1_id), ids.index(e2_id))
    except ValueError:
        return None


def pad_collate(
    seqs: list[list[int]], pad_value: int = PAD_ID
) -> tuple[np.ndarray, np.ndarray]:
    """Pad a batch of id sequences to the batch max → (ids[B, L],
    lengths[B]). numpy stand-in for the torch pad_sequence collate."""
    if not seqs:
        return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
    lengths = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    out = np.full((len(seqs), int(lengths.max())), pad_value, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out, lengths


def tokenizer_markers_survive(tokenizer, text: str) -> bool:
    """Marker-survival check for an ARBITRARY tokenizer backend. The
    fast piece-counting short-circuit (``markers_survive``) mirrors
    StubTokenizer's id arithmetic exactly — so it is applied ONLY when
    the tokenizer IS a StubTokenizer; any other backend (a real BERT
    tokenizer swap) goes through the general
    ``get_e1e2_start(tokenizer.encode(text))`` path, so a swapped
    tokenizer can never silently pair with the stub shortcut (r2
    ADVICE item: the shortcut would otherwise keep/drop the wrong rows
    after a real-tokenizer swap)."""
    if type(tokenizer) is StubTokenizer:
        return markers_survive(text, tokenizer.max_len)
    ids = tokenizer.encode(text)
    e1 = getattr(tokenizer, "e1_id", E1_ID)
    e2 = getattr(tokenizer, "e2_id", E2_ID)
    return get_e1e2_start(ids, e1, e2) is not None
