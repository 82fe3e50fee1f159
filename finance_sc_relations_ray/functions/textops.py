"""Text-analysis scalar/vector functions for the documents pipeline.

These power the large-scale training-data operators (sentencize,
token counting, quality scoring, language-ID, fingerprinting) and are
deliberately specified with RE2-compatible regexes so the DuckDB oracle
SQL in ``__ray_entry__.oracle_sql`` can express the exact same
computation (driver correctness gate).
"""

from __future__ import annotations

import hashlib
import re

# Sentence split: maximal runs of non-terminators followed by optional
# terminators. RE2-safe (no lookbehind); DuckDB equivalent:
#   regexp_extract_all(text, '[^.!?]+[.!?]*')
_SENT_RE = re.compile(r"[^.!?]+[.!?]*")
# Tokens: RE2 '\S+' parity. RE2's \s is the ASCII class [\t\n\f\r ]
# while Python's Unicode \s also matches NBSP/\v/… — spelling the ASCII
# class out keeps Python and the DuckDB oracle splitting identically on
# non-ASCII whitespace (U+00A0 is a TOKEN character in both). Case
# mapping still uses str.lower(); parity is documented ASCII-only.
_TOKEN_RE = re.compile(r"[^ \t\n\f\r]+")

# Tiny per-language stopword alternations (word-boundary, lowercase).
LANG_PATTERNS: dict[str, str] = {
    "en": r"\b(the|and|of|to|in|is|for|with|that)\b",
    "de": r"\b(der|die|das|und|ist|nicht|ein|mit|auf)\b",
    "fr": r"\b(le|la|les|et|est|une|pour|dans|que)\b",
}


def sentencize(text: str) -> list[str]:
    """Non-empty stripped sentences, in order."""
    return [s for s in (m.strip() for m in _SENT_RE.findall(text)) if s]


def token_count(text: str) -> int:
    """Whitespace-token count (``\\S+`` matches)."""
    return len(_TOKEN_RE.findall(text))


# GPT2-shaped pre-tokenizer alternation, restricted to RE2-compatible
# constructs (no lookarounds, no \p classes): contractions first, then
# space-prefixed letter / digit / symbol runs. Counted ONLY through RE2
# engines (the Arrow `count_substring_regex` kernel in
# pipelines/text.subword_token_counts and DuckDB's regexp_extract_all,
# which agree exactly). Do NOT count it with Python `re`: Python's \s
# inside the negated class is unicode-aware while RE2's is ASCII-only,
# so e.g. U+00A0 tokenizes differently.
BPE_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"


def fingerprint(text: str) -> str:
    """Document fingerprint: md5 hex of the raw text bytes (DuckDB:
    ``md5(text)``)."""
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def tokens_lower(text: str) -> list[str]:
    """Lowercased whitespace tokens (RE2-'\\S+'-parity split)."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def tokens_lower_batch(texts: list[str]) -> tuple["object", "object"]:
    """Batch form of :func:`tokens_lower`: one flat numpy object array
    of all docs' lowercased tokens plus the per-doc token counts.
    Semantics are identical — ``text.lower()`` then ``_TOKEN_RE``
    (vs per-token lower) can only differ if a case mapping produced a
    token character from whitespace or vice versa, which no Unicode
    case mapping does; lowering first is also exactly the oracle's
    ``regexp_extract_all(lower(text), '\\S+')`` order. Returned as
    (flat, counts) so batch consumers can vectorize hashing (unique
    tokens hashed once) and per-doc reduction (np.add.reduceat)."""
    import numpy as np

    per_doc = [_TOKEN_RE.findall(t.lower()) for t in texts]
    counts = np.fromiter(
        (len(p) for p in per_doc), dtype=np.int64, count=len(per_doc)
    )
    flat = np.array(
        [tok for p in per_doc for tok in p], dtype=object
    )
    return flat, counts

