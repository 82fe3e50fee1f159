"""Company-name normalization and a deterministic embedding stand-in.

The reference encodes names with a SimCSE transformer
(src/matcher/core.py:23-56) and compares with cosine similarity
(numba nb_cosine, src/language_model/spacy_loader.py:43-50). The
transformer is not available in this environment, so the engine ships a
deterministic character-trigram hashed embedding behind the same
interface: ``encode_names`` → unit vectors, ``cosine`` → dot product.
Every consumer (alias filtering, grouping, within-doc clustering, entity
linking) and the pure-pandas test oracle use this same function, so the
pipeline-vs-oracle comparison is exact. Swapping in a real encoder is a
one-line change in the actor ``__init__``.

Name normalization mirrors the reference's lookup-key construction
(src/relation_extraction/reporter.py:121-129, 149-164): strip
punctuation, lowercase, drop the substring "the", collapse spaces.
"""

from __future__ import annotations

import re
import string
import zlib

import numpy as np

_PUNCT_RE = re.compile(f"[{re.escape(string.punctuation)}]")
EMB_DIM = 128


def normalize_name(name: str) -> str:
    """Reference key normalization (reporter.py:121-129): remove
    punctuation, lowercase, remove the SUBSTRING "the" (reference quirk —
    not the word), drop spaces is NOT applied here (that variant is only
    for the prefix key, see :func:`prefix_key`)."""
    return _PUNCT_RE.sub("", name).lower().replace("the", "").strip()


def prefix_key(name: str, prefix_len: int = 2) -> str:
    """Partition key for the company-DB lookup: normalized name with
    spaces removed, first ``prefix_len`` chars (reporter.py:149-155)."""
    return _PUNCT_RE.sub("", name.strip()).lower().replace("the", "").replace(" ", "")[
        :prefix_len
    ]


def initials(name: str) -> str:
    """First letters of the alpha words of a cleaned name
    (spacy_loader.py:186-189)."""
    words = [w for w in name.split() if w.isalpha()]
    return "".join(w[0] for w in words)


def _trigrams(s: str) -> list[str]:
    padded = f" {s} "
    if len(padded) < 3:
        return [padded]
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


_ENC_CACHE: dict[tuple[str, int], np.ndarray] = {}
_ENC_CACHE_MAX = 200_000


def encode_name(name: str, dim: int = EMB_DIM) -> np.ndarray:
    """Deterministic unit-norm embedding of one name (float32).

    Case-insensitive, whitespace-collapsed character trigrams hashed by
    crc32 (stable across processes/PYTHONHASHSEED) into ``dim`` buckets.
    Memoized per worker (company names repeat massively across docs —
    the same reason the reference encodes unique names once per call,
    spacy_loader.py:262-274).
    """
    key = (name, dim)
    hit = _ENC_CACHE.get(key)
    if hit is not None:
        return hit
    s = " ".join(name.lower().split())
    v = np.zeros(dim, dtype=np.float32)
    for g in _trigrams(s):
        v[zlib.crc32(g.encode("utf-8")) % dim] += 1.0
    n = float(np.linalg.norm(v))
    if n > 0:
        v /= n
    if len(_ENC_CACHE) < _ENC_CACHE_MAX:
        _ENC_CACHE[key] = v
    return v


def encode_names(names: list[str], dim: int = EMB_DIM) -> np.ndarray:
    """Batch encode → (len(names), dim) float32, rows unit-norm."""
    if not names:
        return np.zeros((0, dim), dtype=np.float32)
    # np.array builds the same contiguous matrix as np.stack, faster
    return np.array([encode_name(n, dim) for n in names])


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two unit vectors."""
    return float(np.dot(a, b))


def similarity(name_a: str, name_b: str) -> float:
    """Pairwise name similarity (the reference's
    ``SimCSE_Matcher.similarity`` surface, matcher/core.py)."""
    return cosine(encode_name(name_a), encode_name(name_b))
