"""Training-data text operators over the ``documents`` table:
cleaning, sentencizing, token counting, quality scoring, language-ID,
fingerprinting, exact + near deduplication.

Every SQL-expressible operator mirrors a DuckDB oracle in
``__ray_entry__.oracle_sql`` (names + rounding match exactly); the
MinHash/SimHash near-dup operators are non-SQL and get rows-only checks
plus their own pytest oracles (tests/test_dedup.py).
"""

from __future__ import annotations

import functools
import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import exchange_fanout
from ..sources.io import sized_read_parquet
from ray.data.aggregate import Min, Sum

from ..functions import textops
from ..functions.clean import clean_array


def _read(
    sf_dir: str, columns: list[str], fanout: bool = False
) -> "ray.data.Dataset":
    # fanout=True for explode-heavy / CPU-heavy first stages (see
    # sources/io.py:sized_read_parquet) — keeps task fan-out when the
    # input file is gate-scale tiny.
    return sized_read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=columns,
        fanout=fanout,
    )


# ----------------------------------------------------------- clean ------
def clean_documents(sf_dir: str) -> "ray.data.Dataset":
    """M1 byte-identity clean applied to documents.text."""

    def f(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch["doc_id"], "clean_text": clean_array(batch["text"])}
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# PII patterns, RE2-safe (no lookarounds/backrefs) so the Arrow kernel
# and the DuckDB oracle replace the identical spans. Applied in a fixed
# order; placeholders contain no pattern-matchable characters.
_PII_RULES = (
    # email before phone: an address's digits must not half-match
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "[IP]"),
    (r"\+?\d[\d -]{7,}\d", "[PHONE]"),
)


def redact_pii_documents(sf_dir: str) -> "ray.data.Dataset":
    """PII redaction (the C4/RefinedWeb-style scrub a training corpus
    runs before anything else): emails, IPv4s and phone-shaped digit
    runs become placeholder tokens. Fully vectorized — one Arrow RE2
    ``replace_substring_regex`` per rule per batch; the DuckDB oracle
    applies the same rules with ``regexp_replace(..., 'g')`` in the
    same order, so redaction is exact."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        col = batch["text"]
        for pat, repl in _PII_RULES:
            col = pc.replace_substring_regex(col, pat, repl)
        return pa.table({"doc_id": batch["doc_id"], "redacted_text": col})

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------- sentencize -----
def sentencize_documents(sf_dir: str) -> "ray.data.Dataset":
    """Doc → (doc_id, sent_id, sent) rows, vectorized.

    Semantics = ``textops.sentencize`` (findall of ``[^.!?]+[.!?]*``,
    strip, drop empties), expressed as Arrow kernels: a NUL sentinel is
    inserted after every terminator RUN, the column is split on it, and
    two masks reproduce findall's edge cases exactly — a piece must
    contain a non-terminator char (findall never yields a piece whose
    ``[^.!?]+`` part is empty, which otherwise happens for a LEADING
    terminator run) and must be non-empty after the strip. Input text
    must contain no NUL bytes (data validation — raises ValueError, not
    assert, so the check survives ``python -O``)."""
    import numpy as np
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if pc.sum(pc.count_substring(text, "\x00")).as_py() not in (0, None):
            raise ValueError(
                "sentencize_documents: input text contains NUL bytes, "
                "which collide with the internal split sentinel"
            )
        pieces = pc.split_pattern(
            pc.replace_substring_regex(text, r"([.!?]+)", "\\1\x00"), "\x00"
        ).combine_chunks()
        raw = pieces.values
        doc_idx = np.repeat(
            np.arange(len(pieces)), np.diff(pieces.offsets.to_numpy())
        )
        stripped = pc.utf8_trim_whitespace(raw)
        keep = pc.and_(
            pc.match_substring_regex(raw, r"[^.!?]"),
            pc.not_equal(stripped, ""),
        ).to_numpy(zero_copy_only=False)
        doc_idx = doc_idx[keep]
        sents = stripped.filter(pa.array(keep))
        # sent_id = running index within each doc (docs are contiguous)
        if len(doc_idx):
            change = np.flatnonzero(np.diff(doc_idx, prepend=-1))
            run_len = np.diff(np.append(change, len(doc_idx)))
            sids = np.arange(len(doc_idx)) - np.repeat(change, run_len)
        else:
            sids = np.array([], dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"].take(pa.array(doc_idx, pa.int64())),
                "sent_id": pa.array(sids, pa.int64()),
                "sent": sents,
            }
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# Arrow's regex kernels ARE RE2, so these vectorized versions share
# regex semantics with the DuckDB oracle by construction (the round-1
# per-row Python loops matched only because textops pinned Python re to
# the RE2-compatible subset).
_TOKEN_PAT = r"[^ \t\n\f\r]+"  # RE2 '\S+'
_WS_PAT = r"[ \t\n\f\r]"
_PUNCT_PAT = r"[.,;:!?]"


# ------------------------------------------------------ token counts ----
def token_counts(sf_dir: str) -> "ray.data.Dataset":
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], _TOKEN_PAT)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": n.cast(pa.int64())}
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


def subword_token_counts(sf_dir: str) -> "ray.data.Dataset":
    """BPE-ish subword-unit counts (textops.BPE_PATTERN, the
    pre-tokenizer split a byte-pair vocab consumes) — vectorized with
    the Arrow RE2 kernel; DuckDB's regexp_extract_all (also RE2) counts
    the identical matches, so the oracle is exact."""
    import pyarrow.compute as pc

    from ..functions.textops import BPE_PATTERN

    def f(batch: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(batch["text"], BPE_PATTERN)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_subwords": n.cast(pa.int64())}
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------- quality scoring ---
def doc_quality(sf_dir: str) -> "ray.data.Dataset":
    """Quality signals, fully vectorized: mean token length =
    (non-whitespace chars) / n_tokens — identical to the sum of token
    lengths over tokens, without materializing the tokens."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.utf8_length(text).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        n_tokens = pc.count_substring_regex(text, _TOKEN_PAT).cast(
            pa.int64()
        ).to_numpy(zero_copy_only=False).astype(np.float64)
        n_ws = pc.count_substring_regex(text, _WS_PAT).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        n_punct = pc.count_substring_regex(text, _PUNCT_PAT).cast(
            pa.int64()
        ).to_numpy(zero_copy_only=False).astype(np.float64)
        mean_len = np.round(
            np.divide(n_chars - n_ws, n_tokens,
                      out=np.zeros_like(n_chars), where=n_tokens > 0),
            6,
        )
        punct_ratio = np.round(
            np.divide(n_punct, n_chars,
                      out=np.zeros_like(n_chars), where=n_chars > 0),
            6,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(n_chars.astype(np.int64), pa.int64()),
                "n_tokens": pa.array(n_tokens.astype(np.int64), pa.int64()),
                "mean_token_len": pa.array(mean_len, pa.float64()),
                "punct_ratio": pa.array(punct_ratio, pa.float64()),
            }
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ----------------------------------------------------------- lang id ----
def lang_id_documents(sf_dir: str) -> "ray.data.Dataset":
    import pyarrow.compute as pc

    from ..functions.textops import LANG_PATTERNS

    def f(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        counts = {
            lang: pc.count_substring_regex(low, pat)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
            for lang, pat in LANG_PATTERNS.items()
        }
        en, de, fr = counts["en"], counts["de"], counts["fr"]
        preds = np.full(len(en), "und", dtype=object)
        preds[en > 0] = "en"
        preds[de > en] = "de"
        preds[(fr > en) & (fr > de)] = "fr"
        return pa.table(
            {"doc_id": batch["doc_id"],
             "lang_pred": pa.array(preds.tolist(), pa.string())}
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ------------------------------------------------------- fingerprint ----
def fingerprint_documents(sf_dir: str) -> "ray.data.Dataset":
    def f(batch: pa.Table) -> pa.Table:
        fps = [textops.fingerprint(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "fp": pa.array(fps, pa.string())}
        )

    return _read(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------- quality filter ----
def filter_quality_documents(
    sf_dir: str,
    min_tokens: int = 20,
    max_punct_ratio: float = 0.05,
    lang: str = "en",
) -> "ray.data.Dataset":
    """Training-data quality gate: keep documents with ≥min_tokens
    whitespace tokens, ≤max_punct_ratio punctuation density, and the
    target language tag — the standard pretraining-corpus filter shape,
    fully vectorizable and SQL-mirrored."""

    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_tokens = pc.count_substring_regex(text, _TOKEN_PAT).cast(
            pa.int64()
        ).to_numpy(zero_copy_only=False).astype(np.float64)
        n_punct = pc.count_substring_regex(text, _PUNCT_PAT).cast(
            pa.int64()
        ).to_numpy(zero_copy_only=False).astype(np.float64)
        n_chars = pc.utf8_length(text).cast(pa.int64()).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        ratio = np.divide(  # unrounded (SQL parity)
            n_punct, n_chars, out=np.zeros_like(n_punct), where=n_chars > 0
        )
        keep = (n_tokens >= min_tokens) & (ratio <= max_punct_ratio)
        return pa.table(
            {"doc_id": batch["doc_id"], "n_chars": batch["n_chars"]}
        ).filter(pa.array(keep))

    import pyarrow.dataset as pads

    # S7 read-layer predicate pushdown: the language equality filter is
    # evaluated at the parquet scan (row-group statistics pruning +
    # scan-level filtering) — non-matching bytes never enter the stream
    ds = sized_read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"],
        filter=pads.field("lang") == lang,
    )
    return ds.map_batches(f, batch_format="pyarrow")


def length_quantile_filter(
    sf_dir: str, num: int = 1, den: int = 2
) -> pd.DataFrame:
    """Per-language quantile-gated length filter: keep documents whose
    ``n_chars`` is at or above their language's num/den-quantile, and
    report per-language (threshold, kept count, kept char mass).

    The two-pass "bounded stats → broadcast scalar → map-only filter"
    shape that data-dependent corpus gates take at 100 TB:

    - **Pass 1** builds a per-(lang, n_chars) histogram via per-batch
      combiners + one tiny groupby — bounded by (languages × distinct
      lengths) regardless of row count, so the driver-side threshold
      computation touches a few thousand rows at any scale.
    - Thresholds (a dict of a handful of ints) ride into pass 2 by
      closure capture — a scalar broadcast, not a shuffle join.
    - **Pass 2** is map-only over the same two pruned columns, ending
      in a languages-sized groupby of per-batch partials.

    Quantile rank uses the integer ceil rule shared with
    ``value_quantile_sketch`` (mlops.py: QUANTILE_SKETCH_QS note) so
    the DuckDB oracle replays the threshold bit-exactly; all outputs
    are integers — no float policy needed at all.
    """
    if not (0 < num <= den):
        raise ValueError(f"quantile num/den must be in (0, 1]: {num}/{den}")

    def hist(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": batch["lang"].to_numpy(zero_copy_only=False),
                "bin": batch["n_chars"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["lang", "bin"], sort=False).size().reset_index(name="c")
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "bin": pa.array(g["bin"].to_numpy(), pa.int64()),
                "c": pa.array(g["c"].to_numpy().astype(np.int64), pa.int64()),
            }
        )

    h = (
        _read(sf_dir, ["lang", "n_chars"])
        .map_batches(hist, batch_format="pyarrow")
        .groupby(["lang", "bin"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    thr: dict[str, int] = {}
    for lang, g in h.groupby("lang"):
        g = g.sort_values("bin")
        cum = g["c"].to_numpy().cumsum()
        k = (num * int(cum[-1]) + den - 1) // den
        thr[str(lang)] = int(g["bin"].to_numpy()[np.searchsorted(cum, k)])

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["lang"].map(thr).to_numpy()
        kept = batch[batch["n_chars"].to_numpy() >= t]
        g = (
            kept.groupby("lang", sort=False)["n_chars"]
            .agg(["size", "sum"])
            .reset_index()
        )
        return pd.DataFrame(
            {
                "lang": g["lang"],
                "n_kept": g["size"].astype(np.int64),
                "sum_chars_kept": g["sum"].astype(np.int64),
            }
        )

    out = (
        _read(sf_dir, ["lang", "n_chars"])
        .map_batches(keep, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Sum("n_kept", alias_name="n_kept"),
            Sum("sum_chars_kept", alias_name="sum_chars_kept"),
        )
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    out.insert(1, "threshold", out["lang"].map(thr).astype(np.int64))
    return out


# ------------------------------------------------------- exact dedup ----
def dedup_exact_ds(sf_dir: str) -> "ray.data.Dataset":
    """Exact dedup, DATASET core (r2 verdict #8): hash-partitioned
    groupby(text_hash) keeping the smallest doc_id + duplicate count
    (A7 pattern with the per-batch combiner from stages/shuffle.py).
    Composable — downstream operators consume the stream without any
    driver collection; ``dedup_exact`` is the thin pandas shim over
    this for the oracle gate."""

    def partial(batch: pa.Table) -> pa.Table:
        agg: dict[str, list[int]] = {}
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            h = textops.fingerprint(text)
            cur = agg.get(h)
            if cur is None:
                agg[h] = [doc_id, 1]
            else:
                cur[0] = min(cur[0], doc_id)
                cur[1] += 1
        return pa.table(
            {
                "text_hash": pa.array(list(agg.keys()), pa.string()),
                "doc_id": pa.array([v[0] for v in agg.values()], pa.int64()),
                "n_dups": pa.array([v[1] for v in agg.values()], pa.int64()),
            }
        )

    return (
        _read(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("text_hash")
        .aggregate(
            Min("doc_id", alias_name="doc_id"), Sum("n_dups", alias_name="n_dups")
        )
    )


def dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Pandas shim over :func:`dedup_exact_ds` (oracle-gate contract)."""
    out = dedup_exact_ds(sf_dir).to_pandas()
    return out.sort_values("text_hash").reset_index(drop=True)


# ----------------------------------------------------- MinHash + LSH ----
# MinHash: Broder, "On the resemblance and containment of documents"
# (SEQUENCES 1997); banding/LSH: Leskovec-Rajaraman-Ullman, Mining of
# Massive Datasets ch.3. SimHash below: Charikar, "Similarity estimation
# techniques from rounding algorithms" (STOC 2002).
_MERSENNE = (1 << 61) - 1


def _signed64(h: int) -> int:
    """Two's-complement reinterpretation uint64 → int64 (Arrow int64
    columns; bijective, so equality classes are preserved)."""
    return h - (1 << 64) if h >= (1 << 63) else h


def _minhash_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


def _minhash_sig(text: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sh = textops.shingles(text, 3)
    if not sh:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    hv = np.array([_md5_64(s) for s in sorted(sh)], dtype=np.uint64)
    # (a*h + b) mod p, broadcast perms × shingles. numpy uint64
    # arithmetic WRAPS mod 2^64 before the Mersenne reduction; the SQL
    # oracle replicates the wrap explicitly (% 2^64 in HUGEINT), so
    # signatures are bit-identical by construction.
    vals = (a[:, None] * hv[None, :] + b[:, None]) % _MERSENNE
    return vals.min(axis=1)


class MinHashActor:
    """Stateful minhash signer: permutation params built once per actor."""

    def __init__(self, num_perm: int = 64, bands: int = 16, seed: int = 42):
        self.a, self.b = _minhash_params(num_perm, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        """doc rows → (band_id, band_hash, doc_id) rows for LSH
        bucketing."""
        doc_ids, band_ids, band_hashes = [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            sig = _minhash_sig(text, self.a, self.b)
            for band in range(self.bands):
                chunk = sig[band * self.rows_per_band : (band + 1) * self.rows_per_band]
                # md5 of the decimal-joined band values: 64-bit (band
                # collisions ~2^-64 instead of crc32's 2^-32) and
                # SQL-replicable (md5(string_agg(v, ',' ORDER BY i)))
                h = _signed64(_md5_64(",".join(str(int(v)) for v in chunk)))
                doc_ids.append(doc_id)
                band_ids.append(band)
                band_hashes.append(h)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band_id": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(band_hashes, pa.int64()),
            }
        )


def _minhash_pairs_ds(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.8,
    max_bucket_docs: int = 1000,
    pushdown_max_ids: int = 100_000,
    on_degenerate: str = "star",
) -> "ray.data.Dataset":
    """MinHash+LSH near-dup candidate pairs, verified with exact word-
    3-gram Jaccard (shingle → minhash → band → bucket groupby →
    verify; the ray_guide near-dup recipe), as a composable DATASET of
    verified pairs (doc_id_a < doc_id_b) with their Jaccard.

    ``on_degenerate``: what to do when an LSH bucket exceeds
    ``max_bucket_docs`` — ``"star"`` (production: emit star pairs to
    the min id, logged) or ``"raise"`` (oracle-gated contexts: the
    star cap is deliberately NOT modeled in the SQL oracle, so fail
    loudly with a clear message instead of hash-mismatching
    confusingly; r2 ADVICE item)."""
    bands_ds = _read(sf_dir, ["doc_id", "text"], fanout=True).map_batches(
        MinHashActor,
        fn_constructor_kwargs={"num_perm": num_perm, "bands": bands},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )

    # co-partition LSH buckets by a coarse hash so each map_groups call
    # processes MANY buckets (per-group overhead amortized — the same
    # bucketed-groupby trick as the doc aggregation)
    n_coarse = exchange_fanout()

    def add_coarse(batch: pa.Table) -> pa.Table:
        coarse = [
            zlib.crc32(f"{bi}:{bh}".encode()) % n_coarse
            for bi, bh in zip(
                batch["band_id"].to_pylist(), batch["band_hash"].to_pylist()
            )
        ]
        return batch.append_column("coarse", pa.array(coarse, pa.int32()))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for (_, _), grp in g.groupby(["band_id", "band_hash"]):
            ids = np.unique(grp["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            if len(ids) > max_bucket_docs:
                if on_degenerate == "raise":
                    raise ValueError(
                        f"degenerate LSH bucket with {len(ids)} docs > "
                        f"cap {max_bucket_docs}: the star cap is not "
                        "modeled by the SQL oracle — raise the cap or "
                        "run with on_degenerate='star'"
                    )
                # degenerate bucket (e.g. near-empty docs sharing a
                # signature): all-pairs would be O(n²) unbounded. Emit
                # the STAR to the min id instead — for duplicate-cluster
                # purposes connectivity to one representative suffices,
                # and the exact verify stage still gates every emitted
                # pair. Logged so a silent cap never reads as coverage.
                print(
                    f"[minhash] degenerate LSH bucket: {len(ids)} docs "
                    f"> cap {max_bucket_docs}; emitting star pairs only"
                )
                out_a.append(np.repeat(ids[0], len(ids) - 1))
                out_b.append(ids[1:])
                continue
            # all C(n,2) ordered pairs, vectorized (r3 ADVICE: the
            # nested Python pair loop was the residual hot spot here)
            ia, ib = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ia])
            out_b.append(ids[ib])
        if not out_a:
            return pd.DataFrame(
                {"doc_id_a": pd.Series([], dtype="int64"),
                 "doc_id_b": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"doc_id_a": np.concatenate(out_a),
             "doc_id_b": np.concatenate(out_b)}
        )

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    raw_pairs = (
        bands_ds.map_batches(add_coarse, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(
            bucket_pairs, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
    )
    # The candidate funnel stays a DATASET end-to-end (r2 verdict #1:
    # on template-heavy web corpora candidate pairs are O(corpus), so
    # they must never pinch through the driver). Distinct pairs are the
    # combiner pattern of stages/shuffle.py: per-batch drop_duplicates
    # → hash-bucketed exchange → per-bucket distinct; the exchange
    # moves at most one row per (pair, batch). Materialized in the
    # OBJECT STORE (spillable), not the driver heap, because the stream
    # is consumed twice (id derivation + the verify join) and its count
    # sizes the join exchange.
    from ..stages.shuffle import distinct_pair_ids_ds, distinct_pairs_ds

    pairs_ds = distinct_pairs_ds(raw_pairs).materialize()
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return ray.data.from_arrow(_EMPTY_PAIRS_TABLE)

    # verify with exact shingle Jaccard — fully distributed: document
    # text never leaves the workers, and (since r3) neither do the
    # candidate pair/id streams. The candidate doc-id set is derived
    # with the same distinct combiner, and its semi-join summary is a
    # Bloom filter built by a distributed OR-reduce aggregate
    # (functions/bloom.build_distributed): the driver holds only the
    # fixed-size bitmap. Bloom false positives are harmless — they cost
    # a wasted shingle computation and are then dropped by the INNER
    # bucket join (no exact recheck needed).
    ids_ds = distinct_pair_ids_ds(pairs_ds).materialize()
    n_need = ids_ds.count()

    def to_shingle_hashes(batch: pa.Table) -> pa.Table:
        """doc rows → (doc_id, sh: distinct SORTED 64-bit shingle
        hashes). Hashing the shingles makes the per-doc payload compact
        and the set Jaccard exact up to 64-bit collisions (~n²/2⁶⁵ —
        nil). Vectorized (r3 ADVICE): the batch's shingle vocabulary is
        deduplicated FIRST so md5 runs once per distinct shingle (Zipf
        makes that a large cut), and per-doc dedup/sort/sign run as
        numpy kernels; uint64→int64 sign reinterpretation is a .view
        (bijective, order-preserving within each doc's distinct set
        after the signed sort)."""
        texts = batch["text"].to_pylist()
        per_doc = [list(textops.shingles(t, 3)) for t in texts]
        flat = np.array(
            [s for sh in per_doc for s in sh], dtype=object
        )
        offsets = np.zeros(len(per_doc) + 1, dtype=np.int64)
        np.cumsum([len(sh) for sh in per_doc], out=offsets[1:])
        if len(flat):
            # hash-based dedup (object-array np.unique is
            # Python-comparison-bound — see _bucket_ids note)
            codes, uniq = pd.factorize(flat)
            uh = np.fromiter(
                (_md5_64(s) for s in uniq), dtype=np.uint64, count=len(uniq)
            ).view(np.int64)
            all_h = uh[codes]
        else:
            all_h = np.zeros(0, dtype=np.int64)
        hs = [
            np.unique(all_h[offsets[i] : offsets[i + 1]])
            for i in range(len(per_doc))
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sh": pa.array([h.tolist() for h in hs], pa.list_(pa.int64())),
            }
        )

    from ..stages.joins import bucket_lookup_join

    # candidate-doc shingle sets: small side (candidates only), kept in
    # the object store (materialized once, consumed by both joins).
    # The candidate scan is the shared funnel read
    # (sources/io.candidate_filtered_read): count-gated isin scan
    # pushdown (EXACT) below pushdown_max_ids, Bloom semi-join above —
    # Bloom false positives cost a wasted shingle computation and are
    # then dropped by the INNER bucket join (no exact recheck needed).
    from ..sources.io import candidate_filtered_read

    cand_read = candidate_filtered_read(
        os.path.join(sf_dir, "documents.parquet"),
        key="doc_id",
        columns=["doc_id", "text"],
        ids_ds=ids_ds,
        n_need=n_need,
        pushdown_max_ids=pushdown_max_ids,
    )
    sub = (
        cand_read
        .map_batches(to_shingle_hashes, batch_format="pyarrow")
        .materialize()
    )
    schema1 = pa.schema([("doc_id_a", pa.int64()), ("doc_id_b", pa.int64())])
    lt = pa.list_(pa.int64())
    # bucket count scales with the CANDIDATE volume, not a constant:
    # the verify funnel is usually tiny relative to the corpus, and a
    # fixed 32-bucket exchange over a few hundred pairs spends its
    # whole wall scheduling near-empty sort tasks (the dup_clusters
    # block-explosion lesson)
    nb = int(min(32, max(n_pairs, n_need) // 50_000 + 1))
    j1 = bucket_lookup_join(
        pairs_ds, sub, on="doc_id_a", right_key="doc_id",
        payload={"sh": "sh_a"}, left_schema=schema1,
        payload_types={"sh_a": lt}, num_buckets=nb,
    )
    schema2 = schema1.append(pa.field("sh_a", lt))
    j2 = bucket_lookup_join(
        j1, sub, on="doc_id_b", right_key="doc_id",
        payload={"sh": "sh_b"}, left_schema=schema2,
        payload_types={"sh_b": lt}, num_buckets=nb,
    )

    def verify(batch: pa.Table) -> pa.Table:
        """Exact set Jaccard over the (sorted, distinct) hash lists —
        vectorized (r3 ADVICE): the per-pair intersection is a
        searchsorted merge over the Arrow list buffers (C-speed) in
        place of Python set ops; |A∩B|/(|A|+|B|−|A∩B|) matches
        textops.jaccard exactly, including the both-empty → 1.0
        convention."""
        n = batch.num_rows
        if n == 0:
            return _EMPTY_PAIRS_TABLE
        sa_col = batch["sh_a"].combine_chunks()
        sb_col = batch["sh_b"].combine_chunks()
        av = sa_col.values.to_numpy(zero_copy_only=False)
        bv = sb_col.values.to_numpy(zero_copy_only=False)
        ao = sa_col.offsets.to_numpy()
        bo = sb_col.offsets.to_numpy()
        jac = np.empty(n, dtype=np.float64)
        for i in range(n):
            a = av[ao[i] : ao[i + 1]]
            b = bv[bo[i] : bo[i + 1]]
            if not len(a) and not len(b):
                jac[i] = 1.0
                continue
            if len(a) > len(b):
                a, b = b, a
            if not len(a):
                jac[i] = 0.0
                continue
            pos = np.searchsorted(b, a)
            pos[pos == len(b)] = 0  # out-of-range → safe index (miss)
            inter = int(np.count_nonzero(b[pos] == a))
            jac[i] = inter / (len(a) + len(b) - inter)
        hit = jac >= jaccard_threshold
        return pa.table(
            {
                "doc_id_a": batch["doc_id_a"].filter(pa.array(hit)),
                "doc_id_b": batch["doc_id_b"].filter(pa.array(hit)),
                "jaccard": pa.array(np.round(jac[hit], 6), pa.float64()),
            }
        )

    return j2.map_batches(verify, batch_format="pyarrow")


_EMPTY_PAIRS_TABLE = pa.table(
    {
        "doc_id_a": pa.array([], pa.int64()),
        "doc_id_b": pa.array([], pa.int64()),
        "jaccard": pa.array([], pa.float64()),
    }
)


def minhash_dup_pairs(
    sf_dir: str,
    num_perm: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.8,
    max_bucket_docs: int = 1000,
    pushdown_max_ids: int = 100_000,
    on_degenerate: str = "star",
) -> pd.DataFrame:
    """Pandas shim over :func:`_minhash_pairs_ds` (oracle-gate
    contract; see the core for the algorithm and scale notes)."""
    out = _minhash_pairs_ds(
        sf_dir, num_perm, bands, jaccard_threshold, max_bucket_docs,
        pushdown_max_ids, on_degenerate,
    ).to_pandas()
    if out.empty:
        out = pd.DataFrame(
            {"doc_id_a": pd.Series([], dtype="int64"),
             "doc_id_b": pd.Series([], dtype="int64"),
             "jaccard": pd.Series([], dtype="float64")}
        )
    return out.sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)


# ---------------------------------------------------- heavy hitters -----
def heavy_hitter_tokens(sf_dir: str, min_fraction: float = 0.005) -> pd.DataFrame:
    """Exact heavy-hitter tokens: words occurring in ≥ min_fraction of
    all token occurrences. Two-phase: per-batch Counter partials →
    groupby sum → filter against the (tiny) broadcast total."""
    from ray.data.aggregate import Sum as _Sum

    def partial(batch: pa.Table) -> pa.Table:
        # RE2-parity tokenization (ASCII-whitespace split + lower; see
        # textops._TOKEN_RE) so the DuckDB oracle's
        # regexp_extract_all(lower(text), '\S+') counts identically;
        # batch kernel + one vectorized value_counts (r5: the per-doc
        # Counter loop was the stage's dominant cost)
        flat, _ = textops.tokens_lower_batch(batch["text"].to_pylist())
        if len(flat) == 0:
            return pa.table(
                {
                    "tok": pa.array([], pa.string()),
                    "n_occurrences": pa.array([], pa.int64()),
                }
            )
        vc = pd.Series(flat).value_counts(sort=False)
        return pa.table(
            {
                "tok": pa.array(vc.index.to_numpy(), pa.string()),
                "n_occurrences": pa.array(vc.to_numpy(), pa.int64()),
            }
        )

    # the distinct-token count table is web-scale (billions of rows of
    # noise tokens) — it stays distributed; only the SCALAR total and
    # the ≤ 1/min_fraction heavy rows ever reach the driver
    counts = (
        _read(sf_dir, ["text"], fanout=True)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(_Sum("n_occurrences", alias_name="n_occurrences"))
        .materialize()
    )
    total = counts.sum("n_occurrences")
    floor = min_fraction * total

    def heavy(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.greater_equal(batch["n_occurrences"], floor))

    out = counts.map_batches(heavy, batch_format="pyarrow").to_pandas()
    return out.sort_values("tok").reset_index(drop=True)


# ------------------------------------- unigram log-prob (perplexity) ----
def unigram_logprob_documents(sf_dir: str) -> "ray.data.Dataset":
    """CCNet-style perplexity-proxy quality score: per-document mean
    log10 probability of its tokens under the corpus-wide unigram MLE
    distribution (the in-environment stand-in for a KenLM 5-gram LM —
    the standard web-corpus quality gate; low scores = rare-token noise,
    boilerplate scores high).

    Distributed plan (vocab is web-scale, so NOTHING is broadcast):
    per-(doc, token) counts from a map-only explode (combiner — one
    row per doc x distinct token; REDERIVED for each of its two
    consumers rather than materialized, see inline note) → unigram
    table via combiner-first groupby(token) → per-token
    micro-log-prob quantized to int64
    (``floor(log10(c/N)*1e6 + 0.5)``) so the per-doc accumulation is an
    INTEGER sum — exactly order-independent across the token-bucketed
    join exchange, which makes the result bit-stable run-to-run and
    against the DuckDB oracle — → co-partitioned `bucket_lookup_join`
    back onto the doc-token rows → combiner-first per-doc (sum, count)
    → integer mean (output ``micro_logprob`` = 1e-6 units of log10
    prob; stays integer end-to-end so no float-rounding divergence).
    Only the scalar corpus token total N touches the driver.
    Docs with zero tokens have no defined score and are omitted (they
    never survive a length filter anyway)."""
    from ray.data.aggregate import Sum as _Sum

    from ..stages.joins import bucket_lookup_join

    def explode_counts(batch: pa.Table) -> pa.Table:
        # batch tokenize + one vectorized two-key groupby (the graph
        # _explode_tf shape; r5 replaced the per-doc Counter loop)
        flat, counts = textops.tokens_lower_batch(
            batch["text"].to_pylist()
        )
        if len(flat) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "tok": pa.array([], pa.string()),
                    "k": pa.array([], pa.int64()),
                }
            )
        rep = np.repeat(
            batch["doc_id"].to_numpy(zero_copy_only=False), counts
        )
        g = (
            pd.DataFrame({"doc_id": rep, "tok": flat})
            .groupby(["doc_id", "tok"], as_index=False, sort=False)
            .size()
        )
        return pa.table(
            {
                "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                "tok": pa.array(g["tok"].tolist(), pa.string()),
                "k": pa.array(g["size"].to_numpy(), pa.int64()),
            }
        )

    # REDERIVE, don't pin (r2 verdict #6, measured decision in
    # BASELINE.md §unigram): the doc×token explode is the largest
    # intermediate of the whole pipeline (≈ corpus token count); a
    # materialize() for dual consumption pins it in the object store
    # and at 100 TB spills ~the corpus to local disk. Re-running the
    # map-only explode for the second consumer costs one extra
    # read+tokenize pass that fully streams — measured a wash at sf0.1
    # (2.8-4.3 s both ways, host noise dominates), so the
    # scale-safe plan wins.
    def toks_ds() -> "ray.data.Dataset":
        return _read(sf_dir, ["doc_id", "text"], fanout=True).map_batches(
            explode_counts, batch_format="pyarrow"
        )

    toks = toks_ds()

    def partial_tok(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {"tok": batch["tok"].to_pylist(), "c": batch["k"].to_numpy()}
        )
        g = df.groupby("tok", as_index=False)["c"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    uni = (
        toks.map_batches(partial_tok, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(_Sum("c", alias_name="c"))
        .materialize()
    )
    n_total = uni.sum("c")

    def to_li(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        # PLATFORM ASSUMPTION (r2 ADVICE): bit-exact oracle parity
        # relies on np.log10 and DuckDB's log10 agreeing to the last
        # ulp at the floor(x*1e6+0.5) quantization boundaries — true
        # here (both call the same libm) but a 1-ulp difference on
        # another platform flips li by 1. Downstream integer math is
        # exact either way; only the quantization step is float.
        li = np.floor(np.log10(c / float(n_total)) * 1e6 + 0.5).astype(np.int64)
        return pa.table({"tok": batch["tok"], "li": pa.array(li, pa.int64())})

    uni_li = uni.map_batches(to_li, batch_format="pyarrow")

    joined = bucket_lookup_join(
        toks_ds(), uni_li, on="tok", right_key="tok",
        payload={"li": "li"},
        left_schema=pa.schema(
            [("doc_id", pa.int64()), ("tok", pa.string()), ("k", pa.int64())]
        ),
        payload_types={"li": pa.int64()},
    )

    def partial_doc(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False)
        li = batch["li"].to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(), "s": k * li, "m": k}
        )
        g = df.groupby("doc_id", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_doc = (
        joined.map_batches(partial_doc, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(_Sum("s", alias_name="s"), _Sum("m", alias_name="m"))
    )

    def finalize(batch: pa.Table) -> pa.Table:
        # exact integer round-half of mean micro-log-prob: all-positive
        # floor division so numpy (floor) and DuckDB (trunc) agree —
        # float rounding at the 1e-6 boundary bit us in testing
        s = batch["s"].to_numpy(zero_copy_only=False)
        m = batch["m"].to_numpy(zero_copy_only=False)
        t = -s  # log-probs are <= 0, so t >= 0
        micro = -((2 * t + m) // (2 * m))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "micro_logprob": pa.array(micro, pa.int64()),
            }
        )

    return per_doc.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------- C4 span-level exact dedup -------
def span_dedup_documents(
    sf_dir: str, n_sent: int = 3, num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """C4-style duplicate-span removal (Raffel et al. 2020 §2.2:
    "we discarded all but one of any three-sentence span occurring more
    than once in the data set"): every sliding window of ``n_sent``
    consecutive sentences is hashed corpus-wide; all but the first
    occurrence (ordered by (doc_id, position)) have their sentences
    removed, and each document is rebuilt from its surviving sentences.
    Returns (doc_id, text) for every document (possibly empty text).

    Distributed plan: span occurrences (doc_id, pos, 128-bit md5 of the
    span — two int64 columns, so grouping can't collide at 10^14-span
    scale the way a single 64-bit key would) → per-batch combiner
    (within a batch, only the min-(doc_id,pos) occurrence of a span
    goes to the global exchange as a candidate; occurrences it already
    beats are emitted as final losers immediately — a local loser loses
    globally too, so the all-to-all moves at most one row per
    span x batch) → global per-span min among candidates → loser
    positions explode to covered sentence indices → ONE doc-bucketed
    exchange carrying removal rows and document rows together → per-doc
    removal set + rebuild in a single whole-group stage (sentences are
    re-derived there, so sentence TEXT crosses the exchange once, as
    part of its own document row). Exactly TWO all-to-all exchanges.
    The DuckDB oracle replicates it with window functions over the
    sentencize CTE (n_sent pinned to 3 there)."""
    num_buckets = exchange_fanout(num_buckets)
    import hashlib

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    def span_occurrences(batch: pa.Table) -> pa.Table:
        doc_ids, poss, h1s, h2s = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            sents = textops.sentencize(text)
            for i in range(len(sents) - n_sent + 1):
                span = " ".join(sents[i : i + n_sent])
                d = hashlib.md5(span.encode("utf-8")).digest()
                doc_ids.append(doc_id)
                poss.append(i)
                h1s.append(int.from_bytes(d[:8], "big", signed=True))
                h2s.append(int.from_bytes(d[8:], "big", signed=True))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "pos": pa.array(poss, pa.int64()),
                "h1": pa.array(h1s, pa.int64()),
                "h2": pa.array(h2s, pa.int64()),
            }
        )

    def local_reduce(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["h1", "h2", "doc_id", "pos"])
        first = ~df.duplicated(["h1", "h2"], keep="first")
        df["is_cand"] = first.astype("int8")
        return pa.Table.from_pandas(df, preserve_index=False)

    occ = (
        _read(sf_dir, ["doc_id", "text"], fanout=True)
        .map_batches(span_occurrences, batch_format="pyarrow")
        .map_batches(local_reduce, batch_format="pyarrow")
        .materialize()
    )

    local_losers = occ.filter(
        expr="is_cand == 0"
    ).select_columns(["doc_id", "pos"])

    def add_span_bucket(batch: pa.Table) -> pa.Table:
        h = batch["h1"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = ((h * np.uint64(2654435761)) % np.uint64(num_buckets)).astype(
            np.int32
        )
        return batch.append_column("b", pa.array(bk, pa.int32()))

    def global_losers(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h1", "h2", "doc_id", "pos"])
        losers = g[g.duplicated(["h1", "h2"], keep="first")]
        return losers[["doc_id", "pos"]].reset_index(drop=True)

    dup_losers = (
        occ.filter(expr="is_cand == 1")
        .map_batches(add_span_bucket, batch_format="pyarrow")
        .groupby("b")
        .map_groups(
            global_losers, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
    )

    def explode_removed(batch: pa.Table) -> pa.Table:
        doc = np.repeat(batch["doc_id"].to_numpy(zero_copy_only=False), n_sent)
        pos = np.repeat(batch["pos"].to_numpy(zero_copy_only=False), n_sent)
        off = np.tile(np.arange(n_sent, dtype=np.int64), batch.num_rows)
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "idx": pa.array(pos + off, pa.int64()),
            }
        )

    removed = local_losers.union(dup_losers).map_batches(
        explode_removed, batch_format="pyarrow"
    )

    # removal rows and the document rows themselves ride the SAME
    # doc-bucketed exchange (one unified (doc_id, idx, text) schema;
    # removal rows carry a null text, doc rows a null idx), and one
    # whole-group fn builds each doc's removal set and rebuilds it in
    # place. The earlier cut ran a separate removal-list groupby PLUS a
    # bucket join — two sorts where one suffices (profiled: the three
    # sorts were 17.5 s of a 22.5 s wall at sf0.1).
    def removal_to_unified(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = ((d * np.uint64(2654435761)) % np.uint64(num_buckets)).astype(
            np.int32
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "idx": batch["idx"],
                "text": pa.nulls(batch.num_rows, pa.string()),
                "b": pa.array(bk, pa.int32()),
            }
        )

    def doc_to_unified(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = ((d * np.uint64(2654435761)) % np.uint64(num_buckets)).astype(
            np.int32
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "idx": pa.nulls(batch.num_rows, pa.int64()),
                "text": batch["text"],
                "b": pa.array(bk, pa.int32()),
            }
        )

    unified = removed.map_batches(
        removal_to_unified, batch_format="pyarrow"
    ).union(
        _read(sf_dir, ["doc_id", "text"]).map_batches(
            doc_to_unified, batch_format="pyarrow"
        )
    )

    def rebuild_group(g: pd.DataFrame) -> pa.Table:
        is_doc = g["text"].notna()
        rem = g[~is_doc]
        rem_map: dict = (
            rem.groupby("doc_id")["idx"].apply(
                lambda s: {int(x) for x in s}
            ).to_dict()
            if len(rem)
            else {}
        )
        docs = g[is_doc]
        ids, texts = [], []
        for doc_id, text in zip(docs["doc_id"], docs["text"]):
            sents = textops.sentencize(text)
            drop = rem_map.get(doc_id, ())
            ids.append(int(doc_id))
            texts.append(
                " ".join(s for i, s in enumerate(sents) if i not in drop)
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return (
        unified.groupby("b")
        .map_groups(
            rebuild_group, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
    )


# ------------------------------------------------ exact n-gram Jaccard --
def ngram_jaccard_pairs(
    sf_dir: str, threshold: float = 0.8, n: int = 3,
    max_doc_freq: int | None = None,
) -> pd.DataFrame:
    """Driver-facing wrapper over `_ngram_jaccard_pairs_ds` — collects
    the (small) pair result to pandas and sorts it for the oracle
    compare. The Dataset core stays available to downstream operators
    (`dup_clusters`) that must keep the pairs distributed."""
    out = _ngram_jaccard_pairs_ds(sf_dir, threshold, n, max_doc_freq).to_pandas()
    if out.empty:
        out = pd.DataFrame(
            {"doc_id_a": pd.Series([], dtype="int64"),
             "doc_id_b": pd.Series([], dtype="int64"),
             "jaccard": pd.Series([], dtype="float64")}
        )
    return out.sort_values(["doc_id_a", "doc_id_b"]).reset_index(drop=True)


def _ngram_jaccard_pairs_ds(
    sf_dir: str, threshold: float = 0.8, n: int = 3,
    max_doc_freq: int | None = None,
) -> "ray.data.Dataset":
    """EXACT word-n-gram Jaccard near-dup pairs, fully distributed:
    shingle-explode (per-doc |shingles| riding along every row — no
    driver-side count map, no broadcast dict, no count-attach join) →
    co-partitioned pair counting (|A∩B|) → pair-bucketed sum →
    jaccard. Exactly TWO all-to-all exchanges.
    The shingle groupby is amortized over coarse hash buckets; this is
    the exact-verification complement to the MinHash+LSH candidate
    generator. DuckDB oracle mirrors it exactly when
    ``max_doc_freq=None``; setting it drops shingles shared by more
    than that many docs (the standard hot-shingle prefilter for the
    scale path — pairs sharing ONLY ultra-common shingles are below any
    useful threshold anyway), logged, at the cost of exactness."""

    n_coarse = exchange_fanout()

    def explode(batch: pa.Table) -> pa.Table:
        """doc rows → (doc_id, shingle, |shingles(doc)|, coarse bucket).
        The per-doc count RIDES ALONG each shingle row: a pair stage
        downstream then has n_a/n_b in hand, so no count-attach join —
        and therefore no extra exchange — is ever needed (the round-2
        first cut ran TWO bucket-join sorts just to re-attach a number
        the explode stage already knew; at this data size the three
        sort exchanges were 13.4 s of a 17.3 s wall)."""
        doc_ids, grams, ns = [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            sh = textops.shingles(text, n)
            for g in sh:
                doc_ids.append(doc_id)
                grams.append(g)
                ns.append(len(sh))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "g": pa.array(grams, pa.string()),
                "n": pa.array(ns, pa.int64()),
                "coarse": pa.array(
                    [zlib.crc32(x.encode("utf-8")) % n_coarse for x in grams],
                    pa.int32(),
                ),
            }
        )

    shingle_rows = _read(sf_dir, ["doc_id", "text"], fanout=True).map_batches(
        explode, batch_format="pyarrow"
    )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """Same-shingle doc pairs in this coarse bucket via a
        vectorized self-merge, PRE-COUNTED per pair (the per-bucket
        combiner), keyed by an int pair-hash bucket for the final
        exchange — a 2-int-key global aggregate over the raw pair
        stream was this query's hotspot (14 s of a 23 s run)."""
        d = g[["g", "doc_id", "n"]].drop_duplicates()
        if max_doc_freq is not None:
            df_counts = d["g"].value_counts()
            hot = df_counts[df_counts > max_doc_freq]
            if len(hot):
                print(
                    f"[ngram-jaccard] dropping {len(hot)} hot shingles "
                    f"(df > {max_doc_freq}), hottest df={int(hot.iloc[0])}"
                )
                d = d[~d["g"].isin(hot.index)]
        m = d.merge(d, on="g", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        # n_a/n_b are doc constants, so grouping by them too changes
        # nothing except keeping them attached through the reduce
        c = m.groupby(
            ["doc_id_a", "doc_id_b", "n_a", "n_b"], as_index=False
        ).size()
        a = c["doc_id_a"].to_numpy(dtype=np.uint64)
        b = c["doc_id_b"].to_numpy(dtype=np.uint64)
        pb = ((a * np.uint64(2654435761) + b) % np.uint64(64)).astype(np.int32)
        return pd.DataFrame(
            {
                "doc_id_a": c["doc_id_a"],
                "doc_id_b": c["doc_id_b"],
                "n_a": c["n_a"],
                "n_b": c["n_b"],
                "i": c["size"],
                "pb": pb,
            }
        )

    def sum_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(
            ["doc_id_a", "doc_id_b", "n_a", "n_b"], as_index=False
        )["i"].sum()
        return out

    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    # num_cpus on both group stages blocks downstream-map fusion (see
    # stages/shuffle.py NO_FUSE_NUM_CPUS): a fused map re-bundles sorted
    # blocks → partial groups → missed pairs / partial sums
    inter = (
        shingle_rows.groupby("coarse")
        .map_groups(
            bucket_pairs, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
        .groupby("pb")
        .map_groups(
            sum_pairs, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        i = batch["i"].to_numpy(zero_copy_only=False).astype(np.float64)
        na = batch["n_a"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = batch["n_b"].to_numpy(zero_copy_only=False).astype(np.float64)
        union = na + nb - i
        j = np.divide(i, union, out=np.ones_like(i), where=union > 0)
        mask = j >= threshold
        kept = batch.filter(pa.array(mask))
        return pa.table(
            {
                "doc_id_a": kept["doc_id_a"],
                "doc_id_b": kept["doc_id_b"],
                "jaccard": pa.array(np.round(j[mask], 6), pa.float64()),
            }
        )

    return inter.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------- near-dup connected components ----
def _pairs_distinct(ds: "ray.data.Dataset", k: int) -> "ray.data.Dataset":
    """Distributed DISTINCT over (u, v) int64 edge rows (per-batch
    drop_duplicates → hash-bucketed exchange → per-bucket distinct —
    the stages/shuffle.distinct_pairs_ds pattern with these column
    names)."""
    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    def local(batch: pa.Table) -> pa.Table:
        df = batch.select(["u", "v"]).to_pandas().drop_duplicates()
        u = df["u"].to_numpy(dtype=np.uint64)
        b = (
            (u * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
        ).astype(np.int64) % k
        df["b"] = b
        return pa.Table.from_pandas(df, preserve_index=False)

    def distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["u", "v"])[["u", "v"]]

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .groupby("b")
        .map_groups(distinct, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


def _edge_fingerprint(ds: "ray.data.Dataset") -> tuple[int, int]:
    """(count, wrapping-uint64 hash sum) of an (u, v) edge set — the
    per-round convergence check for the alternating-star loop. Each
    batch contributes one partial row; the driver sums partials only."""
    def partial(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = u * np.uint64(0x9E3779B97F4A7C15) + v * np.uint64(
            0xC2B2AE3D27D4EB4F
        )
        return pa.table(
            {
                "n": pa.array([len(u)], pa.int64()),
                "h": pa.array([int(h.sum(dtype=np.uint64))], pa.uint64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum()) if len(parts) else 0
    h = int(np.sum(parts["h"].to_numpy(dtype=np.uint64), dtype=np.uint64)) if len(parts) else 0
    return n, h


def _alternating_star_labels(
    edges: "ray.data.Dataset", k: int, max_rounds: int = 50
) -> "ray.data.Dataset":
    """Connected-component labels via the alternating large-star /
    small-star algorithm (Kiveris et al. 2014, "Connected Components
    in MapReduce and Beyond", Algorithm 2) — O(log² n) rounds
    regardless of component DIAMETER, the fallback for adversarially
    deep graphs where hash-to-min propagation would need
    diameter-many rounds.

    ``edges``: (src, dst) rows in both orientations (as dup_clusters
    builds them). Returns a (node, label) Dataset where label is the
    component minimum; component-minimum nodes themselves are absent
    (they appear only as labels), which the caller's left-join +
    coalesce treats identically to singletons.

    Each half-round is ONE hash-bucketed groupby with a vectorized
    pandas transform inside, followed by a distributed distinct —
    nothing row-level ever lands on the driver; the convergence check
    moves only (count, hashsum) partials.

    * large-star: for every node a, connect each STRICTLY GREATER
      neighbor b to m = min(Γ(a) ∪ {a}).
    * small-star: orient edges (u > v); for every u, connect u and
      each smaller neighbor to m = min Γ≤(u).
    Both preserve connectivity; the fixed point is a disjoint union
    of stars centered at component minima (paper, Lemmas 1-3), at
    which point both operations return their input unchanged — so the
    loop stops when the (count, hashsum) fingerprint repeats."""
    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    def canon(batch: pa.Table) -> pa.Table:
        s = batch["src"].to_numpy(zero_copy_only=False)
        d = batch["dst"].to_numpy(zero_copy_only=False)
        hi = np.maximum(s, d)
        lo = np.minimum(s, d)
        keep = hi != lo
        return pa.table(
            {
                "u": pa.array(hi[keep], pa.int64()),
                "v": pa.array(lo[keep], pa.int64()),
            }
        )

    def both_dirs(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "a": pa.array(np.concatenate([u, v]), pa.int64()),
                "b": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    def bucket_a(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = (
            (a * np.uint64(2654435761)) % np.uint64(k)
        ).astype(np.int32)
        return batch.append_column("bk", pa.array(bk, pa.int32()))

    def large_star(g: pd.DataFrame) -> pd.DataFrame:
        m = np.minimum(g.groupby("a")["b"].transform("min"), g["a"])
        sel = g["b"] > g["a"]
        return pd.DataFrame(
            {"u": g["b"][sel].to_numpy(), "v": m[sel].to_numpy()}
        )

    def bucket_u(batch: pa.Table) -> pa.Table:
        u = batch["u"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = (
            (u * np.uint64(2654435761)) % np.uint64(k)
        ).astype(np.int32)
        return batch.append_column("bk", pa.array(bk, pa.int32()))

    def small_star(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("u")["v"].transform("min")
        sel = g["v"].to_numpy() != m.to_numpy()
        reps = g.assign(m=m).drop_duplicates("u")
        return pd.DataFrame(
            {
                "u": np.concatenate(
                    [g["v"][sel].to_numpy(), reps["u"].to_numpy()]
                ),
                "v": np.concatenate(
                    [m[sel].to_numpy(), reps["m"].to_numpy()]
                ),
            }
        )

    cur = _pairs_distinct(
        edges.map_batches(canon, batch_format="pyarrow"), k
    ).materialize()
    fp = _edge_fingerprint(cur)
    for _ in range(max_rounds):
        after_large = (
            cur.map_batches(both_dirs, batch_format="pyarrow")
            .map_batches(bucket_a, batch_format="pyarrow")
            .groupby("bk")
            .map_groups(
                large_star, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
            )
        )
        after_small = (
            after_large.map_batches(bucket_u, batch_format="pyarrow")
            .groupby("bk")
            .map_groups(
                small_star, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
            )
        )
        cur = _pairs_distinct(after_small, k).materialize()
        fp2 = _edge_fingerprint(cur)
        if fp2 == fp:
            break
        fp = fp2
    else:
        raise RuntimeError(
            f"alternating_star: no convergence after {max_rounds} rounds"
        )

    # fixed point = disjoint stars: every non-center node has exactly
    # its (node, center) edge; a defensive per-node min keeps the
    # output correct even one round early
    def node_min(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("u", as_index=False)["v"].min()
        return pd.DataFrame({"node": out["u"], "label": out["v"]})

    return (
        cur.map_batches(bucket_u, batch_format="pyarrow")
        .groupby("bk")
        .map_groups(node_min, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


def dup_clusters(
    sf_dir: str, threshold: float = 0.8, n: int = 3, max_iter: int = 30,
    num_buckets: int | None = None, method: str = "propagation",
) -> pd.DataFrame:
    """Near-duplicate CLUSTERS: connected components over the exact
    n-gram-Jaccard pair graph, then a cluster id per document
    (``cluster_id`` = min doc_id of the component; ``is_canonical`` = 1
    for the kept representative). This is the step real dedup pipelines
    need beyond pairs — remove every member of a dup cluster except one
    (the reference dedups triples the same keep-one-representative way,
    ``src/relation_extraction/reporter.py``'s longest-name pick).

    Distributed algorithm: hash-to-min label propagation. ``labels``
    starts as (node, node) over the nodes that appear in any dup pair;
    each round every node proposes its current label to its neighbors
    and adopts the minimum proposal (monotone non-increasing, so it
    converges in <= component-diameter rounds — near-dup components are
    shallow in practice; a `max_iter` guard raises rather than emitting
    a half-merged clustering). Each round is one co-partitioned
    `bucket_lookup_join` (edges x labels) plus one bucketed per-node
    min — both bounded per-reducer; nothing ever lands on the driver.
    For adversarially deep graphs (long chains) pass
    ``method="alternating_star"``: the alternating large-star /
    small-star variant (Kiveris et al., "Connected Components in
    MapReduce and Beyond") drops rounds to O(log^2 n) regardless of
    diameter (see ``_alternating_star_labels``). ``"propagation"`` is
    the default because dedup graphs are diameter-bounded by
    transitive text similarity; equivalence of the two methods is
    tested on chain graphs deeper than propagation's ``max_iter``
    (tests/test_dup_clusters_star.py).

    Docs in no pair are singleton clusters of themselves — they are
    attached at the end via a left bucket join, never iterated.
    """
    pairs = _ngram_jaccard_pairs_ds(sf_dir, threshold, n, None)
    num_buckets = exchange_fanout(num_buckets)
    docs = _read(sf_dir, ["doc_id"])
    labels = _pair_graph_labels(pairs, max_iter, num_buckets, method)
    if labels is None:
        out = docs.to_pandas()
        out["cluster_id"] = out["doc_id"]
        out["is_canonical"] = np.int64(1)
        return out.sort_values("doc_id").reset_index(drop=True)
    return _finalize_dup_clusters(docs, labels, num_buckets)


def _pair_graph_labels(
    pairs: "ray.data.Dataset",
    max_iter: int = 30,
    num_buckets: int | None = None,
    method: str = "propagation",
) -> "ray.data.Dataset | None":
    """Connected-component labels over a pair Dataset
    (``doc_id_a``/``doc_id_b``): the distributed core of
    :func:`dup_clusters`. Returns the converged ``(node, label)``
    Dataset (label = component min), or ``None`` when the graph has no
    edges. Every node that appears
    in any pair gets a row; by hash-to-min monotonicity the component
    minimum's label is itself."""
    from ..stages.joins import bucket_lookup_join
    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    num_buckets = exchange_fanout(num_buckets)

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch["doc_id_a"].to_numpy(zero_copy_only=False)
        b = batch["doc_id_b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    # materialized once: re-read from the object store every round
    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()

    n_edges = edges.count()
    if n_edges == 0:
        return None

    # compact the iteration working set: the pair DAG leaves hundreds
    # of near-empty blocks, and each propagation round's sort exchange
    # multiplies them (measured 576 -> 1344 blocks and a 67 s -> 405 s
    # round at sf0.1 before this). Blocks and bucket count must scale
    # with DATA (one bucket per ~100k edges, capped at num_buckets),
    # not with upstream task count.
    k = int(min(num_buckets, n_edges // 100_000 + 1))
    edges = edges.repartition(k).materialize()

    if method == "alternating_star":
        return _alternating_star_labels(edges, k)

    def node_rows(batch: pa.Table) -> pa.Table:
        # per-batch unique; cross-batch duplicates are harmless — the
        # first round's per-node min collapses them (same label=node)
        s = np.unique(batch["src"].to_numpy(zero_copy_only=False))
        return pa.table(
            {"node": pa.array(s, pa.int64()), "label": pa.array(s, pa.int64())}
        )

    labels = edges.map_batches(node_rows, batch_format="pyarrow").materialize()
    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])

    def msg_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": batch["dst"],
                "cand": batch["cand"],
                "old": pa.nulls(batch.num_rows, pa.int64()),
            }
        )

    def old_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch["node"], "cand": batch["label"], "old": batch["label"]}
        )

    def add_bucket(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = ((node * np.uint64(2654435761)) % np.uint64(k)).astype(np.int32)
        return batch.append_column("b", pa.array(bk, pa.int32()))

    def merge_min(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("node", as_index=False).agg(
            label=("cand", "min"), old=("old", "min")
        )
        # `old` is never NaN per node: every message target appears in
        # `labels` (edges are bidirectional, so every dst is a src)
        return pd.DataFrame(
            {
                "node": agg["node"].astype("int64"),
                "label": agg["label"].astype("int64"),
                "changed": (agg["label"] < agg["old"]).astype("int64"),
            }
        )

    for _ in range(max_iter):
        msgs = bucket_lookup_join(
            edges, labels, on="src", right_key="node",
            payload={"label": "cand"}, left_schema=edge_schema,
            payload_types={"cand": pa.int64()}, num_buckets=k,
        )
        combined = msgs.map_batches(msg_rows, batch_format="pyarrow").union(
            labels.map_batches(old_rows, batch_format="pyarrow")
        )
        new_labels = (
            combined.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("b")
            .map_groups(
                merge_min, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
            )
            .materialize()
        )
        n_changed = new_labels.sum("changed")
        # lazy projection over the materialized blocks — the next
        # round's join executes it; a third executor launch per round
        # just to strip a column was pure overhead
        labels = new_labels.select_columns(["node", "label"])
        if not n_changed:
            break
    else:
        raise RuntimeError(
            f"dup_clusters: no convergence after {max_iter} rounds "
            "(component diameter exceeds max_iter)"
        )

    return labels


def _finalize_dup_clusters(
    docs: "ray.data.Dataset", labels: "ray.data.Dataset", num_buckets: int
) -> pd.DataFrame:
    """Shared tail of both dup_clusters methods: left-join every doc
    against the converged (node, label) set — singletons and component
    minima coalesce to themselves — and emit the canonical flag."""
    from ..stages.joins import bucket_lookup_join

    joined = bucket_lookup_join(
        docs, labels, on="doc_id", right_key="node",
        payload={"label": "cluster_id"},
        left_schema=pa.schema([("doc_id", pa.int64())]),
        payload_types={"cluster_id": pa.int64()}, num_buckets=num_buckets,
        how="left",
    )

    def finalize_clusters(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cid = pc.coalesce(batch["cluster_id"], batch["doc_id"])
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "cluster_id": cid,
                "is_canonical": pc.cast(
                    pc.equal(batch["doc_id"], cid), pa.int64()
                ),
            }
        )

    out = joined.map_batches(finalize_clusters, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------- SimHash -----
@functools.lru_cache(maxsize=1 << 20)
def _md5_64(s: str) -> int:
    """md5-derived 64-bit token hash (unsigned, as int) — chosen over
    crc32 so the whole sketch (and the MinHash signer, which shares
    this hash) is SQL-expressible: DuckDB computes the identical value as
    ``('0x' || substr(md5(tok), 1, 16))::UBIGINT``. Cached per worker
    process (token vocab is small relative to the corpus)."""
    import hashlib

    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)


def simhash_documents(sf_dir: str, bits: int = 64) -> "ray.data.Dataset":
    """64-bit SimHash over word features (md5-hashed tokens),
    vectorized: per doc, UNIQUE tokens are hashed once, their 64 bits
    unpacked in one ``np.unpackbits`` call, and the signed bit tally is
    a count-weighted matvec — no per-bit Python loop (the round-1
    version burned 64 interpreter iterations per token). Exactly
    replicated by a DuckDB oracle (token × bit expansion + signed
    tally — see ``oracle_sql()['simhash_documents']``)."""
    assert bits == 64

    def f(batch: pa.Table) -> pa.Table:
        out = np.zeros(batch.num_rows, dtype=np.int64)
        for r, text in enumerate(batch["text"].to_pylist()):
            toks = textops.tokens_lower(text)
            if not toks:
                continue
            uniq, counts = np.unique(np.asarray(toks, dtype=object),
                                     return_counts=True)
            h = np.fromiter(
                (_md5_64(t) for t in uniq), dtype=np.uint64, count=len(uniq)
            )
            # (n_tok, 64) bit matrix; bit i of row t == (h[t] >> i) & 1
            bit_mat = np.unpackbits(
                h.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
            ).astype(np.int64)
            acc = 2 * (counts @ bit_mat) - counts.sum()
            sign = (acc > 0).astype(np.uint8)
            out[r] = np.packbits(sign, bitorder="little").view(np.int64)[0]
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(out, pa.int64())}
        )

    return _read(sf_dir, ["doc_id", "text"], fanout=True).map_batches(
        f, batch_format="pyarrow"
    )


# byte-wise popcount lookup (numpy < 2 has no np.bitwise_count); a
# uint64 popcount is then 8 table probes + a row sum, all vectorized
_POPCNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return _POPCNT8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1)


_EMPTY_HAMMING_TABLE = pa.table(
    {
        "doc_id_a": pa.array([], pa.int64()),
        "doc_id_b": pa.array([], pa.int64()),
        "hamming": pa.array([], pa.int64()),
    }
)


def simhash_dup_pairs(
    sf_dir: str,
    max_hamming: int = 3,
    max_bucket_docs: int = 1000,
    on_degenerate: str = "star",
) -> "ray.data.Dataset":
    """SimHash near-dup pairs at Hamming distance ≤ ``max_hamming``,
    mined with the Charikar pigeonhole banding trick (Manku et al.,
    WWW'07): split the 64-bit signature into ``max_hamming + 1``
    contiguous bit bands — any pair within distance k differs in at
    most k bands, so it agrees EXACTLY on at least one band. Grouping
    by (band_id, band_value) therefore has perfect recall; the cheap
    in-bucket popcount verify removes false positives, making the
    output exactly ``{(a, b) : popcount(sig_a XOR sig_b) <= k}`` —
    SQL-replayable as an all-pairs ``bit_count(xor(...))`` filter over
    the (already bit-exact) simhash oracle CTE.

    Distributed shape (the minhash funnel, minus the text re-fetch —
    signatures are 8 bytes, so the verify rides the bucket rows):
    signature map → band flat-map (4× 12-byte rows, NOT 4× the text) →
    coarse-bucketed groupby → vectorized triu pair enumeration +
    popcount verify inside the bucket → distinct-pairs combiner
    exchange. No stage ships document text past the signature map, no
    driver materialization; bucket blowups are capped exactly like
    ``_minhash_pairs_ds`` (``on_degenerate``: "star" logs and emits
    star pairs — still popcount-verified — "raise" fails loudly in
    oracle-gated contexts where the cap is not modeled in SQL)."""
    n_coarse = exchange_fanout()
    if not 0 <= max_hamming < 64:
        raise ValueError(f"max_hamming must be in [0, 64): {max_hamming}")
    n_bands = max_hamming + 1
    base, rem = divmod(64, n_bands)
    widths = [base + 1] * rem + [base] * (n_bands - rem)
    offsets = np.cumsum([0] + widths[:-1]).tolist()

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        sig = np.ascontiguousarray(
            batch["simhash"].to_numpy(), dtype=np.int64
        ).view(np.uint64)
        n = len(ids)
        band_col = np.repeat(np.arange(n_bands, dtype=np.int32), n)
        val_col = np.concatenate(
            [
                ((sig >> np.uint64(off)) & np.uint64((1 << w) - 1)).view(
                    np.int64
                )
                for off, w in zip(offsets, widths)
            ]
        )
        return pa.table(
            {
                "band_id": pa.array(band_col, pa.int32()),
                "band_val": pa.array(val_col, pa.int64()),
                "doc_id": pa.array(np.tile(ids, n_bands), pa.int64()),
                "simhash": pa.array(
                    np.tile(sig.view(np.int64), n_bands), pa.int64()
                ),
            }
        )

    def add_coarse(batch: pa.Table) -> pa.Table:
        coarse = [
            zlib.crc32(f"{bi}:{bv}".encode()) % n_coarse
            for bi, bv in zip(
                batch["band_id"].to_pylist(), batch["band_val"].to_pylist()
            )
        ]
        return batch.append_column("coarse", pa.array(coarse, pa.int32()))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_h = [], [], []
        for (_, _), grp in g.groupby(["band_id", "band_val"]):
            ids, first = np.unique(
                grp["doc_id"].to_numpy(), return_index=True
            )
            if len(ids) < 2:
                continue
            sigs = grp["simhash"].to_numpy()[first].astype(np.int64).view(
                np.uint64
            )
            if len(ids) > max_bucket_docs:
                if on_degenerate == "raise":
                    raise ValueError(
                        f"degenerate SimHash band bucket with {len(ids)} "
                        f"docs > cap {max_bucket_docs}: the star cap is "
                        "not modeled by the SQL oracle — raise the cap "
                        "or run with on_degenerate='star'"
                    )
                print(
                    f"[simhash] degenerate band bucket: {len(ids)} docs "
                    f"> cap {max_bucket_docs}; emitting star pairs only"
                )
                ham = _popcount64(sigs[0] ^ sigs[1:])
                keep = ham <= max_hamming
                out_a.append(np.repeat(ids[0], int(keep.sum())))
                out_b.append(ids[1:][keep])
                out_h.append(ham[keep])
                continue
            ia, ib = np.triu_indices(len(ids), k=1)
            ham = _popcount64(sigs[ia] ^ sigs[ib])
            keep = ham <= max_hamming
            out_a.append(ids[ia][keep])
            out_b.append(ids[ib][keep])
            out_h.append(ham[keep])
        if not out_a:
            return pd.DataFrame(
                {
                    "doc_id_a": pd.Series([], dtype="int64"),
                    "doc_id_b": pd.Series([], dtype="int64"),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "doc_id_a": np.concatenate(out_a),
                "doc_id_b": np.concatenate(out_b),
                "hamming": np.concatenate(out_h).astype(np.int64),
            }
        )

    from ..stages.shuffle import NO_FUSE_NUM_CPUS, distinct_pairs_ds

    raw_pairs = (
        simhash_documents(sf_dir)
        .map_batches(to_bands, batch_format="pyarrow")
        .map_batches(add_coarse, batch_format="pyarrow")
        .groupby("coarse")
        .map_groups(
            bucket_pairs, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
        )
    )
    # `hamming` is functionally dependent on the pair, so the full-row
    # drop_duplicates inside distinct_pairs_ds dedups exactly per pair
    out = distinct_pairs_ds(raw_pairs).materialize()
    if out.count() == 0:
        return ray.data.from_arrow(_EMPTY_HAMMING_TABLE)
    return out
