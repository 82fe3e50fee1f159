"""Training-data text operators over the ``documents`` table:
cleaning, PII redaction, sentencizing, token counting, quality
scoring, language-ID, fingerprinting, quality and length filters,
heavy-hitter tokens and unigram log-probs.

Every operator mirrors a DuckDB oracle in ``__ray_entry__.oracle_sql``
(names + rounding match exactly). The KG engine's exact dedup is the
triple fold (``stages/shuffle.partial_dedup_batch``) and its near dedup
is entity-name canonicalization (``functions/grouping.py``,
``stages/doc_agg.py``); embedding near-dup pairs over documents are in
``pipelines/mlops.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..sources.io import sized_read_parquet
from ray.data.aggregate import Sum

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
