"""Web/URL analytics over the Common-Crawl-style ``pages`` table.

The north-star input is a web crawl (url, warc_ts, html, text, lang);
the first aggregate every crawl pipeline runs is per-host/domain
statistics (crawl budgeting, host-level dedup, robots accounting —
the reference's ingest stage keys its S3 state by source feed the
same way, `/root/reference/src/data_loading/loader.py`, SURVEY.md
S14). The engine side does REAL url parsing (vectorized regex over
the url column); the DuckDB oracle replays the deterministic page
synthesis formula (sources/pages.py:123-124: url =
``https://example{doc_id % 127}.com/page/{doc_id}``, warc_ts =
``2024-01-01 + doc_id seconds``) from the documents table — so the
parity gate cross-checks the parser against an independent
derivation, not against itself.

Distributed plan: map-only parse + per-batch combiner partials (one
row per (batch, domain)), then ONE tiny groupby(domain) — the domain
table is host-cardinality (millions at web scale), never the corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.io import sized_read_parquet
from ..state import table as T

_URL_RE = r"^https?://([^/]+)/page/(\d+)$"


def domain_stats(pages_path: str) -> "object":
    """Per-domain crawl stats: page count, warc_ts range, doc-id range.

    Columns (all derived by parsing ``url``/``warc_ts`` — nothing
    rng-dependent, so the synthesis-replay oracle is exact):
    domain, n_pages, min_ts, max_ts, min_doc_id, max_doc_id.
    """
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    ds = sized_read_parquet(pages_path, columns=["url", "warc_ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "url": batch["url"].to_pandas(),
                "warc_ts": batch["warc_ts"].to_pandas(),
            }
        )
        parsed = df["url"].str.extract(_URL_RE)
        if parsed[0].isna().any():
            bad = df["url"][parsed[0].isna()].iloc[0]
            raise ValueError(f"unparseable page url: {bad!r}")
        df["domain"] = parsed[0]
        df["doc_id"] = parsed[1].astype(np.int64)
        g = df.groupby("domain", as_index=False, sort=False).agg(
            n_pages=("url", "size"),
            min_ts=("warc_ts", "min"),
            max_ts=("warc_ts", "max"),
            min_doc_id=("doc_id", "min"),
            max_doc_id=("doc_id", "max"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(
            Sum("n_pages", alias_name="n_pages"),
            Min("min_ts", alias_name="min_ts"),
            Max("max_ts", alias_name="max_ts"),
            Min("min_doc_id", alias_name="min_doc_id"),
            Max("max_doc_id", alias_name="max_doc_id"),
        )
    )


DOMAIN_STATS_ORACLE = """
    SELECT 'example' || CAST(doc_id % 127 AS VARCHAR) || '.com' AS domain,
           count(*)::BIGINT AS n_pages,
           min(TIMESTAMP '2024-01-01' + doc_id * INTERVAL 1 SECOND) AS min_ts,
           max(TIMESTAMP '2024-01-01' + doc_id * INTERVAL 1 SECOND) AS max_ts,
           min(doc_id)::BIGINT AS min_doc_id,
           max(doc_id)::BIGINT AS max_doc_id
    FROM documents
    GROUP BY 1
"""


# ------------------------------------------------ URL-canonical dedup ----
# Canonicalization policy (each rule is an explicit dedup decision — the
# standard Common-Crawl snapshot-dedup normalizations; cf. the
# reference's own key normalizer stripping case/punct/"the" before the
# prefix lookup, /root/reference/src/relation_extraction/reporter.py:121-164):
#   1. scheme folded to https  (http/https crawls of a page are one page)
#   2. host lowercased, leading "www." stripped, default :80/:443 ports
#      stripped (other ports kept — they address different servers)
#   3. fragment dropped (never sent to the server)
#   4. tracking query params dropped (utm_*, fbclid, gclid, ref);
#      all other params kept in original order — sorting params is NOT
#      done (order can be semantic); an emptied query drops its "?"
#   5. trailing slashes stripped from the path ("/page/3/" == "/page/3";
#      a bare "/" path folds into the origin)
_TRACKING_PREFIXES = ("utm_",)
_TRACKING_NAMES = frozenset({"fbclid", "gclid", "ref"})

_URL_PARTS_RE = r"^(https?)://([^/?#]+)([^?#]*)(?:\?([^#]*))?(?:#.*)?$"


def _filter_query(q: str) -> str:
    kept = []
    for p in q.split("&"):
        if not p:
            continue
        name = p.split("=", 1)[0].lower()
        if name in _TRACKING_NAMES or name.startswith(_TRACKING_PREFIXES):
            continue
        kept.append(p)
    return "&".join(kept)


def canonicalize_urls(urls: pd.Series) -> pd.Series:
    """Vectorized URL canonicalizer implementing the policy above.
    Raises on unparseable urls (data validation — a crawl row whose url
    does not parse must not silently become its own dedup group).

    Hot-path shape: one regex extract + vectorized lower/replace for
    the host/path rules; the query-param filter is a Python map over
    ONLY the query-bearing rows (rare in canonical crawl corpora — the
    synthesized pages have none except planted variants)."""
    s = urls.astype(str)
    ex = s.str.extract(_URL_PARTS_RE)
    if ex[0].isna().any():
        bad = s[ex[0].isna()].iloc[0]
        raise ValueError(f"unparseable url: {bad!r}")
    host = (
        ex[1].str.lower()
        .str.replace(r"^www\.", "", regex=True)
        .str.replace(r":(80|443)$", "", regex=True)
    )
    path = ex[2].str.replace(r"/+$", "", regex=True)
    out = "https://" + host + path
    q = ex[3]
    has_q = q.notna() & (q != "")
    if has_q.any():
        fq = q[has_q].map(_filter_query)
        keep = fq != ""
        out.loc[has_q] = out.loc[has_q].where(~keep, out.loc[has_q] + "?" + fq)
    return out


def url_dedup_pages(pages_path: str) -> "object":
    """Per-canonical-url crawl dedup stats: how many raw crawl rows
    collapse into each canonical url and the LATEST crawl timestamp —
    the Common-Crawl "keep newest snapshot per page" aggregate.
    Columns: url (canonical), n_dups, last_ts.

    Distributed plan (a combiner shape): map-only
    canonicalize + per-batch (url → count, max ts) partials, then ONE
    groupby(url) folding Sum/Max — only one row per (batch, url) ever
    crosses the exchange, bounded regardless of how many snapshots of
    a hot page exist. The winner-ROW variant (who needs the latest
    text, not just its timestamp) is :func:`url_keep_latest_pages_ds`.
    """
    import ray.data
    from ray.data.aggregate import Max, Sum

    ds = sized_read_parquet(pages_path, columns=["url", "warc_ts"])

    return (
        ds.map_batches(_url_counts, batch_format="pyarrow")
        .groupby("url")
        .aggregate(
            Sum("n_dups", alias_name="n_dups"),
            Max("last_ts", alias_name="last_ts"),
        )
    )


def url_keep_latest_pages_ds(
    pages_path: str, num_buckets: int | None = None,
    columns: list[str] | None = None,
) -> "object":
    """URL-canonical dedup, winner-ROW form: ONE page row per canonical
    url — the latest crawl (max warc_ts; ties break to the
    lexicographically-largest RAW url, a pure-function tiebreak so the
    result is independent of partitioning). Columns: url (canonical),
    warc_ts, plus ``columns`` payload (default ``["text"]`` — the
    whole winner ROW rides the fold, so any page column can be carried;
    ``kg.kg_from_crawl`` carries html+lang into extraction).

    Plan (the salted_dedup two-phase shape, stages/shuffle.py): each
    batch keeps its LOCAL winner per canonical url (vectorized
    sort + drop_duplicates), the exchange moves one row per
    (batch, url), and the final merge groups by a COARSE
    hash(url) % num_buckets bucket — per-group overhead paid per
    bucket, not per url — re-applying the same winner rule (it is
    associative, so local-then-global equals one global pass)."""
    import ray.data

    from ..config import exchange_fanout
    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    num_buckets = exchange_fanout(num_buckets)
    payload = ["text"] if columns is None else list(columns)
    ds = sized_read_parquet(
        pages_path, columns=["url", "warc_ts"] + payload
    )

    def local_win(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.rename(columns={"url": "raw_url"})
        batch["url"] = canonicalize_urls(batch["raw_url"])
        batch = batch.sort_values(
            ["url", "warc_ts", "raw_url"], ascending=[True, False, False]
        ).drop_duplicates("url")
        hb = (
            pd.util.hash_pandas_object(batch["url"], index=False).to_numpy()
            % num_buckets
        ).astype(np.int32)
        batch = batch[["url", "raw_url", "warc_ts"] + payload].copy()
        batch["__dbucket"] = hb
        return batch

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(
                ["url", "warc_ts", "raw_url"], ascending=[True, False, False]
            )
            .drop_duplicates("url")
            .drop(columns=["__dbucket", "raw_url"])
            .reset_index(drop=True)
        )

    return (
        ds.map_batches(local_win, batch_format="pandas")
        .groupby("__dbucket")
        .map_groups(merge, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS)
    )


def pages_with_url_variants_parquet_for(sf_dir: str) -> str:
    """Variant-planted pages table (cached): the synthesized pages plus
    DETERMINISTIC messy-url recrawl rows, so the url-dedup oracle gets
    real merge signal instead of an all-singletons no-op. Derived 1:1
    from doc_id, hence SQL-replayable (see URL_DEDUP_ORACLE):

    - doc_id % 10 == 0 → a LATER recrawl (+86400 s) under
      ``http://WWW.example{N}.com:80/page/{id}?utm_source=feed&fbclid=1#top``
      (exercises scheme fold, www/port strip, tracking-param and
      fragment drop); its text carries a " (recrawl)" suffix so winner
      selection is observable.
    - doc_id % 10 == 5 → an EARLIER crawl (−600 s) under
      ``https://example{N}.com/page/{id}/?ref=rss`` (trailing slash +
      tracking-only query); text carries " (stale crawl)" — the
      ORIGINAL row must win.
    """
    import os

    import pyarrow.dataset as pads

    from ..sources.pages import pages_parquet_for

    base_path = pages_parquet_for(sf_dir)
    out_dir = os.path.normpath(base_path) + "-urlvar"
    marker = os.path.join(out_dir, "pages.parquet")
    delta_marker = os.path.join(out_dir, "variants.parquet")
    if os.path.isfile(marker) and os.path.isfile(delta_marker):
        return marker
    t = pads.dataset(base_path).to_table()
    df = t.to_pandas()
    parsed = df["url"].str.extract(_URL_RE)
    dom = parsed[0]
    doc_id = parsed[1].astype(np.int64)
    late = df[(doc_id % 10 == 0).to_numpy()].copy()
    late_dom = dom[(doc_id % 10 == 0).to_numpy()]
    late_ids = doc_id[(doc_id % 10 == 0).to_numpy()]
    late["url"] = (
        "http://WWW." + late_dom + ":80/page/" + late_ids.astype(str)
        + "?utm_source=feed&fbclid=1#top"
    )
    late["warc_ts"] = late["warc_ts"] + pd.Timedelta(seconds=86400)
    late["text"] = late["text"] + " (recrawl)"
    early = df[(doc_id % 10 == 5).to_numpy()].copy()
    early["url"] = early["url"] + "/?ref=rss"
    early["warc_ts"] = early["warc_ts"] - pd.Timedelta(seconds=600)
    early["text"] = early["text"] + " (stale crawl)"
    allrows = pd.concat([df, late, early], ignore_index=True)
    out = pa.Table.from_pandas(allrows, preserve_index=False).cast(t.schema)
    variants = pa.Table.from_pandas(
        pd.concat([late, early], ignore_index=True), preserve_index=False
    ).cast(t.schema)
    os.makedirs(out_dir, exist_ok=True)
    tmp = marker + ".tmp"
    pq.write_table(out, tmp, row_group_size=1024)
    os.replace(tmp, marker)
    # the variant rows ALONE, for the incremental-ingest path (they are
    # the "new crawl delta" against the base pages)
    tmp = delta_marker + ".tmp"
    pq.write_table(variants, tmp, row_group_size=1024)
    os.replace(tmp, delta_marker)
    return marker


# -------------------------------------------- incremental url state ----
# The production shape of url dedup at crawl scale: snapshots arrive
# incrementally, so the canonical-url state (url → n_dups, last_ts) is
# a PERSISTED artifact that each new crawl delta merges into, never a
# whole-corpus re-dedup. It is a log-structured table (state/table.py)
# keyed by the canonical url, whose fold is Sum n_dups and Max last_ts
# per url. Base∩delta url overlap is THE POINT here (a recrawl merges),
# not an error. A merge is one Ray Data execution,
# ReadParquet->MapBatches(partial)->Write, that writes the delta's
# per-batch partials as at most one new run per shard; the state's
# runs are hardlinked into the new directory, never read.

URL_STATE_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("n_dups", pa.int64()),
    ("last_ts", pa.timestamp("us")),
])


def _fold_urls(rows: pa.Table) -> pa.Table:
    """One row per url: Sum n_dups, Max last_ts (associative and
    commutative, so any split of the rows into runs folds alike)."""
    out = rows.group_by("url").aggregate(
        [("n_dups", "sum"), ("last_ts", "max")]
    )
    return pa.table(
        {"url": out["url"], "n_dups": out["n_dups_sum"],
         "last_ts": out["last_ts_max"]}
    ).sort_by("url")


URL_STATE = T.Spec(["url"], URL_STATE_SCHEMA, _fold_urls)


def _url_counts(batch: pa.Table) -> pa.Table:
    """A pages batch (url, warc_ts) → one (url, n_dups, last_ts) row
    per canonical url of the batch: the per-batch combiner of the
    one-shot dedup and of a url-state merge."""
    n = batch.num_rows
    return _fold_urls(
        pa.table({
            "url": pa.array(
                canonicalize_urls(batch["url"].to_pandas()), pa.string()
            ),
            "n_dups": pa.array(np.ones(n, np.int64)),
            "last_ts": batch["warc_ts"],
        })
    )


def _refuse_existing(out_dir: str) -> None:
    if os.path.exists(out_dir):
        raise FileExistsError(
            f"url state out_dir {out_dir!r} exists; publish to a new path"
        )


def build_url_state(
    pages_path: str, out_dir: str, n_shards: int = 16
) -> str:
    """Persist the canonical-url dedup state (one folded row per
    canonical url over ``n_shards`` shards): the merge of the crawl into
    an empty state, so a killed build leaves no state at ``out_dir``.
    ``out_dir`` must not exist: deleting it first could die half way
    and leave a state that reads without error with shards missing."""
    _refuse_existing(out_dir)
    with T.empty_table(out_dir, n_shards) as empty:
        return update_url_state(empty, pages_path, out_dir)


def update_url_state(
    state_dir: str, delta_pages_path: str, out_dir: str
) -> str:
    """Merge a DELTA crawl into a persisted url state: one Ray Data
    execution writes the delta's per-batch partials as new runs of the
    shards its urls route to, then one record commits them
    (state/table.merge). The state's runs are hardlinked into
    ``out_dir``, never read or rewritten, so the merge costs the delta,
    not the corpus.

    Readers fold the runs (Sum n_dups, Max last_ts per url), which is
    associative and commutative, so the merged state reads
    row-identical to a rebuild from the concatenated crawls
    (pytest-enforced). Overlapping urls between base and delta MERGE
    (that is the operator's purpose — recrawls bump n_dups and advance
    last_ts). ``out_dir`` must not exist, so a merge never writes in
    place (see :func:`build_url_state`)."""
    _refuse_existing(out_dir)

    def rows(n_shards: int) -> "ray.data.Dataset":
        def partial(batch: pa.Table) -> pa.Table:
            return T.sharded(URL_STATE, _url_counts(batch), n_shards)

        return sized_read_parquet(
            delta_pages_path, columns=["url", "warc_ts"]
        ).map_batches(partial, batch_format="pyarrow")

    return T.merge(URL_STATE, state_dir, out_dir, rows, delta_pages_path)


def read_url_state(state_dir: str) -> pd.DataFrame:
    """(url, n_dups, last_ts) rows of a persisted state, one per url,
    sorted by url — the comparison/reporting shim."""
    return T.read_frame(URL_STATE, state_dir)


def url_state_update(sf_dir: str) -> pd.DataFrame:
    """Driver-gate shim: the INCREMENTAL path's result-twin of
    :func:`url_dedup_pages` (same SQL oracle). Builds the persisted
    state from the BASE pages (cached), merges the planted
    variant rows as a crawl delta through :func:`update_url_state`
    and reads the merged state back. Row-identical to the one-shot
    fold over the variant-planted table by the fold's associativity —
    which the shared oracle then hash-checks."""
    import shutil
    import tempfile

    from ..sources.pages import pages_parquet_for

    base = pages_parquet_for(sf_dir)
    marker = pages_with_url_variants_parquet_for(sf_dir)
    delta = os.path.join(os.path.dirname(marker), "variants.parquet")
    # the base pages dir is deterministic and immutable once built (its
    # cache key embeds sf tag, row count and seed), so a plain suffix
    # is a sound state cache key; a state is published whole by one
    # rename, so an existing dir is a complete state
    state_dir = os.path.normpath(base) + "-urlstate"
    if not os.path.exists(state_dir):
        build_url_state(base, state_dir)
    out = tempfile.mkdtemp(prefix="fscr_urlstate_upd_") + "/state"
    try:
        update_url_state(state_dir, delta, out)
        merged = read_url_state(out)
    finally:
        shutil.rmtree(os.path.dirname(out), ignore_errors=True)
    return merged


URL_DEDUP_ORACLE = """
    SELECT 'https://example' || CAST(doc_id % 127 AS VARCHAR)
               || '.com/page/' || CAST(doc_id AS VARCHAR) AS url,
           (CASE WHEN doc_id % 10 IN (0, 5) THEN 2 ELSE 1 END)::BIGINT
               AS n_dups,
           TIMESTAMP '2024-01-01' + doc_id * INTERVAL 1 SECOND
               + (CASE WHEN doc_id % 10 = 0 THEN 86400 ELSE 0 END)
                 * INTERVAL 1 SECOND AS last_ts
    FROM documents
"""
