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

    Distributed plan (the dedup_exact_ds combiner shape): map-only
    canonicalize + per-batch (url → count, max ts) partials, then ONE
    groupby(url) folding Sum/Max — only one row per (batch, url) ever
    crosses the exchange, bounded regardless of how many snapshots of
    a hot page exist. The winner-ROW variant (who needs the latest
    text, not just its timestamp) is :func:`url_keep_latest_pages_ds`.
    """
    import ray.data
    from ray.data.aggregate import Max, Sum

    ds = sized_read_parquet(pages_path, columns=["url", "warc_ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "url": canonicalize_urls(batch["url"].to_pandas()),
                "warc_ts": batch["warc_ts"].to_pandas(),
            }
        )
        g = df.groupby("url", as_index=False, sort=False).agg(
            n_dups=("warc_ts", "size"), last_ts=("warc_ts", "max")
        )
        g["n_dups"] = g["n_dups"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
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
# a PERSISTED sharded artifact that each new crawl delta merges into —
# never a whole-corpus re-dedup. Base∩delta url overlap is THE POINT
# here (a recrawl merges: Sum n_dups, Max last_ts), not an error.


def _url_shards(urls: pd.Series, n_shards: int) -> np.ndarray:
    """Stable PERSISTED shard routing: md5 of the canonical url (the
    repo's exact-dedup key hash, functions/textops.fingerprint — NOT
    pd.util.hash_pandas_object, whose stability contract is
    within-job). Per-row hashing is the same cost class as the
    exact-dedup partial that feeds it."""
    from ..functions import textops

    return np.fromiter(
        (int(textops.fingerprint(u)[:8], 16) % n_shards for u in urls),
        dtype=np.int64,
        count=len(urls),
    )


def _url_state_partials(pages_path: str, n_shards: int) -> "object":
    """pages → per-batch (url, n_dups, last_ts, shard) combiner rows."""
    ds = sized_read_parquet(pages_path, columns=["url", "warc_ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "url": canonicalize_urls(batch["url"].to_pandas()),
                "warc_ts": batch["warc_ts"].to_pandas(),
            }
        )
        g = df.groupby("url", as_index=False, sort=False).agg(
            n_dups=("warc_ts", "size"), last_ts=("warc_ts", "max")
        )
        g["n_dups"] = g["n_dups"].astype(np.int64)
        g["shard"] = _url_shards(g["url"], n_shards)
        return pa.Table.from_pandas(g, preserve_index=False)

    return ds.map_batches(partial, batch_format="pyarrow")


def _fold_state(ds: "object") -> "object":
    """(url, n_dups, last_ts, shard) rows → one folded row per url,
    grouped by shard (per-group overhead paid per shard, the merge
    inside is one vectorized pandas aggregation)."""
    from ..stages.shuffle import NO_FUSE_NUM_CPUS

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["shard", "url"], as_index=False, sort=False).agg(
            n_dups=("n_dups", "sum"), last_ts=("last_ts", "max")
        )
        out["n_dups"] = out["n_dups"].astype(np.int64)
        return out[["url", "n_dups", "last_ts", "shard"]]

    return ds.groupby("shard").map_groups(
        fold, batch_format="pandas", num_cpus=NO_FUSE_NUM_CPUS
    )


def _refuse_existing(out_dir: str) -> None:
    if os.path.exists(out_dir):
        raise FileExistsError(
            f"url state out_dir {out_dir!r} exists; publish to a new path"
        )


def build_url_state(
    pages_path: str, out_dir: str, n_shards: int = 16
) -> str:
    """Persist the canonical-url dedup state: hive-partitioned parquet
    ``shard=<k>/`` dirs (one folded row per canonical url) plus a
    one-row ``_meta.parquet`` recording n_shards. Distributed
    ``write_parquet``; atomic tmp+rename so a killed build never
    leaves a half-state a later merge would trust. ``out_dir`` must
    not exist: deleting it first could die half way and leave a state
    that reads without error with shards missing."""
    import shutil

    _refuse_existing(out_dir)
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    _fold_state(_url_state_partials(pages_path, n_shards)).write_parquet(
        tmp, partition_cols=["shard"]
    )
    pq.write_table(
        pa.table({"n_shards": pa.array([n_shards], pa.int64())}),
        os.path.join(tmp, "_meta.parquet"),
    )
    os.replace(tmp, out_dir)
    return out_dir


def update_url_state(
    state_dir: str, delta_pages_path: str, out_dir: str
) -> str:
    """Merge a DELTA crawl into a persisted url state — incremental
    ingest with a SHARD-PRUNED merge: shards the delta does not touch
    are carried forward at FILE level (copy, no read, no shuffle, no
    decode); only touched shards pay a read + fold. At crawl scale a
    daily delta touches a bounded url set, so the merge cost scales
    with the DELTA (plus its shards' state rows), not the corpus.

    Result is row-identical to rebuilding from the concatenated crawls
    (pytest-enforced): the fold (Sum n_dups, Max last_ts per url) is
    associative and commutative, so state ∪ delta-partials folds to
    the same rows as one global pass. Overlapping urls between base
    and delta MERGE (that is the operator's purpose — recrawls bump
    n_dups and advance last_ts). ``out_dir`` must not exist, so a merge
    never writes in place (see :func:`build_url_state`)."""
    import shutil

    import ray.data

    _refuse_existing(out_dir)
    meta = pq.read_table(os.path.join(state_dir, "_meta.parquet"))
    n_shards = int(meta["n_shards"][0].as_py())

    # delta partials, materialized (delta-bounded) — consumed twice:
    # the touched-shard probe and the merge union
    delta = _url_state_partials(delta_pages_path, n_shards).materialize()
    # an EMPTY delta (no rows at all) loses its schema through the
    # groupby and KeyErrors — short-circuit to "no shards touched"
    # (every shard carries forward, ranks/state unchanged)
    if delta.count() == 0:
        touched = []
    else:
        touched = sorted(
            delta.groupby("shard")
            .count()
            .to_pandas()["shard"]
            .astype(int)
            .tolist()
        )
    touched_set = set(touched)

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    # untouched shards: file-level carry-forward (never read)
    for name in os.listdir(state_dir):
        if not name.startswith("shard="):
            continue
        k = int(name.split("=", 1)[1])
        if k not in touched_set:
            shutil.copytree(
                os.path.join(state_dir, name), os.path.join(tmp, name)
            )

    # touched shards: path-pruned read of ONLY those shard dirs, union
    # with the delta partials, re-fold, write back as shard=<k>/ dirs
    if touched:
        # read_parquet takes FILE paths when given a list — expand each
        # touched shard dir to its parquet files
        base_paths = [
            os.path.join(state_dir, f"shard={k}", f)
            for k in touched
            if os.path.isdir(os.path.join(state_dir, f"shard={k}"))
            for f in sorted(os.listdir(os.path.join(state_dir, f"shard={k}")))
            if f.endswith(".parquet")
        ]
        parts = delta
        if base_paths:
            base = ray.data.read_parquet(
                base_paths, columns=["url", "n_dups", "last_ts"]
            )

            def reshard(batch: pa.Table) -> pa.Table:
                urls = batch["url"].to_pandas()
                return batch.append_column(
                    "shard",
                    pa.array(_url_shards(urls, n_shards), pa.int64()),
                )

            parts = base.map_batches(
                reshard, batch_format="pyarrow"
            ).union(delta)
        _fold_state(parts).write_parquet(tmp, partition_cols=["shard"])

    shutil.copy2(
        os.path.join(state_dir, "_meta.parquet"),
        os.path.join(tmp, "_meta.parquet"),
    )
    os.replace(tmp, out_dir)
    return out_dir


def state_parquet_paths(state_dir: str) -> list[str]:
    """Parquet files of a persisted url state's ``shard=<k>/`` dirs —
    the single place that knows the on-disk layout (consumed by
    :func:`read_url_state`)."""
    return [
        os.path.join(state_dir, n, f)
        for n in sorted(os.listdir(state_dir))
        if n.startswith("shard=")
        for f in sorted(os.listdir(os.path.join(state_dir, n)))
        if f.endswith(".parquet")
    ]


def read_url_state(state_dir: str) -> pd.DataFrame:
    """(url, n_dups, last_ts) rows of a persisted state (all shards),
    sorted by url — the comparison/reporting shim."""
    import ray.data

    out = ray.data.read_parquet(
        state_parquet_paths(state_dir), columns=["url", "n_dups", "last_ts"]
    ).to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def url_state_update(sf_dir: str) -> pd.DataFrame:
    """Driver-gate shim: the INCREMENTAL path's result-twin of
    :func:`url_dedup_pages` (same SQL oracle). Builds the persisted
    state from the BASE pages (cached), merges the planted
    variant rows as a crawl delta through :func:`update_url_state`
    (shard-pruned: only the delta's shards are read), and reads the
    merged state back. Row-identical to the one-shot fold over the
    variant-planted table by the fold's associativity — which the
    shared oracle then hash-checks."""
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
