"""The three seeded workloads, their inputs and their correctness gates.

Each workload is driven through the program's public entry points. Its
inputs are made from ``--seed`` only and cached on disk by (workload,
seed, size); the program sees nothing but the parquet files. Every
output is compared with ``oracle.kg_oracle.expected_triples`` over the
same pages and config; the oracle result is cached beside the inputs.

- ``crawl_build``: ``pipelines.kg.build_kg_pipeline`` (page-local plan)
  over a fresh crawl. Loads the model layers most.
- ``delta_ingest``: ``pipelines.kg_state.update_kg_state`` merging a
  chain of small crawl deltas into a persisted triple store, state N →
  state N+1. Loads shard folding, writes and Ray's fixed cost per
  execution; extraction is a small share.
- ``recrawl_dedup``: ``pipelines.run.crawl_partitioned`` then
  ``merge_parts`` over a crawl in which about two thirds of the rows
  are older snapshots of the same pages under messy URL variants.
  Loads URL canonicalization, the winner fold, partitioned writes, the
  manifest and the read-back merge.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from finance_sc_relations_ray.config import KGConfig
from finance_sc_relations_ray.sources.pages import generate_pages

from tracing import Execution, Tracer

KEYS = ["subj", "pred", "obj"]
TRIPLE_COLS = ["subj", "pred", "obj", "score", "n_mentions", "subj_id",
               "obj_id", "url", "sentence_ids"]
WARM_PAGES = 32
# one PageKGActor at 0.5 CPU on a num_cpus=2 session: on a single core a
# second actor would only time-slice the same core, and a fixed size
# keeps the autoscaler's decisions out of the timed region
POOL = 1


def make_config(extra_entities: int) -> KGConfig:
    return KGConfig(extra_entities=extra_entities, ner_concurrency=POOL)


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    """Triples as compared: meta rows (pred ``_...``) dropped, score
    rounded to 4 places, sentence ids as lists, sorted by key."""
    df = df[~df["pred"].astype(str).str.startswith("_")]
    df = df[TRIPLE_COLS].copy()
    df["score"] = df["score"].astype("float64").round(4)
    df["n_mentions"] = df["n_mentions"].astype("int64")
    df["sentence_ids"] = [[int(x) for x in v] for v in df["sentence_ids"]]
    return df.sort_values(KEYS).reset_index(drop=True)


def same_triples(got: pd.DataFrame, exp: pd.DataFrame) -> tuple[bool, int]:
    """(equal, rows compared)."""
    g, e = normalize(got), normalize(exp)
    if len(g) != len(e):
        return False, max(len(g), len(e))
    for c in TRIPLE_COLS:
        if g[c].tolist() != e[c].tolist():
            return False, len(e)
    return True, len(e)


def _write(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp, row_group_size=256)
    os.replace(tmp, path)


def _cached(path: str, make) -> str:
    if not os.path.isfile(path):
        _write(make(), path)
    return path


def _dir_bytes_files(root: str) -> tuple[int, int]:
    n_bytes = n_files = 0
    for d, _dirs, files in os.walk(root):
        for f in files:
            n_bytes += os.path.getsize(os.path.join(d, f))
            n_files += f.endswith(".parquet")
    return n_bytes, n_files


class Workload:
    """One workload: inputs, set-up, the timed operation, the check.

    ``op()`` is the timed unit and returns (input pages, output);
    ``after_op()`` does the untimed bookkeeping between operations.
    With a ``tracer`` set, ``op()`` also records spans and the Ray Data
    executions of the public calls (in ``executions``), and the layer
    counts it can read from disk (in ``layer``)."""

    name = ""
    check_each = True  # else only the final output is checked
    main_spans: tuple[str, ...] = ()  # spans of the timed public calls

    def __init__(self, work_dir: str, seed: int, scale: float, seconds: int):
        self.work_dir = work_dir
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.size = self.sizes(scale)
        self.cache = os.path.join(
            work_dir, "cache", f"{self.name}-n{self.size}-s{seed}")
        self.runs = os.path.join(work_dir, "runs", self.name)
        self.tracer: Tracer | None = None
        self.logs = None
        self.executions: list[Execution] = []
        self.layer: dict[str, list[float]] = {}
        self.n_ops = 0

    # sizes are chosen so one operation takes a few seconds on one core
    @staticmethod
    def sizes(scale: float) -> int:
        raise NotImplementedError

    def _span(self, name: str):
        from contextlib import nullcontext

        return self.tracer.span(name) if self.tracer else nullcontext()

    def _record(self, key: str, value: float) -> None:
        self.layer.setdefault(key, []).append(float(value))

    def _logged(self, fn):
        """Run ``fn`` and, when tracing, keep the Ray Data executions it
        caused."""
        if self.logs is None:
            return fn()
        self.logs.mark()
        out = fn()
        self.executions.extend(self.logs.since_mark())
        return out

    def prepare_inputs(self) -> None:
        raise NotImplementedError

    def setup_session(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def after_op(self, output) -> None:
        pass

    def check(self, output) -> tuple[bool, int]:
        raise NotImplementedError

    def replay_pages(self) -> pa.Table:
        raise NotImplementedError

    def warm(self, config: KGConfig, pages_path: str) -> None:
        """Warm-up pass: a small page-local build, so worker processes
        exist and have imported the package before timing starts."""
        from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline

        warm = _cached(
            os.path.join(self.cache, "warm.parquet"),
            lambda: pq.read_table(pages_path).slice(0, WARM_PAGES),
        )
        build_kg_pipeline(warm, config=config).to_pandas()

    def expected(self, tag: str, pages) -> pd.DataFrame:
        """Oracle triples for ``pages`` (a table, or a callable making
        one), cached under ``tag``."""
        from oracle.kg_oracle import expected_triples

        path = os.path.join(self.cache, f"expected-{tag}.parquet")
        if not os.path.isfile(path):
            t = pages() if callable(pages) else pages
            _write(pa.Table.from_pandas(
                expected_triples(t, self.config), preserve_index=False), path)
        return pq.read_table(path).to_pandas()


class CrawlBuild(Workload):
    name = "crawl_build"
    main_spans = ("kg.build_kg_pipeline",)

    @staticmethod
    def sizes(scale):
        return max(64, int(1500 * scale))

    def prepare_inputs(self):
        n = self.size
        self.config = make_config(n // 50)
        self.pages_path = _cached(
            os.path.join(self.cache, "pages.parquet"),
            lambda: generate_pages(list(range(n)), seed=self.seed,
                                   extra_entities=n // 50),
        )

    def setup_session(self):
        self.warm(self.config, self.pages_path)

    def op(self):
        from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline

        with self._span("kg.build_kg_pipeline"):
            ds = build_kg_pipeline(self.pages_path, config=self.config)
            if self.tracer is None:
                return self.size, ds.to_pandas()
            ds = self._logged(ds.materialize)
            self.stats_text = ds.stats()
            return self.size, ds.to_pandas()

    def check(self, output):
        return same_triples(output, self.expected("all", self.replay_pages))

    def replay_pages(self):
        return pq.read_table(self.pages_path)


class DeltaIngest(Workload):
    name = "delta_ingest"
    check_each = False  # the final state after the whole chain
    main_spans = ("kg_state.update_kg_state",)
    # pages per delta, the same for every delta and seed (seeds change
    # the content): a merge costs about the same whatever its size, so
    # mixed sizes would make pages_per_s move with the number of merges
    # a run fits in
    DELTA_PAGES = 200

    @staticmethod
    def sizes(scale):
        return max(64, int(300 * scale))

    def prepare_inputs(self):
        # more deltas than a run can merge, so the chain never runs dry
        n_deltas = max(4, 2 * self.seconds)
        sizes = [max(8, int(self.DELTA_PAGES * self.scale))] * n_deltas
        ee = (self.size + sum(sizes)) // 50
        self.config = make_config(ee)
        self.base_path = _cached(
            os.path.join(self.cache, "base.parquet"),
            lambda: generate_pages(list(range(self.size)), seed=self.seed,
                                   extra_entities=ee),
        )
        self.delta_paths, self.delta_sizes = [], sizes
        start = self.size
        for i, n in enumerate(sizes):
            ids = list(range(start, start + n))
            self.delta_paths.append(_cached(
                os.path.join(self.cache, f"delta-{i:03d}.parquet"),
                lambda ids=ids: generate_pages(ids, seed=self.seed,
                                               extra_entities=ee),
            ))
            start += n
        # fresh doc ids past the chain, merged once in set-up only
        warm_ids = list(range(start, start + WARM_PAGES))
        self.warm_path = _cached(
            os.path.join(self.cache, "warm-delta.parquet"),
            lambda: generate_pages(warm_ids, seed=self.seed, extra_entities=ee),
        )

    def setup_session(self):
        from finance_sc_relations_ray.pipelines.kg_state import (
            build_kg_state,
            update_kg_state,
        )

        shutil.rmtree(self.runs, ignore_errors=True)
        os.makedirs(self.runs)
        self.state = os.path.join(self.runs, "state-000")
        build_kg_state(self.base_path, self.state, config=self.config)
        # warm-up merge into a throwaway state: the first merge of a
        # session pays one-off costs the later ones do not (measured:
        # 6.6 s against 4.8 s for the next three)
        warm = os.path.join(self.runs, "warm")
        update_kg_state(self.state, self.warm_path, warm, config=self.config)
        shutil.rmtree(warm)
        self.k = 0

    def op(self):
        from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
        from finance_sc_relations_ray.pipelines.kg_state import update_kg_state

        if self.k >= len(self.delta_paths):
            raise StopIteration
        delta = self.delta_paths[self.k]
        out = os.path.join(self.runs, f"state-{self.k + 1:03d}")
        if self.tracer is not None:
            # the extraction share of a merge: the same delta through
            # the flagship pipeline alone
            with self._span("kg.build_kg_pipeline[delta]") as sp:
                build_kg_pipeline(delta, config=self.config).materialize()
            self._record("kg_state.delta_extract_s", sp.end - sp.start)
        with self._span("kg_state.update_kg_state") as sp:
            self._logged(lambda: update_kg_state(
                self.state, delta, out, config=self.config))
        if self.tracer is not None:
            self._record("kg_state.update_s", sp.end - sp.start)
        n = self.delta_sizes[self.k]
        self.k += 1
        return n, out

    def after_op(self, out):
        if self.tracer is not None:
            self._shard_counts(self.state, out)
        shutil.rmtree(self.state, ignore_errors=True)
        self.state = out

    def _shard_counts(self, before: str, after: str) -> None:
        def listing(root):
            return {
                d: sorted(os.listdir(os.path.join(root, d)))
                for d in os.listdir(root) if d.startswith("shard=")
            }

        old, new = listing(before), listing(after)
        touched = [d for d in new if new[d] != old.get(d)]
        self._record("kg_state.shards_touched", len(touched))
        self._record("kg_state.shards_carried", len(new) - len(touched))
        self._record("kg_state.rows_rewritten", sum(
            pq.read_metadata(os.path.join(after, d, f)).num_rows
            for d in touched for f in new[d] if f.endswith(".parquet")))
        self._record("kg_state.bytes_written", _dir_bytes_files(after)[0])

    def check(self, output):
        """The final state must equal the oracle over the base and every
        merged delta. Where it does not, it must equal a from-scratch
        ``build_kg_state`` over the same pages: on rare seeds the
        pipeline and the oracle disagree on a triple whose similarity
        sits on a threshold (float32 against float64), which is a
        difference of extraction, gated by ``crawl_build``, not of the
        merge this workload measures."""
        from finance_sc_relations_ray.pipelines.kg_state import (
            build_kg_state,
            read_kg_state,
        )

        paths = [self.base_path] + self.delta_paths[: self.k]

        def pages():
            return pa.concat_tables(pq.read_table(p) for p in paths)

        got = read_kg_state(self.state)
        ok, n = same_triples(got, self.expected(f"k{self.k}", pages))
        if ok:
            return ok, n
        rebuilt = os.path.join(self.runs, "rebuilt")
        shutil.rmtree(rebuilt, ignore_errors=True)
        build_kg_state(
            _cached(os.path.join(self.cache, f"pages-k{self.k}.parquet"), pages),
            rebuilt, config=self.config)
        ok, n = same_triples(got, read_kg_state(rebuilt))
        print(f"delta_ingest: state differs from the oracle; equals a "
              f"from-scratch build: {ok}", file=sys.stderr, flush=True)
        return ok, n

    def replay_pages(self):
        return pa.concat_tables(
            pq.read_table(p) for p in self.delta_paths[: max(1, self.k)])


# messy spellings of https://example{h}.com/page/{d}; every one
# canonicalizes to it (scheme, host case, www., default port, trailing
# slash, tracking parameters, fragment)
URL_VARIANTS = (
    "https://example{h}.com/page/{d}",
    "http://WWW.example{h}.com:80/page/{d}",
    "https://www.example{h}.com/page/{d}/?utm_source=feed&fbclid=1#top",
    "https://EXAMPLE{h}.com:443/page/{d}?ref=rss",
    "http://example{h}.com/page/{d}/#comments",
)
# snapshots per page: mean 3, so about two thirds of the rows are
# older copies the winner fold must drop
SNAPSHOTS = (1, 2, 3, 4, 5)
SNAPSHOT_WEIGHTS = (1, 2, 4, 2, 1)
CRAWL_FILES = 4
# resume units for crawl_partitioned: a few hundred winner pages make
# one chunk of 4 parts, so a crawl runs one extraction execution
PARTS = 4


class RecrawlDedup(Workload):
    name = "recrawl_dedup"
    main_spans = ("run.crawl_partitioned", "run.merge_parts")

    @staticmethod
    def sizes(scale):
        return max(64, int(500 * scale))

    def prepare_inputs(self):
        self.config = make_config(self.size // 50)
        self.crawl_dir = os.path.join(self.cache, "crawl")
        self.winners_path = os.path.join(self.cache, "winners.parquet")
        if not os.path.isfile(self.winners_path):
            self._make_crawl()
        self.rows = sum(
            pq.read_metadata(os.path.join(self.crawl_dir, f)).num_rows
            for f in os.listdir(self.crawl_dir))

    def _make_crawl(self) -> None:
        import datetime as dt

        rng = random.Random(f"recrawl-{self.seed}")
        n, ee = self.size, self.size // 50
        counts = rng.choices(SNAPSHOTS, SNAPSHOT_WEIGHTS, k=n)
        base = dt.datetime(2024, 1, 1)
        rows, winners = [], []
        for j in range(max(SNAPSHOTS)):
            ids = [d for d in range(n) if counts[d] > j]
            # each snapshot has its own content, so taking a stale one
            # changes the triples
            snap = generate_pages(ids, seed=self.seed * 10 + j,
                                  extra_entities=ee).to_pylist()
            for d, page in zip(ids, snap):
                variant = URL_VARIANTS[rng.randrange(len(URL_VARIANTS))]
                page["url"] = variant.format(h=d % 127, d=d)
                page["warc_ts"] = base + dt.timedelta(days=j, seconds=d)
                rows.append(page)
                if j == counts[d] - 1:
                    winners.append({"url": f"https://example{d % 127}.com/page/{d}",
                                    "html": page["html"], "lang": page["lang"]})
        rng.shuffle(rows)
        schema = generate_pages([0]).schema
        per = -(-len(rows) // CRAWL_FILES)
        for f in range(CRAWL_FILES):
            _write(pa.Table.from_pylist(rows[f * per:(f + 1) * per], schema),
                   os.path.join(self.crawl_dir, f"part-{f}.parquet"))
        _write(pa.Table.from_pylist(winners), self.winners_path)

    def setup_session(self):
        self.reset()
        self.warm(self.config, self.winners_path)

    def reset(self):
        shutil.rmtree(self.runs, ignore_errors=True)
        os.makedirs(self.runs)
        self.i = 0

    def op(self):
        from finance_sc_relations_ray.pipelines.run import (
            crawl_partitioned,
            merge_parts,
        )
        from finance_sc_relations_ray.pipelines.web import (
            url_keep_latest_pages_ds,
        )

        out = os.path.join(self.runs, f"crawl-{self.i:03d}")
        self.i += 1
        if self.tracer is not None:
            # the winner fold alone (crawl_partitioned runs it inside)
            with self._span("web.url_keep_latest_pages_ds") as sp:
                n_win = url_keep_latest_pages_ds(
                    self.crawl_dir, columns=["html", "lang"]
                ).materialize().count()
            self._record("web.fold_s", sp.end - sp.start)
            self._record("web.rows_in", self.rows)
            self._record("web.winners", n_win)
            self._record("web.dup_ratio", 1.0 - n_win / self.rows)
        with self._span("run.crawl_partitioned") as sp:
            self._logged(lambda: crawl_partitioned(
                self.crawl_dir, out, num_parts=PARTS, parts_per_chunk=PARTS,
                config=self.config))
        if self.tracer is not None:
            self._record("run.partitioned_s", sp.end - sp.start)
        with self._span("run.merge_parts") as sp:
            df = self._logged(lambda: merge_parts(out).to_pandas())
        if self.tracer is not None:
            self._record("run.merge_parts_s", sp.end - sp.start)
            n_bytes, n_files = _dir_bytes_files(out)
            self._record("run.files_written", n_files)
            self._record("run.bytes_written", n_bytes)
        return self.rows, (out, df)

    def after_op(self, output):
        shutil.rmtree(output[0], ignore_errors=True)

    def check(self, output):
        return same_triples(
            output[1],
            self.expected("winners", lambda: pq.read_table(self.winners_path)))

    def replay_pages(self):
        return pq.read_table(self.winners_path)


WORKLOADS = {w.name: w for w in (CrawlBuild, DeltaIngest, RecrawlDedup)}
