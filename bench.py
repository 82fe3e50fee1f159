"""Benchmark harness.

- ``python bench.py``: run the headline pipelines over ``$GRAFT_SF_DIR``
  (default /root/testdata/sf0.1) at ``$RAY_GRAFT_CPUS`` (default 32) and
  print ONE JSON line:
  ``{"metric": ..., "value": sec, "unit": "sec", "queries": {...},
  "sf": ..., "num_cpus": N, "docs_per_sec": ...}``.
- ``python bench.py --scaling``: run the headline KG pipeline at two
  parallelism levels in FRESH processes on the same input and report
  both throughputs + scaling efficiency (the north rule's
  two-cluster-size criterion, evidenced at N and 4N CPUs in this
  sandbox). Default pair is 4→16 (N→4N): the host delivers only ~16
  real cores, and round-4 instrumentation showed the 32-slot level
  ALWAYS draws 9-13% hypervisor steal (demanding 32 vCPUs on a
  16-core host is itself the overcommit), so 8→32 measures the host
  cap, not the engine — see BASELINE.md round-4 scaling. Override
  with RAY_GRAFT_SCALING=8,32 etc.

Owns its Ray session (the only scripts allowed to: bench, CLI, tests).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _sf_dir() -> str:
    return os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _num_cpus() -> int:
    return int(os.environ.get("RAY_GRAFT_CPUS", "32"))


BENCH_QUERIES = [
    "q1_pricing_summary",
    "top_revenue_orders",
    "nation_supplier_revenue",
    "events_hourly",
    "dedup_exact",
    "minhash_dup_pairs",
    # composed flagship curation (filter -> exact dedup -> minhash
    # clusters -> canonical survivors)
    "curate_documents",
    "ngram_jaccard_pairs",
    # dup_clusters is oracle-gated but not benched: its dominant cost
    # is the same pair DAG ngram_jaccard_pairs already times
    "span_dedup_documents",
    "unigram_logprob_documents",
    "simhash_documents",
    # r3: vectorized in round 3 — benched so regressions are caught
    "sentencize_documents",
    "gopher_quality_documents",
    "repetition_stats_documents",
    "cap_per_source",
    "pack_token_offsets",
    # r3: DSIR hashed-ngram importance (two map-only passes + one
    # B-row aggregate)
    "dsir_importance",
    "knn_cosine",
    # r3: SemDeDup-style semantic dedup (distributed spherical k-means
    # + within-cluster greedy prune)
    "semantic_dedup",
    "token_counts",
    "events_asof_join",
    "events_range_join",
    # r4: graph/term analytics — tfidf + pmi share the tf-explode /
    # df-aggregate shape (two corpus exchanges each); pagerank times
    # 8 iterations of (src-bucketed lookup join + dst groupby) over
    # the supplier-part edge list
    "tfidf_top_terms",
    "token_pmi_pairs",
    "pagerank_lineitem",
    # r4: pigeonhole-banded simhash pair mining (4 band exchanges over
    # id+key rows, exact-hamming verify) — distinct cost shape from the
    # per-doc simhash_documents signature pass above
    "simhash_dup_pairs",
    # r4: bounded-histogram quantile sketch (one B-bin aggregate) and
    # the two-pass per-lang quantile-gated length filter built on it
    "value_quantile_sketch",
    "length_quantile_filter",
    # r4: BPE iteration-1 statistics (corpus -> word histogram ->
    # pair explode over the vocab); the iterative learn loop is
    # pytest-oracled and ~all fixed exchange cost at gate scale, so
    # only the SQL-oracled stats pass is benched
    "bpe_pair_counts",
    # r4: sharded inverted index (tf explode + one coarse posting
    # exchange; doc-id shard key bounds hot-term reducers)
    "inverted_index",
    # r4: BM25 ranked retrieval — two map-only corpus passes, zero
    # exchanges, batch-local top-k (pipelines/retrieval.py)
    "bm25_search",
    # r4: per-domain crawl stats over the synthesized pages (url parse
    # + combiner partials + one host-cardinality groupby)
    "domain_stats",
    # r4: url-canonicalization dedup over variant-planted pages (map
    # canonicalize + one row per (batch, url) across the Sum/Max fold)
    "url_dedup_pages",
    # r4: bounded ROWS-window rolling aggregate (one user-bucket
    # exchange + vectorized cumsum-diff kernels)
    "events_rolling",
    # r4 late: hyperlink-graph family over anchor-planted pages —
    # href-extraction partials + one host²-bounded edge sum; pagerank
    # reuses the integer core on the host graph; triangle count is the
    # degree-oriented wedge join (3 bucketed exchanges end-to-end)
    "host_link_graph",
    "host_pagerank",
    "triangle_count",
    # anchor-text mining: same extraction+sum shape over the
    # (host × entity)-bounded key space
    "anchor_entity_mentions",
    # HITS hubs/authorities: 2·iters map-only half-steps over the
    # index-encoded directed edges (pagerank broadcast-mode idiom)
    "host_hits",
    # crawl-scheduling frontier: url-state fold × host pagerank
    # (bucket lookup join) × staleness, per-block local top-k
    "crawl_frontier",
    # composed crawl flagship: url-canonical dedup (winner rows) BEFORE
    # the page-local extraction pool, over content-differing recrawls
    "kg_from_crawl",
    # r5: alias plant e2e (extract -> tag -> detect/filter -> dedup ->
    # broadcast link) — the alias path's hash-gate query
    "alias_items_planted",
    # r5: incremental rank state (delta edge partials -> shard-pruned
    # merge -> rank refresh over edge shards only)
    "host_pagerank_state",
    # r5: full delta-cost frontier — both persisted states, zero
    # corpus scans at schedule time (the production schedule-tick cost)
    "crawl_frontier_stateful",
    # r5: vectorized RE2 token-count histogram (was a per-row Python
    # loop; benched so the win is recorded and regressions caught)
    "token_length_quantiles",
    # r5: composed pretraining export (curate -> decontaminate -> pack)
    "pretrain_export",
]


def run_bench() -> dict:
    import ray

    sf_dir = _sf_dir()
    ncpu = _num_cpus()
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import __ray_entry__ as entry
    from finance_sc_relations_ray.sources.pages import pages_parquet_for

    # headline: KG construction docs/sec over synthesized pages
    # (FIXTURES.md §1 bench scale: 20k pages regardless of the small
    # documents table; deterministic seed 42)
    n_pages = int(os.environ.get("GRAFT_BENCH_PAGES", "20000"))
    # entity space grows with the page count (n/50 synthetic orgs) so
    # the distinct-triple space — and therefore the final dedup
    # exchange — scales with the input instead of saturating
    extra_entities = int(
        os.environ.get("GRAFT_BENCH_EXTRA_ENTITIES", str(n_pages // 50))
    )
    pages_path = pages_parquet_for(
        sf_dir, n_pages=n_pages, extra_entities=extra_entities
    )
    import pyarrow.parquet as pq

    files = (
        sorted(
            os.path.join(pages_path, f)
            for f in os.listdir(pages_path)
            if f.endswith(".parquet")
        )
        if os.path.isdir(pages_path)
        else [pages_path]
    )
    n_docs = sum(pq.read_metadata(f).num_rows for f in files)
    # warm the page cache so we measure compute+shuffle, not cold disk
    for fp in files:
        with open(fp, "rb") as f:
            while f.read(1 << 24):
                pass

    import dataclasses

    from finance_sc_relations_ray.config import scaled_config
    from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline

    cfg = dataclasses.replace(
        scaled_config(ncpu), extra_entities=extra_entities
    )

    def _host_stat() -> tuple[int, int, int]:
        # (steal, used, total) jiffies; used = user+nice+system
        with open("/proc/stat") as f:
            p = [int(x) for x in f.readline().split()[1:9]]
        return p[7], p[0] + p[1] + p[2], sum(p)

    def _tree_cpu_jiffies() -> int:
        """CPU jiffies charged to THIS process tree (driver + raylet +
        all Ray workers), not the whole host: sum utime+stime of every
        live descendant of this pid plus reaped-children cutime/cstime.
        Whole-host /proc/stat user+nice+system attributes co-tenant CPU
        to the engine and overstates cores-delivered in noisy windows
        (r3 ADVICE); the tree sum only counts work we scheduled. A
        worker that dies mid-window hands its jiffies to its parent's
        cutime, so the delta stays conservative-correct."""
        me = os.getpid()
        ppid: dict[int, int] = {}
        stat: dict[int, int] = {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat") as f:
                    raw = f.read()
            except OSError:
                continue
            # fields after the parenthesized comm (which may contain
            # spaces): split on the LAST ')'
            rest = raw.rsplit(")", 1)[1].split()
            pid = int(d)
            ppid[pid] = int(rest[1])  # field 4
            # utime(14) stime(15) cutime(16) cstime(17) → rest idx 11-14
            stat[pid] = sum(int(x) for x in rest[11:15])
        total = 0
        for pid in stat:
            p = pid
            for _ in range(64):  # ancestor walk, bounded
                if p == me:
                    total += stat[pid]
                    break
                p = ppid.get(p, 0)
                if p <= 1:
                    break
        return total

    st0 = _host_stat()
    tree0 = _tree_cpu_jiffies()
    t0 = time.perf_counter()
    triples = build_kg_pipeline(pages_path, config=cfg).count()
    kg_sec = time.perf_counter() - t0
    tree1 = _tree_cpu_jiffies()
    st1 = _host_stat()
    # window quality + cores the host ACTUALLY delivered to THIS
    # process tree during the timed section (jiffies are 10 ms): on
    # this overcommitted box the 32-slot level is capped at ~the real
    # core count however quiet the window, so nominal-CPU scaling
    # efficiency understates the engine — efficiency vs cores-delivered
    # is the honest companion. cores_used is process-tree-scoped
    # (r3 ADVICE: the whole-host variant counted co-tenant CPU).
    kg_steal_frac = round((st1[0] - st0[0]) / max(1, st1[2] - st0[2]), 4)
    kg_cores_used = round((tree1 - tree0) / 100.0 / max(1e-9, kg_sec), 2)
    kg_cores_host = round((st1[1] - st0[1]) / 100.0 / max(1e-9, kg_sec), 2)

    # apples-to-apples with round 1: also time the saturated (fixed
    # 60-entity gazetteer) workload — the realistic entity-scaled run
    # above does ~7x more per-page work by design, which reads as a
    # regression without this companion number
    kg_sat_sec = None
    if extra_entities and os.environ.get("GRAFT_BENCH_SATURATED", "1") != "0":
        sat_pages = pages_parquet_for(sf_dir, n_pages=n_pages, extra_entities=0)
        t0 = time.perf_counter()
        build_kg_pipeline(sat_pages, config=scaled_config(ncpu)).count()
        kg_sat_sec = time.perf_counter() - t0

    # the production shape (r2 verdict #9): partitioned runner with
    # manifest + crash-safe compaction + global merge — benched per
    # round so regressions in that path are caught, not just the
    # in-memory pipeline
    import shutil

    from finance_sc_relations_ray.pipelines.run import (
        merge_parts,
        run_partitioned,
    )

    kg_part_sec = part_triples = None
    if os.environ.get("GRAFT_BENCH_PARTITIONED", "1") != "0":
        part_dir = "/tmp/bench_kg_parts"
        shutil.rmtree(part_dir, ignore_errors=True)
        t0 = time.perf_counter()
        summary = run_partitioned(
            pages_path, part_dir, num_parts=max(8, ncpu // 4), config=cfg
        )
        part_triples = merge_parts(part_dir).count()
        kg_part_sec = time.perf_counter() - t0
        shutil.rmtree(part_dir, ignore_errors=True)

    # resumable composed crawl (stage-0 winner fold + partitioned
    # extraction) over the same 20k pages — the production shape; its
    # delta vs kg_partitioned is the winner fold + sharded re-write
    crawl_part_sec = None
    if os.environ.get("GRAFT_BENCH_PARTITIONED", "1") != "0":
        from finance_sc_relations_ray.pipelines.run import crawl_partitioned

        part_dir = "/tmp/bench_kg_crawl_parts"
        shutil.rmtree(part_dir, ignore_errors=True)
        t0 = time.perf_counter()
        crawl_partitioned(
            pages_path, part_dir, num_parts=max(8, ncpu // 4), config=cfg
        )
        merge_parts(part_dir).count()
        crawl_part_sec = time.perf_counter() - t0
        shutil.rmtree(part_dir, ignore_errors=True)

    qs = entry.queries()
    timings: dict[str, float] = {"kg_pipeline": round(kg_sec, 3)}
    if kg_part_sec is not None:
        timings["kg_partitioned"] = round(kg_part_sec, 3)
    if crawl_part_sec is not None:
        timings["crawl_partitioned"] = round(crawl_part_sec, 3)
    if kg_sat_sec is not None:
        timings["kg_pipeline_saturated"] = round(kg_sat_sec, 3)
    import ray.data as _rd

    bench_queries = (
        BENCH_QUERIES
        if os.environ.get("GRAFT_BENCH_QUERIES", "1") != "0"
        else []
    )
    for name in bench_queries:
        t0 = time.perf_counter()
        res = qs[name](sf_dir)
        if isinstance(res, _rd.Dataset):
            res.count()  # consume lazy Datasets (NB: Dataset also has a
            # .columns() METHOD — a hasattr check mis-skips execution)
        timings[name] = round(time.perf_counter() - t0, 3)

    # SemDeDup at realistic k (r3 verdict #8): the sf tables top out at
    # 2k vectors, so the paper regime — k≥256, Zipf-skewed cluster
    # sizes, a hot groupby(cluster) key — is benched on the
    # deterministic synthetic fixture (cached like the pages fixture).
    if bench_queries:
        from finance_sc_relations_ray.pipelines.mlops import (
            semantic_dedup_ds,
        )
        from finance_sc_relations_ray.sources.embeddings import (
            embeddings_parquet_for,
        )

        emb_dir = embeddings_parquet_for(100_000, d=64, n_centers=1000)
        t0 = time.perf_counter()
        n_kept = semantic_dedup_ds(
            emb_dir, k=256, iters=3, eps=0.95
        ).count()
        timings["semantic_dedup_k256_100k"] = round(
            time.perf_counter() - t0, 3
        )
        out_extra = {"semantic_dedup_k256_kept": int(n_kept)}
    else:
        out_extra = {}

    out = {
        "metric": "kg_construction_e2e",
        "value": round(kg_sec, 3),
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": ncpu,
        "n_docs": int(n_docs),
        "n_triples": int(triples),
        "n_triples_partitioned": (
            int(part_triples) if part_triples is not None else None
        ),
        "docs_per_sec_partitioned": (
            round(n_docs / kg_part_sec, 1) if kg_part_sec else None
        ),
        "extra_entities": extra_entities,
        "docs_per_sec_saturated": (
            round(n_docs / kg_sat_sec, 1) if kg_sat_sec else None
        ),
        "docs_per_sec": round(n_docs / kg_sec, 1),
        "kg_steal_frac": kg_steal_frac,
        "kg_cores_used": kg_cores_used,
        "kg_cores_host": kg_cores_host,
        **out_extra,
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    # larger input for the scaling runs: fixed costs (actor-pool spawn,
    # read, shuffle barriers) must be small relative to compute or the
    # efficiency measures startup, not scaling
    pages = os.environ.get("GRAFT_BENCH_PAGES", "200000")
    # default 4,16: the N->4N pair that fits inside the host's ~16
    # real cores (see module docstring; 8,32 is host-bounded)
    lo, hi = (
        int(x) for x in os.environ.get("RAY_GRAFT_SCALING", "4,16").split(",")
    )
    trials = int(os.environ.get("GRAFT_SCALING_TRIALS", "2"))

    def one(ncpu: int) -> dict:
        # scaling trials skip the saturated companion run — efficiency
        # is computed from the main kg time only
        # scaling trials measure the kg pipeline ONLY: the query suite
        # and the partitioned runner would burn the quiesced window on
        # numbers that never feed the efficiency ratio. The child
        # measures steal + cores-delivered around its timed section
        # (kg_steal_frac / kg_cores_used); the same code measured 0.76
        # vs 0.44 nominal efficiency in windows 30 minutes apart, so
        # window quality must ride with every trial to be auditable.
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_PAGES=pages, GRAFT_BENCH_SATURATED="0",
                   GRAFT_BENCH_QUERIES="0", GRAFT_BENCH_PARTITIONED="0")
        import shutil as _shutil

        cmd = [sys.executable, os.path.abspath(__file__)]
        if (
            os.environ.get("GRAFT_SCALING_TASKSET", "1") == "1"
            and _shutil.which("taskset")
            # pinning needs ncpu real CPUs to pin to — on a smaller
            # host fall back to unpinned rather than erroring
            and ncpu <= (os.cpu_count() or 1)
        ):
            # pin each level to exactly ncpu OS cores: on this
            # burst-capable host, an unpinned low level borrows idle
            # cores beyond its Ray slot count (Arrow/numpy kernels run
            # outside Ray's scheduler), deflating the ratio — pinning
            # makes N→4N a true two-cluster-size comparison where
            # capacity, not just Ray's logical slots, scales 4×
            cmd = ["taskset", "-c", f"0-{ncpu - 1}"] + cmd
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["steal_frac"] = out["kg_steal_frac"]
        out["cores_used"] = out["kg_cores_used"]
        return out

    # interleave trials (lo,hi,lo,hi) and take the per-level minimum:
    # the sandbox host is overcommitted (large /proc/stat steal time),
    # so single measurements carry co-tenant noise; the minimum is the
    # least-interfered estimate of each level's true capacity
    runs: dict[int, list[dict]] = {lo: [], hi: []}
    for _ in range(trials):
        runs[lo].append(one(lo))
        runs[hi].append(one(hi))
    t_lo = min(r["value"] for r in runs[lo])
    t_hi = min(r["value"] for r in runs[hi])
    eff = (t_lo / t_hi) / (hi / lo)
    # honest companion: throughput ratio per core the host DELIVERED
    # during each level's fastest trial (min/min pairs the levels'
    # luckiest windows; the low level's luck buys real cores while the
    # high level stays capacity-capped, so nominal eff understates)
    best_lo = min(runs[lo], key=lambda r: r["value"])
    best_hi = min(runs[hi], key=lambda r: r["value"])
    eff_cores = (
        (t_lo / t_hi) / (best_hi["cores_used"] / best_lo["cores_used"])
        if best_lo["cores_used"] and best_hi["cores_used"]
        else None
    )
    return {
        "metric": "kg_scaling_efficiency",
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"docs_per_sec_{lo}": max(r["docs_per_sec"] for r in runs[lo]),
        f"docs_per_sec_{hi}": max(r["docs_per_sec"] for r in runs[hi]),
        "trials": {
            str(lo): [r["value"] for r in runs[lo]],
            str(hi): [r["value"] for r in runs[hi]],
        },
        "steal_frac": {
            str(lo): [r["steal_frac"] for r in runs[lo]],
            str(hi): [r["steal_frac"] for r in runs[hi]],
        },
        "cores_used": {
            str(lo): [r["cores_used"] for r in runs[lo]],
            str(hi): [r["cores_used"] for r in runs[hi]],
        },
        "efficiency_vs_cores_delivered": (
            round(eff_cores, 3) if eff_cores is not None else None
        ),
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "levels": [lo, hi],
        "sf": _sf_dir(),
    }


def run_probe(seconds: float = 8.0, nproc: int = 16) -> dict:
    """Qualify the measurement window: steal fraction UNDER DEMAND.
    Idle steal is meaningless — the hypervisor only steals jiffies
    from vCPUs that want to run — so spin nproc busy processes and
    report steal/(steal+used). Under ~0.03 is a quiet window for
    `--scaling`; 0.15+ means co-tenants own the cores right now."""
    import multiprocessing as mp
    import time as _t

    def burn(stop_t):
        x = 1.0
        while _t.time() < stop_t:
            x = x * 1.000001 + 1e-9

    def snap():
        with open("/proc/stat") as f:
            p = f.readline().split()
        return [int(x) for x in p[1:9]]

    stop_t = _t.time() + seconds
    procs = [mp.Process(target=burn, args=(stop_t,)) for _ in range(nproc)]
    a = snap()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    b = snap()
    d = [y - x for x, y in zip(a, b)]
    used = d[0] + d[1] + d[2]
    return {
        "metric": "steal_under_load",
        "steal_frac": round(d[7] / max(1, d[7] + used), 4),
        "used_jiffies": used,
        "steal_jiffies": d[7],
        "nproc": nproc,
        "seconds": seconds,
    }




def _recrawl_pages_dir(base_dir: str) -> str:
    """Recrawl-variant companion of a cached pages DIR (cached):
    base files hard-linked, plus variant files where ``doc_id % 7 == 3``
    gains a LATER (+3600 s) snapshot under a messy url whose html keeps
    only the first paragraph — the kg.pages_with_recrawl_content plant,
    generalized to the multi-file bench fixture so the 1M winner fold
    has real merge work (not an all-singletons no-op)."""
    import re as _re

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    out_dir = os.path.normpath(base_dir) + "-recrawl"
    done = os.path.join(out_dir, "_DONE")
    if os.path.isfile(done):
        return out_dir
    tmp = out_dir + ".tmp"
    import shutil

    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    first_p = _re.compile(rb"(.*?<p>.*?</p>).*(<footer>.*)", _re.DOTALL)
    files = sorted(
        f for f in os.listdir(base_dir) if f.endswith(".parquet")
    )
    schema = None
    for i, f in enumerate(files):
        src_f = os.path.join(base_dir, f)
        os.link(src_f, os.path.join(tmp, f))
        t = pads.dataset(src_f).to_table()
        schema = t.schema
        df = t.to_pandas()
        doc_id = df["url"].str.extract(r"/page/(\d+)$")[0].astype(np.int64)
        dom = df["url"].str.extract(r"^https://([^/]+)/")[0]
        sel = (doc_id % 7 == 3).to_numpy()
        if not sel.any():
            continue
        rr = df[sel].copy()
        rr["html"] = [first_p.sub(rb"\1\2", h) for h in rr["html"]]
        rr["url"] = (
            "http://WWW." + dom[sel] + ":80/page/" + doc_id[sel].astype(str)
        )
        rr["warc_ts"] = rr["warc_ts"] + pd.Timedelta(seconds=3600)
        pq.write_table(
            pa.Table.from_pandas(rr, preserve_index=False).cast(schema),
            os.path.join(tmp, f"recrawl-{i:04d}.parquet"),
            row_group_size=1024,
        )
    with open(os.path.join(tmp, "_DONE"), "w") as fh:
        fh.write("ok")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    return out_dir


def run_crawl1m() -> dict:
    """1M-page refresh of the composed crawl path (r4 verdict #6):
    ``crawl_partitioned`` (winner fold + resumable partitioned
    extraction) over the 1M-page fixture WITH recrawl variants.
    Measures sustained docs/s, polls peak object-store usage, ASSERTS
    bounded memory (no spill, peak under the store size), and proves
    resume at scale: a child process is SIGKILLed mid-extraction and
    the same out dir resumes to a merge count equal to the
    uninterrupted run's."""
    import shutil
    import signal
    import threading

    import ray

    sf_dir = _sf_dir()
    ncpu = _num_cpus()
    n_pages = int(os.environ.get("GRAFT_CRAWL_PAGES", "1000000"))
    ray.init(
        address="local", num_cpus=ncpu, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import dataclasses

    import pyarrow.parquet as pq

    from finance_sc_relations_ray.config import scaled_config
    from finance_sc_relations_ray.pipelines.run import (
        crawl_partitioned,
        merge_parts,
    )
    from finance_sc_relations_ray.sources.pages import pages_parquet_for

    extra = n_pages // 50
    base = pages_parquet_for(sf_dir, n_pages=n_pages, extra_entities=extra)
    fixture = _recrawl_pages_dir(base)
    files = sorted(
        os.path.join(fixture, f)
        for f in os.listdir(fixture)
        if f.endswith(".parquet")
    )
    n_rows = sum(pq.read_metadata(f).num_rows for f in files)
    cfg = dataclasses.replace(scaled_config(ncpu), extra_entities=extra)

    # ---- object-store poller (bounded-memory evidence) --------------
    store_total = int(ray.cluster_resources()["object_store_memory"])
    peak_used = 0
    stop = threading.Event()

    def poll():
        nonlocal peak_used
        while not stop.is_set():
            avail = ray.available_resources().get("object_store_memory", 0)
            peak_used = max(peak_used, store_total - int(avail))
            stop.wait(0.5)

    # ---- full run: sustained throughput -----------------------------
    out_dir = "/tmp/bench_crawl1m"
    shutil.rmtree(out_dir, ignore_errors=True)
    th = threading.Thread(target=poll, daemon=True)
    th.start()
    t0 = time.perf_counter()
    summary = crawl_partitioned(
        fixture, out_dir, num_parts=max(16, ncpu), parts_per_chunk=8,
        config=cfg,
    )
    n_triples = merge_parts(out_dir).count()
    full_sec = time.perf_counter() - t0
    stop.set()
    th.join(2)

    # no-spill evidence: Ray spills to the session dir; assert nothing
    # landed there during the run
    spilled = 0
    sess = "/tmp/ray/session_latest"
    for root, _d, fs in os.walk(sess, followlinks=True):
        if "spilled" in os.path.basename(root):
            spilled += sum(
                os.path.getsize(os.path.join(root, f)) for f in fs
            )
    assert spilled == 0, f"object store spilled {spilled} bytes at 1M pages"
    assert peak_used < 0.9 * store_total, (
        f"peak object store {peak_used / 1e9:.1f} GB ≥ 90% of "
        f"{store_total / 1e9:.1f} GB — not bounded"
    )

    # idempotent re-run: zero parts re-execute (resume-by-skip)
    t0 = time.perf_counter()
    re_summary = crawl_partitioned(
        fixture, out_dir, num_parts=max(16, ncpu), parts_per_chunk=8,
        config=cfg,
    )
    noop_sec = time.perf_counter() - t0
    assert re_summary["parts_run"] == 0, re_summary

    # ---- kill mid-run, then resume ----------------------------------
    kill_dir = "/tmp/bench_crawl1m_kill"
    shutil.rmtree(kill_dir, ignore_errors=True)
    child_env = dict(
        os.environ,
        RAY_GRAFT_CPUS=str(ncpu),
        GRAFT_CRAWL_PAGES=str(n_pages),
        GRAFT_CRAWL_OUT=kill_dir,
        GRAFT_CRAWL_FIXTURE=fixture,
    )
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--crawl1m-child"],
        env=child_env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    time.sleep(max(20.0, 0.5 * full_sec))  # well into extraction
    child.send_signal(signal.SIGKILL)
    child.wait()
    t0 = time.perf_counter()
    resumed = crawl_partitioned(
        fixture, kill_dir, num_parts=max(16, ncpu), parts_per_chunk=8,
        config=cfg,
    )
    resume_sec = time.perf_counter() - t0
    resumed_triples = merge_parts(kill_dir).count()
    assert resumed_triples == n_triples, (resumed_triples, n_triples)

    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(kill_dir, ignore_errors=True)
    out = {
        "metric": "crawl_partitioned_1m",
        "value": round(full_sec, 1),
        "unit": "sec",
        "sf": sf_dir,
        "num_cpus": ncpu,
        "n_input_rows": int(n_rows),
        "n_pages": n_pages,
        "n_triples": int(n_triples),
        "docs_per_sec": round(n_rows / full_sec, 1),
        "peak_object_store_gb": round(peak_used / 1e9, 2),
        "object_store_gb": round(store_total / 1e9, 2),
        "spilled_bytes": spilled,
        "noop_rerun_sec": round(noop_sec, 1),
        "resume": {
            "killed_after_sec": round(max(20.0, 0.5 * full_sec), 1),
            "parts_done_at_kill": int(resumed["parts_done"])
            - int(resumed["parts_run"]),
            "parts_resumed": int(resumed["parts_run"]),
            "resume_sec": round(resume_sec, 1),
            "triples_match": True,
        },
    }
    ray.shutdown()
    return out


def _crawl1m_child() -> None:
    """Child for the kill-resume leg: runs crawl_partitioned on the
    env-given fixture/out until SIGKILLed by the parent."""
    import dataclasses

    import ray

    ncpu = _num_cpus()
    ray.init(
        address="local", num_cpus=ncpu, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from finance_sc_relations_ray.config import scaled_config
    from finance_sc_relations_ray.pipelines.run import crawl_partitioned

    n_pages = int(os.environ["GRAFT_CRAWL_PAGES"])
    cfg = dataclasses.replace(
        scaled_config(ncpu), extra_entities=n_pages // 50
    )
    crawl_partitioned(
        os.environ["GRAFT_CRAWL_FIXTURE"],
        os.environ["GRAFT_CRAWL_OUT"],
        num_parts=max(16, ncpu), parts_per_chunk=8, config=cfg,
    )


def _docs_1m_dir(sf_dir: str, n_docs: int) -> str:
    """Deterministic large documents fixture (cached): an sf-like dir
    whose documents.parquet is a DIRECTORY of files. Texts cycle the
    real sf documents with a planted dedup structure — per group
    ``g = doc_id // 3``: variant 0 is base+" alpha{g}", variant 1 its
    EXACT duplicate, variant 2 a NEAR duplicate (one extra token →
    trigram Jaccard ≈ 0.94 > the 0.8 threshold) — so exact dedup and
    the MinHash component pass both do real merge work (~2/3 of the
    corpus collapses), langs stay mixed so the gate filters too."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    out = f"/tmp/fscr_docs/{os.path.basename(os.path.normpath(sf_dir))}-{n_docs}"
    marker = os.path.join(out, "documents.parquet")
    if os.path.isdir(marker) and os.listdir(marker):
        return out
    base = pads.dataset(
        os.path.join(sf_dir, "documents.parquet")
    ).to_table(columns=["text", "lang"]).to_pandas()
    btexts = base["text"].to_numpy()
    blangs = base["lang"].to_numpy()
    nb = len(base)
    os.makedirs(marker + ".tmp", exist_ok=True)
    n_files = 64
    per = (n_docs + n_files - 1) // n_files
    schema = pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string()),
         ("lang", pa.string()), ("source", pa.string()),
         ("n_chars", pa.int64())]
    )
    for fi in range(n_files):
        lo = fi * per
        hi = min(n_docs, lo + per)
        if lo >= hi:
            break
        ids = np.arange(lo, hi, dtype=np.int64)
        g = ids // 3
        v = ids % 3
        # all three variants share the group's base text; a 20-token
        # group-unique tail keeps CROSS-group Jaccard of same-base
        # docs well under the 0.8 threshold (S/(S+40) ≤ 0.71 even for
        # the longest ~50-shingle bases), so components stay bounded
        # at the 3-doc group — without it every base's ~n/5000
        # reuses chain into one giant component and the LSH candidate
        # stream grows quadratically in the duplication factor
        b0 = btexts[(g * 3) % nb]
        tail = [
            " ".join(f"g{int(gi)}t{j}" for j in range(20))
            for gi in g
        ]
        texts = [
            f"{base} {t}" if vi != 2 else f"{base} beta{int(gi)} {t}"
            for base, t, vi, gi in zip(b0, tail, v, g)
        ]
        df = pd.DataFrame(
            {
                "doc_id": ids,
                "text": pd.Series(texts, dtype="object"),
                "lang": blangs[(g * 3) % nb],
                "source": np.char.add("src", (ids % 20).astype(str)),
            }
        )
        df["n_chars"] = df["text"].str.len().astype(np.int64)
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False).cast(schema),
            os.path.join(marker + ".tmp", f"docs-{fi:04d}.parquet"),
            row_group_size=8192,
        )
    os.replace(marker + ".tmp", marker)
    return out


def run_curate1m() -> dict:
    """1M-document refresh of the composed TEXT path: the resumable
    pretraining export (gate → exact dedup → MinHash components →
    decontaminate → pack) over the planted-dup 1M fixture, with the
    same bounded-memory / no-spill assertions as --crawl1m and a
    no-op-rerun resume check."""
    import shutil
    import threading

    import ray

    sf_dir = _sf_dir()
    ncpu = _num_cpus()
    n_docs = int(os.environ.get("GRAFT_CURATE_DOCS", "1000000"))
    ray.init(
        address="local", num_cpus=ncpu, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from finance_sc_relations_ray.pipelines.run import (
        pretrain_export_partitioned,
    )

    fixture = _docs_1m_dir(sf_dir, n_docs)

    store_total = int(ray.cluster_resources()["object_store_memory"])
    peak_used = 0
    stop = threading.Event()

    def poll():
        nonlocal peak_used
        while not stop.is_set():
            avail = ray.available_resources().get("object_store_memory", 0)
            peak_used = max(peak_used, store_total - int(avail))
            stop.wait(0.5)

    out_dir = "/tmp/bench_curate1m"
    shutil.rmtree(out_dir, ignore_errors=True)
    th = threading.Thread(target=poll, daemon=True)
    th.start()
    t0 = time.perf_counter()
    summary = pretrain_export_partitioned(
        fixture, out_dir, num_parts=max(16, ncpu), parts_per_chunk=8,
    )
    full_sec = time.perf_counter() - t0
    stop.set()
    th.join(2)

    spilled = 0
    sess = "/tmp/ray/session_latest"
    for root, _d, fs in os.walk(sess, followlinks=True):
        if "spilled" in os.path.basename(root):
            spilled += sum(
                os.path.getsize(os.path.join(root, f)) for f in fs
            )
    assert spilled == 0, f"object store spilled {spilled} bytes at 1M docs"
    assert peak_used < 0.9 * store_total, (
        f"peak object store {peak_used / 1e9:.1f} GB >= 90% of store"
    )
    # the planted structure must actually collapse the corpus: exact
    # dups (1/3) and near dups (1/3) both go — survivors well under
    # half the gated input
    assert summary["n_final"] < 0.5 * n_docs, summary

    t0 = time.perf_counter()
    again = pretrain_export_partitioned(
        fixture, out_dir, num_parts=max(16, ncpu), parts_per_chunk=8,
    )
    noop_sec = time.perf_counter() - t0
    assert again["parts_run"] == 0, again

    shutil.rmtree(out_dir, ignore_errors=True)
    out = {
        "metric": "pretrain_export_1m",
        "value": round(full_sec, 1),
        "unit": "sec",
        "sf": sf_dir,
        "num_cpus": ncpu,
        "n_docs": n_docs,
        "n_curated": int(summary["n_final"]),
        "n_exported": int(summary["n_exported"]),
        "docs_per_sec": round(n_docs / full_sec, 1),
        "peak_object_store_gb": round(peak_used / 1e9, 2),
        "object_store_gb": round(store_total / 1e9, 2),
        "spilled_bytes": spilled,
        "noop_rerun_sec": round(noop_sec, 1),
    }
    ray.shutdown()
    return out


if __name__ == "__main__":
    if "--probe" in sys.argv:
        print(json.dumps(run_probe()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--crawl1m-child" in sys.argv:
        _crawl1m_child()
    elif "--crawl1m" in sys.argv:
        print(json.dumps(run_crawl1m()))
    elif "--curate1m" in sys.argv:
        print(json.dumps(run_curate1m()))
    else:
        print(json.dumps(run_bench()))
