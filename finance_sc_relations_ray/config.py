"""Pipeline constants.

Every threshold mirrors the reference's published constants so that the
rebuilt semantics match (see BASELINE.md):

- group threshold 0.95      (reference src/language_model/spacy_loader.py:54)
- alias similarity 0.8      (reference src/language_model/spacy_loader.py:194)
- within-doc cluster 0.96   (reference src/relation_extraction/reporter.py:287)
- link match 0.95 / candidate 0.80, prefix_len 2, top_k 5
                            (reference src/sagemaker/re_inference.py:128-138)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KGConfig:
    # similarity thresholds (reference-identical)
    group_threshold: float = 0.95
    alias_sim_threshold: float = 0.8
    cluster_threshold: float = 0.96
    link_match_threshold: float = 0.95
    link_cand_threshold: float = 0.80
    prefix_len: int = 2
    top_k: int = 5

    # pair enumeration
    num_positions: int = 4  # cap position-variants per pair (reference default
    # is unbounded, src/relation_extraction/infer.py:230; a cap bounds the
    # flat_map fan-out at scale — tests use inf for oracle parity)

    # labels (reference src/relation_extraction/infer.py:24)
    main_relations: tuple[str, ...] = ("supplier", "customer")
    labels: tuple[str, ...] = ("supplier", "customer", "other")
    canonical_pred: str = "supplies_to"

    # SC gate
    sc_threshold: float = 0.5

    # M10 tokenizer-side accounting (reference re_dataset,
    # preprocessing_funcs.py:287-339): every tagged variant is
    # tokenized (stub wordpiece, truncation at max_token_len) and
    # dropped+counted when a marker does not survive — corrupted
    # markers or truncation past the [E2] position
    max_token_len: int = 128
    tokenize_markers: bool = True
    # M8 wiring (reference mutates sents inside re_dataset before the
    # RE forward, mutate=True): pseudonymize org mentions per group
    # before scoring. Off by default with the rule-based stub (which
    # reads positions, not names); flip on when a learned model scores.
    mutate_before_scoring: bool = False

    # read by nothing: every model stage runs as page-local Ray tasks,
    # one per cluster CPU (pipelines/kg.read_pages). The field stays
    # only while perfbench/workloads.make_config passes it.
    ner_concurrency: tuple[int, int] = (1, 8)
    # NER backend (M2/M2'): "gazetteer" (fixed-list longest match) or
    # "heuristic" (capitalized-run + corp-suffix — recognizes unseen
    # names); real spaCy/HF models register in stages/ner.make_tagger
    ner_backend: str = "gazetteer"
    # RE-scorer backend (ST3 seam): "rule" or "heavy_fake" (the
    # real-model-sized fake, stages/backends.py); a sec-bert forward
    # registers in stages/scoring.make_scorer
    re_backend: str = "rule"
    # GPU fraction per model worker: 0 on CPU stubs; a real GPU model
    # sets e.g. 0.25 to pack 4 workers per device (the reference runs
    # NER/RE on GPU instances, spacy_loader.py require_gpu). Requested
    # as num_gpus by every model stage's tasks (pipelines/kg.map_pages).
    actor_num_gpus: float = 0.0
    # bench realism: extend the stub gazetteer with this many synthetic
    # entities so the entity space (and therefore the dedup exchange)
    # grows with the input instead of saturating (gazetteer.py)
    extra_entities: int = 0


def exchange_fanout(num_buckets: int | None = None, floor: int = 64) -> int:
    """Cluster-size-derived fan-out for hash-bucketed exchanges
    (r4 verdict #1: literal ``% 64`` / ``num_buckets=64`` capped every
    all-to-all at 64 reducers regardless of cluster size).

    Resolution order — explicit caller value, ``GRAFT_NUM_BUCKETS``
    env override, then ``max(floor, 2 × cluster CPUs)`` from
    ``ray.cluster_resources()`` (falling back to ``os.cpu_count()``
    when Ray is not yet initialised). Called at PLAN time on the
    driver — the resolved int is closed over by the batch fns, so
    workers never re-resolve it and a run's bucket routing is
    self-consistent. Bucket count is partitioning-only: results are
    multiset-identical at ANY value (pytest-enforced at
    ``GRAFT_NUM_BUCKETS=7`` against the DuckDB oracles,
    tests/test_bucket_invariance.py)."""
    if num_buckets is not None:
        return int(num_buckets)
    import os as _os

    env = _os.environ.get("GRAFT_NUM_BUCKETS")
    if env:
        return int(env)
    cpus = 0
    try:
        import ray as _ray

        if _ray.is_initialized():
            cpus = int(_ray.cluster_resources().get("CPU", 0) or 0)
    except Exception:
        cpus = 0
    if cpus <= 0:
        cpus = _os.cpu_count() or 8
    return max(int(floor), 2 * cpus)


INVERSE_RELATION = {"supplier": "customer", "customer": "supplier", "other": "other"}

DEFAULT_CONFIG = KGConfig()
