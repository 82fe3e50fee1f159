"""CLI entry point — the unit a cluster runs via ``ray job submit``:

    ray job submit -- python -m finance_sc_relations_ray.cli \\
        --pages /data/pages --out /data/triples --num-parts 4096

Owns its Ray session (guarded init: under ``ray job submit`` the
cluster address env is already set; standalone it starts local mode).
``--out`` is a triple store (pipelines/kg_state.py) that every chunk of
input files merges into. Resumable: re-running with the same ``--out``
merges only the input files the store's log does not hold yet
(pipelines/run.py).
"""

from __future__ import annotations

import argparse
import json
import sys


def _check_backend_main(argv: list[str]) -> int:
    """``cli check-backend <module:Class> --kind tagger`` — the
    operator-facing conformance runner (r3 verdict #6): validates a
    user-supplied bring-your-own-weights backend against the structural
    contract (stages/backends.py) plus an actor-pool init-once smoke,
    without the user reading test code. Exits 0 and prints a JSON
    summary on success; exits 1 with the failing clause on violation.

    The pool-smoke init ledger is a local temp file, so the smoke
    assumes a single-node (local-mode) Ray session — which is how a
    backend author runs it before shipping weights to a cluster."""
    p = argparse.ArgumentParser(prog="cli check-backend")
    p.add_argument("target", help="backend as module.path:ClassName")
    p.add_argument(
        "--kind", required=True,
        choices=["tagger", "scorer", "tokenizer", "encoder"],
    )
    p.add_argument("--init-json", default=None,
                   help="JSON dict of constructor kwargs")
    p.add_argument("--no-pool-smoke", action="store_true",
                   help="contract checks only (skip the Ray actor pool)")
    p.add_argument("--num-cpus", type=int, default=4)
    args = p.parse_args(argv)

    import functools
    import importlib

    mod_name, _, cls_name = args.target.partition(":")
    if not cls_name:
        print("target must be module.path:ClassName", file=sys.stderr)
        return 2
    cls = getattr(importlib.import_module(mod_name), cls_name)
    kwargs = json.loads(args.init_json) if args.init_json else {}
    factory = functools.partial(cls, **kwargs) if kwargs else cls

    import ray

    if not args.no_pool_smoke and not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus,
            include_dashboard=False, ignore_reinit_error=True,
            logging_level="ERROR",
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    from .stages.backends import run_conformance

    try:
        summary = run_conformance(
            factory, args.kind, pool_smoke=not args.no_pool_smoke
        )
    except AssertionError as exc:
        print(json.dumps({"kind": args.kind, "contract": "FAILED",
                          "error": str(exc) or repr(exc)}))
        return 1
    finally:
        if ray.is_initialized():
            ray.shutdown()
    print(json.dumps(summary))
    return 0


def _pipeline_smoke_main(argv: list[str]) -> int:
    """``cli check-backend --pipeline --tagger m:Cls --scorer m:Cls`` —
    the bring-your-own-weights user's FIRST command (r4 verdict #7):
    contract-checks both backends, then drives the 200-page e2e through
    the REAL fused pipeline with the user classes loaded once per
    worker process by the page stage's model cache (the
    ``module:Class`` registry seam in
    stages/ner.make_tagger / stages/scoring.make_scorer), and prints
    triple precision/recall against the stub oracle. P/R == 1.0 means
    the plumbing round-trips; a learned model legitimately diverges —
    the numbers tell the user how far, before any cluster time."""
    p = argparse.ArgumentParser(prog="cli check-backend --pipeline")
    p.add_argument("--tagger", required=True,
                   help="NER backend as module.path:ClassName")
    p.add_argument("--scorer", required=True,
                   help="RE backend as module.path:ClassName")
    p.add_argument("--num-cpus", type=int, default=4)
    p.add_argument("--n-pages", type=int, default=200)
    args = p.parse_args(argv)

    import importlib

    def _load(target: str):
        mod, _, cls = target.partition(":")
        if not cls:
            raise SystemExit(f"{target!r}: must be module.path:ClassName")
        return getattr(importlib.import_module(mod), cls)

    tagger_cls = _load(args.tagger)
    scorer_cls = _load(args.scorer)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus,
            include_dashboard=False, ignore_reinit_error=True,
            logging_level="ERROR",
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

    from .stages.backends import run_conformance

    out: dict = {"tagger": args.tagger, "scorer": args.scorer}
    try:
        run_conformance(tagger_cls, "tagger", pool_smoke=False)
        out["tagger_contract"] = "ok"
        run_conformance(scorer_cls, "scorer", pool_smoke=False)
        out["scorer_contract"] = "ok"

        import tempfile

        import pyarrow.parquet as pq

        from .config import KGConfig
        from .pipelines.kg import build_kg_pipeline
        from .sources.pages import generate_pages

        pages = generate_pages(list(range(args.n_pages)))
        tmp = tempfile.mkdtemp(prefix="fscr_smoke_") + "/pages.parquet"
        import os

        os.makedirs(os.path.dirname(tmp), exist_ok=True)
        pq.write_table(pages, tmp)
        cfg = KGConfig(ner_backend=args.tagger, re_backend=args.scorer)
        got = build_kg_pipeline(tmp, config=cfg).to_pandas()

        from oracle.kg_oracle import expected_triples

        exp = expected_triples(pages)
        g = set(zip(got["subj"], got["pred"], got["obj"]))
        e = set(zip(exp["subj"], exp["pred"], exp["obj"]))
        tp = len(g & e)
        out.update(
            n_pages=args.n_pages,
            n_triples=len(g),
            n_oracle_triples=len(e),
            precision=round(tp / len(g), 4) if g else 0.0,
            recall=round(tp / len(e), 4) if e else 0.0,
        )
    except Exception as exc:  # noqa: BLE001 — report, exit 1
        out["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(out))
        return 1
    finally:
        if ray.is_initialized():
            ray.shutdown()
    print(json.dumps(out))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "check-backend":
        if "--pipeline" in argv[1:]:
            rest = [a for a in argv[1:] if a != "--pipeline"]
            return _pipeline_smoke_main(rest)
        return _check_backend_main(argv[1:])
    p = argparse.ArgumentParser(description="Ray Data KG construction")
    p.add_argument("--pages", required=True, help="pages parquet file/dir")
    p.add_argument("--out", required=True, help="output dir (triple store)")
    p.add_argument("--num-parts", type=int, default=64)
    p.add_argument("--parts-per-chunk", type=int, default=16)
    p.add_argument("--num-cpus", type=int, default=None,
                   help="local-mode CPU count (ignored on a cluster)")
    p.add_argument("--merge", action="store_true",
                   help="also write the store's folded triples to <out>_merged")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local" if args.num_cpus else None,
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from .config import scaled_config
    from .pipelines.run import merge_parts, run_partitioned

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    summary = run_partitioned(
        args.pages,
        args.out,
        num_parts=args.num_parts,
        parts_per_chunk=args.parts_per_chunk,
        config=scaled_config(ncpu),
    )
    if args.merge:
        merged = merge_parts(args.out)
        merged.write_parquet(args.out + "_merged")
        summary["merged_rows"] = merged.count()
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
