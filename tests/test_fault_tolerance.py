"""Fault-tolerance: a map_batches worker process dying mid-run (the
100-TB cluster's routine event) must not fail the job or corrupt the
result — Ray reschedules the killed task and the pipeline completes
with byte-identical output."""

import os

import pyarrow as pa
import ray.data


def test_worker_death_is_retried_exactly(tmp_path):
    sentinel = str(tmp_path / "killed-once")

    def f(batch: pa.Table) -> pa.Table:
        # kill exactly ONE worker process, once, on the marked block:
        # os._exit bypasses Python teardown — to Ray this is a died
        # worker (system failure), which map tasks retry by default
        if 0 in batch["i"].to_pylist() and not os.path.exists(sentinel):
            with open(sentinel, "w") as fh:
                fh.write("x")
            os._exit(1)
        return pa.table(
            {
                "i": batch["i"],
                "double": pa.array(
                    [v * 2 for v in batch["i"].to_pylist()], pa.int64()
                ),
            }
        )

    ds = ray.data.from_arrow(
        pa.table({"i": pa.array(range(1000), pa.int64())})
    ).repartition(8)
    out = (
        ds.map_batches(f, batch_format="pyarrow")
        .to_pandas()
        .sort_values("i")
        .reset_index(drop=True)
    )
    assert os.path.exists(sentinel)  # the kill really happened
    assert len(out) == 1000  # no lost rows
    assert out["double"].tolist() == [2 * i for i in range(1000)]


def test_kg_page_task_death_is_retried_exactly(tmp_path):
    """Same guarantee for the page stage on the wiring the engine uses
    (a ``PageKGActor`` instance run as Ray tasks, models from the
    per-process cache): one worker process dies mid-run; the task is
    retried on a fresh worker, which loads its models into an empty
    cache, and the triples match the oracle exactly. The chaos
    subclass is defined in-test (closure-pickled) because module-level
    classes serialize by reference — a monkeypatch would never reach
    the worker processes."""
    import pyarrow.parquet as pq

    from finance_sc_relations_ray.config import DEFAULT_CONFIG
    from finance_sc_relations_ray.sources.pages import generate_pages
    from finance_sc_relations_ray.stages.fused import PageKGActor
    from finance_sc_relations_ray.gazetteer import company_db_table
    import ray
    from finance_sc_relations_ray.stages.triples import to_triples_batch
    from finance_sc_relations_ray.stages.shuffle import salted_dedup
    from oracle.kg_oracle import expected_triples

    sentinel = str(tmp_path / "task-killed-once")
    pages = generate_pages(list(range(100)))
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, path, row_group_size=16)

    class ChaosPageKGActor(PageKGActor):
        def __call__(self, batch):
            if not os.path.exists(sentinel):
                with open(sentinel, "w") as fh:
                    fh.write("x")
                os._exit(1)
            return super().__call__(batch)

    import functools

    ds = ray.data.read_parquet(path, columns=["url", "html", "lang"])
    ds = ds.repartition(4)
    linked = ds.map_batches(
        ChaosPageKGActor(DEFAULT_CONFIG, db_ref=ray.put(company_db_table())),
        batch_format="pyarrow",
        batch_size=32,
    )
    triples = linked.map_batches(
        functools.partial(to_triples_batch, config=DEFAULT_CONFIG),
        batch_format="pyarrow",
    )
    got = (
        salted_dedup(triples, ["subj", "pred", "obj"])
        .to_pandas()
        .astype({"score": "float64"})
        .round({"score": 4})
        .sort_values(["subj", "pred", "obj"])
        .reset_index(drop=True)
    )
    exp = expected_triples(pages)
    assert os.path.exists(sentinel)  # a worker really died
    assert len(got) == len(exp)
    assert got["subj"].tolist() == exp["subj"].tolist()
    assert got["n_mentions"].tolist() == exp["n_mentions"].tolist()


def test_object_store_spill_keeps_job_alive(tmp_path):
    """Memory-aware guarantee: materializing a dataset ~4x LARGER than
    the object store must spill to disk and complete, not OOM — run in
    a subprocess with a deliberately tiny (128 MiB) store and ~500 MiB
    of generated blocks. (Sized so the subprocess finishes well inside
    its timeout even when the whole suite's Ray session is competing
    for this overcommitted host's cycles.)"""
    import subprocess
    import sys
    import textwrap

    code = textwrap.dedent(
        """
        import numpy as np
        import pyarrow as pa
        import ray, ray.data
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 object_store_memory=128 * 1024 * 1024,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False

        def blowup(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            payload = [np.random.default_rng(int(i)).bytes(1_000_000)
                       for i in batch["id"].to_pylist()]
            return pa.table({"id": batch["id"],
                             "payload": pa.array(payload, pa.binary())})

        ds = ray.data.range(500).map_batches(
            blowup, batch_size=50, batch_format="pyarrow"
        ).materialize()  # ~500 MiB >> 128 MiB store -> must spill
        assert ds.count() == 500
        total = sum(len(b["payload"][0].as_py())
                    for b in ds.iter_batches(batch_size=1,
                                             batch_format="pyarrow"))
        assert total == 500 * 1_000_000, total
        print("SPILL-OK")
        ray.shutdown()
        """
    )
    env = {**os.environ, "RAY_ADDRESS": ""}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=540, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "SPILL-OK" in proc.stdout
