"""Suffix-dispatch table reader (reference S1:
src/relation_extraction/infer.py:368-413 dispatches tsv/csv/json/xlsx
via a format registry). Parquet is the canonical format at scale; the
dispatch exists for interchange inputs. xlsx is environment-gated (no
openpyxl here) and raises with a clear message."""

from __future__ import annotations

import os

import ray.data

_READERS = {
    ".parquet": ray.data.read_parquet,
    ".csv": ray.data.read_csv,
    ".json": ray.data.read_json,
    ".jsonl": ray.data.read_json,
}


def read_table(path: str, **kwargs) -> "ray.data.Dataset":
    """Read a tabular file/dir into a Dataset by extension; directories
    dispatch on their first file's extension (parquet default)."""
    p = path
    if os.path.isdir(path):
        files = sorted(f for f in os.listdir(path) if not f.startswith("_"))
        p = files[0] if files else "x.parquet"
    ext = os.path.splitext(p)[1].lower()
    if ext == ".tsv":
        from ray.data.datasource import CSVDatasource  # noqa: F401 (doc)
        import pyarrow.csv as pacsv

        return ray.data.read_csv(
            path,
            parse_options=pacsv.ParseOptions(delimiter="\t"),
            **kwargs,
        )
    if ext == ".xlsx":
        raise NotImplementedError(
            "xlsx requires openpyxl, not present in this environment; "
            "convert to parquet/csv"
        )
    reader = _READERS.get(ext, ray.data.read_parquet)
    return reader(path, **kwargs)


# ~1 MiB of compressed parquet per block: small enough that a 10 MB
# table still fans out across cores (downstream groupby/sort partition
# count — and therefore reduce parallelism — follows the block count),
# large enough that a sub-MiB table gets ONE block instead of dozens of
# near-empty ones paying a task launch each.
_SMALL_BLOCK_BYTES = 1 << 20
_SMALL_READ_MAX = 64 << 20
_SMALL_READ_MAX_BLOCKS = 64


def sized_read_parquet(
    path: str, *, fanout: bool = False, **kwargs
) -> "ray.data.Dataset":
    """``read_parquet`` with a SIZE-AWARE block count for small inputs.

    ``fanout=True`` opts OUT of the small-read collapse and keeps Ray's
    stock block sizing (~2× CPU count): pipelines whose first map
    EXPLODES rows 100×+ (shingles, doc×token) or does heavy per-doc
    CPU work need the downstream task fan-out even when the input file
    is tiny — measured at sf0.1: the 1-block read serialized
    unigram_logprob's tokenize (7.3 s → 11.4 s). Inputs over 64 MiB
    are stock either way, so this only matters at gate scale.

    Ray's default parallelism targets ~2× the CPU count, which is right
    at scale but splits a gate-scale table (a few MB) into dozens of
    near-empty blocks — every downstream map op then pays ~64 task
    launches for microseconds of work each (measured: token_counts at
    sf0.1 spent 3.2 of 3.3 s on scheduling, <0.2 s of remote wall
    time). The first cut used 16 MiB/block, which collapsed sf0.1
    lineitem (10.8 MB) to ONE block and serialized its downstream
    147k-group aggregate (32 s); 1 MiB/block keeps tiny tables at one
    block while a 10 MB table still gets ~11-way parallelism. Inputs
    over 64 MiB keep Ray's default sizing untouched, so the 100-TB
    path is exactly the stock streaming planner."""
    import math

    try:
        if os.path.isdir(path):
            # Walk the whole tree: hive-partitioned layouts (part=N/...)
            # keep their files below the top level, and summing only
            # os.listdir would read total=0 and force a 1-block read.
            total = 0
            for root, _dirs, files in os.walk(path):
                total += sum(
                    os.path.getsize(os.path.join(root, f))
                    for f in files
                    if f.endswith(".parquet")
                )
            if total == 0:
                total = None  # no parquet found: leave stock sizing
        else:
            total = os.path.getsize(path)
    except OSError:
        total = None
    if (
        not fanout
        and total is not None
        and total < _SMALL_READ_MAX
        and "override_num_blocks" not in kwargs
    ):
        kwargs["override_num_blocks"] = min(
            _SMALL_READ_MAX_BLOCKS, max(1, math.ceil(total / _SMALL_BLOCK_BYTES))
        )
    return ray.data.read_parquet(path, **kwargs)


def candidate_filtered_read(
    path: str,
    key: str,
    columns: list[str],
    ids_ds: "ray.data.Dataset",
    n_need: int,
    pushdown_max_ids: int = 100_000,
) -> "ray.data.Dataset":
    """Read only the rows of a parquet table whose ``key`` appears in
    ``ids_ds`` (a Dataset with one distinct int64 ``key`` column) — the
    candidate-funnel scan of the reduced-copy embedding-LSH verify
    (r3 verdict #2).

    Two regimes, switched by a DISTRIBUTED count (never a collect):

    - ``n_need ≤ pushdown_max_ids``: the id list is collected (the
      ordinary "small results may be collected" rule — its smallness is
      count-proven first) and PUSHED TO THE PARQUET SCAN as an ``isin``
      filter (row-group statistics pruning — S7). EXACT: no further
      membership stage needed.
    - above the gate: full column-pruned scan + Bloom semi-join; the
      driver holds only the fixed-size bitmap built by a distributed
      OR-reduce (functions/bloom.build_distributed). SUPERSET: Bloom
      false positives survive, so callers must consume the result
      through an INNER join on ``key`` (the embedding-LSH verify
      does), which drops them for free."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    if n_need <= pushdown_max_ids:
        need = sorted(r[key] for r in ids_ds.take_all())
        return sized_read_parquet(
            path, columns=columns, filter=pads.field(key).isin(need)
        )

    from ..functions import bloom as bloom_mod

    need_ref = ray.put(bloom_mod.build_distributed(ids_ds, key, capacity=n_need))

    class FilterNeeded:
        def __init__(self):
            self.need = ray.get(need_ref)

        def __call__(self, batch: "pa.Table") -> "pa.Table":
            # vectorized probe (bit-identical to the scalar `in`): one
            # numpy pass over all k probes instead of a Python loop
            # per id (r3 ADVICE hot-path item)
            mask = self.need.contains_many(batch[key].to_pylist())
            return batch.filter(pa.array(mask))

    return sized_read_parquet(path, columns=columns).map_batches(
        FilterNeeded, batch_format="pyarrow", concurrency=(1, 2), num_cpus=0.5
    )
