"""Row-range parquet read: the page read of every page-stage plan.

``ray.data.read_parquet`` plans one read task per file fragment and
splits a small input's blocks after the read (``SplitBlocks``), and
Ray 2.49 does not fuse a split read into the map behind it
(``operator_fusion._can_fuse``). The page stage then runs behind a
separate read operator whose tasks hold CPU slots while the page tasks
wait for them.

:class:`PageRowsDatasource` plans the read from the parquet footers
alone: the input's rows, in file order, cut into ``n`` contiguous
ranges, one read task each. With at least ``n`` row groups the cuts
fall on row-group boundaries (balanced by rows), so every row group is
decoded by exactly one task. Only an input with fewer row groups than
tasks is cut inside a row group; a task then decodes that group in
batches of its own row count and stops at the end of its range. A task
reads only the requested columns and yields one block per row group it
touches, so it streams its range instead of concatenating it. Since
``get_read_tasks(n)`` returns ``n`` tasks, Ray adds no split, and a
``map_batches(batch_size=None)`` behind the read fuses into the read
task itself.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os

import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def parquet_files(path: "str | list[str]") -> list[str]:
    """The parquet files of ``path``: a file, a list of files, or a
    directory walked recursively (hive layouts keep their files below
    the top level), sorted."""
    if isinstance(path, list):
        return list(path)
    if os.path.isdir(path):
        return sorted(
            os.path.join(root, f)
            for root, _dirs, files in os.walk(path)
            for f in files
            if f.endswith(".parquet")
        )
    return [path]


def _group_rows(
    pf: pq.ParquetFile, g: int, lo: int, hi: int, columns: list[str]
) -> pa.Table:
    """Rows ``[lo, hi)`` of row group ``g``, decoded in batches of
    ``hi - lo`` rows and no further than ``hi``: the tasks that share a
    row group each hold their own rows, never the whole group."""
    out, at = [], 0
    for b in pf.iter_batches(batch_size=hi - lo, row_groups=[g], columns=columns):
        a, z = max(lo, at), min(hi, at + b.num_rows)
        if a < z:
            out.append(b.slice(a - at, z - a))
        at += b.num_rows
        if at >= hi:
            break
    return pa.Table.from_batches(out)


def _read_pieces(
    files: list[str],
    columns: list[str],
    pieces: list[tuple[int, int, int, int, int]],
    schema: pa.Schema,
):
    """Yield one block per (file, row group, first row, end row, group
    rows) piece; ``files`` holds only this task's files."""
    if not pieces:
        yield schema.empty_table()
        return
    for fi, in_file in itertools.groupby(pieces, key=lambda p: p[0]):
        with pq.ParquetFile(files[fi]) as pf:
            for _, g, lo, hi, rows in in_file:
                if hi - lo == rows:
                    yield pf.read_row_group(g, columns=columns)
                else:
                    yield _group_rows(pf, g, lo, hi, columns)


class PageRowsDatasource(Datasource):
    """The rows of parquet ``files`` (``columns`` only), read as
    contiguous row ranges (module docstring). Every file must give
    ``columns`` the same types."""

    def __init__(self, files: list[str], columns: list[str]):
        self._files = files
        self._columns = columns
        # (file index, row group, first row of the input, rows, bytes)
        self._groups: list[tuple[int, int, int, int, int]] = []
        self.num_rows = 0
        schema = None
        for fi, f in enumerate(files):
            with pq.ParquetFile(f) as pf:
                arrow, md = pf.schema_arrow, pf.metadata
            missing = [c for c in columns if c not in arrow.names]
            if missing:
                raise ValueError(f"{f} has no column(s) {missing}")
            fields = pa.schema([arrow.field(c) for c in columns])
            if schema is None:
                schema = fields
            elif fields.types != schema.types:
                raise ValueError(
                    f"{f} types the columns as {fields}, "
                    f"but {files[0]} as {schema}"
                )
            leaves = [
                i for i in range(md.num_columns)
                if md.schema.column(i).path.split(".")[0] in columns
            ]
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                if not rg.num_rows:
                    continue
                nbytes = sum(
                    rg.column(i).total_uncompressed_size for i in leaves
                )
                self._groups.append((fi, g, self.num_rows, rg.num_rows, nbytes))
                self.num_rows += rg.num_rows
        if schema is None:
            raise FileNotFoundError(f"no parquet files in {files!r}")
        self._schema = schema

    @property
    def num_row_groups(self) -> int:
        """Row groups that hold rows."""
        return len(self._groups)

    def estimate_inmemory_data_size(self) -> int:
        return sum(g[4] for g in self._groups)

    def _bounds(self, n: int) -> list[int]:
        """``n + 1`` input offsets cutting the rows into ``n`` ranges:
        on the row-group boundaries nearest to even shares when there
        are at least ``n`` row groups, at even shares otherwise."""
        total, groups = self.num_rows, self._groups
        if len(groups) < n:
            return [total * i // n for i in range(n + 1)]
        starts = [g[2] for g in groups] + [total]
        cuts = [0]
        for i in range(1, n):
            target = total * i // n
            j = bisect.bisect_left(starts, target)
            if j > 0 and target - starts[j - 1] <= starts[j] - target:
                j -= 1
            # every range keeps at least one row group
            cuts.append(min(max(j, cuts[-1] + 1), len(groups) - (n - i)))
        return [starts[c] for c in cuts] + [total]

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        """``parallelism`` contiguous row ranges (fewer when the input
        has fewer rows; one empty task for an input with none)."""
        n = max(1, min(parallelism, self.num_rows))
        bounds = self._bounds(n)
        tasks = []
        for lo, hi in zip(bounds, bounds[1:]):
            pieces, nbytes, used = [], 0, []
            for fi, g, start, rows, size in self._groups:
                a, b = max(lo, start), min(hi, start + rows)
                if a >= b:
                    continue
                if not used or used[-1] != self._files[fi]:
                    used.append(self._files[fi])
                pieces.append((len(used) - 1, g, a - start, b - start, rows))
                nbytes += size * (b - a) // rows
            meta = BlockMetadata(
                num_rows=hi - lo,
                size_bytes=nbytes,
                input_files=used,
                exec_stats=None,
            )
            tasks.append(
                ReadTask(
                    functools.partial(
                        _read_pieces,
                        used,
                        self._columns,
                        pieces,
                        self._schema,
                    ),
                    meta,
                    schema=self._schema,
                )
            )
        return tasks
