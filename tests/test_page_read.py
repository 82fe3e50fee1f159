"""The row-range page read (sources/page_read.py): its read tasks cover
every row of the input exactly once, in file order, whatever the task
count; a task yields one block per row group it touches; and a row
group is decoded whole by one task only, unless the input has fewer row
groups than tasks."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
from ray.data import DataContext

from finance_sc_relations_ray.sources.page_read import (
    PageRowsDatasource,
    parquet_files,
)
from finance_sc_relations_ray.sources.pages import generate_pages

COLUMNS = ["url", "html", "lang"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Three layouts: several files with several row groups each (one
    of them empty, one with a single row group), one file of one row
    group, and one file of one-row row groups."""
    d = tmp_path_factory.mktemp("page_read")
    pages = generate_pages(list(range(47)))
    multi = d / "multi"
    multi.mkdir()
    pq.write_table(pages.slice(0, 20), str(multi / "a.parquet"), row_group_size=6)
    pq.write_table(pages.slice(0, 0), str(multi / "b.parquet"))
    pq.write_table(pages.slice(20, 5), str(multi / "c.parquet"))
    pq.write_table(pages.slice(25, 22), str(multi / "d.parquet"), row_group_size=10)
    one = d / "one.parquet"
    pq.write_table(pages.slice(0, 13), str(one))
    rows = d / "rows.parquet"
    pq.write_table(pages.slice(0, 5), str(rows), row_group_size=1)
    return {"multi": str(multi), "one": str(one), "rows": str(rows)}


def _row_group_ends(files):
    """The input offsets at which each non-empty row group ends."""
    ends, at = [], 0
    for f in files:
        md = pq.read_metadata(f)
        for g in range(md.num_row_groups):
            if md.row_group(g).num_rows:
                at += md.row_group(g).num_rows
                ends.append(at)
    return ends


@pytest.mark.parametrize("layout", ["multi", "one", "rows"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 13, 47, 60])
def test_ranges_cover_every_row_once_in_file_order(inputs, layout, n):
    files = parquet_files(inputs[layout])
    expected = pa.concat_tables(pq.read_table(f, columns=COLUMNS) for f in files)
    src = PageRowsDatasource(files, COLUMNS)
    assert src.num_rows == expected.num_rows
    tasks = src.get_read_tasks(n)
    assert len(tasks) == min(n, expected.num_rows)
    ends = _row_group_ends(files)
    got, at = [], 0
    for task in tasks:
        blocks = list(task())
        assert sum(b.num_rows for b in blocks) == task.metadata.num_rows
        for b in blocks:
            # one block per row group the range touches: a block never
            # crosses a row-group end
            end = next(e for e in ends if e > at)
            assert 0 < b.num_rows <= end - at, (at, b.num_rows, ends)
            at += b.num_rows
        got.extend(blocks)
    assert pa.concat_tables(got).equals(expected)


def test_ranges_fall_on_row_groups_and_tasks_name_their_files(inputs):
    files = parquet_files(inputs["multi"])
    tasks = PageRowsDatasource(files, COLUMNS).get_read_tasks(4)
    # row groups of 6, 6, 6, 2 | 5 | 10, 10, 2 rows: cut at the row-group
    # boundaries nearest to 11.75, 23.5 and 35.25 rows
    assert [t.metadata.num_rows for t in tasks] == [12, 13, 10, 12]
    rows = pa.concat_tables(b for t in tasks for b in t())
    assert rows.equals(
        pa.concat_tables(pq.read_table(f, columns=COLUMNS) for f in files)
    )
    # a task names, and is given, only the files it reads
    assert [t.metadata.input_files for t in tasks] == [
        [files[0]], [files[0], files[2]], [files[3]], [files[3]]
    ]


@pytest.fixture
def decodes(monkeypatch):
    """Count what the read tasks decode: whole row groups read, and the
    rows a task decoded of each row group it streams."""
    seen = {"whole": [], "streamed": []}
    read_row_group = pq.ParquetFile.read_row_group
    iter_batches = pq.ParquetFile.iter_batches

    def whole(self, i, *a, **kw):
        seen["whole"].append(i)
        return read_row_group(self, i, *a, **kw)

    def streamed(self, *a, **kw):
        n = 0
        try:
            for b in iter_batches(self, *a, **kw):
                n += b.num_rows
                yield b
        finally:  # the reader stops early: the generator is closed
            seen["streamed"].append(n)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", whole)
    monkeypatch.setattr(pq.ParquetFile, "iter_batches", streamed)
    return seen


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_each_row_group_is_decoded_by_one_task(inputs, decodes, n):
    files = parquet_files(inputs["multi"])
    src = PageRowsDatasource(files, COLUMNS)
    assert src.num_row_groups == 8
    per_task = []
    for task in src.get_read_tasks(n):
        before = len(decodes["whole"])
        list(task())
        per_task.append(len(decodes["whole"]) - before)
    assert decodes["streamed"] == []
    assert sum(per_task) == 8 and min(per_task) >= 1, per_task


def test_a_shared_row_group_is_decoded_only_up_to_each_range(tmp_path, decodes):
    path = str(tmp_path / "one_group.parquet")
    pq.write_table(generate_pages(list(range(100))), path)
    src = PageRowsDatasource([path], COLUMNS)
    assert src.num_row_groups == 1
    ends = []
    for task in src.get_read_tasks(4):
        (block,) = list(task())
        ends.append(sum(ends[-1:]) + block.num_rows)
    assert ends == [25, 50, 75, 100]
    assert decodes["whole"] == []
    # task i decodes rows [0, end_i), in batches of its own 25 rows,
    # never the whole group
    assert decodes["streamed"] == ends


def test_files_must_agree_on_column_types(tmp_path):
    pages = generate_pages(list(range(4))).select(COLUMNS)
    a, b = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(pages, a)
    pq.write_table(pages.cast(pa.schema(
        [pa.field("url", pa.large_string())] + list(pages.schema)[1:]
    )), b)
    with pytest.raises(ValueError, match="types the columns"):
        PageRowsDatasource([a, b], COLUMNS)
    pq.write_table(pages.drop_columns(["lang"]), b)
    with pytest.raises(ValueError, match="no column"):
        PageRowsDatasource([a, b], COLUMNS)


def test_an_input_without_rows_reads_as_one_empty_block(tmp_path):
    path = str(tmp_path / "empty.parquet")
    pq.write_table(generate_pages([0]).slice(0, 0), path)
    tasks = PageRowsDatasource([path], COLUMNS).get_read_tasks(4)
    assert len(tasks) == 1
    (block,) = list(tasks[0]())
    assert block.num_rows == 0 and block.column_names == COLUMNS


def test_read_pages_is_the_pipeline_input(inputs):
    from finance_sc_relations_ray.pipelines.kg import read_pages

    files = parquet_files(inputs["multi"])
    expected = pa.concat_tables(pq.read_table(f, columns=COLUMNS) for f in files)
    got = ray.get(read_pages(inputs["multi"], read_blocks=3).to_arrow_refs())
    # tasks finish in any order
    assert pa.concat_tables(got).sort_by("url").equals(expected.sort_by("url"))


@pytest.mark.parametrize("layout,tasks", [("one", 4), ("multi", 8)])
def test_size_rule_never_shares_a_row_group_for_size(
    inputs, monkeypatch, layout, tasks
):
    """A byte limit every task passes raises the task count from one per
    CPU (4 in this session) to the row-group count, never past it."""
    from finance_sc_relations_ray.pipelines.kg import read_pages

    planned = []
    get_read_tasks = PageRowsDatasource.get_read_tasks

    def spy(self, parallelism, *a, **kw):
        out = get_read_tasks(self, parallelism, *a, **kw)
        planned.append(len(out))
        return out

    monkeypatch.setattr(PageRowsDatasource, "get_read_tasks", spy)
    ctx = DataContext.get_current()
    limit = ctx.target_max_block_size
    ctx.target_max_block_size = 1
    try:
        ds = read_pages(inputs[layout])
    finally:
        ctx.target_max_block_size = limit
    rows = pq.ParquetDataset(inputs[layout]).read().num_rows
    assert ds.materialize().count() == rows
    assert planned and set(planned) == {tasks}, planned
