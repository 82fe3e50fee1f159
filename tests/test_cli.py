"""Smoke test for the ``ray job submit`` unit (cli.py): runs the CLI in
a subprocess (it owns its Ray session — in-process it would tear down
the pytest session's Ray), checks the triple store it writes and its
summary, and that a rerun resumes (skips the files the store holds)."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq


def _write_pages(path: str, n: int = 120) -> None:
    from finance_sc_relations_ray.sources.pages import generate_pages

    os.makedirs(path, exist_ok=True)
    pages = generate_pages(list(range(n)))
    # multi-file dir: the partitioned runner groups by input file
    third = n // 3
    for i in range(3):
        pq.write_table(
            pages.slice(i * third, third if i < 2 else n - 2 * third),
            os.path.join(path, f"part-{i}.parquet"),
            row_group_size=32,
        )


def _run_cli(pages: str, out: str) -> dict:
    env = {**os.environ, "RAY_ADDRESS": ""}
    proc = subprocess.run(
        [
            sys.executable, "-m", "finance_sc_relations_ray.cli",
            "--pages", pages, "--out", out,
            "--num-parts", "3", "--num-cpus", "4",
        ],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_end_to_end_and_resume(tmp_path):
    pages = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    _write_pages(pages)

    summary = _run_cli(pages, out)
    assert set(summary) == {"parts_done", "parts_run", "rows_written", "files_read"}
    assert summary["parts_run"] >= 1 and summary["files_read"] == 3
    assert summary["rows_written"] > 0

    # output is a triple store with the full payload; the rows the
    # merges added fold to at most as many triples
    from finance_sc_relations_ray.pipelines.kg_state import read_kg_state

    frags = [f for f in os.listdir(out) if f.startswith("shard=")]
    assert frags, os.listdir(out)
    tbl = read_kg_state(out)
    for col in ("subj", "pred", "obj", "score", "n_mentions"):
        assert col in tbl.columns
    assert 0 < len(tbl) <= summary["rows_written"]

    # rerun with the same --out: resume skips everything, rows unchanged
    summary2 = _run_cli(pages, out)
    assert summary2["parts_run"] == 0
    assert summary2["files_read"] == 0 and summary2["rows_written"] == 0
    assert summary2["parts_done"] == summary["parts_done"]
    assert read_kg_state(out).equals(tbl)
