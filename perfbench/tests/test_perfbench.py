"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

The smoke tests run each workload at a tiny size in a subprocess, once
as is (the correctness gate must pass) and once with one output
deliberately corrupted (the gate must fail).
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from proctree import OpMeter, host_cpu, stolen_share  # noqa: E402
from run import summarize  # noqa: E402
from tracing import (  # noqa: E402
    Span,
    Tracer,
    highest_percentile,
    parse_dataset_log,
    percentile,
    self_times,
)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_percentile_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert percentile(xs, 50) == 50.0
    assert percentile(xs, 90) == 90.0
    assert percentile(xs, 99.9) == 100.0
    assert percentile([3.0], 50) == 3.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),  # overlaps a: union of children is 5 s
        Span(3, "leaf", 2.0, 3.0, 1),
        Span(4, "b", 7.0, 8.0, 0),  # same name: self times add up
    ]
    st = self_times(spans)
    assert st["root"] == pytest.approx(10.0 - 6.0)
    assert st["a"] == pytest.approx(3.0 - 1.0)
    assert st["b"] == pytest.approx(3.0 + 1.0)
    assert st["leaf"] == pytest.approx(1.0)


def test_tracer_nests_spans_by_parent():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, in1, in2 = tr.spans
    assert outer.parent is None and in1.parent == 0 and in2.parent == 0
    assert outer.start <= in1.start <= in1.end <= in2.start <= outer.end


def test_parse_dataset_log(tmp_path):
    path = tmp_path / "ray-data-dataset_7_0.log"
    path.write_text(textwrap.dedent("""\
        2026-01-01 00:00:00,000\tDEBUG x.py:1 -- Scaling up actor pool by 1 (reason=min)
        2026-01-01 00:00:00,750\tDEBUG x.py:9 -- Executing map task of operator MapBatches(PageKGActor) with task index 0
        2026-01-01 00:00:01,000\tDEBUG x.py:2 -- Operator TaskPoolMapOperator[ReadParquet] completed. Operator Metrics:
        {'block_generation_time': 0.5, 'task_submission_backpressure_time': 0.25, 'num_tasks_finished': 2, 'num_row_inputs_received': 1, 'row_outputs_taken': 10, 'bytes_task_outputs_generated': 100}
        2026-01-01 00:00:03,500\tDEBUG x.py:2 -- Operator AllToAllOperator[Sort] completed. Operator Metrics:
        {'num_row_inputs_received': 10, 'row_outputs_taken': 10}
        2026-01-01 00:00:04,000\tINFO x.py:3 -- Dataset dataset_7_0 execution finished in 4.00 seconds
        """))
    ex = parse_dataset_log(str(path))
    assert ex.dataset == "dataset_7_0" and ex.wall_s == 4.0
    assert ex.actor_starts == 1 and ex.actor_ready_s == pytest.approx(0.75)
    read, sort = ex.operators
    assert (read.busy_s, read.blocked_s, read.tasks, read.bytes_out) == (
        0.5, 0.25, 2, 100)
    assert not read.is_exchange and sort.is_exchange
    assert sort.rows_in == 10 and sort.exchange_s == pytest.approx(2.5)


def test_op_meter_counts_a_child_that_exits_inside_the_operation():
    meter = OpMeter(os.getpid(), interval=0.05)
    with meter:
        subprocess.run(
            [sys.executable, "-c",
             "import time\nt=time.process_time()\n"
             "while time.process_time()-t<0.5: pass\n"
             "time.sleep(0.3)"],
            check=True)
    assert meter.cpu_s[0] >= 0.4
    assert meter.peak_mb > 0


def test_stolen_share_is_a_share():
    assert 0.0 <= stolen_share(host_cpu()) <= 1.0


def test_summarize_pools_ops_and_nets_out_steal():
    # (pages, seconds, ok); the failed op (0 pages) is left out
    ops = [(100, 2.0, True), (300, 4.0, True), (0, 9.0, False)]
    s = summarize(ops, cpu_s=[3.0, 5.0, 1.0], stolen=[0.5, 0.25, 0.0])
    assert s["n"] == 2 and s["pages"] == 400
    assert s["wall_pages_per_s"] == pytest.approx(400 / 6.0)
    assert s["pages_per_s"] == pytest.approx(400 / (1.0 + 3.0))
    assert s["p50"] == pytest.approx(2.0)
    assert s["cpu_s_per_kpage"] == pytest.approx(1000 * (1.5 + 3.75) / 400)


def _names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--scale", "0.05", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload", ["crawl_build", "delta_ingest", "recrawl_dedup"])
def test_gate_passes_then_fails_on_corrupted_output(workload):
    ok = _bench(workload)
    assert ok["correct"] and ok["failed"] == 0 and ok["attempted"] >= 1
    assert set(ok["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in ok["metrics"].values())

    bad = _bench(workload, "--corrupt")
    assert not bad["correct"] and bad["failed"] >= 1


def test_traced_crawl_build_reports_every_layer_with_the_recrawl_side_pass():
    tr = _bench("crawl_build", "--trace", "1")
    assert tr["correct"] and tr["failed"] == 0
    assert set(tr["metrics"]) == _names("per_layer")
    m = {k: v["value"] for k, v in tr["metrics"].items()}
    # the recrawl_dedup side pass measures the web and run layers
    assert m["web.rows_in"] > m["web.winners"] > 0
    assert m["run.files_written"] > 0 and m["run.partitioned_s"] > 0
    assert m["ner.self_s"] > 0 and m["fused.udf_s"] > 0
