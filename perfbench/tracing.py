"""Spans, self time, the percentile rule and Ray Data operator metrics.

Spans are recorded only by the benchmark, around its calls into the
program's layers; the program itself is not instrumented. A span keeps
its name, start, end and parent; all spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import ast
import json
import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder. ``span`` nests: a span opened inside
    another becomes its child."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = time.perf_counter()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: the summed self time, i.e. each span's duration
    minus the part of its interval that its direct children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        inner = [
            (max(a, s.start), min(b, s.end))
            for a, b in kids.get(s.id, ())
            if b > s.start and a < s.end
        ]
        own = (s.end - s.start) - _covered(inner)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples (the
    rounding keeps 99.9 × 10000 / 100 at 9990)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def highest_percentile(n: int, min_beyond: int = 10) -> float | None:
    """The highest of :data:`PERCENTILES` that has at least
    ``min_beyond`` of ``n`` samples beyond it, or None when not even
    the median has."""
    for p in reversed(PERCENTILES):
        if n - _rank(n, p) >= min_beyond:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[min(len(xs), _rank(len(xs), p)) - 1]


# ------------------------------------------------ Ray Data operators --

_TS = r"^(\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3})"
_COMPLETED = re.compile(_TS + r".*Operator (.+) completed\. Operator Metrics:$")
_FINISHED = re.compile(r"execution finished in ([\d.]+) seconds")
_SCALE_UP = re.compile(_TS + r".*Scaling up actor pool by (\d+)")
_ACTOR_TASK = re.compile(
    _TS + r".*Executing map task of operator .*PageKGActor")


def _ts(s: str) -> float:
    from datetime import datetime

    return datetime.strptime(s, "%Y-%m-%d %H:%M:%S,%f").timestamp()


@dataclass
class Operator:
    name: str
    busy_s: float
    blocked_s: float
    tasks: int
    rows_in: int
    rows_out: int
    bytes_out: int
    exchange_s: float  # wall time of an all-to-all operator, else 0

    @property
    def is_exchange(self) -> bool:
        return self.name.startswith(("AllToAllOperator", "HashShuffle",
                                     "HashAggregate"))


@dataclass
class Execution:
    dataset: str
    wall_s: float
    actor_starts: int
    # first PageKGActor task dispatched minus the pool's first scale-up:
    # the wait for the actor to start and load its models
    actor_ready_s: float
    operators: list[Operator]


def parse_dataset_log(path: str) -> Execution | None:
    """One Ray Data per-dataset log (``ray-data-<dataset>.log``): the
    final metrics Ray Data dumps for each operator as it completes.
    Returns None for an execution that has not finished."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    ops, wall, starts, prev_done = [], None, 0, None
    scaled_at = ready_at = None
    for i, line in enumerate(lines):
        m = _COMPLETED.match(line)
        if m and i + 1 < len(lines):
            done = _ts(m.group(1))
            d = ast.literal_eval(lines[i + 1])
            op = Operator(
                name=m.group(2),
                busy_s=float(d.get("block_generation_time") or 0.0),
                blocked_s=float(d.get("task_submission_backpressure_time") or 0.0)
                + float(d.get("task_output_backpressure_time") or 0.0),
                tasks=int(d.get("num_tasks_finished") or 0),
                rows_in=int(d.get("num_row_inputs_received") or 0),
                rows_out=int(d.get("row_outputs_taken") or 0),
                bytes_out=int(d.get("bytes_task_outputs_generated") or 0),
                exchange_s=0.0,
            )
            if op.is_exchange and prev_done is not None:
                # an all-to-all starts once its last input has arrived,
                # i.e. when the operator completed just before it
                op.exchange_s = done - prev_done
            ops.append(op)
            prev_done = done
            continue
        m = _FINISHED.search(line)
        if m:
            wall = float(m.group(1))
        m = _SCALE_UP.match(line)
        if m:
            starts += int(m.group(2))
            if scaled_at is None:
                scaled_at = _ts(m.group(1))
        m = _ACTOR_TASK.match(line)
        if m and ready_at is None:
            ready_at = _ts(m.group(1))
    if wall is None:
        return None
    name = os.path.basename(path)[len("ray-data-"):-len(".log")]
    ready = (ready_at - scaled_at
             if scaled_at is not None and ready_at is not None else 0.0)
    return Execution(name, wall, starts, ready, ops)


class RayDataLogs:
    """The Ray Data executions that finished since :meth:`mark`, read
    from the per-dataset logs of the current Ray session."""

    def __init__(self, session_logs_dir: str):
        self.dir = os.path.join(session_logs_dir, "ray-data")
        self._seen: set[str] = set()

    def _files(self) -> set[str]:
        if not os.path.isdir(self.dir):
            return set()
        return {f for f in os.listdir(self.dir)
                if f.startswith("ray-data-dataset_") and f.endswith(".log")}

    def mark(self) -> None:
        self._seen = self._files()

    def since_mark(self) -> list[Execution]:
        out = []
        for f in sorted(self._files() - self._seen):
            ex = parse_dataset_log(os.path.join(self.dir, f))
            if ex is not None:
                out.append(ex)
        return out


def operator_table(executions: list[Execution]) -> str:
    rows = ["| dataset | operator | busy s | blocked s | tasks | rows in"
            " | rows out | exchange s |",
            "|---|---|---|---|---|---|---|---|"]
    for ex in executions:
        for op in ex.operators:
            rows.append(
                f"| {ex.dataset} | {op.name} | {op.busy_s:.3f} |"
                f" {op.blocked_s:.3f} | {op.tasks} | {op.rows_in} |"
                f" {op.rows_out} | {op.exchange_s:.3f} |"
            )
        rows.append(f"| {ex.dataset} | (execution wall) | {ex.wall_s:.3f}"
                    f" | | | | | |")
    return "\n".join(rows)
