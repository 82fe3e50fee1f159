"""The traced pass: per-layer metrics and the trace report.

After the untraced timed loop, the same workload runs again for the
same time with spans around the public calls and Ray Data's operator
metrics collected per execution; then the workload's pages are
replayed single-process through the stage functions (replay.py). The
report (``.pb/out/<workload>-s<seed>/report.md``) holds the self-time
table per layer, the operator table of every Ray Data execution, the
``Dataset.stats()`` text where the benchmark holds the Dataset, the
tracing overhead, and whether the predicted heavy layer dominates.
"""

from __future__ import annotations

import os
import statistics
import sys

from replay import replay_fused, replay_stages
from tracing import RayDataLogs, Tracer, operator_table, self_times

# recrawl_dedup is not one of the benchmark's timed workloads (see
# README.md); crawl_build's traced pass runs one of its operations at
# this scale (times the run's own) so the web.* and run.* layers are
# still measured
SIDE_PASS = {"crawl_build": ("recrawl_dedup", 0.4)}

# layers each workload does not call report 0 for their time and counts
PIPELINE_LAYER_KEYS = (
    "kg_state.update_s", "kg_state.delta_extract_s", "kg_state.fold_write_s",
    "kg_state.shards_touched", "kg_state.shards_carried",
    "kg_state.rows_rewritten", "kg_state.bytes_written",
    "web.rows_in", "web.winners", "web.dup_ratio", "web.fold_s",
    "run.partitioned_s", "run.merge_parts_s", "run.files_written",
    "run.bytes_written",
)


def _units(name: str) -> str:
    if name.endswith("pages_per_s"):
        return "pages/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_per_page"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _ray_metrics(execs, n_ops: int) -> dict[str, float]:
    ops = [op for ex in execs for op in ex.operators]
    per = 1.0 / max(1, n_ops)

    def total(attr, pred=lambda o: True):
        return sum(getattr(o, attr) for o in ops if pred(o)) * per

    def is_read(o):
        return "Read" in o.name

    def is_fused(o):
        return "PageKGActor" in o.name

    def is_ex(o):
        return o.is_exchange

    return {
        "sources.read_s": total("busy_s", is_read),
        "sources.bytes_read": total("bytes_out", is_read),
        "fused.udf_s": total("busy_s", is_fused),
        "fused.actor_inits": sum(ex.actor_starts for ex in execs) * per,
        "fused.actor_ready_s": sum(ex.actor_ready_s for ex in execs) * per,
        "shuffle.exchange_rows": total("rows_in", is_ex),
        "shuffle.exchange_s": total("exchange_s", is_ex),
        "raydata.executions": len(execs) * per,
        "raydata.exchanges": sum(1 for o in ops if o.is_exchange) * per,
        "raydata.tasks": total("tasks"),
        "raydata.blocked_s": total("blocked_s"),
    }


def _heavy_layer(name: str, m: dict[str, float], execs) -> str:
    busy = sum(op.busy_s for ex in execs for op in ex.operators) or 1e-9
    fused_busy = sum(op.busy_s for ex in execs for op in ex.operators
                     if "PageKGActor" in op.name)
    if name == "crawl_build":
        share = fused_busy / busy
        what = "model stages (PageKGActor) share of Ray Data busy time"
    elif name == "delta_ingest":
        share = m["kg_state.fold_write_s"] / (m["kg_state.update_s"] or 1e-9)
        what = ("kg_state fold+write plus Ray fixed cost share of a merge"
                " (update time minus the delta's extraction time)")
    else:
        wall = m["run.partitioned_s"] + m["run.merge_parts_s"]
        share = 1.0 - m["fused.udf_s"] / (wall or 1e-9)
        what = ("web fold + run partitioning/merge share of a crawl"
                " (wall minus PageKGActor busy time)")
    verdict = "dominates" if share > 0.5 else "does NOT dominate"
    return f"Predicted heavy layer — {what}: {share:.1%} → {verdict}."


def side_pass(wl, tr, logs):
    """One traced operation of the workload ``SIDE_PASS`` names for
    ``wl``, checked like a timed one. Returns (the side workload, ok,
    rows compared), or None when ``wl`` has no side pass."""
    from workloads import WORKLOADS

    if wl.name not in SIDE_PASS:
        return None
    name, scale = SIDE_PASS[wl.name]
    side = WORKLOADS[name](wl.work_dir, wl.seed, scale * wl.scale, wl.seconds)
    side.tracer, side.logs = tr, logs
    try:
        side.prepare_inputs()
        side.reset()
        _, out = side.op()
        ok, rows = side.check(out)
        side.after_op(out)
    except Exception as exc:  # noqa: BLE001 — counted as failed
        print(f"side pass raised {type(exc).__name__}: {exc}",
              file=sys.stderr, flush=True)
        ok, rows = False, 0
    return side, ok, rows


def traced_run(wl, session, args, untraced, rows_untraced, replay_n):
    """Returns (traced ops, rows compared, per-layer metrics); a side
    pass counts as one more traced op."""
    from run import summarize, timed_loop

    tr = Tracer()
    wl.tracer = tr
    wl.logs = RayDataLogs(session.logs_dir())
    wl.stats_text = None
    ops, rows = timed_loop(wl, args.seconds, False)
    traced = summarize(ops)
    # traced ops also run side calls (the delta alone, the fold alone):
    # time the traced throughput on the workload's own calls only
    main = [s.end - s.start for s in tr.spans if s.name in wl.main_spans]
    k = len(wl.main_spans)
    per_op = [sum(main[i:i + k]) for i in range(0, len(main), k)]
    pages = [p for p, _, _ in ops if p][:len(per_op)]
    traced["pages_per_s"] = sum(pages) / sum(per_op) if per_op else 0.0
    n_ops = max(1, wl.n_ops)
    side = side_pass(wl, tr, wl.logs)
    if side is not None:
        side, side_ok, side_rows = side
        ops = ops + [(side.size, 0.0, side_ok)]
        rows += side_rows

    pages = wl.replay_pages()
    pages = pages.slice(0, min(replay_n, pages.num_rows))
    with tr.span("replay"):
        f = replay_fused(pages, wl.config, tr)
        c = replay_stages(pages, wl.config, tr)
    st = self_times(tr.spans)
    replay_wall = sum(s.end - s.start for s in tr.spans
                      if s.name == "replay.stages")

    m: dict[str, float] = dict.fromkeys(PIPELINE_LAYER_KEYS, 0.0)
    for k, vals in [*wl.layer.items(), *(side.layer.items() if side else ())]:
        m[k] = statistics.median(vals)
    if wl.name == "delta_ingest":
        m["kg_state.fold_write_s"] = (
            m["kg_state.update_s"] - m["kg_state.delta_extract_s"])
    m.update(_ray_metrics(wl.executions, n_ops))
    m.update({
        "extract.self_s": st.get("extract", 0.0),
        "extract.sentences": c["sentences"],
        "ner.self_s": st.get("ner", 0.0),
        "ner.spans": c["spans"],
        "scoring.gate_self_s": st.get("scoring.gate", 0.0),
        "scoring.gate_pass_ratio": c["gated"] / max(1, c["sentences"]),
        "scoring.pairs_self_s": st.get("scoring.pairs", 0.0),
        "scoring.re_self_s": st.get("scoring.re", 0.0),
        "scoring.re_calls": c["re_calls"],
        "scoring.variants_dropped": c["variants_dropped"],
        "fused.ms_per_page": 1000.0 * st.get("fused.call", 0.0)
        / max(1, f["pages"]),
        "doc_agg.self_s": st.get("doc_agg", 0.0),
        "doc_agg.doc_rows": c["doc_rows"],
        "link.self_s": st.get("link", 0.0),
        "link.calls": c["link_calls"],
        "link.cache_hit_ratio": c["link_hits"] / max(1, c["link_calls"]),
        "triples.self_s": st.get("triples", 0.0),
        "triples.rows": c["triples"],
        "shuffle.combine_ratio": c["combined"] / max(1, c["triples"]),
        "shuffle.merge_s": st.get("shuffle.merge", 0.0),
        "baseline.replay_pages_per_s": c["pages"] / (replay_wall or 1e-9),
        "trace.overhead_frac": 1.0 - traced["pages_per_s"]
        / (untraced["wall_pages_per_s"] or 1e-9),
        "check.rows_compared": rows_untraced + rows,
        "bench.ops_timed": untraced["n"],
    })

    out = os.path.join(os.getcwd(), ".pb", "out",
                       f"{wl.name}-s{args.seed}")
    os.makedirs(out, exist_ok=True)
    tr.dump(os.path.join(out, "spans.json"))
    _write_report(os.path.join(out, "report.md"), wl, m, st, untraced,
                  traced, c, f, side)
    return ops, rows, {k: (v, _units(k)) for k, v in sorted(m.items())}


def _write_report(path, wl, m, st, untraced, traced, c, f, side) -> None:
    lines = [f"# Trace report: {wl.name} (seed {wl.seed})", ""]
    lines.append(
        f"Tracing overhead: untraced {untraced['wall_pages_per_s']:.2f} pages/s"
        f" over {untraced['n']} ops, traced {traced['pages_per_s']:.2f}"
        f" pages/s over {traced['n']} ops"
        f" (overhead {m['trace.overhead_frac']:+.1%}).")
    lines.append("")
    lines.append(_heavy_layer(wl.name, m, wl.executions))
    if side is not None:
        side_m = {**m, **_ray_metrics(side.executions, 1)}
        lines += ["", f"Side pass: one `{side.name}` operation over "
                  f"{m['web.rows_in']:.0f} rows ({side.size} pages).",
                  _heavy_layer(side.name, side_m, side.executions)]
    lines += ["", f"## Self time per layer (single-process replay of "
              f"{c['pages']} pages)", "", "| span | self s |", "|---|---|"]
    for name, v in sorted(st.items(), key=lambda kv: -kv[1]):
        lines.append(f"| {name} | {v:.4f} |")
    lines += ["", "## Per-layer metrics (Ray values per operation)", "",
              "| metric | value |", "|---|---|"]
    for k, v in sorted(m.items()):
        lines.append(f"| {k} | {v:.6g} |")
    lines += ["", "## Ray Data operators, every traced execution", "",
              operator_table(wl.executions)]
    if wl.stats_text:
        lines += ["", "## Dataset.stats() of the last traced build", "",
                  "```", wl.stats_text, "```"]
    if side is not None:
        lines += ["", f"## Ray Data operators, the `{side.name}` side pass",
                  "", operator_table(side.executions)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
