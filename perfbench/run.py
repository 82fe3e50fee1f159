"""Benchmark driver: one seeded workload, one result line.

    python3 perfbench/run.py --workload crawl_build --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see README.md in this directory). Everything the
run writes stays under ``.pb/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 2
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
REPLAY_PAGES = 600
# Unix socket paths (AF_UNIX) are limited to 107 bytes and Ray puts its
# sockets ~60 bytes below its temp dir
MAX_RAY_TMP = 46
RAY_ENV = {"RAY_USAGE_STATS_ENABLED": "0", "RAY_DEDUP_LOGS": "0",
           "RAY_DATA_DISABLE_PROGRESS_BARS": "1", "OMP_NUM_THREADS": "1"}


T_START = time.perf_counter()


def log(msg: str) -> None:
    print(f"[{time.perf_counter() - T_START:6.1f} s] {msg}", file=sys.stderr,
          flush=True)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # test hooks: shrink the inputs; corrupt one output before its check
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--corrupt", action="store_true")
    return ap.parse_args(argv)


class Session:
    """A Ray session whose files live under the run's work dir."""

    def __init__(self, work: str):
        tmp = os.path.join(work, "r")
        if len(tmp) > MAX_RAY_TMP:
            import tempfile

            tmp = tempfile.mkdtemp(prefix="pb-ray-")
        self.tmp = tmp

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False, _temp_dir=self.tmp,
            object_store_memory=OBJECT_STORE_BYTES,
        )
        DataContext.get_current().enable_progress_bars = False

    def logs_dir(self) -> str:
        return os.path.join(self.tmp, "session_latest", "logs")

    def stop(self) -> None:
        import ray

        from proctree import reap_descendants

        ray.shutdown()
        reap_descendants(os.getpid())

    def remove(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def corrupt(output):
    """Alter one output so that its check must fail: shift one triple's
    score, or drop one row of a persisted state."""
    df = output[1] if isinstance(output, tuple) else output
    if isinstance(df, str):  # a state dir: shard=<k>/*.parquet
        import pyarrow.parquet as pq

        shard = sorted(d for d in os.listdir(df) if d.startswith("shard="))[0]
        path = os.path.join(df, shard, sorted(os.listdir(os.path.join(df, shard)))[0])
        pq.write_table(pq.read_table(path).slice(1), path)
        return output
    # a copy: frames read from Arrow can be read-only
    df = df.copy()
    df.loc[df.index[0], "score"] = float(df["score"].iloc[0]) + 0.5
    return (output[0], df) if isinstance(output, tuple) else df


def timed_loop(wl, seconds: float, corrupt_first: bool, meter=None):
    """Run operations until ``seconds`` of operation time have passed;
    ``meter`` (a context manager) wraps each operation. Returns
    per-operation (pages, seconds, ok) and the rows compared."""
    from contextlib import nullcontext

    ops, rows, last = [], 0, None
    spent, fails_in_row = 0.0, 0
    while spent < seconds or not ops:
        t0 = time.perf_counter()
        try:
            with meter or nullcontext():
                pages, out = wl.op()
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 — counted as failed
            dt = time.perf_counter() - t0
            log(f"operation raised {type(exc).__name__}: {exc}")
            ops.append((0, dt, False))
            spent += dt
            fails_in_row += 1
            if fails_in_row >= 3:
                break
            continue
        dt = time.perf_counter() - t0
        spent += dt
        fails_in_row = 0
        if corrupt_first and not ops:
            out = corrupt(out)
        ok = True
        if wl.check_each:
            ok, n = wl.check(out)
            rows += n
        ops.append((pages, dt, ok))
        last = out
        wl.after_op(out)
    if not wl.check_each and last is not None:
        ok, n = wl.check(last)
        rows += n
        if not ok:
            ops = [(p, t, False) for p, t, _ in ops]
    wl.n_ops = len(ops)
    return ops, rows


def summarize(ops, cpu_s=None, stolen=None) -> dict:
    """Over the operations that produced output: pooled rate (pages over
    summed time), median latency and, given per-operation CPU seconds,
    pooled CPU per 1000 pages. Given each operation's stolen share,
    times and CPU seconds are net of steal (``wall_pages_per_s`` keeps
    the plain wall-clock rate)."""
    good = [i for i, (p, _, _) in enumerate(ops) if p]
    if not good:
        return {"n": 0, "pages": 0, "pages_per_s": 0.0,
                "wall_pages_per_s": 0.0, "p50": 0.0, "cpu_s_per_kpage": 0.0}
    net = [1.0 - (stolen[i] if stolen else 0.0) for i in good]
    pages = sum(ops[i][0] for i in good)
    wall = [ops[i][1] for i in good]
    out = {"n": len(good), "pages": pages,
           "pages_per_s": pages / sum(t * f for t, f in zip(wall, net)),
           "wall_pages_per_s": pages / sum(wall),
           "p50": statistics.median(t * f for t, f in zip(wall, net))}
    if cpu_s is not None:
        out["cpu_s_per_kpage"] = 1000.0 * sum(
            cpu_s[i] * f for i, f in zip(good, net)) / pages
    return out


def run(args) -> dict:
    sys.path.insert(0, HERE)
    root = os.getcwd()
    sys.path.insert(0, root)
    # Ray workers import the package from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    # the same Ray session settings whatever the caller's environment
    for k, v in RAY_ENV.items():
        os.environ.setdefault(k, v)
    import finance_sc_relations_ray  # noqa: F401 — fail fast without it
    import oracle.kg_oracle  # noqa: F401

    work = os.path.join(root, ".pb")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")

    from proctree import OpMeter, host_cpu, stolen_share
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = WORKLOADS[args.workload](work, args.seed, args.scale, args.seconds)
    session = Session(work)
    me = os.getpid()

    # set-up times, each net of the host's stolen share over it
    setup, setup_stolen = [], []
    reps = 1 if args.trace else SETUP_REPS
    try:
        for rep in range(reps):
            h0 = host_cpu()
            t0 = time.perf_counter()
            session.start()
            t1 = time.perf_counter()
            wl.prepare_inputs()
            t2 = time.perf_counter()
            wl.setup_session()
            setup.append(time.perf_counter() - t0)
            setup_stolen.append(stolen_share(h0))
            log(f"setup {rep}: session {t1 - t0:.2f} s, inputs "
                f"{t2 - t1:.2f} s, state and warm-up {setup[-1] - t2 + t0:.2f} s")
            if rep < reps - 1:
                session.stop()

        log("timed loop")
        meter = OpMeter(me)
        ops, rows = timed_loop(wl, args.seconds, args.corrupt, meter)
        s = summarize(ops, meter.cpu_s, meter.stolen)
        failed = sum(1 for *_, ok in ops if not ok)
        result = {"correct": failed == 0, "attempted": len(ops),
                  "failed": failed}
        log(f"{args.workload}: {len(ops)} ops, {s['pages']} pages, "
            f"rows compared {rows}, failed {failed}, "
            f"op s {['%.2f' % t for _, t, _ in ops]}, "
            f"op cpu s {['%.2f' % c for c in meter.cpu_s]}, "
            f"op stolen {['%.3f' % f for f in meter.stolen]}, "
            f"setup s {['%.2f' % x for x in setup]}, "
            f"setup stolen {['%.3f' % x for x in setup_stolen]}")
        if not args.trace:
            result["metrics"] = {
                "setup_s": (statistics.median(
                    t * (1.0 - f) for t, f in zip(setup, setup_stolen)), "s"),
                "pages_per_s": (s["pages_per_s"], "pages/s"),
                "ingest_p50_s": (s["p50"], "s"),
                "cpu_s_per_kpage": (s["cpu_s_per_kpage"], "s"),
                "peak_rss_mb": (meter.peak_mb, "MB"),
            }
            from tracing import highest_percentile

            log(f"latency samples {s['n']}; highest percentile with >=10 "
                f"samples beyond it: {highest_percentile(s['n'])}")
        else:
            from traced import traced_run

            t_ops, _, layer = traced_run(
                wl, session, args, s, rows, REPLAY_PAGES)
            failed += sum(1 for *_, ok in t_ops if not ok)
            attempted = len(ops) + len(t_ops)
            layer["check.failed_frac"] = (failed / attempted, "ratio")
            result = {"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": layer}
        return result
    finally:
        log("stopping the Ray session")
        session.stop()
        session.remove()
        log("stopped")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    result = run(args)
    result["metrics"] = {
        k: {"value": float(v), "unit": u}
        for k, (v, u) in result["metrics"].items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
