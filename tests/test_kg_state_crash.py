"""Crash safety of the log-structured triple store (pipelines/kg_state.py
on state/table.py).

A merge is made to fail at each of its steps, in place and into a new
directory. After the failure the store must read as the old state or
the new one, never as a mix and never as nothing; the next merge must
succeed and equal the single-process oracle, and leave no staging dir,
tmp tree or unnamed run behind. A racing commit of the same log seq
must be refused without making any of the merge's runs visible or
touching the racer's, and a merge must not delete the files of a merge
still in flight."""

import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from finance_sc_relations_ray.pipelines import kg_state as K
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.state import table as T
from oracle.kg_oracle import expected_triples


class Crash(Exception):
    pass


def _raise(*_, **__):
    raise Crash


def _normalized(df):
    cols = ["subj", "pred", "obj", "score", "n_mentions", "subj_id",
            "obj_id", "url", "sentence_ids"]
    df = df[~df["pred"].astype(str).str.startswith("_")][cols].copy()
    df["score"] = df["score"].astype("float64").round(4)
    df["n_mentions"] = df["n_mentions"].astype("int64")
    df["sentence_ids"] = [[int(x) for x in v] for v in df["sentence_ids"]]
    return df.sort_values(K.STATE_KEYS).reset_index(drop=True)


def _tree_bytes(root):
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    d = tmp_path_factory.mktemp("kgcrash")
    ids = {"base": range(40), "delta": range(40, 52), "delta2": range(52, 64)}
    paths = {}
    for name, r in ids.items():
        paths[name] = str(d / f"{name}.parquet")
        pq.write_table(generate_pages(list(r)), paths[name])
    base = str(d / "base_state")
    K.build_kg_state(paths["base"], base)
    new = str(d / "new_state")
    K.update_kg_state(base, paths["delta"], new)
    return {
        "dir": d,
        "paths": paths,
        "base": base,
        "old": K.read_kg_state(base),
        "new": K.read_kg_state(new),
        "oracle": {
            "delta": _normalized(expected_triples(generate_pages(list(range(52))))),
            "delta2": _normalized(expected_triples(generate_pages(list(range(64))))),
        },
    }


def _fail_after(fn):
    def wrapped(*a, **kw):
        fn(*a, **kw)
        raise Crash

    return wrapped


def _fail_record_link(real_link):
    # the record's tmp file is written; the process dies before the
    # link that commits it
    def link(src, dst, *a, **kw):
        if str(src).endswith(".json.tmp"):
            raise Crash
        return real_link(src, dst, *a, **kw)

    return link


def _fail_compaction_commit(real_commit):
    def commit(store, seq, tag, record):
        if record["kind"] == "compact":
            raise Crash
        return real_commit(store, seq, tag, record)

    return commit


# step → (install the failure, the state an in-place merge leaves).
# Into a new dir every failure leaves the old state: nothing is
# published at out_dir before the final rename.
STEPS = {
    "staged": (lambda m: m.setattr(T, "_move_runs", _raise), "old"),
    "moved": (
        lambda m: m.setattr(T, "_move_runs", _fail_after(T._move_runs)),
        "old",
    ),
    "before_commit": (
        lambda m: m.setattr(os, "link", _fail_record_link(os.link)),
        "old",
    ),
    "committed": (lambda m: m.setattr(T, "_compact", _raise), "new"),
    "compacting": (
        lambda m: (
            m.setattr(T, "MAX_RUNS", 1),
            m.setattr(T, "_commit", _fail_compaction_commit(T._commit)),
        ),
        "new",
    ),
    # the publish step into a new dir, os.replace(tmp, out_dir); an
    # in-place merge must not have one (it used to, and a failure there
    # lost the whole store)
    "replace": (lambda m: m.setattr(os, "replace", _raise), "new"),
}


def _assert_clean(store):
    assert not os.path.exists(store + ".tmp")
    assert not [n for n in os.listdir(store) if n.startswith(T._STAGING)]
    assert not [n for n in os.listdir(os.path.join(store, T._LOG))
                if not n.endswith(".json")]
    assert T._shard_file_paths(store) == T._live_runs(store)


@pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "new_dir"])
@pytest.mark.parametrize("step", list(STEPS))
def test_failed_merge_leaves_old_or_new_state(world, monkeypatch, step, in_place):
    src = str(world["dir"] / f"src_{step}_{in_place}")
    shutil.copytree(world["base"], src)
    out = src if in_place else src + "_out"
    before = _tree_bytes(src)
    install, outcome = STEPS[step]
    failed = False
    with monkeypatch.context() as m:
        install(m)
        try:
            K.update_kg_state(src, world["paths"]["delta"], out)
        except Crash:
            failed = True

    if in_place:
        got = K.read_kg_state(out)
    else:
        # the source is never written; nothing is published at out
        assert _tree_bytes(src) == before
        assert not os.path.exists(out)
        got = K.read_kg_state(src)
        outcome = "old"
    pd.testing.assert_frame_equal(got, world[outcome])
    # every injected failure fires, except the publish step in place,
    # which does not exist
    assert failed != (in_place and step == "replace")

    # the next merge succeeds: a retry of the lost delta, or the next
    # delta when the failed merge had committed
    nxt = "delta" if outcome == "old" else "delta2"
    K.update_kg_state(src, world["paths"][nxt], out)
    pd.testing.assert_frame_equal(
        _normalized(K.read_kg_state(out)), world["oracle"][nxt]
    )
    _assert_clean(out)


def test_merge_into_existing_out_dir_is_refused(world, monkeypatch):
    # publishing over an existing store used to delete it first; a
    # crash in that delete, here after _log/ and one shard dir, left a
    # store that read without error with rows missing
    src = str(world["dir"] / "exists_src")
    out = str(world["dir"] / "exists_out")
    shutil.copytree(world["base"], src)
    shutil.copytree(world["base"], out)
    before = _tree_bytes(out)
    real_rmtree = shutil.rmtree

    def rmtree(path, *a, **kw):
        if os.path.abspath(path) != out:
            return real_rmtree(path, *a, **kw)
        real_rmtree(os.path.join(path, T._LOG))
        real_rmtree(os.path.join(path, T._shard_dirs(path)[0]))
        raise Crash

    with monkeypatch.context() as m:
        m.setattr(shutil, "rmtree", rmtree)
        with pytest.raises(FileExistsError):
            K.update_kg_state(src, world["paths"]["delta"], out)
        with pytest.raises(FileExistsError):
            K.build_kg_state(world["paths"]["delta"], out)
    assert _tree_bytes(out) == before
    assert not os.path.exists(out + ".tmp")
    assert not os.path.exists(out + ".empty")
    pd.testing.assert_frame_equal(K.read_kg_state(out), world["old"])


def test_racing_commit_is_refused(world, monkeypatch):
    store = str(world["dir"] / "race")
    shutil.copytree(world["base"], store)
    files = T._shard_file_paths(store)
    n_shards = pq.read_table(os.path.join(store, T._META))["n_shards"][0]
    # the racing writer's run: the first state row again, in its shard
    row = world["old"].iloc[:1]
    shard = int(T.route(row, K.STATE_KEYS, n_shards.as_py())[0])
    racer = {}
    real = T._move_runs

    def racing(store_, staging, tag):
        # another writer commits this seq, with a run of its own, while
        # our execution runs
        seq = T._seq_of(tag)
        rel = f"shard={shard}/run-{T._new_tag(seq)}.parquet"
        pq.write_table(
            pa.Table.from_pandas(row, schema=K._FILE_SCHEMA,
                                 preserve_index=False),
            os.path.join(store_, rel),
        )
        with open(os.path.join(store_, rel), "rb") as fh:
            racer[rel] = fh.read()
        with open(os.path.join(store_, T._LOG, f"{seq:08d}.json"), "w") as f:
            json.dump({"seq": seq, "kind": "merge",
                       "adds": {rel: T._run_info(store_, rel)},
                       "removes": []}, f)
        return real(store_, staging, tag)

    monkeypatch.setattr(T, "_move_runs", racing)
    with pytest.raises(FileExistsError):
        K.update_kg_state(store, world["paths"]["delta"], store)
    # the racer's commit stands, byte for byte; none of ours is visible
    [(rel, blob)] = racer.items()
    with open(os.path.join(store, rel), "rb") as fh:
        assert fh.read() == blob
    assert T._shard_file_paths(store) == sorted(files + [rel])
    exp = world["old"].copy()
    exp.loc[0, "n_mentions"] *= 2
    pd.testing.assert_frame_equal(K.read_kg_state(store), exp)


def test_merge_keeps_the_files_of_a_merge_in_flight(world):
    # another writer's merge, stamped with a seq the log does not hold
    # yet, has staged files and a run not yet committed: a merge that
    # commits the seq before it must not delete them
    store = str(world["dir"] / "in_flight")
    shutil.copytree(world["base"], store)
    seq = T._next_seq(store) + 1
    run = T._live_runs(store)[0]
    d = run.split("/")[0]
    staged = os.path.join(store, f"{T._STAGING}{seq:08d}-other", d)
    os.makedirs(staged)
    pending = [os.path.join(staged, "part-0.parquet"),
               os.path.join(store, d, f"run-{seq:08d}-other.parquet")]
    for p in pending:
        shutil.copy(os.path.join(store, run), p)
    K.update_kg_state(store, world["paths"]["delta"], store)
    assert all(os.path.exists(p) for p in pending)
    pd.testing.assert_frame_equal(K.read_kg_state(store), world["new"])
