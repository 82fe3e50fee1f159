"""M10: tokenizer-side marker location, truncation-drop accounting and
collate; M8: mutate-before-scoring wiring (reference re_dataset,
src/relation_extraction/preprocessing_funcs.py:233-339)."""

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from finance_sc_relations_ray.config import DEFAULT_CONFIG
from finance_sc_relations_ray.functions.tokenizer import (
    CLS_ID,
    E1_ID,
    E2_ID,
    PAD_ID,
    SEP_ID,
    StubTokenizer,
    get_e1e2_start,
    pad_collate,
)
from finance_sc_relations_ray.stages.scoring import ReScorerActor

TAGGED = "[E1] Apple Inc [/E1] supplied [E2] Intel Corporation [/E2] today."

# invalid_rows.json-style corrupted-marker fixtures (reference root
# carries a whole corpus of rows whose markers got corrupted)
CORRUPTED = [
    "Apple Inc supplied [E2] Intel Corporation [/E2] today.",  # lost [E1]
    "[E1] Apple Inc [/E1] supplied Intel Corporation today.",  # lost [E2]
    "E1] Apple Inc [/E1] supplied E2] Intel Corporation [/E2]",  # mangled
]


def test_encode_specials_and_markers():
    tok = StubTokenizer(max_len=128)
    ids = tok.encode(TAGGED)
    assert ids[0] == CLS_ID and ids[-1] == SEP_ID
    assert ids.count(E1_ID) == 1 and ids.count(E2_ID) == 1
    start = get_e1e2_start(ids)
    assert start is not None
    assert ids[start[0]] == E1_ID and ids[start[1]] == E2_ID
    assert start[0] < start[1]
    # deterministic
    assert ids == tok.encode(TAGGED)


def test_truncation_loses_late_markers():
    tok = StubTokenizer(max_len=32)
    long_tagged = "filler " * 64 + TAGGED
    ids = tok.encode(long_tagged)
    assert len(ids) == 32  # truncated
    assert get_e1e2_start(ids) is None  # markers fell off the end


def test_corrupted_markers_detected():
    tok = StubTokenizer(max_len=128)
    for s in CORRUPTED:
        assert get_e1e2_start(tok.encode(s)) is None, s


def test_pad_collate():
    ids, lengths = pad_collate([[1, 2, 3], [4], [5, 6]])
    assert ids.shape == (3, 3)
    assert lengths.tolist() == [3, 1, 2]
    assert ids[1].tolist() == [4, PAD_ID, PAD_ID]
    empty_ids, empty_len = pad_collate([])
    assert empty_ids.shape == (0, 0) and empty_len.shape == (0,)


def _pairs_batch(tagged_list):
    n = len(tagged_list)
    return pa.table(
        {
            "url": pa.array(["u"] * n),
            "sent_id": pa.array([0] * n, pa.int64()),
            "r_id": pa.array([f"0_{i}" for i in range(n)]),
            "pos_id": pa.array([0] * n, pa.int32()),
            "entity1": pa.array(["Apple Inc"] * n),
            "entity2": pa.array(["Intel Corporation"] * n),
            "tagged": pa.array(tagged_list),
        }
    )


def test_rescorer_drops_and_counts_invalid_rows():
    actor = ReScorerActor(DEFAULT_CONFIG)
    out = actor(_pairs_batch([TAGGED] + CORRUPTED + [TAGGED]))
    assert out.num_rows == 2  # only the valid rows scored
    assert actor.n_dropped_markers == 3
    assert "scores" in out.column_names


def test_rescorer_drops_truncated_rows():
    cfg = dataclasses.replace(DEFAULT_CONFIG, max_token_len=32)
    actor = ReScorerActor(cfg)
    long_tagged = "filler " * 64 + TAGGED
    out = actor(_pairs_batch([TAGGED, long_tagged]))
    assert out.num_rows == 1
    assert actor.n_dropped_markers == 1


def test_mutate_before_scoring_deterministic_and_masked():
    from finance_sc_relations_ray.functions.tokenizer import StubTokenizer
    from finance_sc_relations_ray.stages.scoring import prepare_for_scoring

    cfg = dataclasses.replace(DEFAULT_CONFIG, mutate_before_scoring=True)
    ogs = [
        {"name": "Apple Inc", "gid": 0},
        {"name": "Intel Corporation", "gid": 1},
    ]
    tok = StubTokenizer(cfg.max_token_len)
    a = prepare_for_scoring(TAGGED, ogs, cfg, tok)
    b = prepare_for_scoring(TAGGED, ogs, cfg, tok)
    assert a == b  # seeded — bit-stable
    assert "Apple Inc" not in a and "Intel Corporation" not in a
    assert "org-" in a
    # markers survive mutation
    for m in ("[E1]", "[/E1]", "[E2]", "[/E2]"):
        assert m in a


def _page_table(html_bodies):
    import datetime

    ts = datetime.datetime(2024, 1, 1)
    return pa.table(
        {
            "url": [f"https://ex.com/{i}" for i in range(len(html_bodies))],
            "warc_ts": pa.array([ts] * len(html_bodies), pa.timestamp("us")),
            "html": [
                f"<html><body><p>{b}</p></body></html>".encode()
                for b in html_bodies
            ],
            "text": [""] * len(html_bodies),
            "lang": ["en"] * len(html_bodies),
        }
    )


LONG_SENT = (
    "Regarding " + "widget " * 200 + "Apple Inc supplied Intel Corporation."
)


def test_page_actor_emits_drop_accounting(tmp_path):
    """A sentence whose tagged variants exceed max_token_len loses its
    markers to truncation → the page-local plan emits the
    _dropped_markers accounting row and run_partitioned records the
    count in the merge's commit record."""
    from finance_sc_relations_ray.pipelines.kg import build_kg_pipeline
    from finance_sc_relations_ray.pipelines.kg_state import merge_records
    from finance_sc_relations_ray.pipelines.run import merge_parts, run_partitioned

    path = str(tmp_path / "pages.parquet")
    pq.write_table(
        _page_table(["Apple Inc supplied Intel Corporation.", LONG_SENT]), path
    )
    df = build_kg_pipeline(path).to_pandas()
    drops = df[df["pred"] == "_dropped_markers"]
    assert len(drops) == 1
    assert int(drops.iloc[0]["obj"]) > 0
    # the short page still produced a real triple
    assert len(df[df["pred"] == "supplies_to"]) > 0

    out = str(tmp_path / "out")
    run_partitioned(path, out, num_parts=1, parts_per_chunk=1)
    recs = merge_records(out)
    assert sum(r["n_dropped_markers"] for r in recs) > 0
    # accounting rows are excluded from the stored triples
    merged = merge_parts(out).to_pandas()
    assert (merged["pred"] == "_dropped_markers").sum() == 0


def test_tokenizer_artifact_roundtrip(tmp_path):
    """ST5: the tokenizer ships as a pickled artifact (the reference
    pickles its tokenizer alongside the model); a loaded artifact must
    encode identically."""
    import pickle

    tok = StubTokenizer(max_len=48)
    p = tmp_path / "tokenizer.pkl"
    with open(p, "wb") as f:
        pickle.dump(tok, f)
    with open(p, "rb") as f:
        loaded = pickle.load(f)
    assert loaded.max_len == 48
    assert loaded.encode(TAGGED) == tok.encode(TAGGED)
    assert get_e1e2_start(loaded.encode(TAGGED)) == get_e1e2_start(
        tok.encode(TAGGED)
    )


def test_markers_survive_equivalent_to_encode_path():
    """markers_survive is the scoring hot path's short-circuit stand-in
    for get_e1e2_start(encode(text)) — must agree EXACTLY, including at
    truncation boundaries (max_len swept across the marker positions)."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    from finance_sc_relations_ray.functions.tokenizer import markers_survive

    pieces = st.lists(
        st.sampled_from(
            ["[E1]", "[/E1]", "[E2]", "[/E2]", "word", "Multi Word Corp",
             "x" * 23, "a,b.c", "", " ", "7 Samsung-Electronics 99",
             "İzmir Straße"]
        ),
        min_size=0, max_size=12,
    )

    @settings(max_examples=300, deadline=None)
    @given(pieces, st.integers(min_value=2, max_value=40))
    # "İ" lowercases to "i" + a combining dot, one id more than unlowered
    @example(["İzmir Straße", "[E1]", "word", "[E2]"], 8)
    # [E2] lands exactly on the truncation limit
    @example(["[E1]", "[E2]"], 2)
    # one id per non-space character: the length bound is tight here
    @example(["[E1]", "a,b.c", "[E2]"], 7)
    @example(["[E1]", "a,b.c", "[E2]"], 8)
    def check(parts, max_len):
        text = " ".join(parts)
        tok = StubTokenizer(max_len)
        expected = get_e1e2_start(tok.encode(text)) is not None
        assert markers_survive(text, max_len) == expected, (text, max_len)

    check()
