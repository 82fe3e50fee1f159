"""The page stage scores a slice of pages in phases, with one NER and one
RE call per slice (stages/fused.py): its output equals the composable
oracle's, a model error loses only its own page, and the rewritten
kernels (Arrow triples, plain-float position mean) equal their per-row
references."""

import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from finance_sc_relations_ray.config import DEFAULT_CONFIG, KGConfig
from finance_sc_relations_ray.gazetteer import company_db_table
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.stages import backends
from finance_sc_relations_ray.stages.doc_agg import DOC_RELATIONS_SCHEMA, pair_verdicts
from finance_sc_relations_ray.stages.fused import SLICE_PAGES, PageKGActor
from finance_sc_relations_ray.stages.shuffle import _merge_bucket
from finance_sc_relations_ray.stages.triples import TRIPLES_SCHEMA, to_triples_batch
from oracle.kg_oracle import expected_triples

KEYS = ["subj", "pred", "obj"]
COST = "finance_sc_relations_ray.stages.backends:"


def _page(url: str, sents: list[str]) -> pa.Table:
    html = ("<html><body>" + "".join(f"<p>{s}</p>" for s in sents)
            + "</body></html>").encode("utf-8")
    return pa.table({"url": [url], "html": [html], "lang": ["en"]})


def _pages(n: int, *extra: pa.Table) -> pa.Table:
    pages = generate_pages(list(range(n))).select(["url", "html", "lang"])
    return pa.concat_tables([pages, *extra])


def _stage(pages: pa.Table, config: KGConfig = DEFAULT_CONFIG) -> pa.Table:
    """Per-document triple rows of one in-process page-stage call."""
    docs = PageKGActor(config, db_ref=company_db_table())(pages)
    return to_triples_batch(docs, config)


def _deduped(trip: pa.Table):
    """The triple rows folded like the pipeline's dedup, in the
    oracle's row order and types."""
    rows = trip.filter(pc.equal(trip["pred"], DEFAULT_CONFIG.canonical_pred))
    got = _merge_bucket(rows, KEYS).to_pandas()
    got["score"] = got["score"].astype("float64").round(4)
    got["sentence_ids"] = [list(x) for x in got["sentence_ids"]]
    return got.sort_values(KEYS).reset_index(drop=True)


def _oracle(pages: pa.Table):
    exp = expected_triples(pages).sort_values(KEYS).reset_index(drop=True)
    exp["sentence_ids"] = [list(x) for x in exp["sentence_ids"]]
    return exp


def _assert_equal_to_oracle(trip: pa.Table, pages: pa.Table) -> None:
    got, exp = _deduped(trip), _oracle(pages)
    assert len(exp) > 0
    assert len(got) == len(exp), (len(got), len(exp))
    for col in exp.columns:
        assert got[col].tolist() == exp[col].tolist(), col


def test_dotted_capital_i_before_an_entity_keeps_the_page():
    """"İ" lowercases to two characters. Placeholder offsets found in a
    lowercased copy used to slice the sentence wrongly and raise
    IndexError, which lost the page as a dead letter and made the
    oracle raise."""
    page = _page("https://izmir.example/1", [
        "The İzmir plant of Apple Inc supplies Dell Technologies with parts."
    ])
    pages = pa.concat_tables([page, _pages(8)])
    trip = _stage(pages)
    assert pc.sum(pc.equal(trip["pred"], "_error")).as_py() in (0, None)
    izmir = trip.filter(pc.equal(trip["url"], "https://izmir.example/1"))
    assert izmir["pred"].to_pylist() == [DEFAULT_CONFIG.canonical_pred]
    _assert_equal_to_oracle(trip, pages)


@pytest.mark.parametrize("kind", ["ner", "re"])
def test_a_model_error_quarantines_only_its_page(kind):
    """A backend raising on one sentence fails the slice's batched call;
    the stage re-runs that slice page by page, so only the page holding
    the sentence becomes a dead letter, named by the exception type."""
    from tests.poison_backends import POISON

    bad_url = "https://poison.example/1"
    bad = _page(bad_url, [f"Apple Inc supplies Dell Technologies near {POISON}."])
    good = _pages(20)
    # the poisoned page sits inside the first slice, between good pages
    pages = pa.concat_tables([good.slice(0, 10), bad, good.slice(10)])
    backend = {"ner": "ner_backend", "re": "re_backend"}[kind]
    cls = {"ner": "PoisonTagger", "re": "PoisonScorer"}[kind]
    cfg = KGConfig(**{backend: f"tests.poison_backends:{cls}"})
    trip = _stage(pages, cfg)
    errors = trip.filter(pc.equal(trip["pred"], "_error"))
    assert errors["subj"].to_pylist() == [bad_url]
    assert errors["obj"].to_pylist() == ["PoisonedInput"]
    assert bad_url not in trip.filter(
        pc.not_equal(trip["pred"], "_error"))["url"].to_pylist()
    _assert_equal_to_oracle(trip, good)


@pytest.mark.parametrize("n_pages", [40, 2 * SLICE_PAGES + 20])
def test_one_ner_and_one_re_call_per_slice(tmp_path, monkeypatch, n_pages):
    """With the cost-model backends, each slice of ``SLICE_PAGES`` pages
    makes exactly one ``spans_batch`` and one ``score_batch`` call and
    no per-item call, and the triples equal the stub backends'."""
    ledger = tmp_path / "calls.log"
    monkeypatch.setattr(backends._CostModel, "CALL_LOG", str(ledger))
    pages = _pages(n_pages)
    cfg = KGConfig(ner_backend=COST + "CostModelTagger",
                   re_backend=COST + "CostModelScorer")
    trip = _stage(pages, cfg)
    calls = [ln.split()[1:] for ln in ledger.read_text().splitlines()]
    n_en = pc.sum(pc.equal(pages["lang"], "en")).as_py()
    n_slices = -(-n_en // SLICE_PAGES)
    assert n_slices == (1 if n_pages < SLICE_PAGES else 3)
    assert [m for m, _ in calls] == ["spans_batch", "score_batch"] * n_slices
    assert all(int(n) > 0 for _, n in calls)
    assert trip.equals(_stage(pages))


def test_cost_model_backends_pass_the_contracts(tmp_path, monkeypatch):
    monkeypatch.setattr(backends._CostModel, "CALL_LOG", str(tmp_path / "c.log"))
    samples = backends.CONTRACT_SAMPLES
    backends.check_tagger_contract(backends.CostModelTagger(), samples["tagger"])
    backends.check_scorer_contract(backends.CostModelScorer(), samples["scorer"])


def test_a_batch_method_that_disagrees_fails_the_contract():
    from finance_sc_relations_ray.stages.ner import GazetteerTagger
    from finance_sc_relations_ray.stages.scoring import RuleReScorer

    class ReversedBatchTagger(GazetteerTagger):
        def spans_batch(self, sents):
            return [self.spans(s) for s in reversed(sents)]

    class EmptyBatchScorer(RuleReScorer):
        def score_batch(self, texts):
            return [self.score(t) for t in texts][:1]

    samples = backends.CONTRACT_SAMPLES
    with pytest.raises(AssertionError):
        backends.check_tagger_contract(ReversedBatchTagger(), samples["tagger"])
    with pytest.raises(AssertionError):
        backends.check_scorer_contract(EmptyBatchScorer(), samples["scorer"])


# ------------------------------------------------ kernel references ---
def _to_triples_rows(batch: pa.Table, config: KGConfig) -> pa.Table:
    """The per-row formulation the Arrow ``to_triples_batch`` replaced."""
    out = {name: [] for name in TRIPLES_SCHEMA.names}
    has_link = "entity_id" in batch.column_names
    for row in batch.to_pylist():
        label = row["relation"]
        if label in ("_error", "_meta_dropped"):
            obj = row["company"] if label == "_error" else str(row["n_pairs"])
            pred = "_error" if label == "_error" else "_dropped_markers"
            vals = (row["url"], pred, obj, None, None, 0.0, row["url"], [])
        elif label in config.main_relations:
            cid = row.get("entity_id") if has_link else None
            rid = row.get("reporter_id") if has_link else None
            if label == "supplier":
                s, o, sid, oid = row["company"], row["reporter"], cid, rid
            else:
                s, o, sid, oid = row["reporter"], row["company"], rid, cid
            vals = (s, config.canonical_pred, o, sid, oid, row["score"],
                    row["url"], row["sentence_ids"])
        else:
            continue
        for name, v in zip(TRIPLES_SCHEMA.names, vals):
            out[name].append(v)
    return pa.table({n: pa.array(out[n], type=TRIPLES_SCHEMA.field(n).type)
                     for n in TRIPLES_SCHEMA.names})


def _doc_rows() -> pa.Table:
    rows = [
        ("u1", "Rep A", "Co B", "supplier", 1.25, [0, 2], 2, "E1", "R1"),
        ("u1", "Rep A", "Co C", "customer", 0.9, [1], 1, None, "R1"),
        ("u1", "Rep A", "Co D", "other", 0.5, [3], 1, "E4", "R1"),
        ("u2", "Rep X", "Co Y", "supplier", 0.45, [5], 1, None, None),
        ("u2", "", "", "_meta_dropped", 0.0, [], 3, None, None),
        ("u3", "", "DecodeError", "_error", 0.0, [], 0, None, None),
        ("u4", "Rep Z", "Co W", "customer", 2.0, [7, 8, 9], 3, "E9", None),
    ]
    cols = list(zip(*rows))
    t = pa.table({name: pa.array(list(cols[i]), DOC_RELATIONS_SCHEMA.field(name).type)
                  for i, name in enumerate(DOC_RELATIONS_SCHEMA.names)})
    return (t.append_column("entity_id", pa.array(list(cols[7]), pa.string()))
            .append_column("reporter_id", pa.array(list(cols[8]), pa.string())))


def test_to_triples_batch_equals_the_per_row_reference():
    linked = _doc_rows()
    unlinked = linked.drop_columns(["entity_id", "reporter_id"])
    for batch in (linked, unlinked, linked.slice(0, 0), unlinked.slice(0, 0),
                  pa.concat_tables([linked, linked.slice(2, 3)])):
        got = to_triples_batch(batch, DEFAULT_CONFIG)
        assert got.schema.equals(TRIPLES_SCHEMA)
        assert got.equals(_to_triples_rows(batch, DEFAULT_CONFIG))
    got = to_triples_batch(linked, DEFAULT_CONFIG)
    assert got["pred"].to_pylist() == [
        "supplies_to", "supplies_to", "supplies_to", "_dropped_markers",
        "_error", "supplies_to"]


def _verdicts_numpy(r_ids, scores):
    """The numpy formulation of the position mean + argmax that
    ``pair_verdicts`` replaced."""
    sums, cnt, first_row = {}, {}, {}
    for i, rid in enumerate(r_ids):
        sc = np.asarray(scores[i], dtype=np.float64)
        if rid in sums:
            sums[rid] += sc
            cnt[rid] += 1
        else:
            sums[rid] = sc.copy()
            cnt[rid] = 1
            first_row[rid] = i
    labels = ("supplier", "customer", "other")
    out = []
    for rid, i in first_row.items():
        sc = sums[rid] / cnt[rid]
        k = int(np.argmax(sc))
        out.append((i, labels[k], round(float(sc[k]), 4)))
    return out


def test_pair_verdicts_equal_the_numpy_formulation():
    rng = random.Random(7)
    # few distinct values, so sums and means tie exactly and often;
    # float32-rounded values as the composable scorer's rows carry
    pool = [0.05, 0.9, 0.475, 0.1, 1 / 3, 0.7, 0.2]
    pool += [float(np.float32(v)) for v in pool]
    for _ in range(2000):
        n = rng.randint(1, 12)
        r_ids = [f"{rng.randint(0, 3)}_{rng.randint(0, 2)}" for _ in range(n)]
        scores = [[rng.choice(pool) for _ in range(3)] for _ in range(n)]
        if rng.random() < 0.3:
            scores = [[s[0], s[0], s[2]] for s in scores]  # label ties
        assert pair_verdicts(r_ids, scores) == _verdicts_numpy(r_ids, scores)
