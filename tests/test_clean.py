"""Byte-identity of the clean invariant (reference
src/utils/data_clean.py:5-6 semantics) and the html→text extraction."""

import re

import pyarrow as pa

from finance_sc_relations_ray.functions.clean import clean_array, clean_text
from finance_sc_relations_ray.sources.pages import generate_pages
from finance_sc_relations_ray.stages.extract import extract_clean_page

TRICKY = [
    "A - B",
    "  leading and trailing  ",
    "brackets [inside] text",
    "many---dashes and [ ] mixes - [x]-",
    "tabs\tand\nnewlines - kept",
    "’s possessive “smart quotes”",
    "",
    "-[ ]-",
    "no specials at all",
    "Apple Inc - and [its] partner  Dell supplied parts.",
]


def reference_clean(x: str) -> str:
    # the reference's exact expression (data_clean.py:5-6)
    return re.sub("[-[\\] ]+", " ", x).strip()


def test_clean_scalar_matches_reference_semantics():
    for s in TRICKY:
        assert clean_text(s) == reference_clean(s), repr(s)


def test_clean_array_matches_scalar():
    arr = pa.array(TRICKY, type=pa.string())
    out = clean_array(arr).to_pylist()
    assert out == [clean_text(s) for s in TRICKY]


def test_extract_clean_byte_identical_per_url():
    pages = generate_pages(list(range(50)))
    for row in pages.to_pylist():
        assert extract_clean_page(row["html"]) == clean_text(row["text"]), row["url"]


def test_redact_pii_planted_parity():
    """Planted PII must actually redact (the sf tables may contain no
    PII, which would let an identity transform pass the oracle) and the
    Arrow-RE2 path must match DuckDB's regexp_replace exactly."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc

    from finance_sc_relations_ray.pipelines.text import _PII_RULES

    texts = [
        "contact john.doe+x@example.co.uk or call +1 555 123 4567 now",
        "server at 192.168.1.100 logged 40 hits",
        "no pii here at all",
        "mixed: a@b.io, 10.0.0.1 and 0800 555 7777.",
    ]
    col = pa.array(texts)
    for pat, repl in _PII_RULES:
        col = pc.replace_substring_regex(col, pat, repl)
    engine = col.to_pylist()
    sql = r"""
    SELECT regexp_replace(regexp_replace(regexp_replace(t,
      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '[EMAIL]', 'g'),
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '[IP]', 'g'),
      '\+?\d[\d -]{7,}\d', '[PHONE]', 'g') FROM (SELECT unnest(?) AS t)
    """
    oracle = [r[0] for r in duckdb.connect().execute(sql, [texts]).fetchall()]
    assert engine == oracle
    assert engine[0] == "contact [EMAIL] or call [PHONE] now"
    assert engine[1] == "server at [IP] logged 40 hits"
    assert engine[2] == texts[2]
    assert engine[3] == "mixed: [EMAIL], [IP] and [PHONE]."
