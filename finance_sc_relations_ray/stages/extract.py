"""Stage 1-3: lang filter → html→text extraction → sentence fan-out.

All stateless, zero-copy Arrow ``map_batches``. The extraction is the
byte-identity invariant surface: per url, ``clean(extract(html))`` must
equal ``clean(text)`` byte-for-byte (BASELINE.json input_hint; clean
semantics from reference src/utils/data_clean.py:5-6). Sentences are
cleaned at sentence level, mirroring the reference's predictor which
cleans each sentence before NER (src/language_model/spacy_loader.py:361).
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.clean import clean_array, clean_text
from ..functions.textops import sentencize

_P_RE = re.compile(rb"<p>(.*?)</p>", re.DOTALL)

def extract_text(html: bytes) -> str:
    """Boilerplate-stripped page text: the <p>-block contents joined by a
    single space (nav/header/footer dropped). Deterministic; no parser
    dependency."""
    return " ".join(m.decode("utf-8") for m in _P_RE.findall(html))


def filter_english(batch: pa.Table) -> pa.Table:
    return batch.filter(pc.equal(batch["lang"], "en"))


def extract_batch(batch: pa.Table) -> pa.Table:
    """(url, html, ...) → (url, page_text)."""
    texts = [extract_text(h) for h in batch["html"].to_pylist()]
    return pa.table(
        {"url": batch["url"], "page_text": pa.array(texts, type=pa.string())}
    )


def sentencize_batch(batch: pa.Table) -> pa.Table:
    """Fan out pages to cleaned sentence rows (url, sent_id, sent).

    sent_id numbers the page's non-empty sentences in order — the
    reference's per-call sentence ``idx`` (infer.py:290) scoped per url.
    """
    urls, sids, sents = [], [], []
    for url, text in zip(batch["url"].to_pylist(), batch["page_text"].to_pylist()):
        for i, s in enumerate(sentencize(text)):
            urls.append(url)
            sids.append(i)
            sents.append(s)
    t = pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "sent_id": pa.array(sids, type=pa.int64()),
            "sent": pa.array(sents, type=pa.string()),
        }
    )
    # sentence-level clean (reference order: clean before NER)
    return t.set_column(2, "sent", clean_array(t["sent"]))


def extract_clean_page(html: bytes) -> str:
    """clean(extract(html)) — the per-url invariant used by tests."""
    return clean_text(extract_text(html))
