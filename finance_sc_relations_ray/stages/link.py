"""Stage 9: entity linking against the company DB.

The reference links extracted names to a company table via a 2-char
normalized-prefix lookup (DynamoDB GSI begins_with / Athena IN) followed
by embedding top-k matching at thresholds 0.95 (match) / 0.80
(candidate) (src/relation_extraction/reporter.py:115-201,
src/sagemaker/re_inference.py:128-138).

Ray-Data-first design: the company DB is SMALL relative to the stream,
so instead of a shuffle join the DB is broadcast once via ``ray.put``
and each linking actor builds a per-prefix index in ``__init__``
(SURVEY.md §2.5 J2 — broadcast side + lookup inside map_batches; a
hash-partitioned groupby(prefix) join is the fallback for a DB too big
to broadcast and is what stages/shuffle.py's salted machinery would
key).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import KGConfig
from ..functions.names import encode_name, encode_names, prefix_key


class PrefixIndex:
    """prefix → CHUNKED (names, rgids, unit-vector matrix); built once.

    Chunking (default 500k rows per matrix, mirroring the reference's
    chunked FAISS-source build, src/matcher/core.py:111-186): the index
    necessarily holds every vector (as FAISS does), but building a
    multi-million-name bucket in one ``encode_names`` call would spike
    peak memory to several× the steady state (Python string lists +
    the full matrix as one allocation); chunked build bounds the
    intermediate, and chunked scoring bounds the per-query matmul
    workspace. Scores are concatenated in DB order, so results are
    bit-identical to the unchunked build (tested)."""

    def __init__(
        self, db_table: pa.Table, prefix_len: int, chunk_rows: int = 500_000
    ):
        self.prefix_len = prefix_len
        buckets: dict[str, list[tuple[str, str]]] = {}
        for name, pref, rgid in zip(
            db_table["normalizedname"].to_pylist(),
            db_table["companyprefix"].to_pylist(),
            db_table["rgid"].to_pylist(),
        ):
            buckets.setdefault(pref, []).append((name, rgid))
        self.buckets: dict[str, list[tuple[list[str], list[str], np.ndarray]]] = {}
        for pref, rows in buckets.items():
            chunks = []
            for lo in range(0, len(rows), chunk_rows):
                part = rows[lo : lo + chunk_rows]
                names = [r[0] for r in part]
                chunks.append((names, [r[1] for r in part], encode_names(names)))
            self.buckets[pref] = chunks

    def lookup(
        self, name: str, match_thresh: float, cand_thresh: float, top_k: int
    ) -> tuple[str | None, str | None, list[str]]:
        """→ (entity_id, db_name, candidate_ids); scores sorted desc,
        ties by db order (reference FAISS top-k then threshold split,
        reporter.py:196-236)."""
        chunks = self.buckets.get(prefix_key(name, self.prefix_len))
        if not chunks:
            return None, None, []
        q = encode_name(name)
        names: list[str] = []
        rgids: list[str] = []
        scores = np.concatenate([mat @ q for _, _, mat in chunks])
        for cn, cr, _ in chunks:
            names.extend(cn)
            rgids.extend(cr)
        order = np.argsort(-scores, kind="stable")[:top_k]
        order = [int(i) for i in order if scores[i] >= cand_thresh]
        matches = [i for i in order if scores[i] > match_thresh]
        cands = [i for i in order if i not in matches]
        entity_id = rgids[matches[0]] if matches else None
        db_name = names[matches[0]] if matches else None
        return entity_id, db_name, [rgids[i] for i in cands]


class Linker:
    """Cached prefix-index linker: runs inline in ``PageKGActor``,
    ``alias_items_dataset``'s link actor and ``oracle/kg_oracle.py``."""

    def __init__(self, db_table: pa.Table, config: KGConfig):
        self.index = PrefixIndex(db_table, config.prefix_len)
        self.config = config
        self._cache: dict[str, tuple] = {}

    def link(self, name: str):
        hit = self._cache.get(name)
        if hit is None:
            hit = self.index.lookup(
                name,
                self.config.link_match_threshold,
                self.config.link_cand_threshold,
                self.config.top_k,
            )
            self._cache[name] = hit
        return hit

    def link_batch(self, batch: pa.Table) -> pa.Table:
        eids, dbnames, cands, rep_ids = [], [], [], []
        for company, reporter in zip(
            batch["company"].to_pylist(), batch["reporter"].to_pylist()
        ):
            eid, dbname, cand = self.link(company)
            rid, _, _ = self.link(reporter)
            eids.append(eid)
            dbnames.append(dbname)
            cands.append(cand)
            rep_ids.append(rid)
        return (
            batch.append_column("entity_id", pa.array(eids, type=pa.string()))
            .append_column("entity_name_db", pa.array(dbnames, type=pa.string()))
            .append_column(
                "candidate_ids", pa.array(cands, type=pa.list_(pa.string()))
            )
            .append_column("reporter_id", pa.array(rep_ids, type=pa.string()))
        )
