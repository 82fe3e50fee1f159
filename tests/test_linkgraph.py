"""Structural invariants of the integer-exact PageRank core
(``graph.pagerank_edges_ds``) on hand-built host link graphs: string
node ids, symmetric weighted edges, where the right answer is known by
construction. ``pagerank_lineitem`` and ``kg_entity_pagerank`` run the
same core; tests/test_graph_ops.py checks them against replays."""

import pyarrow as pa
import ray.data

from finance_sc_relations_ray.pipelines import graph as G


def _host_pagerank(links):
    """links: [(src_host, dst_host)] undirected, one row per pair.
    Symmetrize with unit weights and run the core; returns a pandas
    frame ``(node, r)``."""
    s = [a for a, b in links] + [b for a, b in links]
    d = [b for a, b in links] + [a for a, b in links]
    edges = ray.data.from_arrow(
        pa.table(
            {
                "s": pa.array(s, pa.string()),
                "d": pa.array(d, pa.string()),
                "w": pa.array([1] * len(s), pa.int64()),
            }
        )
    )
    return G.pagerank_edges_ds(edges, iters=8, node_type=pa.string()).to_pandas()


def test_host_pagerank_symmetric_pair_equal_ranks():
    # two disconnected symmetric pairs: all four nodes must get the
    # same integer rank, and ranks must sum to ~1e12 (micro-rank units)
    r = _host_pagerank([("a.com", "b.com"), ("c.com", "d.com")])
    assert len(r) == 4
    assert r["r"].nunique() == 1
    assert abs(int(r["r"].sum()) - 1_000_000_000_000) < 100


def test_host_pagerank_hub_outranks_leaves():
    r = _host_pagerank(
        [("hub.com", "l1.com"), ("hub.com", "l2.com"), ("hub.com", "l3.com")]
    ).set_index("node")
    hub = int(r.loc["hub.com", "r"])
    for leaf in ["l1.com", "l2.com", "l3.com"]:
        assert hub > int(r.loc[leaf, "r"])
