"""finance_sc_relations_ray — a from-scratch, Ray-Data-native
knowledge-graph construction engine with the query / data-processing
capabilities of iSemantics-ai/Finance-SC-Relations.

The pipeline semantics are re-expressed Ray-Data-first (Dataset →
map_batches over Arrow batches, one page-local task stage for the model
stages with models cached per worker process, a combiner-first triple
dedup) — NOT a port of the
reference's pandas/multiprocessing execution machinery. Reference
behaviors are cited by file:line into /root/reference throughout.
"""

__version__ = "0.1.0"
