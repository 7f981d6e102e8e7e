"""dynaalign_ray — a Ray-Data-native near-duplicate detection + clustering engine.

Re-expresses the semantics of the DynaAlign reference (MinHash over
k-shingles -> pairwise Jaccard estimate -> threshold -> graph clustering ->
per-cluster reduce; see /root/reference R/minHash.R, src/minHash.cpp,
R/clusterbreak.R) as vectorized ``map_batches`` kernels over zero-copy Arrow
batches of Common-Crawl-style web pages, with LSH band hashing replacing the
all-pairs similarity matrix and connected components (driver union-find on a
small edge set, distributed contraction rounds past it) replacing in-memory
Louvain.

Architecture is Ray-Data-first: every stage is a batch transform over a
``ray.data.Dataset``; stateful stages (hash-permutation matrices, substitution
matrices) are actor pools; wide steps are explicit keyed shuffles
(band buckets, contraction rounds, cluster reduce).  Below a memory gate the
back half (pairs -> edges -> clusters) runs as one Ray task instead.
"""

from dynaalign_ray.config import DedupConfig

__all__ = ["DedupConfig"]
__version__ = "0.1.0"
