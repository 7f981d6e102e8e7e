"""Pipeline configuration.

All randomness in the engine derives from ``seed`` here — unlike the
reference, which seeds its hash family from ``std::random_device``
(/root/reference/src/minHash.cpp:73) and R's unseeded RNG
(/root/reference/R/minHash.R:85-86). Determinism is a hard requirement for
checkpoint/resume and for the recall gate vs the brute-force oracle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class DedupConfig:
    """Config for the near-duplicate pipeline.

    Mirrors the knobs of the reference's ``clusterbreak`` / ``similarityMH``
    (/root/reference/R/clusterbreak.R:180-188, src/minHash.cpp:119):
    ``shingle_k`` = k, ``num_perm`` = n_hash, ``tau`` = the (fixed-threshold
    variant of the) similarity cutoff.  The reference's per-subset *quantile*
    threshold (R/clusterbreak.R:219) is data-dependent and scale-hostile;
    fixed ``tau`` is the default, quantile mode is available via
    ``tau_quantile`` (computed as an approximate aggregate over verified edge
    weights).
    """

    # --- shingling (operator #1 / #11: R/minHash.R:12-23, src/minHash.cpp:92-105)
    shingle_k: int = 5
    shingle_mode: str = "word"  # "word" (web text) | "char" (peptide parity)

    # --- minhash signature (operators #4-#6,#10,#12)
    num_perm: int = 128

    # --- LSH banding (replaces all-pairs #7/#12 similarity matrix)
    num_bands: int = 32  # num_perm must be divisible by num_bands
    # candidate-pair emission: all pairs while bucket <= pair_cap, star edges
    # around a hashed hub member beyond that (one of ~4 hub variants per doc
    # set, chosen by band key; keeps connectivity, bounds pairs)
    pair_cap: int = 64
    # bucket larger than this is split by salting into sub-buckets; each
    # member lands in its own sub-bucket AND the next one (ring overlap), so
    # the sub-buckets stay connected (SURVEY.md §4 skew row)
    salt_cap: int = 4096

    # --- verification + clustering
    tau: float = 0.7  # exact-Jaccard keep threshold (clusterbreak thresh_p analog)
    tau_quantile: float | None = None  # if set, tau := quantile(edge weights, q)
    sketch_cap: int = 512  # bottom-k cap for retained shingle-hash sketches
    max_cc_rounds: int = 50  # contraction-round cap (max_itr analog,
    # R/clusterbreak.R:211-215)
    # below this many verified edges, connected components runs as driver-side
    # union-find (provably small set); above it, distributed contraction
    # rounds (one keyed shuffle + a local union-find per block per round).
    # Sized to driver memory, not caution: 50M edges = 800 MB of int64 pairs
    # + a ~seconds numpy union-find — cheaper than shuffling the full edge
    # set.  At 10^12-doc scale edge counts pass this and the contraction
    # rounds take over.
    small_cc_limit: int = 50_000_000

    # --- randomness
    seed: int = 42

    # --- execution sizing
    batch_size: int = 1024
    minhash_concurrency: int | None = None  # None -> let Ray autoscale tasks

    def __post_init__(self) -> None:
        if self.num_perm % self.num_bands != 0:
            raise ValueError(
                f"num_perm ({self.num_perm}) must be divisible by "
                f"num_bands ({self.num_bands})"
            )
        if self.shingle_k < 1:
            # same guard as the reference: R/minHash.R:15, src/minHash.cpp:96
            raise ValueError(f"shingle_k must be >= 1, got {self.shingle_k}")
        if self.shingle_mode not in ("word", "char"):
            raise ValueError(f"unknown shingle_mode {self.shingle_mode!r}")

    @property
    def band_rows(self) -> int:
        return self.num_perm // self.num_bands

    def config_hash(self) -> str:
        """Stable hash of the config — part of every stage's lineage record."""
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()
