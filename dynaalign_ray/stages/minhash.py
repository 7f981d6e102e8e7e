"""Signature stage — the stateful actor-pool analog of the reference's
``HashFamily`` + per-doc signature loop (/root/reference/src/minHash.cpp:67-158).

The reference creates its hash family per call from ``std::random_device``;
here the permutation parameter matrix is built ONCE per actor in
``__init__`` from the config seed and reused for every batch — the
canonical "stateful stage = actor pool" pattern.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.hashing import make_permutations
from dynaalign_ray.shingles import (
    batch_shingle_hashes,
    bottomk_sketches,
    minhash_signatures,
    simhash_signatures,
)

import functools


@functools.lru_cache(maxsize=8)
def _cached_permutations(num_perm: int, seed: int):
    """Worker-process-level cache of the permutation parameter matrix: with
    a plain-function (task) signature stage, each Ray worker process builds
    the state once and reuses it for every batch it maps — the same
    state-amortization as an actor pool without actor-spawn latency.
    (Deterministic: the cache key IS the config, so every worker holds the
    identical arrays.)"""
    return make_permutations(num_perm, seed)


def minhash_batch(batch: pa.Table, *, cfg: DedupConfig) -> pa.Table:
    """Stateless-task form of the signature kernel (state via
    :func:`_cached_permutations`)."""
    a, b = _cached_permutations(cfg.num_perm, cfg.seed)
    return _signature_table(batch, cfg, a, b)


class MinHashActor:
    """``docs(doc_id, text, ...) -> signatures(doc_id, minhash, simhash,
    n_shingles, sketch)`` over zero-copy Arrow batches.

    Actor-pool form — use when signature state is expensive (very large
    num_perm, a tokenizer/model): ``ds.map_batches(MinHashActor,
    fn_constructor_args=(cfg,), batch_format="pyarrow",
    batch_size=cfg.batch_size, concurrency=N)``.  The default pipeline path
    uses the task form (:func:`minhash_batch`) whose per-worker cache gives
    the same amortization without actor-spawn latency.
    """

    def __init__(self, cfg: DedupConfig):
        self.cfg = cfg
        self.a, self.b = make_permutations(cfg.num_perm, cfg.seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _signature_table(batch, self.cfg, self.a, self.b)


def _signature_table(batch: pa.Table, cfg: DedupConfig, a, b) -> pa.Table:
    # the text column goes into the shingle kernel AS an Arrow array —
    # word-mode tokenize/hash runs on the (offsets, data) buffers directly,
    # no per-doc Python strings (to_pylist only on the char-mode parity path)
    shingles, counts = batch_shingle_hashes(
        batch.column("text"), cfg.shingle_k, cfg.shingle_mode
    )
    sig = minhash_signatures(shingles, counts, a, b)
    sim = simhash_signatures(shingles, counts)
    sk_vals, sk_sizes, distinct = bottomk_sketches(shingles, counts, cfg.sketch_cap)

    n = batch.num_rows
    sig_arr = pa.FixedSizeListArray.from_arrays(
        pa.array(sig.reshape(-1), type=pa.uint64()), cfg.num_perm
    )
    # sketch as a binary blob of little-endian uint64s: Arrow binary
    # passes through Acero hash joins (list payloads do not) and decodes
    # zero-copy with np.frombuffer in the verify kernel.
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(sk_sizes * 8, out=offsets[1:], dtype=np.int32)
    sketch_arr = pa.Array.from_buffers(
        pa.binary(),
        n,
        [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(sk_vals.astype("<u8").tobytes())],
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "minhash": sig_arr,
            "simhash": pa.array(sim, type=pa.uint64()),
            "n_shingles": pa.array(distinct, type=pa.int64()),
            "sketch": sketch_arr,
        }
    )


def signatures_dataset(docs_ds, cfg: DedupConfig, concurrency=None):
    """Attach the signature stage to a docs Dataset.

    Default: stateless tasks with a per-worker permutation cache (elastic,
    no actor-spawn latency).  Pass ``concurrency`` (or set
    ``cfg.minhash_concurrency``) to run the actor-pool form instead — the
    right shape when per-actor setup is genuinely expensive.
    """
    if concurrency is None:
        concurrency = cfg.minhash_concurrency
    if concurrency is None:
        return docs_ds.map_batches(
            functools.partial(minhash_batch, cfg=cfg),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            zero_copy_batch=True,
        )
    return docs_ds.map_batches(
        MinHashActor,
        fn_constructor_args=(cfg,),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
        zero_copy_batch=True,
        concurrency=concurrency,
    )
