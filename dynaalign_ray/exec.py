"""Execution-context helpers.

The engine standardizes on Ray Data's hash-shuffle strategy so that
``repartition(keys=[...])`` (hash partitioning), ``groupby`` and ``join``
all share one partitioning model — the single partitioning-key-reuse story
SURVEY.md §4 calls for.  Every wide op takes an explicit ``num_partitions``
(Ray's default of 200 partitions is pathological for small inputs and too
small for 100 TB).
"""

from __future__ import annotations

import math
from collections import deque

# Deferred-release parking lot for broadcast ObjectRefs (see broadcast_put).
_BROADCAST_KEEPALIVE: deque = deque(maxlen=64)


def broadcast_put(obj):
    """``ray.put`` with deferred release — the broadcast pattern for small
    lookup sides (query matrices, winner tables, keep-sets).

    Instead of letting the ref die with the enclosing query function's
    scope, park it in a bounded FIFO so the object-store entry is released
    ~maxlen broadcasts later, long after the query's execution (and any
    schema-probe limit-plan task cancellation) has quiesced.  This works
    around a rare Ray-core refcount race observed in long many-query
    sessions (reference_count.cc:581 ``Check failed:
    submitted_task_ref_count > 0`` — fatal to the driver process) where a
    driver-owned ref is GC'd while cancelled in-flight tasks that captured
    it are still being cleaned up.  Cost: up to 64 broadcast objects stay
    pinned in the object store."""
    import ray

    ref = ray.put(obj)
    _BROADCAST_KEEPALIVE.append(ref)
    return ref


def configure_context() -> None:
    """Idempotently switch the current DataContext to hash shuffling and
    quiet logging. Safe to call from the driver or from tests."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # Cap shuffle aggregator actors: each hash-shuffle op otherwise spawns
    # min(num_partitions, 64) actors, and a pipeline chaining several
    # shuffles oversubscribes a single node with hundreds of worker
    # processes (measured 118s -> 25s on the 20k-page bench).  One
    # aggregator can own many partitions.  Aggregators ARE the shuffle's
    # reduce side, so their count scales with the cluster (CPUs here, nodes
    # on a real cluster) — capping it constant caps reduce parallelism and
    # destroys scaling.
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    ctx.max_hash_shuffle_aggregators = max(4, cpus // 2)
    # Aggregator actors otherwise reserve (cluster_CPU/2)/num_partitions
    # CPUs per partition; with several shuffle ops alive in one streaming
    # DAG they can reserve every CPU on a small node and starve the map
    # side (observed: 8-CPU run deadlocked at ~0 load).  Pin the tiny
    # single-node default so aggregators never crowd out compute.
    # 0.01 CPU/partition: a 3-shuffle DAG over 50 partitions reserves 1.5
    # CPUs total instead of 9+ (which deadlocks an 8-CPU node).  The
    # reservation is a scheduling hint, not a throughput cap — aggregator
    # finalize work still uses real cores.  On a 1-CPU cluster any share at
    # all leaves less than the one whole CPU a map task needs, so the
    # shuffle's own map side never schedules (measured: a 10k-row keyed
    # repartition hung at 0.01 and took 8.9 s at 0); there aggregators
    # reserve nothing.  On a multi-node cluster, aggregators that reserve
    # ~0 CPU may all be placed on one node and concentrate the reduce side
    # there; this has not been tested (only single-node clusters so far).
    per_partition = 0.0 if cpus <= 1 else 0.01
    ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = per_partition
    ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = per_partition


def partial_topk(ds, sort_keys: list[tuple[str, str]], k: int):
    """Global top-k WITHOUT a global sort: per-block partial top-k (each
    block emits <= k rows via one Arrow sort over rows it already holds),
    then ONE driver-side Arrow sort over the <= k x num_blocks survivors
    (a bounded, metadata-sized table at any corpus size — the same
    driver-fold decision as the embedding top-k reduce; a Dataset.sort of
    the survivors would still pay a whole range-partition stage to order
    a few hundred rows, and a global ``sort().limit(k)`` of the input
    would range-partition-shuffle the entire corpus to keep k).

    EXACTNESS requires ``sort_keys`` to be a TOTAL order over the rows
    (include a unique tiebreaker column, e.g. doc_id): the global top-k
    set is then contained in the union of per-block top-k sets, and the
    final sort reproduces the same first-k rows as the global sort —
    identical hashes, including at tie boundaries (the tiebreaker decides
    the boundary row deterministically on both plans).

    ``sort_keys``: list of (column, "ascending"|"descending") pairs, the
    pyarrow.compute.sort_indices form.  Returns a one-block Dataset so
    callers can keep composing transforms.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    def block_topk(b):
        if b.num_rows <= k:
            return b
        idx = pc.sort_indices(b, sort_keys=sort_keys)
        return b.take(idx[:k])

    pruned = ds.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True)
    parts = [t for t in (ray.get(r) for r in pruned.materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        return pruned  # empty, schema preserved
    allc = pa.concat_tables(parts).combine_chunks()
    idx = pc.sort_indices(allc, sort_keys=sort_keys)
    return rd.from_arrow(allc.take(idx[: min(k, len(idx))]))


def pick_num_partitions(approx_rows: int | None, rows_per_partition: int = 20_000) -> int:
    """Heuristic partition count for shuffles: ~rows_per_partition DOCS per
    partition (measured sweet spot on the flagship: ~20k docs ≈ 600k band
    rows ≈ 10 MB partitions — hash-shuffle wall time is dominated by
    per-partition aggregator finalize, and oversplitting doubled shuffle
    time at bench scale), clamped to [1, 4096].  At 100 TB the caller
    should pass the real row estimate; past the cap each partition simply
    grows (125 MB of band rows per 244k-doc partition at the cap — still
    far under worker heap).  At test scale this keeps partition counts
    tiny so task overhead doesn't dominate."""
    if not approx_rows or approx_rows <= 0:
        return 16
    return max(1, min(4096, math.ceil(approx_rows / rows_per_partition)))
