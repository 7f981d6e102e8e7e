"""LSH band stage — replaces the reference's all-pairs similarity matrix
(src/minHash.cpp:160-178, R/minHash.R:166-182) with
per-bucket candidate-pair emission over (band_key, doc_id) rows.

Two physical plans, chosen by ``fits_local_plan`` from the band-row count
(capped at the largest size where both plans were timed), the worst-case
heap of one task against one CPU's share of Ray's memory, and the object
store: below that gate every band row goes
into ONE block (``repartition(1)``, Ray Data's task-based non-keyed
repartition — no shuffle aggregator actors) and one task emits and
deduplicates the pairs; above it (or with no row-count hint) a hash
shuffle on band_key feeds the emitter and a second hash shuffle on (a, b)
feeds the dedup.  Both plans emit whole buckets with the same kernels, so
their pair sets are identical.  Below the same gate, with the signature
bytes it holds added to its heap term, ``near_dedup`` skips this stage's
Ray Data plan altogether and runs ``explode_bands`` and
``_local_pairs_block`` inside its one back-half task
(``pipelines/neardup.py``), with hot keys from ``hot_band_keys``.

Skew handling (SURVEY.md §4): buckets produced by boilerplate-heavy pages
are the known hot keys.  Two-phase salted emission: phase 1 counts bucket
sizes (small groupby), hot keys (> salt_cap) are broadcast; phase 2 salts a
hot bucket into ``n_salts`` sub-buckets keyed by doc hash, each doc emitted
into its own sub-bucket AND the next one (ring overlap), so the sub-buckets
stay connected for the union-find step while no single bucket exceeds
~2/n_salts of the original.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.hashing import U64, make_band_salts, mix64, poly_powers, to_id63
from dynaalign_ray.shingles import list_matrix


def band_keys_matrix(sig: np.ndarray, num_bands: int, salts: np.ndarray) -> np.ndarray:
    """(n_docs, num_perm) signatures -> (n_docs, num_bands) band keys.

    Band key = mix64(polynomial-combine of the band's row slice ^ band salt)
    — docs agreeing on every row of a band collide into one bucket.
    """
    n, num_perm = sig.shape
    r = num_perm // num_bands
    pows = poly_powers(r)
    acc = (sig.reshape(n, num_bands, r) * pows[np.newaxis, np.newaxis, :]).sum(
        axis=2, dtype=U64
    )
    # int63 keys: Ray-native groupby/aggregate handles int64 keys natively
    # (uint64 >= 2^63 falls back to a slow object path)
    return to_id63(mix64(acc ^ salts[np.newaxis, :]))


def explode_bands(
    batch: pa.Table,
    *,
    cfg: DedupConfig,
    hot_keys: tuple[np.ndarray, np.ndarray] | None = None,
) -> pa.Table:
    """signatures -> band_entries(band_key, doc_id).

    Docs with an empty shingle set are skipped (their sentinel signatures
    would otherwise all collide into one giant bogus bucket); they surface
    as singletons downstream — same semantics as the reference's
    never-matching "infinity" signature (src/minHash.cpp:148).
    """
    mask = np.asarray(batch.column("n_shingles")) > 0
    doc_id = np.asarray(batch.column("doc_id")).astype(np.int64)[mask]
    n = int(mask.sum())
    if n == 0:
        return pa.table(
            {
                "band_key": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
            }
        )
    sig = list_matrix(batch.column("minhash"))[mask]
    salts = make_band_salts(cfg.num_bands, cfg.seed)
    keys = band_keys_matrix(sig, cfg.num_bands, salts)  # (n, num_bands)

    flat_keys = keys.reshape(-1)
    flat_docs = np.repeat(doc_id, cfg.num_bands)

    if hot_keys is not None and len(hot_keys[0]):
        hot_sorted, hot_counts = hot_keys  # sorted keys + bucket sizes
        pos = np.searchsorted(hot_sorted, flat_keys)
        pos_c = np.minimum(pos, len(hot_sorted) - 1)
        hot = hot_sorted[pos_c] == flat_keys
        if hot.any():
            cold_k, cold_d = flat_keys[~hot], flat_docs[~hot]
            hk = flat_keys[hot].astype(U64)
            hd = flat_docs[hot]
            # sub-bucket count per hot key: ceil(count / salt_cap) keeps the
            # expected sub-bucket size ~salt_cap, so the overlap ring stays
            # dense (no empty sub-bucket breaking connectivity)
            m = np.maximum(
                (hot_counts[pos_c[hot]] + cfg.salt_cap - 1) // cfg.salt_cap, 2
            ).astype(U64)
            # salt depends on doc AND band key: each band splits the hot
            # cluster differently, so a pair separated in one band stays
            # together in another
            salt = mix64(hd.astype(U64) ^ hk) % m
            k1 = to_id63(mix64(hk ^ (salt + U64(1))))
            salt2 = (salt + U64(1)) % m
            k2 = to_id63(mix64(hk ^ (salt2 + U64(1))))
            flat_keys = np.concatenate([cold_k, k1, k2])
            flat_docs = np.concatenate([cold_d, hd, hd])

    return pa.table(
        {
            "band_key": pa.array(flat_keys, type=pa.int64()),
            "doc_id": pa.array(flat_docs, type=pa.int64()),
        }
    )


_DRIVER_MERGE_LIMIT = 1_000_000_000  # band rows below this merge on the driver.
# The driver transfer scales with PER-BLOCK DUPLICATE keys (singletons are
# dropped at the source), not with band rows — at 2M pages / 64M band rows
# the merged partials are a few MB.  The naive alternative (a full
# distributed groupby-count over every band row, ~1 distinct key per row)
# measured 878 s at 64M rows vs 0.7 s for the driver merge; past this limit
# the distributed plan below therefore ALSO groups the narrow c>=2 partials,
# never the raw rows.


def find_hot_band_keys(
    bands_ds, cfg: DedupConfig, num_partitions: int, approx_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-1 of the salted two-phase emission: bucket histogram -> (keys,
    counts) for buckets exceeding salt_cap, sorted by key.  The result is
    tiny (hot keys only) and is broadcast to the phase-2 mappers.

    Two physical plans: when the band table is known-small, per-block
    partial counts merge on the driver (no shuffle, no aggregator actors);
    otherwise a distributed count groupby (the 100 TB path).
    """
    def partial_counts(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("band_key")).astype(np.int64)
        u, c = np.unique(k, return_counts=True)
        # keys appearing once in a block can't decide hotness on their
        # own and dominate the transfer, so they are dropped here; the
        # merge below compensates for the bounded undercount (at most
        # one dropped singleton per block per key)
        m = c >= 2
        u, c = u[m], c[m]
        return pa.table(
            {"band_key": pa.array(u, pa.int64()), "n": pa.array(c, pa.int64())}
        )

    if approx_rows is not None and approx_rows <= _DRIVER_MERGE_LIMIT:
        import ray

        refs = bands_ds.map_batches(
            partial_counts, batch_format="pyarrow", zero_copy_batch=True
        ).materialize().to_arrow_refs()
        tables = [t for t in (ray.get(r) for r in refs) if t.num_rows]
        if not tables:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        n_blocks = len(refs)
        merged = pa.concat_tables(tables)
        k = np.asarray(merged.column("band_key")).astype(np.int64)
        n = np.asarray(merged.column("n")).astype(np.int64)
        order = np.argsort(k, kind="stable")
        k, n = k[order], n[order]
        boundary = np.ones(len(k), dtype=bool)
        boundary[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(boundary)
        totals = np.add.reduceat(n, starts)
        keys = k[starts]
        # the singleton filter undercounts each key by at most one row per
        # block; use the upper bound for BOTH the hotness test (no truly hot
        # key escapes salting) and the sub-bucket sizing (a slightly larger
        # m only makes sub-buckets smaller — harmless)
        totals_ub = totals + n_blocks
        hot = totals_ub > cfg.salt_cap
        return keys[hot], totals_ub[hot]

    # distributed plan (unknown size or past the driver limit): groupby-SUM
    # over the narrow per-block c>=2 partials — NEVER a groupby over the raw
    # band rows (~1 distinct key per row; measured 878 s vs sub-second at
    # 64M rows).  Without a global block count the singleton undercount
    # can't be compensated exactly, so the hotness threshold is the
    # conservative salt_cap/2: over-salting is harmless (ring overlap keeps
    # sub-buckets connected, m=ceil(n/salt_cap) just rounds up), while a key
    # that escapes must have true count < salt_cap/2 + n_blocks — and a
    # bucket that size emits star edges under pair_cap anyway.
    from ray.data.aggregate import Sum

    counts = (
        bands_ds.map_batches(
            partial_counts, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("band_key", num_partitions=num_partitions)
        .aggregate(Sum("n", alias_name="n"))
    )
    hot = counts.filter(expr=f"n > {max(cfg.salt_cap // 2, 1)}")
    rows = hot.take_all()  # tiny by construction
    keys = np.array([r["band_key"] for r in rows], dtype=np.int64)
    ns = np.array([r["n"] for r in rows], dtype=np.int64)
    order = np.argsort(keys)
    return keys[order], ns[order]


def segment_triu_rows(
    starts: np.ndarray, ends: np.ndarray, select_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs (a_rows, b_rows) of the within-bucket upper triangle
    for every SELECTED bucket of a sorted-run layout — segment-vectorized
    (each row pairs with its same-bucket successors via repeat/offset
    arithmetic), shared by the band / simhash / ssjoin pair emitters."""
    empty = np.zeros(0, dtype=np.int64)
    m_of = ends - starts
    if not select_b.any():
        return empty, empty
    bucket_of = np.repeat(np.arange(len(starts), dtype=np.int64), m_of)
    rows = np.flatnonzero(select_b[bucket_of])
    if len(rows) == 0:
        return empty, empty
    rep = ends[bucket_of[rows]] - rows - 1
    total = int(rep.sum())
    if total == 0:
        return empty, empty
    a_rows = np.repeat(rows, rep)
    e2 = np.cumsum(rep)
    offs = np.arange(total, dtype=np.int64) - np.repeat(e2 - rep, rep)
    return a_rows, a_rows + 1 + offs


def emit_pairs_block(batch: pa.Table, *, pair_cap: int) -> pa.Table:
    """Per-block candidate-pair emission over blocks that hold whole
    buckets: the local plan's single block, or a hash partition after
    ``repartition(keys=["band_key"])`` (whole block per call).

    Within a bucket of m distinct docs: all C(m,2) pairs while m <= pair_cap
    (exactly what the reference's dense matrix encodes, but only inside the
    bucket), else star edges around a HUB doc — preserves connected-component
    structure with m-1 edges (the recursion-free analog of clusterbreak's
    size_max split, R/clusterbreak.R:246-254).  The hub is the member
    minimizing ``mix64(doc ^ (band_key % 4))``, NOT the bucket-min doc:
    the same doc set recurs as a bucket in every band (and in every salted
    sub-bucket at small m), so a fixed min-doc hub would make every star
    edge of the cluster share ONE partner — and when that partner is a
    marginal member, docs with J(hub) < tau lose ALL their candidates and
    the verify stage isolates them (measured: 14 of 5,000 planted boiler
    docs isolated at 100k pages).  The ``% 4`` bounds hub diversity at ~4
    variants (isolation probability ~p^4): one hub per band would instead
    multiply the deduped star-edge set ~num_bands-fold (measured 2.4x
    verified edges at 600k pages).  Pairs are canonical (a < b).
    """
    keys = np.asarray(batch.column("band_key")).astype(np.int64)
    docs = np.asarray(batch.column("doc_id")).astype(np.int64)
    if len(keys) == 0:
        return pa.table(
            {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
        )
    order = np.lexsort((docs, keys))
    keys, docs = keys[order], docs[order]
    # drop (band_key, doc_id) duplicates (salted double-emission)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (docs[1:] != docs[:-1])
    keys, docs = keys[first], docs[first]
    boundary = np.ones(len(keys), dtype=bool)
    boundary[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(keys))
    m_of = ends - starts
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    # SMALL buckets (2 <= m <= pair_cap): one segment-vectorized triu for
    # every bucket at once — each row pairs with its same-bucket successors
    # via repeat/offset arithmetic.  Millions of size-2 buckets per block
    # make a per-bucket Python loop the stage's real cost; this emits the
    # identical pair set with a handful of array ops.
    small_b = (m_of >= 2) & (m_of <= pair_cap)
    a_rows, b_rows = segment_triu_rows(starts, ends, small_b)
    if len(a_rows):
        # bucket members are sorted ascending & distinct, so a < b holds
        out_a.append(docs[a_rows])
        out_b.append(docs[b_rows])
    # BIG buckets (m > pair_cap): star edges around a hub — rare by
    # construction (salting keeps buckets near salt_cap), so the loop only
    # visits the handful of oversized ones.
    for bi in np.flatnonzero(m_of > pair_cap):
        s, e = starts[bi], ends[bi]
        bucket = docs[s:e]  # sorted ascending, distinct
        # bounded hub diversity: 4 hub variants across bands/sub-buckets.
        # One shared hub risks isolation (see docstring); one hub PER
        # band inflates the deduped star-edge set ~num_bands-fold
        # (measured 1.02M -> 2.41M verified edges at 600k pages).  Four
        # gives isolation probability p^4 at ~3 extra edges per doc.
        hub_seed = np.uint64(keys[s]) % np.uint64(4)
        hub_pos = int(np.argmin(mix64(bucket.astype(U64) ^ hub_seed)))
        hub = bucket[hub_pos]
        rest = np.concatenate([bucket[:hub_pos], bucket[hub_pos + 1 :]])
        out_a.append(np.minimum(rest, hub))
        out_b.append(np.maximum(rest, hub))
    if not out_a:
        return pa.table(
            {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
        )
    return pa.table(
        {
            "a": pa.array(np.concatenate(out_a), type=pa.int64()),
            "b": pa.array(np.concatenate(out_b), type=pa.int64()),
        }
    )


def dedup_pairs_block(batch: pa.Table) -> pa.Table:
    """Global pair dedup over blocks that hold every copy of their pairs:
    the local plan's single block, or a hash partition after
    ``repartition(keys=["a","b"])``."""
    a = np.asarray(batch.column("a")).astype(np.int64)
    b = np.asarray(batch.column("b")).astype(np.int64)
    if len(a) == 0:
        return batch
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return pa.table(
        {"a": pa.array(a[first], type=pa.int64()), "b": pa.array(b[first], type=pa.int64())}
    )


_BAND_ROW_BYTES = 16  # int64 band_key + int64 doc_id
_PAIR_BYTES = 16  # int64 a + int64 b
# Largest band-row count at which both plans were timed and the local plan
# won: 20k pages x 32 bands (F1 corpus, seed 42, default DedupConfig, 2
# logical CPUs on a 4-vCPU VM).  There a near_dedup call took
# 9.7-12.8 s against 18.4-23.3 s on the two-shuffle plan, and the local map
# itself took 0.34 s: spreading it over more CPUs can save at most that,
# while the shuffle plan's engine overhead was seconds (4.5 s of a 4.6 s
# band stage at 3k pages).  At 100k pages the local plan also won at 2 CPUs
# (48.9 s against 80.6 s, same edges), but its single task grows with the
# corpus and was not timed against a 32-CPU shuffle, so larger corpora keep
# the shuffle plan.
_LOCAL_PLAN_MAX_BAND_ROWS = 640_000
# Peak heap of the local plan's one task, measured three ways:
# - per band-row byte on F1 corpora (Dataset.stats(), same box): 230 MiB at
#   20k pages (10.2 MB of band rows); 668 MiB at 100k pages (53.2 MB), i.e.
#   12.6x once the Python worker's fixed ~100-150 MiB stops dominating;
# - per byte of pairs emitted before dedup, on the worst pair shape
#   (pair_cap-doc clusters recurring as one bucket in all 32 bands, max RSS
#   of emit_pairs_block + dedup_pairs_block): 3.5-3.7x at 131k-524k rows.
_LOCAL_HEAP_PER_BAND_BYTE = 16
_LOCAL_HEAP_PER_PAIR_BYTE = 4
# - per byte of signatures (num_perm x 8 + sketch_cap x 8 per doc) held by
#   near_dedup's one-task back half (pipelines/neardup.py), its input blocks
#   mapped from the object store: peak RSS above a bare worker (118 MiB)
#   was 165 / 241 / 384 MiB at 3k / 10k / 20k F1 pages (15 / 51 / 102 MB
#   of signature bytes, 2 logical CPUs), i.e. 2.1-2.8x per added signature
#   byte, band rows and pairs included.
_LOCAL_HEAP_PER_SIG_BYTE = 3
# repartition(1) holds the input blocks and their one concatenated copy in
# the object store at once; keep both within half of it.
_LOCAL_STORE_SHARE = 0.25


def worst_case_pairs(rows: int, pair_cap: int) -> float:
    """Pairs ``rows`` band rows emit before dedup if every bucket held
    ``pair_cap`` docs and recurred in every band: a bucket of m <= pair_cap
    docs emits (m-1)/2 pairs per row, a bigger one (star edges) fewer than
    one."""
    return rows * max(pair_cap - 1, 2) / 2


def local_plan_budget(rows: int, *, pair_cap: int, sig_bytes: int = 0) -> dict:
    """Worst-case heap of one task holding ``rows`` band rows (salted rows
    counted twice) and ``sig_bytes`` of signatures, next to one CPU's share
    of Ray's ``memory`` resource; band bytes next to the object store."""
    import ray

    res = ray.cluster_resources()
    band_bytes = rows * _BAND_ROW_BYTES
    heap = (
        band_bytes * _LOCAL_HEAP_PER_BAND_BYTE
        + worst_case_pairs(rows, pair_cap) * _PAIR_BYTES * _LOCAL_HEAP_PER_PAIR_BYTE
        + sig_bytes * _LOCAL_HEAP_PER_SIG_BYTE
    )
    return {
        "heap_bytes": heap,
        "heap_per_cpu_bytes": res.get("memory", 0.0) / max(res.get("CPU", 1.0), 1.0),
        "band_bytes": band_bytes,
        "store_bytes": res.get("object_store_memory", 0.0),
    }


def fits_local_plan(
    band_rows: int, salted_rows: int = 0, *, pair_cap: int, sig_bytes: int = 0
) -> bool:
    """The gate between candidate_pairs' two plans, and the band half of the
    gate for near_dedup's one-task back half (which also holds ``sig_bytes``
    of signatures).  Salted rows count twice (each is emitted into two
    sub-buckets).  The local plan runs when
    - the rows are at most ``_LOCAL_PLAN_MAX_BAND_ROWS`` (where it was
      timed against the shuffle plan);
    - the task's worst-case heap (``local_plan_budget``) fits one CPU's
      share of Ray's ``memory`` resource: band bytes, the pairs of
      ``worst_case_pairs`` and the signature bytes, each times its measured
      factor;
    - the band bytes fit ``_LOCAL_STORE_SHARE`` of the object store."""
    rows = band_rows + salted_rows
    if rows > _LOCAL_PLAN_MAX_BAND_ROWS:
        return False
    b = local_plan_budget(rows, pair_cap=pair_cap, sig_bytes=sig_bytes)
    return (
        b["heap_bytes"] <= b["heap_per_cpu_bytes"]
        and b["band_bytes"] <= b["store_bytes"] * _LOCAL_STORE_SHARE
    )


def _local_pairs_block(batch: pa.Table, *, pair_cap: int, dedup: bool) -> pa.Table:
    """The local plan's one task: every band row of the corpus in one
    block, so each bucket is whole and every copy of a pair is at hand."""
    pairs = emit_pairs_block(batch, pair_cap=pair_cap)
    return dedup_pairs_block(pairs) if dedup else pairs


def hot_band_keys(
    sigs_ds, cfg: DedupConfig, num_partitions: int, approx_band_rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The hot-key pass: ``find_hot_band_keys`` over the unsalted band rows
    (``approx_band_rows`` picks its driver-merge plan)."""
    import functools

    plain = sigs_ds.map_batches(
        functools.partial(explode_bands, cfg=cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return find_hot_band_keys(plain, cfg, num_partitions, approx_rows=approx_band_rows)


def candidate_pairs(
    sigs_ds,
    cfg: DedupConfig,
    num_partitions: int,
    salt_hot: bool = True,
    dedup: bool = True,
    approx_band_rows: int | None = None,
    hot_keys: tuple[np.ndarray, np.ndarray] | None = None,
):
    """signatures -> candidate_pairs(a, b).

    Band rows are built the same way on both plans: ``explode_bands``, the
    hot-key pass when salting (``hot_band_keys``, unless the caller already
    ran it and passes its result as ``hot_keys``), then a salted re-explode.
    When ``approx_band_rows`` is given and ``fits_local_plan`` holds, the
    band rows go through ``repartition(1)`` into one block and one task
    emits the pairs and (with ``dedup=True``) drops cross-band duplicates —
    no hash shuffle.  Otherwise one hash shuffle on band_key feeds
    ``emit_pairs_block`` and, with ``dedup=True``, a second shuffle on
    (a, b) feeds ``dedup_pairs_block``.

    The flagship pipeline passes ``dedup=True``: deduplicating the narrow
    pair rows before the verify joins is far cheaper than dragging per-doc
    sketches through the joins once per duplicate (measured 6x join volume
    without it), and the zero-shuffle broadcast verify plan requires
    globally deduped pairs (its per-block kernel can only drop duplicates
    that share a block)."""
    import functools

    if hot_keys is None and salt_hot and cfg.salt_cap:
        hot_keys = hot_band_keys(sigs_ds, cfg, num_partitions, approx_band_rows)
    if hot_keys is not None and len(hot_keys[0]) == 0:
        hot_keys = None
    bands = sigs_ds.map_batches(
        functools.partial(explode_bands, cfg=cfg, hot_keys=hot_keys),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    salted_rows = 0 if hot_keys is None else int(hot_keys[1].sum())
    if approx_band_rows is not None and fits_local_plan(
        approx_band_rows, salted_rows, pair_cap=cfg.pair_cap
    ):
        return bands.repartition(1).map_batches(
            functools.partial(_local_pairs_block, pair_cap=cfg.pair_cap, dedup=dedup),
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    pairs = bands.repartition(num_blocks=num_partitions, keys=["band_key"]).map_batches(
        functools.partial(emit_pairs_block, pair_cap=cfg.pair_cap),
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if not dedup:
        return pairs
    return pairs.repartition(num_blocks=num_partitions, keys=["a", "b"]).map_batches(
        dedup_pairs_block,
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
