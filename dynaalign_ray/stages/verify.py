"""Pair verification — exact Jaccard on retained shingle sketches.

The reference estimates similarity as the fraction of matching signature
slots (/root/reference/src/minHash.cpp:160-178); we keep that estimator
available (``signature_estimate``) for parity, but the keep/drop decision
uses exact Jaccard on the docs' retained (bottom-k) shingle sets — the
verify step the north star requires.  Sketches reach the pair rows through
two hash joins on doc_id (no all-pairs materialization anywhere).
"""

from __future__ import annotations

from dynaalign_ray.exec import broadcast_put

import numpy as np
import pyarrow as pa

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.shingles import jaccard_from_sketches


def _pairwise_jaccard(
    va: np.ndarray,
    sa: np.ndarray,
    ea: np.ndarray,
    vb: np.ndarray,
    sb: np.ndarray,
    eb: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Per-pair Jaccard over CSR sketch slices.  Prefers the compiled
    merge-intersect kernel (ckernels, ~20x the Python dispatch path at
    realistic sketch sizes); falls back to the per-pair numpy loop with
    identical semantics when no C compiler is available."""
    from dynaalign_ray import ckernels

    jac = ckernels.jaccard_batch(va, sa, ea, vb, sb, eb, cap)
    if jac is not None:
        return jac
    n = len(sa)
    jac = np.empty(n, dtype=np.float64)
    for i in range(n):
        jac[i] = jaccard_from_sketches(va[sa[i] : ea[i]], vb[sb[i] : eb[i]], cap)
    return jac


def _sketch_arrays(col) -> tuple[np.ndarray, np.ndarray]:
    """binary sketch column (LE-uint64 blobs) -> (flat values, element
    offsets) numpy views, zero-copy off the Arrow buffers."""
    from dynaalign_ray.shingles import varlen_offsets

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    byte_offsets = varlen_offsets(arr)  # int32 or int64 per the Arrow type
    values = np.frombuffer(arr.buffers()[2], dtype="<u8")
    return values, byte_offsets // 8


def build_sketch_csr(
    parts: list, id_col: str = "doc_id", sketch_col: str = "sketch"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(doc_id, sketch) Arrow tables -> a doc_id-sorted lookup CSR
    ``(ids_sorted, starts, ends, values)``.

    The build stays O(bytes) memcpy: values are concatenated ONCE in
    arrival order and never element-gathered; lookups go through a
    row-indirection map (ids sorted, rows not), so the only per-doc work
    is an argsort over the ids, not a value shuffle.  Shared by the
    broadcast verify plan and the exact all-pairs Jaccard query."""
    if not parts:
        e = np.empty(0, np.int64)
        return e, e, e, np.empty(0, np.uint64)
    ids = np.concatenate(
        [np.asarray(t.column(id_col)).astype(np.int64) for t in parts]
    )
    starts_l, ends_l, vals_l = [], [], []
    base = 0
    for t in parts:
        v, o = _sketch_arrays(t.column(sketch_col))
        o64 = o.astype(np.int64)
        starts_l.append(o64[:-1] + base)
        ends_l.append(o64[1:] + base)
        vals_l.append(v)
        base += len(v)
    order = np.argsort(ids, kind="stable")
    return (
        ids[order],
        np.concatenate(starts_l)[order],
        np.concatenate(ends_l)[order],
        np.concatenate(vals_l),
    )


def verify_pairs_csr(
    aa: np.ndarray, bb: np.ndarray, csr: tuple, cfg: DedupConfig
) -> pa.Table:
    """Deduplicated pairs (a, b) + a ``build_sketch_csr`` lookup -> verified
    (a, b, jaccard) rows with jaccard >= tau: each pair's two sketch slices
    are found by ``searchsorted`` on the CSR's sorted ids and intersected in
    place, so no sketch byte is copied per pair.  A pair with an id missing
    from the CSR is dropped instead of reading a neighbour's sketch."""
    ids_s, starts_s, ends_s, vals_s = csr
    if len(aa) and len(ids_s):
        ra = np.searchsorted(ids_s, aa)
        rb = np.searchsorted(ids_s, bb)
        np.clip(ra, 0, len(ids_s) - 1, out=ra)
        np.clip(rb, 0, len(ids_s) - 1, out=rb)
        ok = (ids_s[ra] == aa) & (ids_s[rb] == bb)
        if not ok.all():
            aa, bb, ra, rb = aa[ok], bb[ok], ra[ok], rb[ok]
        jac = _pairwise_jaccard(
            vals_s, starts_s[ra], ends_s[ra], vals_s, starts_s[rb], ends_s[rb],
            cfg.sketch_cap,
        )
        keep = jac >= cfg.tau
        aa, bb, jac = aa[keep], bb[keep], jac[keep]
    else:
        aa = bb = np.empty(0, dtype=np.int64)
        jac = np.empty(0, dtype=np.float64)
    return pa.table(
        {
            "a": pa.array(aa, type=pa.int64()),
            "b": pa.array(bb, type=pa.int64()),
            "jaccard": pa.array(jac, type=pa.float64()),
        }
    )


def verify_pairs_batch(batch: pa.Table, *, cfg: DedupConfig) -> pa.Table:
    """(a, b, sketch_a, sketch_b) -> verified (a, b, jaccard) rows with
    jaccard >= tau."""
    n = batch.num_rows
    if n == 0:
        return pa.table(
            {
                "a": pa.array([], type=pa.int64()),
                "b": pa.array([], type=pa.int64()),
                "jaccard": pa.array([], type=pa.float64()),
            }
        )
    # drop cross-band duplicate pairs: the upstream join partitions on `b`,
    # so every copy of (a, b) lands in this block (saves the dedicated
    # pair-dedup shuffle)
    aa = np.asarray(batch.column("a")).astype(np.int64)
    bb = np.asarray(batch.column("b")).astype(np.int64)
    order = np.lexsort((bb, aa))
    uniq = np.ones(n, dtype=bool)
    uniq[1:] = (aa[order][1:] != aa[order][:-1]) | (bb[order][1:] != bb[order][:-1])
    if not uniq.all():
        batch = batch.take(pa.array(order[uniq]))
        n = batch.num_rows
    va, oa = _sketch_arrays(batch.column("sketch_a"))
    vb, ob = _sketch_arrays(batch.column("sketch_b"))
    oa64 = oa.astype(np.int64, copy=False)
    ob64 = ob.astype(np.int64, copy=False)
    jac = _pairwise_jaccard(
        va, oa64[:-1], oa64[1:], vb, ob64[:-1], ob64[1:], cfg.sketch_cap
    )
    keep = jac >= cfg.tau
    return pa.table(
        {
            "a": pa.array(np.asarray(batch.column("a"))[keep], type=pa.int64()),
            "b": pa.array(np.asarray(batch.column("b"))[keep], type=pa.int64()),
            "jaccard": pa.array(jac[keep], type=pa.float64()),
        }
    )


_SEMI_JOIN_LIMIT = 20_000_000  # pair rows under which the pair-doc set fits the driver
_BROADCAST_SKETCH_BYTES = 16 << 30  # sketch-CSR bytes under which the filtered
# sketch table is broadcast (plasma is shared memory: ONE zero-copy replica
# per node — 16 GB is well inside a worker node's object store and is read,
# not copied, by every verify task) and verify needs NO shuffle and no
# joins: the CSR is gathered by searchsorted per pairs block.  The
# doc-count gate derives from this budget and the sketch cap (~4.2M docs at
# cap 512).  Past it, the join plans take over — and they attach sketch
# BYTES to pair rows (~44 GB through the object store at 2M pages), so
# prefer raising this toward node plasma capacity over falling to plan 2
# early.


def broadcast_doc_limit(cfg: DedupConfig) -> int:
    """Most docs whose worst-case sketch CSR fits ``_BROADCAST_SKETCH_BYTES``
    (read at call time, so a caller can force the join plans)."""
    return _BROADCAST_SKETCH_BYTES // (cfg.sketch_cap * 8 + 24)


def verified_edges(
    pairs_ds,
    sigs_ds,
    cfg: DedupConfig,
    num_partitions: int,
    approx_pairs: int | None = None,
    pairs_deduped: bool = True,
):
    """candidate_pairs ⋈ signatures (×2, on doc_id) -> verify kernel.

    Three physical plans, picked by candidate-set size:
    1. pair-member sketch CSR <= _BROADCAST_SKETCH_BYTES: the semi-join-
       filtered (doc_id, sketch) rows are broadcast as one doc_id-sorted
       numpy CSR and every pairs block verifies by searchsorted row lookup —
       zero shuffles, zero joins, no sketch byte ever copied per pair.
       Requires globally deduplicated pairs (``pairs_deduped=True``): this
       plan applies no shuffle, so cross-block duplicate (a, b) copies
       would survive as duplicate edges;
    2. pairs <= _SEMI_JOIN_LIMIT: two hash joins, sketch side semi-join
       reduced to pair-member docs (the second join partitions on ``b``,
       colocating any duplicates for the in-kernel drop);
    3. otherwise (the 100 TB path): two full hash joins of the narrow
       (doc_id, sketch) projection (SURVEY.md §7 hard part 4).
    """
    import functools

    from dynaalign_ray.joins import hash_join

    pair_doc_ref = None
    pair_docs = None
    if approx_pairs is not None and approx_pairs <= _SEMI_JOIN_LIMIT:
        import ray

        # per-block distinct BEFORE the driver merge: the driver sees one
        # small sorted id array per block, not every pair row (the dup-heavy
        # blocks collapse remotely; keeps this serial phase tiny — Amdahl)
        def block_ids(batch: pa.Table) -> pa.Table:
            u = np.unique(
                np.concatenate(
                    [
                        np.asarray(batch.column("a")).astype(np.int64),
                        np.asarray(batch.column("b")).astype(np.int64),
                    ]
                )
            )
            return pa.table({"doc_id": pa.array(u, type=pa.int64())})

        refs = pairs_ds.select_columns(["a", "b"]).map_batches(
            block_ids, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        ).materialize().to_arrow_refs()
        parts = [
            np.asarray(t.column("doc_id")).astype(np.int64)
            for t in (ray.get(r) for r in refs)
            if t.num_rows
        ]
        pair_docs = (
            np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        )
        pair_doc_ref = broadcast_put(pair_docs)

    if (
        pairs_deduped
        and pair_docs is not None
        and len(pair_docs) <= broadcast_doc_limit(cfg)
    ):
        return _broadcast_verify(pairs_ds, sigs_ds, cfg, pair_doc_ref, pair_docs)

    def _sk(name):
        def project(batch: pa.Table) -> pa.Table:
            tbl = pa.table(
                {"doc_id": batch.column("doc_id"), name: batch.column("sketch")}
            )
            if pair_doc_ref is not None:
                import ray

                wanted = ray.get(pair_doc_ref)
                if len(wanted) == 0:
                    return tbl.slice(0, 0)
                ids_np = np.asarray(tbl.column("doc_id")).astype(np.int64)
                pos = np.minimum(np.searchsorted(wanted, ids_np), len(wanted) - 1)
                tbl = tbl.filter(pa.array(wanted[pos] == ids_np))
            return tbl

        return sigs_ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    pairs_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    ska_schema = pa.schema([("doc_id", pa.int64()), ("sketch_a", pa.binary())])
    skb_schema = pa.schema([("doc_id", pa.int64()), ("sketch_b", pa.binary())])
    j1 = hash_join(
        pairs_ds,
        _sk("sketch_a"),
        left_on="a",
        right_on="doc_id",
        left_schema=pairs_schema,
        right_schema=ska_schema,
        num_partitions=num_partitions,
    )
    j1_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("sketch_a", pa.binary())])
    j2 = hash_join(
        j1,
        _sk("sketch_b"),
        left_on="b",
        right_on="doc_id",
        left_schema=j1_schema,
        right_schema=skb_schema,
        num_partitions=num_partitions,
    )
    return j2.map_batches(
        functools.partial(verify_pairs_batch, cfg=cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _broadcast_verify(pairs_ds, sigs_ds, cfg: DedupConfig, pair_doc_ref, pair_docs):
    """Zero-shuffle, zero-join verify: collect the semi-join-filtered
    (doc_id, sketch) rows (pair-member docs only) into ONE doc_id-sorted CSR
    — (ids, element offsets, flat uint64 values) numpy arrays — ``ray.put``
    once (plasma: one zero-copy replica per node), and have every pairs
    block look its (a, b) rows up by ``searchsorted`` and intersect the
    sketch slices in place.  Unlike the join plans, NO sketch byte is ever
    shuffled or copied into pair rows — per-pair traffic is 16 bytes.
    Requires globally deduplicated pairs (no shuffle happens here, so
    duplicate (a, b) copies in different blocks would both survive)."""
    import functools

    import ray

    def project_filtered(batch: pa.Table) -> pa.Table:
        wanted = ray.get(pair_doc_ref)
        tbl = pa.table(
            {"doc_id": batch.column("doc_id"), "sketch": batch.column("sketch")}
        )
        if len(wanted) == 0:
            return tbl.slice(0, 0)
        ids_np = np.asarray(tbl.column("doc_id")).astype(np.int64)
        pos = np.minimum(np.searchsorted(wanted, ids_np), len(wanted) - 1)
        return tbl.filter(pa.array(wanted[pos] == ids_np))

    refs = sigs_ds.map_batches(
        project_filtered, batch_format="pyarrow", zero_copy_batch=True
    ).materialize().to_arrow_refs()
    parts = [t for t in (ray.get(r) for r in refs) if t.num_rows]
    sk_ref = broadcast_put(build_sketch_csr(parts))

    def verify_block(batch: pa.Table, *, cfg: DedupConfig) -> pa.Table:
        aa = bb = np.empty(0, dtype=np.int64)
        if batch.num_rows:  # an empty block may come without a schema
            aa = np.asarray(batch.column("a")).astype(np.int64)
            bb = np.asarray(batch.column("b")).astype(np.int64)
        return verify_pairs_csr(aa, bb, ray.get(sk_ref), cfg)  # zero-copy plasma read

    return pairs_ds.map_batches(
        functools.partial(verify_block, cfg=cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
