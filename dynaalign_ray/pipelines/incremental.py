"""Incremental near-dup — dedup a NEW batch of documents against a
persisted index of an already-deduplicated base corpus, without touching
the base corpus text (the recrawl scenario: each Common-Crawl-style
snapshot adds a few percent new pages; re-running the full O(corpus) job
per snapshot is exactly what this avoids).

This extends the reference's batch-only ``clusterbreak`` flow
(/root/reference/R/clusterbreak.R:180-275) with the state the distributed
setting needs: the index persists each doc's MinHash signature and bottom-k
sketch (a few hundred bytes/doc — the TEXT is never stored or re-read) plus
the cluster assignment, and a new batch is probed with the SAME band keys:

    index: signatures/ (doc_id, minhash, simhash, n_shingles, sketch)
           clusters/   (doc_id, cluster_id)
           meta.json   {config_hash, n_docs}
    probe: new docs -> signatures -> band explode on BOTH sides
           -> keyed shuffle on band_key
           -> per-bucket pair emission restricted to pairs with >=1 NEW doc
              (old-old pairs were already resolved when the index was built)
           -> exact-Jaccard verify over the union sketch table
           -> old endpoints collapsed to their existing cluster label
           -> connected components over the delta graph
           -> new-doc assignments + old-cluster merge remap

Label semantics are stable under composition: base labels are component-min
doc ids, and the merged label is min(new ids, old labels) — which IS the
min doc id of the merged component, so chaining batches yields the same
labels as one full run at the same candidate set (pytest proves equality on
an uncapped fixture corpus).

Scale notes: the only per-snapshot cost touching the base corpus is a
columnar read of its signature table (no text, pruned columns), the band
shuffle carries (band_key, doc_id, is_new) rows, and the old->label
collapse is two partitioned hash joins on the (small) delta edge set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.exec import broadcast_put, configure_context, pick_num_partitions


@dataclass
class IncrementalResult:
    new_clusters: Any  # Dataset(doc_id, cluster_id, keep, duplicate_of) — new docs only
    merges: Any  # pa.Table(old_cluster_id, merged_cluster_id) — old clusters joined by a new doc
    edges: Any  # Dataset(a, b, jaccard) — verified delta edges (new-new, new-old)
    new_signatures: Any  # Dataset — signature rows of the new batch
    stats: dict = field(default_factory=dict)


def build_index(
    docs_ds,
    cfg: DedupConfig = DedupConfig(),
    *,
    index_dir: str,
    num_partitions: int | None = None,
) -> dict:
    """Full near_dedup over the base corpus, then persist the probe state:
    signatures + clusters as partitioned Parquet, config hash in meta.json.
    Returns the meta dict."""
    from dynaalign_ray.pipelines.neardup import near_dedup

    configure_context()
    P = num_partitions or pick_num_partitions(None)
    res = near_dedup(docs_ds=docs_ds, cfg=cfg, num_partitions=P)
    os.makedirs(index_dir, exist_ok=True)
    res.signatures.write_parquet(os.path.join(index_dir, "signatures"))
    res.clusters.select_columns(["doc_id", "cluster_id"]).write_parquet(
        os.path.join(index_dir, "clusters")
    )
    n_docs = res.signatures.count()
    meta = {"config_hash": cfg.config_hash(), "n_docs": n_docs}
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def emit_incremental_pairs_block(batch: pa.Table, *, pair_cap: int) -> pa.Table:
    """Per-bucket candidate emission restricted to pairs involving >=1 new
    doc.  Buckets with no new member emit NOTHING — old-old similarity is
    already encoded in the index clusters, so at a 2% snapshot delta this
    skips ~96% of the pair volume a full rerun would emit.

    Cap behavior mirrors stages/bands.emit_pairs_block: full
    new-new x new-old emission while it fits ``pair_cap``, else a star
    around one hub — an OLD member when present (its cluster label anchors
    the component to the existing index), chosen by the same
    ``mix64(doc ^ (band_key % 4))`` bounded-diversity rule."""
    from dynaalign_ray.hashing import U64, mix64

    empty = pa.table(
        {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
    )
    keys = np.asarray(batch.column("band_key")).astype(np.int64)
    docs = np.asarray(batch.column("doc_id")).astype(np.int64)
    is_new = np.asarray(batch.column("is_new")).astype(bool)
    if len(keys) == 0:
        return empty
    order = np.lexsort((docs, keys))
    keys, docs, is_new = keys[order], docs[order], is_new[order]
    # drop (band_key, doc_id) duplicates (salted double-emission); a doc is
    # on exactly one side, so the kept flag is the doc's flag
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]) | (docs[1:] != docs[:-1])
    keys, docs, is_new = keys[first], docs[first], is_new[first]
    boundary = np.ones(len(keys), dtype=bool)
    boundary[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(keys))
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for s, e in zip(starts, ends):
        flags = is_new[s:e]
        m_new = int(flags.sum())
        if m_new == 0 or (e - s) < 2:
            continue
        bucket = docs[s:e]
        new = bucket[flags]
        old = bucket[~flags]
        m_old = len(old)
        n_pairs = m_new * (m_new - 1) // 2 + m_new * m_old
        if n_pairs <= pair_cap:
            if m_new >= 2:
                ai, bi = np.triu_indices(m_new, k=1)
                out_a.append(new[ai])
                out_b.append(new[bi])
            if m_old:
                cross_new = np.repeat(new, m_old)
                cross_old = np.tile(old, m_new)
                out_a.append(np.minimum(cross_new, cross_old))
                out_b.append(np.maximum(cross_new, cross_old))
        else:
            hub_seed = np.uint64(keys[s]) % np.uint64(4)
            pool = old if m_old else new
            hub = pool[int(np.argmin(mix64(pool.astype(U64) ^ hub_seed)))]
            rest = new[new != hub]
            if len(rest):
                out_a.append(np.minimum(rest, hub))
                out_b.append(np.maximum(rest, hub))
    if not out_a:
        return empty
    return pa.table(
        {
            "a": pa.array(np.concatenate(out_a), type=pa.int64()),
            "b": pa.array(np.concatenate(out_b), type=pa.int64()),
        }
    )


_ENDPOINT_BROADCAST_LIMIT = 50_000_000  # distinct delta endpoints (int64 pairs)


def _endpoint_label_map(edges_ds, clusters_ds) -> tuple[np.ndarray, np.ndarray]:
    """(sorted endpoint ids, their index cluster labels) for every delta-edge
    endpoint that exists in the index.

    Plan: the delta endpoint set is tiny relative to the corpus, so it is
    collected (ints only), broadcast via ray.put, and the corpus-sized
    cluster table is scanned ONCE block-wise — each block returns only its
    hits.  No shuffle of the index ever happens (a hash join here would
    shuffle the full cluster table per probed snapshot).  Gate: past
    ``_ENDPOINT_BROADCAST_LIMIT`` distinct endpoints the probe batch is no
    longer 'a snapshot delta'; the caller (:func:`incremental_dedup`)
    switches to :func:`_collapse_endpoints_hashjoin` BEFORE this collect
    happens — the raise here is a backstop for direct callers."""
    import ray

    parts = [
        np.asarray(t.column(c)).astype(np.int64)
        for t in (
            ray.get(r)
            for r in edges_ds.select_columns(["a", "b"]).materialize().to_arrow_refs()
        )
        for c in ("a", "b")
        if t.num_rows
    ]
    nodes = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
    if len(nodes) > _ENDPOINT_BROADCAST_LIMIT:
        raise NotImplementedError(
            f"{len(nodes)} distinct delta endpoints exceed the broadcast "
            "limit; partition the probe batch, or swap this stage for two "
            "joins.hash_join calls on (a) and (b)"
        )
    nodes_ref = broadcast_put(nodes)

    def probe(batch: pa.Table) -> pa.Table:
        wanted = ray.get(nodes_ref)
        ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        if len(wanted) == 0 or len(ids) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "cluster_id": pa.array([], pa.int64())}
            )
        pos = np.minimum(np.searchsorted(wanted, ids), len(wanted) - 1)
        hit = wanted[pos] == ids
        return pa.table(
            {"doc_id": batch.column("doc_id").filter(pa.array(hit)),
             "cluster_id": batch.column("cluster_id").filter(pa.array(hit))}
        )

    hits = [
        t
        for t in (
            ray.get(r)
            for r in clusters_ds.map_batches(
                probe, batch_format="pyarrow", zero_copy_batch=True
            ).materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    if not hits:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    merged = pa.concat_tables(hits)
    ids = np.asarray(merged.column("doc_id")).astype(np.int64)
    lbl = np.asarray(merged.column("cluster_id")).astype(np.int64)
    order = np.argsort(ids)
    return ids[order], lbl[order]


def _collapse_endpoints(edges_ds, id_map: tuple[np.ndarray, np.ndarray]):
    """Replace old-doc endpoints by their index label (misses = new docs
    keep their id); one broadcast lookup per block, both columns at once."""
    import ray

    map_ref = broadcast_put(id_map)

    def collapse(batch: pa.Table) -> pa.Table:
        ids, lbl = ray.get(map_ref)
        out = {}
        for col in ("a", "b"):
            v = np.asarray(batch.column(col)).astype(np.int64)
            if len(ids) and len(v):
                pos = np.minimum(np.searchsorted(ids, v), len(ids) - 1)
                hit = ids[pos] == v
                v = v.copy()
                v[hit] = lbl[pos[hit]]
            out[col] = pa.array(v, type=pa.int64())
        out["jaccard"] = batch.column("jaccard")
        return pa.table(out)

    return edges_ds.map_batches(collapse, batch_format="pyarrow", zero_copy_batch=True)


def _collapse_endpoints_hashjoin(edges_ds, clusters_ds, num_partitions: int):
    """Partitioned form of endpoint collapse — the past-the-gate plan: two
    ``joins.hash_join`` passes (LEFT OUTER on ``a`` then on ``b``) against
    the index cluster table, coalescing the matched label over the raw id.
    Shuffles the cluster table twice (acceptable when the delta itself is
    too big to broadcast); output is row-for-row identical to the broadcast
    plan up to ordering."""
    import pyarrow.compute as pc

    from dynaalign_ray.joins import hash_join

    def coalesce(col: str, lbl: str):
        def f(batch: pa.Table) -> pa.Table:
            out = {}
            for name in batch.column_names:
                if name == lbl:
                    continue
                if name == col:
                    out[name] = pc.coalesce(
                        pc.cast(batch.column(lbl), pa.int64()),
                        pc.cast(batch.column(col), pa.int64()),
                    )
                else:
                    out[name] = batch.column(name)
            return pa.table(out)

        return f

    edges_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("jaccard", pa.float64())]
    )

    def rename_clusters(lbl: str):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {"doc_id": batch.column("doc_id"), lbl: batch.column("cluster_id")}
            )

        return f

    step1 = hash_join(
        edges_ds,
        clusters_ds.map_batches(
            rename_clusters("a_lbl"), batch_format="pyarrow", zero_copy_batch=True
        ),
        left_on="a",
        right_on="doc_id",
        left_schema=edges_schema,
        right_schema=pa.schema([("doc_id", pa.int64()), ("a_lbl", pa.int64())]),
        num_partitions=num_partitions,
        how="left outer",
    ).map_batches(coalesce("a", "a_lbl"), batch_format="pyarrow", zero_copy_batch=True)
    step2 = hash_join(
        step1,
        clusters_ds.map_batches(
            rename_clusters("b_lbl"), batch_format="pyarrow", zero_copy_batch=True
        ),
        left_on="b",
        right_on="doc_id",
        left_schema=edges_schema,
        right_schema=pa.schema([("doc_id", pa.int64()), ("b_lbl", pa.int64())]),
        num_partitions=num_partitions,
        how="left outer",
    ).map_batches(coalesce("b", "b_lbl"), batch_format="pyarrow", zero_copy_batch=True)
    return step2.select_columns(["a", "b", "jaccard"])


def incremental_dedup(
    new_docs_ds,
    *,
    index_dir: str,
    cfg: DedupConfig = DedupConfig(),
    num_partitions: int | None = None,
) -> IncrementalResult:
    """Probe a new batch against the persisted index (see module docstring).

    ``new_docs_ds`` must carry (doc_id, text); doc ids must not collide
    with the index (the caller's id scheme — url hashes — guarantees it).

    Delta endpoints are collapsed to index labels by broadcasting the
    endpoint set while it fits ``_ENDPOINT_BROADCAST_LIMIT`` — decided from
    the edge count, so nothing oversize is ever collected — else by two
    partitioned hash joins against the cluster table."""
    import functools

    import ray.data as rd

    from dynaalign_ray.stages.bands import (
        dedup_pairs_block,
        explode_bands,
        find_hot_band_keys,
    )
    from dynaalign_ray.stages.cluster import assign_clusters, connected_components
    from dynaalign_ray.stages.minhash import signatures_dataset
    from dynaalign_ray.stages.verify import verified_edges

    configure_context()
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    if meta["config_hash"] != cfg.config_hash():
        raise ValueError(
            "index was built with a different DedupConfig "
            f"({meta['config_hash']} != {cfg.config_hash()}); band keys and "
            "sketches would not be comparable — rebuild the index"
        )
    P = num_partitions or pick_num_partitions(meta.get("n_docs"))

    old_sigs = rd.read_parquet(os.path.join(index_dir, "signatures"))
    clusters_ds = rd.read_parquet(
        os.path.join(index_dir, "clusters"), columns=["doc_id", "cluster_id"]
    )
    new_sigs = signatures_dataset(new_docs_ds, cfg).materialize()

    def tag(side: int):
        def add(batch: pa.Table) -> pa.Table:
            t = explode_bands(batch, cfg=cfg)
            return t.append_column(
                "is_new", pa.array(np.full(t.num_rows, bool(side)), type=pa.bool_())
            )

        return add

    bands = old_sigs.map_batches(
        tag(0), batch_format="pyarrow", zero_copy_batch=True
    ).union(new_sigs.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True))

    if cfg.salt_cap:
        # hot-bucket handling matters here too (the union bucket is what
        # explodes); counting runs on the UNION band table.  Salted
        # re-emission needs the hot-key set on both sides.
        hot = find_hot_band_keys(bands, cfg, P, approx_rows=None)
        if len(hot[0]):
            def tag_hot(side: int):
                def add(batch: pa.Table) -> pa.Table:
                    t = explode_bands(batch, cfg=cfg, hot_keys=hot)
                    return t.append_column(
                        "is_new",
                        pa.array(np.full(t.num_rows, bool(side)), type=pa.bool_()),
                    )

                return add

            bands = old_sigs.map_batches(
                tag_hot(0), batch_format="pyarrow", zero_copy_batch=True
            ).union(
                new_sigs.map_batches(
                    tag_hot(1), batch_format="pyarrow", zero_copy_batch=True
                )
            )

    pairs = (
        bands.repartition(num_blocks=P, keys=["band_key"])
        .map_batches(
            functools.partial(emit_incremental_pairs_block, pair_cap=cfg.pair_cap),
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .repartition(num_blocks=P, keys=["a", "b"])
        .map_batches(
            dedup_pairs_block,
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )

    union_sigs = old_sigs.union(new_sigs)
    edges = verified_edges(
        pairs, union_sigs, cfg, P, approx_pairs=pairs.count()
    ).materialize()

    # collapse old endpoints to their index cluster label (ONE columnar scan
    # of the cluster table against the broadcast delta endpoint set — never
    # a shuffle of the index); drop edges that fall inside one existing
    # cluster (already merged)
    import pyarrow.compute as pc

    # 2 * edge count bounds the distinct endpoint count; metadata-cheap on
    # the materialized edge set, and decided BEFORE any collect
    if 2 * edges.count() > _ENDPOINT_BROADCAST_LIMIT:
        mapped_raw = _collapse_endpoints_hashjoin(edges, clusters_ds, P)
    else:
        id_map = _endpoint_label_map(edges, clusters_ds)
        mapped_raw = _collapse_endpoints(edges, id_map)
    mapped = mapped_raw.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b.column("a"), b.column("b")))),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    labels, cc_info = connected_components(
        mapped, P, cfg.max_cc_rounds, cfg.small_cc_limit
    )
    labels_table = cc_info.pop("labels_table", None)
    new_clusters = assign_clusters(
        new_sigs.select_columns(["doc_id"]), labels, P, labels_table=labels_table
    )

    # old-cluster remap: CC nodes that are old labels and moved to a smaller
    # merged label.  Node set of `mapped` = new doc ids + old cluster ids,
    # so (node != label) rows restricted to old-cluster nodes are exactly
    # the merges.  The delta graph is small by construction (it only ever
    # holds nodes touched by the new batch), so the driver union-find path
    # supplies labels_table; on the distributed path the labels dataset is
    # collected — it is still delta-sized, never corpus-sized.
    if labels_table is None:
        from dynaalign_ray.joins import collect_arrow

        labels_table = collect_arrow(labels)
    moved = labels_table.filter(
        pc.invert(pc.equal(labels_table.column("node"), labels_table.column("label")))
    )
    node_arr = np.asarray(moved.column("node")).astype(np.int64)
    # which moved nodes are existing cluster ids?  The moved set is tiny:
    # broadcast it and probe the (corpus-sized) cluster table block-wise,
    # returning only the hits.
    import ray

    moved_ref = broadcast_put(np.unique(node_arr))

    def member_partial(batch: pa.Table) -> pa.Table:
        wanted = ray.get(moved_ref)
        vals = np.asarray(batch.column("cluster_id")).astype(np.int64)
        if len(wanted) == 0 or len(vals) == 0:
            return pa.table({"cluster_id": pa.array([], type=pa.int64())})
        pos = np.minimum(np.searchsorted(wanted, vals), len(wanted) - 1)
        hit = wanted[pos] == vals
        return pa.table(
            {"cluster_id": pa.array(np.unique(vals[hit]), type=pa.int64())}
        )

    hit_tables = [
        t
        for t in (
            ray.get(r)
            for r in clusters_ds.select_columns(["cluster_id"])
            .map_batches(member_partial, batch_format="pyarrow", zero_copy_batch=True)
            .materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    old_label_set = (
        np.unique(
            np.concatenate(
                [np.asarray(t.column("cluster_id")).astype(np.int64) for t in hit_tables]
            )
        )
        if hit_tables
        else np.empty(0, np.int64)
    )
    if len(old_label_set):
        pos = np.minimum(np.searchsorted(old_label_set, node_arr), len(old_label_set) - 1)
        is_old = old_label_set[pos] == node_arr
    else:
        is_old = np.zeros(len(node_arr), dtype=bool)
    merges = pa.table(
        {
            "old_cluster_id": pa.array(node_arr[is_old], type=pa.int64()),
            "merged_cluster_id": moved.column("label").take(
                pa.array(np.flatnonzero(is_old))
            ),
        }
    )

    stats = {"cc": cc_info, "n_pairs": pairs.count(), "num_partitions": P}
    return IncrementalResult(
        new_clusters=new_clusters,
        merges=merges,
        edges=edges,
        new_signatures=new_sigs,
        stats=stats,
    )


def update_index(
    index_dir: str, result: IncrementalResult, out_dir: str, cfg: DedupConfig
) -> dict:
    """Fold an incremental result into a NEW index directory (copy-on-write:
    the old index stays valid for readers; a failed update is re-runnable).
    Signatures append; old clusters are remapped through the merge table;
    new-doc assignments append."""
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    configure_context()
    os.makedirs(out_dir, exist_ok=True)
    old_sigs = rd.read_parquet(os.path.join(index_dir, "signatures"))
    old_clusters = rd.read_parquet(os.path.join(index_dir, "clusters"))
    old_sigs.union(result.new_signatures).write_parquet(
        os.path.join(out_dir, "signatures")
    )

    merge_ref = broadcast_put(result.merges)

    def remap(batch: pa.Table) -> pa.Table:
        m = ray.get(merge_ref)
        if m.num_rows == 0:
            return batch
        src = np.asarray(m.column("old_cluster_id")).astype(np.int64)
        dst = np.asarray(m.column("merged_cluster_id")).astype(np.int64)
        order = np.argsort(src)
        src, dst = src[order], dst[order]
        cid = np.asarray(batch.column("cluster_id")).astype(np.int64)
        pos = np.minimum(np.searchsorted(src, cid), len(src) - 1)
        hit = src[pos] == cid
        out = cid.copy()
        out[hit] = dst[pos[hit]]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "cluster_id": pa.array(out, type=pa.int64()),
            }
        )

    remapped = old_clusters.map_batches(
        remap, batch_format="pyarrow", zero_copy_batch=True
    )
    remapped.union(
        result.new_clusters.select_columns(["doc_id", "cluster_id"])
    ).write_parquet(os.path.join(out_dir, "clusters"))
    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    meta["n_docs"] = meta["n_docs"] + result.new_signatures.count()
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta
