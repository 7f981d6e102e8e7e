"""Training-data curation pipelines over the driver ``documents`` /
``embeddings`` tables (TESTDATA.md) — the operator surface a large-scale
curation pipeline needs: exact/normalized/near dedup, SimHash and substring
dedup, text statistics, language ID, fingerprints, shingle statistics, and
similarity search.  Each function takes ``sf_dir`` and returns a result the
driver can compare (column names match the oracle SQL in __ray_entry__)."""

from __future__ import annotations

from dynaalign_ray.exec import broadcast_put

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.shingles import list_matrix


def _docs(sf_dir: str, columns=None):
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()  # datasets capture the DataContext at creation
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_exact_dedup(sf_dir: str, num_partitions: int = 8):
    """(doc_id=min per identical text, n_dups) — the distinct() analog."""
    from dynaalign_ray.stages.dedup import exact_dedup_groups

    groups = exact_dedup_groups(
        _docs(sf_dir, ["doc_id", "text"]), num_partitions
    )
    return groups.select_columns(["doc_id", "n_dups"])


def doc_norm_dedup(sf_dir: str, num_partitions: int = 8):
    """Dedup on lower+whitespace-collapsed text."""
    from dynaalign_ray.stages.dedup import exact_dedup_groups

    groups = exact_dedup_groups(
        _docs(sf_dir, ["doc_id", "text"]), num_partitions, normalize=True
    )
    return groups.select_columns(["doc_id", "n_dups"])


def doc_token_counts(sf_dir: str):
    from dynaalign_ray.functions.textstats import token_count_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_lang_stats(sf_dir: str, num_partitions: int = 8):
    from ray.data.aggregate import Count, Sum

    ds = _docs(sf_dir, ["lang", "n_chars"])
    agg = ds.groupby("lang", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"),
    )

    from dynaalign_ray.pipelines.relational import round4

    def finish(batch: pa.Table) -> pa.Table:
        total = np.asarray(batch.column("total_chars"), dtype=np.float64)
        n = np.asarray(batch.column("n_docs"), dtype=np.float64)
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_docs": batch.column("n_docs"),
                "total_chars": batch.column("total_chars").cast(pa.int64()),
                # exact-int inputs: identical doubles on both sides pre-round
                "avg_chars": round4(total / np.maximum(n, 1.0)),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def doc_top_longest(sf_dir: str, k: int = 10):
    """Global top-k by (n_chars DESC, doc_id ASC) via per-block partial
    top-k (exec.partial_topk) — no global sort; doc_id makes the order
    total, so the result is hash-identical to the sort().limit(k) plan."""
    from dynaalign_ray.exec import partial_topk

    return partial_topk(
        _docs(sf_dir, ["doc_id", "n_chars"]),
        [("n_chars", "descending"), ("doc_id", "ascending")],
        k,
    )


def doc_top_by_source(sf_dir: str, k: int = 3, num_partitions: int = 8):
    """Per-group ranked window (ROW_NUMBER PARTITION BY analog): top-k docs
    per source by (n_chars desc, doc_id asc).  Plan: route by hash(source)
    (hash only routes — groups are delimited by exact string comparison
    inside the block, so exactness never depends on hash injectivity),
    one Arrow sort per block, vectorized per-group rank, keep rank <= k.
    Never a global sort; the shuffle carries the 3 narrow columns."""
    from dynaalign_ray.hashing import hash_strings, to_id63

    def add_route(batch: pa.Table) -> pa.Table:
        h = to_id63(hash_strings(batch.column("source").to_pylist()))
        return batch.append_column("src_hash", pa.array(h, type=pa.int64()))

    def topk_block(b: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("source", pa.string()),
                ("doc_id", pa.int64()),
                ("n_chars", pa.int64()),
                ("rnk", pa.int64()),
            ]
        )
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b,
            sort_keys=[
                ("source", "ascending"),
                ("n_chars", "descending"),
                ("doc_id", "ascending"),
            ],
        )
        s = b.take(idx)
        src = s.column("source").combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.chunk(0)
        codes = np.asarray(src.dictionary_encode().indices, dtype=np.int64)
        n = len(codes)
        pos = np.arange(n, dtype=np.int64)
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = codes[1:] != codes[:-1]
        group_start = np.maximum.accumulate(np.where(boundary, pos, 0))
        rnk = pos - group_start + 1
        keep = rnk <= k
        kept = s.filter(pa.array(keep))
        return pa.table(
            {
                "source": kept.column("source"),
                "doc_id": kept.column("doc_id"),
                "n_chars": kept.column("n_chars"),
                "rnk": pa.array(rnk[keep], type=pa.int64()),
            },
            schema=out_schema,
        )

    return (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(add_route, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["src_hash"])
        .map_batches(
            topk_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )


def doc_source_stats(sf_dir: str, num_partitions: int = 8):
    from ray.data.aggregate import Count, Max, Min

    return (
        _docs(sf_dir, ["source", "n_chars"])
        .groupby("source", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_docs"),
            Min("n_chars", alias_name="min_chars"),
            Max("n_chars", alias_name="max_chars"),
        )
    )


def doc_shingle_counts(sf_dir: str, k: int = 3):
    """Distinct word-k-shingles per doc — operator #1/#2 parity
    (R/minHash.R:12-41) computed by the engine's vectorized kernel; docs
    with fewer than k tokens are excluded (both sides of the oracle)."""
    import functools

    from dynaalign_ray.shingles import batch_shingle_hashes, bottomk_sketches

    def kern(batch: pa.Table, *, k: int) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hashes, counts = batch_shingle_hashes(texts, k, "word")
        _, _, distinct = bottomk_sketches(hashes, counts, cap=1 << 62)
        keep = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(
                    np.asarray(batch.column("doc_id")).astype(np.int64)[keep]
                ),
                "n_shingles": pa.array(distinct[keep], type=pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        functools.partial(kern, k=k), batch_format="pyarrow", zero_copy_batch=True
    )


def _shingle_sets_block(batch: pa.Table, *, k: int) -> pa.Table:
    """(doc_id, text) -> (doc_id, sketch) where sketch is the doc's EXACT
    sorted distinct word-k-shingle hash set packed as a binary CSR row
    (bottom-k with an unbounded cap).  Shared by the exact all-pairs
    Jaccard and containment queries."""
    from dynaalign_ray.shingles import batch_shingle_hashes, bottomk_sketches

    texts = batch.column("text").to_pylist()
    hashes, counts = batch_shingle_hashes(texts, k, "word")
    vals, sizes, _ = bottomk_sketches(hashes, counts, cap=1 << 62)
    keep = sizes > 0
    # dropping zero-length segments leaves the flat values array intact;
    # only the offsets are rebuilt over the kept sizes
    out_sizes = sizes[keep]
    out_offs = np.zeros(len(out_sizes) + 1, dtype=np.int32)
    np.cumsum(out_sizes * 8, out=out_offs[1:], dtype=np.int32)
    sk = pa.Array.from_buffers(
        pa.binary(),
        len(out_sizes),
        [None, pa.py_buffer(out_offs.tobytes()), pa.py_buffer(vals.astype("<u8").tobytes())],
    )
    return pa.table(
        {
            "doc_id": pa.array(
                np.asarray(batch.column("doc_id")).astype(np.int64)[keep]
            ),
            "sketch": sk,
        }
    )


# the exact all-pairs oracles below have TWO physical plans sharing one
# semantic: below the gate the whole corpus's shingle CSR is broadcast once
# (fastest small-corpus ground-truth plan); past it the docs are coalesced
# into ~stripe-sized CSR groups and a task runs per GROUP PAIR, fetching
# only its two groups — no object ever scales with the corpus, the compute
# stays the O(n^2) the exact semantic demands (the scale path for dedup
# remains banded LSH; this keeps the exact oracle *runnable* past the gate
# instead of raising — VERDICT r2 "What's wrong" #2)
_ALLPAIRS_CSR_BYTE_LIMIT = 4 << 30  # broadcast plan up to 4 GiB of CSR
_ALLPAIRS_STRIPE_BYTES = 256 << 20  # target CSR bytes per striped group
_ALLPAIRS_DENSE_OUT_BYTES = 64 << 20  # cap on one cross-kernel output stripe


def _allpairs_plan(sets_ds, plan: str) -> str:
    """Resolve plan="auto" from the materialized (doc_id, sketch) dataset's
    block bytes — a faithful proxy for CSR bytes (same u64 values + int
    ids) that never pulls a block to the driver."""
    if plan != "auto":
        return plan
    return (
        "broadcast"
        if sets_ds.size_bytes() <= _ALLPAIRS_CSR_BYTE_LIMIT
        else "striped"
    )


def _tail_pairs_from_csr(csr, threshold: float, score: str):
    """All (a < b) pairs WITHIN one id-sorted CSR group with
    jaccard/containment >= threshold — the within-group half of the striped
    plan (numpy fallback mirrors the broadcast plan's)."""
    from dynaalign_ray import ckernels

    ids_s, st, en, vals = csr
    sizes = en - st
    out_a, out_b, out_s = [], [], []
    for r in range(len(ids_s) - 1):
        la = sizes[r]
        lb = sizes[r + 1 :]
        jrow = ckernels.jaccard_row_vs_tail(vals, st, en, int(r))
        if jrow is None:  # no compiler: numpy merge per candidate
            jrow = np.empty(len(ids_s) - r - 1, dtype=np.float64)
            mine = vals[st[r] : en[r]]
            for q in range(r + 1, len(ids_s)):
                other = vals[st[q] : en[q]]
                inter = len(np.intersect1d(mine, other, assume_unique=True))
                union = la + (en[q] - st[q]) - inter
                jrow[q - r - 1] = inter / union if union else 0.0
        if score == "jaccard":
            srow = jrow
        else:  # containment: recover |A∩B| exactly from jaccard
            inter = np.rint(jrow * (la + lb) / (1.0 + jrow))
            srow = inter / np.minimum(la, lb)
        hit = np.flatnonzero(srow >= threshold)
        if len(hit):
            out_a.append(np.full(len(hit), ids_s[r], dtype=np.int64))
            out_b.append(ids_s[r + 1 + hit])
            out_s.append(srow[hit])
    return out_a, out_b, out_s


def _cross_pairs_from_csrs(csr_a, csr_b, threshold: float, score: str):
    """All above-threshold pairs with one endpoint in each of two disjoint
    CSR groups, oriented a=min(id), b=max(id).  The dense cross kernel runs
    in row stripes so its output never exceeds _ALLPAIRS_DENSE_OUT_BYTES."""
    from dynaalign_ray import ckernels

    ids_a, st_a, en_a, vals_a = csr_a
    ids_b, st_b, en_b, vals_b = csr_b
    sizes_a = en_a - st_a
    sizes_b = en_b - st_b
    na, nb = len(ids_a), len(ids_b)
    out_a, out_b, out_s = [], [], []
    if na == 0 or nb == 0:
        return out_a, out_b, out_s
    rows_per = max(1, _ALLPAIRS_DENSE_OUT_BYTES // (8 * nb))
    for r0 in range(0, na, rows_per):
        r1 = min(r0 + rows_per, na)
        jmat = ckernels.jaccard_cross_block(
            vals_a, st_a[r0:r1], en_a[r0:r1], vals_b, st_b, en_b
        )
        if jmat is None:  # no compiler: numpy merge per pair
            jmat = np.empty((r1 - r0, nb), dtype=np.float64)
            for r in range(r0, r1):
                mine = vals_a[st_a[r] : en_a[r]]
                for q in range(nb):
                    other = vals_b[st_b[q] : en_b[q]]
                    inter = len(np.intersect1d(mine, other, assume_unique=True))
                    union = sizes_a[r] + sizes_b[q] - inter
                    jmat[r - r0, q] = inter / union if union else 0.0
        if score == "jaccard":
            smat = jmat
        else:
            tot = sizes_a[r0:r1, None] + sizes_b[None, :]
            inter = np.rint(jmat * tot / (1.0 + jmat))
            smat = inter / np.minimum(sizes_a[r0:r1, None], sizes_b[None, :])
        ri, qi = np.nonzero(smat >= threshold)
        if len(ri):
            ia = ids_a[r0 + ri]
            ib = ids_b[qi]
            out_a.append(np.minimum(ia, ib))
            out_b.append(np.maximum(ia, ib))
            out_s.append(smat[ri, qi])
    return out_a, out_b, out_s


def _allpairs_striped(sets_ds, threshold: float, score: str, score_col: str):
    """EXACT all-pairs past the broadcast gate: the (doc_id, sketch) blocks
    are coalesced into G disjoint ~_ALLPAIRS_STRIPE_BYTES CSR groups (one
    bounded object each, built where the blocks live), then a Ray Data task
    runs per (i <= j) group pair — G(G+1)/2 tasks, each fetching exactly
    two groups from the object store.  Driver state is G ObjectRefs; no
    corpus-sized object exists anywhere.  Output is identical to the
    broadcast plan's pair set (plan-agreement pytest-gated)."""
    import ray
    import ray.data as rd

    from dynaalign_ray.pipelines.relational import round4
    from dynaalign_ray.stages.verify import build_sketch_csr

    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            score_col: pa.array([], pa.float64()),
        }
    )
    refs = sets_ds.materialize().to_arrow_refs()
    if not refs:
        return rd.from_arrow(empty)
    total = max(int(sets_ds.size_bytes() or 0), 1)
    n_groups = max(2, -(-total // _ALLPAIRS_STRIPE_BYTES))
    n_groups = min(n_groups, len(refs)) or 1
    # contiguous ref runs -> one CSR object per group, built remotely so
    # the driver never touches a block
    bounds = np.linspace(0, len(refs), n_groups + 1).astype(int)

    @ray.remote
    def _csr_group(*tables):
        parts = [t for t in tables if t.num_rows]
        return build_sketch_csr(parts)

    csr_refs = [
        _csr_group.remote(*refs[bounds[g] : bounds[g + 1]])
        for g in range(n_groups)
        if bounds[g + 1] > bounds[g]
    ]
    pairs = [
        {"i": i, "j": j}
        for i in range(len(csr_refs))
        for j in range(i, len(csr_refs))
    ]

    def pair_block(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_s = [], [], []
        for i, j in zip(
            batch.column("i").to_pylist(), batch.column("j").to_pylist()
        ):
            csr_i = ray.get(csr_refs[i])
            if i == j:
                a, b, s = _tail_pairs_from_csr(csr_i, threshold, score)
            else:
                a, b, s = _cross_pairs_from_csrs(
                    csr_i, ray.get(csr_refs[j]), threshold, score
                )
            out_a += a
            out_b += b
            out_s += s
        cat = lambda xs, dt: np.concatenate(xs) if xs else np.empty(0, dtype=dt)
        return pa.table(
            {
                "a": pa.array(cat(out_a, np.int64)),
                "b": pa.array(cat(out_b, np.int64).astype(np.int64)),
                score_col: round4(cat(out_s, np.float64)),
            }
        )

    return rd.from_items(pairs, override_num_blocks=len(pairs)).map_batches(
        pair_block, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_jaccard_pairs(
    sf_dir: str, k: int = 3, threshold: float = 0.5, plan: str = "auto"
):
    """EXACT all-pairs word-k-shingle Jaccard above ``threshold`` — the
    near-dup family's ground truth as an oracle-checkable query (the LSH
    pipeline entries are rows-only because LSH recall is probabilistic;
    this is the dense `compute_distance_matrix` semantic,
    R/minHash.R:166-182, emitted sparse).

    Two physical plans (``plan`` in auto/broadcast/striped): below the
    4 GiB gate every doc's exact shingle-hash set is broadcast once as a
    doc_id-sorted CSR and each docs block intersects its rows against the
    full table (mirrors :func:`cosine_neardup_pairs`); past the gate
    :func:`_allpairs_striped` runs one task per CSR-group pair so no
    object scales with the corpus.  Either way the scale path for *dedup*
    is the banded LSH pipeline — this query is the exact semantic."""
    import functools

    import ray

    from dynaalign_ray.pipelines.relational import round4
    from dynaalign_ray.stages.verify import build_sketch_csr

    sets_block = _shingle_sets_block

    # materialize ONCE: the lazy dataset is consumed twice (driver CSR
    # build + the pairs pass), which would re-run the shingle+sketch
    # kernel over the whole corpus a second time
    sets_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        functools.partial(sets_block, k=k), batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if _allpairs_plan(sets_ds, plan) == "striped":
        return _allpairs_striped(sets_ds, threshold, "jaccard", "jaccard")
    parts = [t for t in (ray.get(r) for r in sets_ds.materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    csr_ref = broadcast_put(build_sketch_csr(parts))

    def pairs_block(batch: pa.Table) -> pa.Table:
        from dynaalign_ray import ckernels

        ids_s, st, en, vals = ray.get(csr_ref)
        my = np.asarray(batch.column("doc_id")).astype(np.int64)
        rows = np.searchsorted(ids_s, my)
        out_a, out_b, out_j = [], [], []
        for r in rows:
            # ids_s sorted + distinct: candidates with larger id are r+1..n
            jrow = ckernels.jaccard_row_vs_tail(vals, st, en, int(r))
            if jrow is None:  # no compiler: numpy merge per candidate
                mine = vals[st[r] : en[r]]
                la = en[r] - st[r]
                jrow = np.empty(len(ids_s) - r - 1, dtype=np.float64)
                for q in range(r + 1, len(ids_s)):
                    other = vals[st[q] : en[q]]
                    inter = np.intersect1d(mine, other, assume_unique=True)
                    union = la + (en[q] - st[q]) - len(inter)
                    jrow[q - r - 1] = len(inter) / union if union else 0.0
            hit = np.flatnonzero(jrow >= threshold)
            if len(hit):
                out_a.append(np.full(len(hit), ids_s[r], dtype=np.int64))
                out_b.append(ids_s[r + 1 + hit])
                out_j.append(jrow[hit])
        cat = lambda xs, dt: (
            np.concatenate(xs) if xs else np.empty(0, dtype=dt)
        )
        return pa.table(
            {
                "a": pa.array(cat(out_a, np.int64)),
                "b": pa.array(cat(out_b, np.int64).astype(np.int64)),
                "jaccard": round4(cat(out_j, np.float64)),
            }
        )

    return sets_ds.map_batches(pairs_block, batch_format="pyarrow", zero_copy_batch=True)


def doc_jaccard_pairs_prefix(
    sf_dir: str,
    k: int = 3,
    threshold: float = 0.5,
    num_partitions: int = 8,
    order: str = "value",
):
    """EXACT word-k-shingle Jaccard pairs above ``threshold`` via the
    prefix-filtered set-similarity join (SSJoin/PPJoin family — see
    stages/ssjoin.py): recall 1.0 by the prefix-filter theorem, never
    O(n^2) row pairs, nothing corpus-sized broadcast.  Same output
    contract as :func:`doc_jaccard_pairs` (a < b, round4 jaccard), so the
    same DuckDB oracle gates it — and a pytest asserts plan agreement
    with the all-pairs plans pair-for-pair."""
    import functools

    from dynaalign_ray.pipelines.relational import round4
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()  # consumed twice: prefix explode + verify joins
    )
    edges = prefix_jaccard_join(sets_ds, threshold, num_partitions, order=order)

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": b.column("a"),
                "b": b.column("b"),
                "jaccard": round4(np.asarray(b.column("jaccard"))),
            }
        )

    return edges.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def doc_jaccard_degrees(
    sf_dir: str, k: int = 3, threshold: float = 0.5, num_partitions: int = 8
):
    """Per-doc DEGREE in the exact tau-Jaccard similarity graph (the dedup
    graph's degree distribution — the skew signal that decides salting):
    exact SSJoin edges -> each edge votes for both endpoints -> groupby
    count -> LEFT OUTER hash join back onto the docs table so 0-degree
    docs appear (degree tables can be corpus-sized, so this is a join,
    never a broadcast)."""
    import functools

    from ray.data.aggregate import Count

    from dynaalign_ray.joins import hash_join
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    edges = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def endpoints(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a")).astype(np.int64)
        bb = np.asarray(b.column("b")).astype(np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([a, bb]), pa.int64())})

    deg = (
        edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="degree"))
    )
    joined = hash_join(
        _docs(sf_dir, ["doc_id"]),
        deg,
        left_on="doc_id",
        right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("degree", pa.int64())]),
        num_partitions=num_partitions,
        how="left outer",
    )

    def fill(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "degree": pc.fill_null(b.column("degree"), 0).cast(pa.int64()),
            }
        )

    return joined.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def doc_triangle_counts(
    sf_dir: str, k: int = 3, threshold: float = 0.5, num_partitions: int = 8
):
    """Per-doc TRIANGLE participation count in the exact tau-Jaccard
    similarity graph — the local-clustering signal that separates tight
    duplicate cliques from boilerplate stars (a star hub has high degree
    but zero triangles).  Distributed degree-orientation plan (the
    standard O(m^1.5) wedge bound, no all-pairs and no broadcast of the
    edge set):

    1. exact SSJoin edges (a < b, recall 1.0 by construction);
    2. degrees via groupby-count; each edge picks up both endpoint
       degrees with two partitioned hash joins (edge tables can be
       corpus-sized, so joins — never a broadcast);
    3. orient every edge from the (degree, id)-smaller endpoint to the
       larger: each triangle then has exactly ONE vertex with out-edges
       to the other two, and out-degrees are bounded by O(sqrt(m));
    4. wedge emission per src after ONE keyed repartition (within-group
       pairs come out id-sorted, matching the canonical a < b edge form);
    5. wedge-vs-edge membership: union both under a (k1, k2) key pair,
       ONE keyed repartition on k1, per-block exact two-key Arrow join;
    6. confirmed triangles credit all three vertices -> groupby-count ->
       LEFT OUTER join back onto documents so zero-triangle docs appear.
    """
    import functools

    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    raw = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(np.asarray(b.column("a")).astype(np.int64)),
                "b": pa.array(np.asarray(b.column("b")).astype(np.int64)),
            }
        )

    edges = raw.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True).materialize()
    return triangle_counts_from_edges(edges, _docs(sf_dir, ["doc_id"]), num_partitions)


def doc_clustering_coeff(
    sf_dir: str, k: int = 3, threshold: float = 0.5, num_partitions: int = 8
):
    """Per-doc LOCAL CLUSTERING COEFFICIENT ``2T / (d(d-1))`` over the
    exact tau-Jaccard graph, for docs with degree >= 2 — the clique-vs-star
    discriminator built from the triangle and degree kernels.  The edge
    set is built ONCE (materialized, bounded by dedup-graph sparsity) and
    feeds both aggregates; the coefficient divides two EXACT int64s
    (2T and d(d-1)), so the IEEE-division result is bit-identical to the
    SQL oracle's."""
    import functools

    from ray.data.aggregate import Count

    from dynaalign_ray.joins import hash_join
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    raw = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(np.asarray(b.column("a")).astype(np.int64)),
                "b": pa.array(np.asarray(b.column("b")).astype(np.int64)),
            }
        )

    edges = raw.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True).materialize()
    tri = triangle_counts_from_edges(edges, _docs(sf_dir, ["doc_id"]), num_partitions)

    def endpoints(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([a, bb]), pa.int64())})

    deg = (
        edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="degree"))
    )
    joined = hash_join(
        deg,
        tri,
        left_on="doc_id",
        right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("degree", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("n_triangles", pa.int64())]),
        num_partitions=num_partitions,
    )

    def coeff(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("degree"), pa.scalar(2)))
        d = np.asarray(t.column("degree"), dtype=np.int64)
        n = np.asarray(t.column("n_triangles"), dtype=np.int64)
        from dynaalign_ray.pipelines.relational import round4

        c = round4((2.0 * n.astype(np.float64)) / (d * (d - 1)).astype(np.float64))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "degree": t.column("degree"),
                "n_triangles": t.column("n_triangles"),
                "coeff": c,
            }
        )

    return joined.map_batches(coeff, batch_format="pyarrow", zero_copy_batch=True)


def doc_kcore(
    sf_dir: str,
    k: int = 3,
    threshold: float = 0.5,
    k_core: int = 2,
    max_rounds: int = 12,
    num_partitions: int = 8,
):
    """K-CORE of the exact tau-Jaccard graph: the maximal subgraph where
    every doc keeps >= k_core similarity neighbours — the dense-duplicate
    backbone that survives when degree-1 appendages and chains are peeled
    away.  Returns (doc_id, core_degree) for core members.  Iterative
    distributed peeling (see :func:`kcore_from_edges`); the oracle unrolls
    the same peel a fixed number of rounds, and the engine RAISES if the
    fixpoint needs more than ``max_rounds`` so a non-converged run can
    never silently diverge from the oracle."""
    import functools

    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    raw = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(np.asarray(b.column("a")).astype(np.int64)),
                "b": pa.array(np.asarray(b.column("b")).astype(np.int64)),
            }
        )

    edges = raw.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True).materialize()
    return kcore_from_edges(edges, k_core, max_rounds, num_partitions)


def kcore_from_edges(edges, k_core: int, max_rounds: int, num_partitions: int = 8):
    """Iterative k-core peeling over a canonical (a < b) int64 edge
    Dataset: each round computes degrees with one groupby-count, collects
    the BELOW-k peel set (bounded by the shrinking sub-k frontier; at
    10^9+ peeled nodes per round the keyset filter flips to the
    partitioned hash anti-join exactly as customers_no_big_orders
    documents), and drops their edges with a broadcast anti semi-join on
    both endpoints.  Terminates when no node is below k (raises past
    ``max_rounds`` — the SQL oracle unrolls exactly that many rounds, so
    a non-converged run must fail loudly, not diverge silently)."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow

    out_schema = pa.schema([("doc_id", pa.int64()), ("core_degree", pa.int64())])

    def endpoints(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([a, bb]), pa.int64())})

    for _ in range(max_rounds + 1):
        deg = (
            edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("doc_id", num_partitions=num_partitions)
            .aggregate(Count(alias_name="core_degree"))
            .materialize()
        )
        if deg.count() == 0:
            return out_schema.empty_table()
        # only the sub-k FRONTIER reaches the driver, never the full
        # degree table (the frontier shrinks every round by definition)
        bad = collect_arrow(
            deg.filter(expr=f"core_degree < {int(k_core)}").select_columns(["doc_id"])
        )
        if bad.num_rows == 0:
            def pin(b: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        "doc_id": b.column("doc_id").cast(pa.int64()),
                        "core_degree": b.column("core_degree").cast(pa.int64()),
                    },
                    schema=out_schema,
                )

            return deg.map_batches(pin, batch_format="pyarrow", zero_copy_batch=True)
        edges = broadcast_semi_join(
            broadcast_semi_join(edges, bad, left_on="a", anti=True),
            bad,
            left_on="b",
            anti=True,
        ).materialize()
    raise ValueError(
        f"k-core peel did not converge within {max_rounds} rounds; raise "
        "max_rounds (and regenerate the unrolled SQL oracle to match)"
    )


def doc_degree_assortativity(
    sf_dir: str, k: int = 3, threshold: float = 0.5, num_partitions: int = 8
):
    """Degree ASSORTATIVITY of the exact tau-Jaccard graph (Newman's r):
    do high-degree docs attach to other high-degree docs (template farms)
    or to low-degree ones (hub-and-spoke boilerplate)?  Each edge
    contributes its endpoint-degree pair symmetrically, so the Pearson
    correlation reduces to r = (n*Sxy - Sx^2) / (n*Sxx - Sx^2) over FOUR
    exact integer sums (n, Sx, Sxx, Sxy) — per-block int64 partials, one
    tiny global reduce, Python-int exact on the driver, ONE double
    division at the end (int64-exact to ~10^6-degree graphs; the same
    sufficient-statistic discipline as doc_source_regression)."""
    import functools

    from ray.data.aggregate import Sum

    from dynaalign_ray.joins import hash_join
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    raw = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(np.asarray(b.column("a")).astype(np.int64)),
                "b": pa.array(np.asarray(b.column("b")).astype(np.int64)),
            }
        )

    edges = raw.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True).materialize()

    from ray.data.aggregate import Count

    def endpoints(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([a, bb]), pa.int64())})

    deg = (
        edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="degree"))
    )

    def rename_deg(name):
        def f(b: pa.Table) -> pa.Table:
            return pa.table({"doc_id": b.column("doc_id"), name: b.column("degree")})

        return f

    j1 = hash_join(
        edges,
        deg.map_batches(rename_deg("deg_a"), batch_format="pyarrow", zero_copy_batch=True),
        left_on="a",
        right_on="doc_id",
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("deg_a", pa.int64())]),
        num_partitions=num_partitions,
    )
    j2 = hash_join(
        j1,
        deg.map_batches(rename_deg("deg_b"), batch_format="pyarrow", zero_copy_batch=True),
        left_on="b",
        right_on="doc_id",
        left_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("deg_a", pa.int64())]
        ),
        right_schema=pa.schema([("doc_id", pa.int64()), ("deg_b", pa.int64())]),
        num_partitions=num_partitions,
    )

    def partials(b: pa.Table) -> pa.Table:
        da = np.asarray(b.column("deg_a"), dtype=np.int64)
        db = np.asarray(b.column("deg_b"), dtype=np.int64)
        return pa.table(
            {
                "n": pa.array([2 * len(da)], pa.int64()),
                "sx": pa.array([int((da + db).sum())], pa.int64()),
                "sxx": pa.array([int((da * da + db * db).sum())], pa.int64()),
                "sxy": pa.array([int(2 * (da * db).sum())], pa.int64()),
            }
        )

    agg = j2.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("n", alias_name="n"),
        Sum("sx", alias_name="sx"),
        Sum("sxx", alias_name="sxx"),
        Sum("sxy", alias_name="sxy"),
    )
    n, sx = int(agg["n"]), int(agg["sx"])
    sxx, sxy = int(agg["sxx"]), int(agg["sxy"])
    from dynaalign_ray.pipelines.relational import round4

    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    r = float(num) / float(den) if den != 0 else 0.0
    return pa.table(
        {
            "n_edges": pa.array([n // 2], pa.int64()),
            "assortativity": round4(pa.array([r], pa.float64())),
        }
    )


_PR_SCALE = 10**12  # PageRank mass in integer micro-units


def doc_pagerank(
    sf_dir: str,
    k: int = 3,
    threshold: float = 0.5,
    rounds: int = 10,
    num_partitions: int = 8,
):
    """EXACT-integer PageRank over the tau-Jaccard graph — centrality of
    each doc inside its duplicate neighbourhood (the template-hub
    detector).  All arithmetic is scaled-integer (mass 10^12, damping
    85/100, floor division), so per-round sums are order-independent and
    the fixed-round iteration is bit-identical to the SQL oracle — no
    float summation tree to mirror.  See :func:`pagerank_from_edges`."""
    import functools

    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    raw = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(np.asarray(b.column("a")).astype(np.int64)),
                "b": pa.array(np.asarray(b.column("b")).astype(np.int64)),
            }
        )

    edges = raw.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True).materialize()
    return pagerank_from_edges(edges, rounds, num_partitions)


def pagerank_from_edges(edges, rounds: int, num_partitions: int = 8):
    """Fixed-round scaled-integer PageRank over a canonical (a < b) int64
    edge Dataset, nodes = docs with >= 1 edge:

        pr_0(v)    = S // n                        (S = 10^12 micro-units)
        contrib(u) = pr_t(u) // deg(u)             (floor division)
        pr_{t+1}(v) = (15 * (S // n)) // 100
                      + (85 * sum_{u~v} contrib(u)) // 100

    Integer sums are order-independent, so the distributed result is
    bit-identical to any serial evaluation (and to the unrolled SQL
    oracle).  The static out-degree is attached to the symmetric edge
    table ONCE, so each round is exactly ONE narrow hash join (edges
    against the pr table) + ONE groupby-sum — the classic iterative
    message-passing shape, edge-table-sized, never a broadcast.  Every
    node has >= 1 neighbour, so the inflow table covers every node and
    the per-round update needs no outer join."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import hash_join

    out_schema = pa.schema([("doc_id", pa.int64()), ("pagerank", pa.int64())])

    def sym_block(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    sym = edges.map_batches(
        sym_block, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    deg = (
        sym.groupby("src", num_partitions=num_partitions)
        .aggregate(Count(alias_name="deg"))
        .materialize()
    )
    n_nodes = deg.count()
    if n_nodes == 0:
        return out_schema.empty_table()
    init = _PR_SCALE // n_nodes
    base = (15 * init) // 100

    # deg_src rides the static edge table, so the per-round join carries
    # only (node, pr) on the small side
    sym_deg = hash_join(
        sym,
        deg.map_batches(
            lambda b: pa.table({"node": b.column("src"), "deg_src": b.column("deg")}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        left_on="src",
        right_on="node",
        left_schema=pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
        right_schema=pa.schema([("node", pa.int64()), ("deg_src", pa.int64())]),
        num_partitions=num_partitions,
    ).materialize()

    def init_pr(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("src"),
                "pr": pa.array(np.full(b.num_rows, init, dtype=np.int64), pa.int64()),
            }
        )

    pr = deg.map_batches(init_pr, batch_format="pyarrow", zero_copy_batch=True).materialize()

    def to_contrib(b: pa.Table) -> pa.Table:
        p = np.asarray(b.column("pr"), dtype=np.int64)
        d = np.asarray(b.column("deg_src"), dtype=np.int64)
        return pa.table(
            {"dst": b.column("dst"), "c": pa.array(p // d, pa.int64())}
        )

    def update(b: pa.Table) -> pa.Table:
        infl = np.asarray(b.column("infl"), dtype=np.int64)
        return pa.table(
            {
                "node": b.column("dst"),
                "pr": pa.array(base + (85 * infl) // 100, pa.int64()),
            }
        )

    for _ in range(rounds):
        pr = (
            hash_join(
                sym_deg,
                pr,
                left_on="src",
                right_on="node",
                left_schema=pa.schema(
                    [("src", pa.int64()), ("dst", pa.int64()), ("deg_src", pa.int64())]
                ),
                right_schema=pa.schema([("node", pa.int64()), ("pr", pa.int64())]),
                num_partitions=num_partitions,
            )
            .map_batches(to_contrib, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("dst", num_partitions=num_partitions)
            .aggregate(Sum("c", alias_name="infl"))
            .map_batches(update, batch_format="pyarrow", zero_copy_batch=True)
            .materialize()
        )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": b.column("node"), "pagerank": b.column("pr")},
            schema=out_schema,
        )

    return pr.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def triangle_counts_from_edges(edges, docs_ds, num_partitions: int = 8):
    """Degree-orientation triangle counting over a canonical (a < b) int64
    edge Dataset — steps 2-6 of :func:`doc_triangle_counts` (split out so
    the graph kernel is testable on synthetic edge lists)."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import hash_join

    def endpoints(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([a, bb]), pa.int64())})

    deg = (
        edges.map_batches(endpoints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="degree"))
    )

    def rename_deg(name):
        def f(b: pa.Table) -> pa.Table:
            return pa.table({"doc_id": b.column("doc_id"), name: b.column("degree")})

        return f

    j1 = hash_join(
        edges,
        deg.map_batches(rename_deg("deg_a"), batch_format="pyarrow", zero_copy_batch=True),
        left_on="a",
        right_on="doc_id",
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("deg_a", pa.int64())]),
        num_partitions=num_partitions,
    )
    j2 = hash_join(
        j1,
        deg.map_batches(rename_deg("deg_b"), batch_format="pyarrow", zero_copy_batch=True),
        left_on="b",
        right_on="doc_id",
        left_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("deg_a", pa.int64())]
        ),
        right_schema=pa.schema([("doc_id", pa.int64()), ("deg_b", pa.int64())]),
        num_partitions=num_partitions,
    )

    wedge_schema = pa.schema(
        [("k1", pa.int64()), ("k2", pa.int64()), ("src", pa.int64()), ("side", pa.int8())]
    )

    def orient_and_tag(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        da = np.asarray(b.column("deg_a"), dtype=np.int64)
        db = np.asarray(b.column("deg_b"), dtype=np.int64)
        a_first = (da < db) | ((da == db) & (a < bb))
        src = np.where(a_first, a, bb)
        dst = np.where(a_first, bb, a)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    oriented = j2.map_batches(orient_and_tag, batch_format="pyarrow", zero_copy_batch=True)

    def wedges_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return wedge_schema.empty_table()
        src = np.asarray(b.column("src"), dtype=np.int64)
        dst = np.asarray(b.column("dst"), dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        # segment-vectorized per-source wedge triu (shared kernel); dst is
        # id-sorted within the group, so (k1, k2) is already in the
        # canonical a < b edge form for the membership probe
        from dynaalign_ray.stages.bands import segment_triu_rows

        n = len(src)
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = src[1:] != src[:-1]
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], n)
        a_rows, b_rows = segment_triu_rows(starts, ends, (ends - starts) >= 2)
        k1s = [dst[a_rows]] if len(a_rows) else []
        k2s = [dst[b_rows]] if len(a_rows) else []
        srcs = [src[a_rows]] if len(a_rows) else []
        if not k1s:
            return wedge_schema.empty_table()
        k1 = np.concatenate(k1s)
        return pa.table(
            {
                "k1": pa.array(np.concatenate(k1s), pa.int64()),
                "k2": pa.array(np.concatenate(k2s), pa.int64()),
                "src": pa.array(np.concatenate(srcs), pa.int64()),
                "side": pa.array(np.zeros(len(k1), dtype=np.int8), pa.int8()),
            },
            schema=wedge_schema,
        )

    wedges = oriented.repartition(num_blocks=num_partitions, keys=["src"]).map_batches(
        wedges_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )

    def edge_tag(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "k1": b.column("a"),
                "k2": b.column("b"),
                "src": pa.nulls(n, pa.int64()),
                "side": pa.array(np.ones(n, dtype=np.int8), pa.int8()),
            },
            schema=wedge_schema,
        )

    tagged_edges = edges.map_batches(edge_tag, batch_format="pyarrow", zero_copy_batch=True)

    def confirm_block(b: pa.Table) -> pa.Table:
        side = np.asarray(b.column("side"))
        w = b.filter(pa.array(side == 0)).select(["k1", "k2", "src"])
        e = b.filter(pa.array(side == 1)).select(["k1", "k2"])
        if w.num_rows == 0 or e.num_rows == 0:
            return pa.schema(
                [("k1", pa.int64()), ("k2", pa.int64()), ("src", pa.int64())]
            ).empty_table()
        return w.join(e, keys=["k1", "k2"], join_type="inner").combine_chunks()

    triangles = (
        wedges.union(tagged_edges)
        .repartition(num_blocks=num_partitions, keys=["k1"])
        .map_batches(
            confirm_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def tri_endpoints(b: pa.Table) -> pa.Table:
        u = np.asarray(b.column("k1"), dtype=np.int64)
        v = np.asarray(b.column("k2"), dtype=np.int64)
        s = np.asarray(b.column("src"), dtype=np.int64)
        return pa.table({"doc_id": pa.array(np.concatenate([u, v, s]), pa.int64())})

    cnt = (
        triangles.map_batches(tri_endpoints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_triangles"))
    )
    joined = hash_join(
        docs_ds,
        cnt,
        left_on="doc_id",
        right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("n_triangles", pa.int64())]),
        num_partitions=num_partitions,
        how="left outer",
    )

    def fill(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_triangles": pc.fill_null(b.column("n_triangles"), 0).cast(pa.int64()),
            }
        )

    return joined.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def doc_containment_pairs(
    sf_dir: str, k: int = 3, threshold: float = 0.8, plan: str = "auto"
):
    """EXACT all-pairs shingle CONTAINMENT ``|A∩B| / min(|A|,|B|)`` above
    ``threshold`` — the partial-duplicate detector (a short doc embedded in
    a longer one scores 1.0 here but far below any Jaccard τ; the standard
    complement to Jaccard dedup, cf. Broder's containment estimator).

    Same two-plan physical layout as :func:`doc_jaccard_pairs`; the C
    kernel returns the Jaccard row and the intersection count is recovered
    exactly as ``i = j·(|A|+|B|)/(1+j)`` (integer within 1 ulp, rounded),
    so one kernel serves both scores.  Small-corpus / verification plan —
    the scale path is banded LSH over containment-calibrated signatures."""
    import functools

    import ray

    from dynaalign_ray.pipelines.relational import round4
    from dynaalign_ray.stages.verify import build_sketch_csr

    empty = pa.table(
        {
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            "containment": pa.array([], pa.float64()),
        }
    )
    sets_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        functools.partial(_shingle_sets_block, k=k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    if _allpairs_plan(sets_ds, plan) == "striped":
        return _allpairs_striped(sets_ds, threshold, "containment", "containment")
    parts = [t for t in (ray.get(r) for r in sets_ds.materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        import ray.data as rd

        return rd.from_arrow(empty)
    csr_ref = broadcast_put(build_sketch_csr(parts))

    def pairs_block(batch: pa.Table) -> pa.Table:
        from dynaalign_ray import ckernels

        ids_s, st, en, vals = ray.get(csr_ref)
        sizes = en - st
        my = np.asarray(batch.column("doc_id")).astype(np.int64)
        rows = np.searchsorted(ids_s, my)
        out_a, out_b, out_c = [], [], []
        for r in rows:
            la = sizes[r]
            lb = sizes[r + 1 :]
            jrow = ckernels.jaccard_row_vs_tail(vals, st, en, int(r))
            if jrow is not None:
                inter = np.rint(jrow * (la + lb) / (1.0 + jrow))
            else:  # no compiler: numpy merge per candidate
                mine = vals[st[r] : en[r]]
                inter = np.empty(len(ids_s) - r - 1, dtype=np.float64)
                for q in range(r + 1, len(ids_s)):
                    other = vals[st[q] : en[q]]
                    inter[q - r - 1] = len(
                        np.intersect1d(mine, other, assume_unique=True)
                    )
            crow = inter / np.minimum(la, lb)
            hit = np.flatnonzero(crow >= threshold)
            if len(hit):
                out_a.append(np.full(len(hit), ids_s[r], dtype=np.int64))
                out_b.append(ids_s[r + 1 + hit])
                out_c.append(crow[hit])
        cat = lambda xs, dt: np.concatenate(xs) if xs else np.empty(0, dtype=dt)
        return pa.table(
            {
                "a": pa.array(cat(out_a, np.int64)),
                "b": pa.array(cat(out_b, np.int64).astype(np.int64)),
                "containment": round4(cat(out_c, np.float64)),
            }
        )

    return sets_ds.map_batches(pairs_block, batch_format="pyarrow", zero_copy_batch=True)


def doc_containment_pairs_prefix(
    sf_dir: str,
    k: int = 3,
    threshold: float = 0.8,
    num_partitions: int = 8,
    order: str = "df",
):
    """EXACT shingle-containment pairs above ``threshold`` via the
    asymmetric prefix filter (stages/ssjoin.py:prefix_containment_join —
    the smaller set's prefix probes the larger set's full token list):
    recall 1.0 by construction, nothing broadcast, never O(n^2) row
    pairs.  Same output contract as :func:`doc_containment_pairs`, so the
    same DuckDB oracle gates it."""
    import functools

    from dynaalign_ray.pipelines.relational import round4
    from dynaalign_ray.stages.ssjoin import prefix_containment_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    edges = prefix_containment_join(
        sets_ds, threshold, num_partitions, order=order
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": b.column("a"),
                "b": b.column("b"),
                "containment": round4(np.asarray(b.column("containment"))),
            }
        )

    return edges.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def doc_quality(sf_dir: str):
    from dynaalign_ray.functions.textstats import quality_score_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_score_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_langid_counts(sf_dir: str, num_partitions: int = 8):
    """Predicted-language histogram from the heuristic LangIdActor."""
    from ray.data.aggregate import Count

    from dynaalign_ray.functions.textstats import LangIdActor

    import ray

    # actor-pool size proportional to the cluster (was a fixed 2, which
    # starves a 32-CPU node); elastic range so small runs don't overspawn
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    pred = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LangIdActor, batch_format="pyarrow", batch_size=512,
        concurrency=(2, max(2, ncpu // 2)),
    )
    return pred.groupby("pred_lang", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_docs")
    )


def doc_fingerprints(sf_dir: str):
    from dynaalign_ray.functions.textstats import fingerprint_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_winnow_fingerprints(sf_dir: str, kgram: int = 16, window: int = 8):
    """MOSS-style winnowing fingerprint SET per doc (Schleimer et al. 2003):
    the distinct minima over every ``window`` consecutive kgram rolling
    hashes — the guarantee-based robust fingerprint (any shared substring
    of length >= kgram + window - 1 shares at least one selected
    fingerprint).  Reuses the substring-dedup winnower
    (stages/substring._winnow) and the SQL-reproducible rolling hash;
    output rows (doc_id, fingerprint), several per doc."""

    def winnow_block(batch: pa.Table) -> pa.Table:
        from dynaalign_ray.hashing import to_id63
        from dynaalign_ray.stages.substring import winnow_batch

        doc_ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        doc_idx, fps = winnow_batch(batch.column("text"), kgram, window)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[doc_idx], type=pa.int64()),
                "fingerprint": pa.array(to_id63(fps), type=pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        winnow_block, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_neardup_clusters(sf_dir: str, num_partitions: int = 8):
    """Flagship MinHash-LSH pipeline over the documents table
    (k=3 word shingles for the short synthetic docs)."""
    from dynaalign_ray.pipelines.neardup import near_dedup

    cfg = DedupConfig(shingle_k=3)
    res = near_dedup(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]),
        cfg=cfg,
        num_partitions=num_partitions,
    )
    return res.clusters.select_columns(["doc_id", "cluster_id", "keep"])


def doc_neardup_exact(
    sf_dir: str,
    k: int = 3,
    tau: float = 0.7,
    num_partitions: int = 8,
    order: str = "df",
):
    """Flagship-shaped clustering with the edge source swapped: exact
    prefix-filtered set-similarity join (stages/ssjoin.py) instead of
    banded LSH — deterministic recall 1.0 with NO probabilistic stage at
    all, so the whole clustering is exact by construction (the LSH
    flagship reaches the same output because its measured recall is 1.0;
    this path PROVES it structurally).  Shares doc_neardup_clusters's
    recursive-CTE oracle."""
    import functools

    from dynaalign_ray.stages.cluster import assign_clusters, connected_components
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    # materialize: connected_components counts the edges and then the CC
    # pass consumes them again — without this the whole prefix join +
    # verify re-executes (the near_dedup flagship materializes for the
    # same reason, neardup.py)
    edges = prefix_jaccard_join(
        sets_ds, tau, num_partitions, order=order
    ).materialize()
    cfg = DedupConfig()
    labels, info = connected_components(
        edges, num_partitions, cfg.max_cc_rounds, cfg.small_cc_limit
    )
    clusters = assign_clusters(
        _docs(sf_dir, ["doc_id"]),
        labels,
        num_partitions,
        labels_table=info.get("labels_table"),
    )
    return clusters.select_columns(["doc_id", "cluster_id", "keep"])


def doc_cluster_density(
    sf_dir: str, k: int = 3, tau: float = 0.7, num_partitions: int = 8
):
    """Per-cluster DENSITY audit ``2E / (n(n-1))`` over the exact near-dup
    clustering — the quality signal separating true duplicate cliques
    (density 1.0) from chains the transitive closure glued together
    (density -> 2/n).  Exact SSJoin edges + the flagship CC; each edge is
    attributed to its cluster through ONE narrow hash join on the a
    endpoint (both endpoints share a cluster by construction); density
    divides two exact int64s, bit-identical to the oracle."""
    import functools

    from ray.data.aggregate import Count

    from dynaalign_ray.joins import hash_join
    from dynaalign_ray.stages.cluster import assign_clusters, connected_components
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    edges = prefix_jaccard_join(sets_ds, tau, num_partitions, order="df").materialize()
    cfg = DedupConfig()
    labels, info = connected_components(
        edges, num_partitions, cfg.max_cc_rounds, cfg.small_cc_limit
    )
    clusters = assign_clusters(
        _docs(sf_dir, ["doc_id"]),
        labels,
        num_partitions,
        labels_table=info.get("labels_table"),
    ).select_columns(["doc_id", "cluster_id"])

    sizes = clusters.groupby("cluster_id", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_docs")
    )

    def edge_a(b: pa.Table) -> pa.Table:
        return pa.table(
            {"a": pa.array(np.asarray(b.column("a")).astype(np.int64), pa.int64())}
        )

    ec = (
        hash_join(
            edges.map_batches(edge_a, batch_format="pyarrow", zero_copy_batch=True),
            clusters,
            left_on="a",
            right_on="doc_id",
            left_schema=pa.schema([("a", pa.int64())]),
            right_schema=pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64())]),
            num_partitions=num_partitions,
        )
        .groupby("cluster_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_edges"))
    )
    joined = hash_join(
        sizes,
        ec,
        left_on="cluster_id",
        right_on="cluster_id",
        left_schema=pa.schema([("cluster_id", pa.int64()), ("n_docs", pa.int64())]),
        right_schema=pa.schema([("cluster_id", pa.int64()), ("n_edges", pa.int64())]),
        num_partitions=num_partitions,
    )

    def density(b: pa.Table) -> pa.Table:
        from dynaalign_ray.pipelines.relational import round4

        n = np.asarray(b.column("n_docs"), dtype=np.int64)
        e = np.asarray(b.column("n_edges"), dtype=np.int64)
        d = round4((2.0 * e.astype(np.float64)) / (n * (n - 1)).astype(np.float64))
        return pa.table(
            {
                "cluster_id": b.column("cluster_id"),
                "n_docs": b.column("n_docs"),
                "n_edges": b.column("n_edges"),
                "density": d,
            }
        )

    # the inner join already restricts to clusters with >= 1 edge, i.e.
    # exactly the multi-doc clusters (singletons have no edges)
    return joined.map_batches(density, batch_format="pyarrow", zero_copy_batch=True)


def doc_neardup_best_keep(sf_dir: str, num_partitions: int = 8):
    """Flagship clustering + the production keep rule: within each
    near-dup cluster keep the HIGHEST-QUALITY doc (argmax by
    quality_score DESC, doc_id ASC) instead of the min-id representative
    (stages/cluster.rekeep_best).  Quality scores are bit-exact vs their
    own oracle, so the argmax — and therefore the keep set — is
    SQL-reproducible."""
    from dynaalign_ray.functions.textstats import quality_score_batch
    from dynaalign_ray.pipelines.neardup import near_dedup
    from dynaalign_ray.stages.cluster import rekeep_best

    cfg = DedupConfig(shingle_k=3)
    clusters = near_dedup(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]),
        cfg=cfg,
        num_partitions=num_partitions,
    ).clusters
    scores = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_score_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    return rekeep_best(clusters, scores, num_partitions)


def doc_neardup_sized(sf_dir: str, num_partitions: int = 8):
    """Flagship pipeline + the clusterbreak size controller
    (size_min/size_max re-split with per-component quantile re-thresholding,
    "<round>.<cid>" labels — R/clusterbreak.R:224-254 semantics).  size_min=1
    so every doc appears exactly once (rows-only check: deterministic
    labels)."""
    from dynaalign_ray.pipelines.clusterbreak import cluster_break

    cfg = DedupConfig(shingle_k=3)
    res = cluster_break(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]),
        cfg=cfg,
        size_max=8,
        size_min=1,
        thresh_p=0.8,
        max_rounds=5,
        num_partitions=num_partitions,
    )
    return res.clustered.select_columns(["doc_id", "cluster_id", "cluster_label", "round"])


def doc_neardup_incremental(sf_dir: str, num_partitions: int = 8):
    """Incremental near-dup probe (pipelines/incremental.py): 90% of the
    documents table plays the indexed base corpus, the other 10% the new
    snapshot; returns the new docs' cluster assignments.  Equality with the
    full-batch run is pytest-proven (tests/test_incremental.py); this query
    is rows-only for the driver."""
    import tempfile

    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.pipelines.incremental import build_index, incremental_dedup

    configure_context()

    def _side(new: bool):
        def filt(batch: pa.Table) -> pa.Table:
            m = (np.asarray(batch.column("doc_id")).astype(np.int64) % 10) == 9
            return batch.filter(pa.array(m if new else ~m))

        return filt

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    base = docs.map_batches(_side(False), batch_format="pyarrow", zero_copy_batch=True)
    new = docs.map_batches(_side(True), batch_format="pyarrow", zero_copy_batch=True)
    with tempfile.TemporaryDirectory(prefix="dynaalign_incr_") as idx_dir:
        build_index(base, index_dir=idx_dir, num_partitions=num_partitions)
        res = incremental_dedup(new, index_dir=idx_dir, num_partitions=num_partitions)
        # materialize inside the tempdir scope: the lazy plan reads the index
        return res.new_clusters.materialize()


def doc_minhash_signatures(sf_dir: str):
    """Deterministic signature table (doc_id, simhash, n_shingles)."""
    from dynaalign_ray.stages.minhash import signatures_dataset

    cfg = DedupConfig(shingle_k=3)
    sigs = signatures_dataset(_docs(sf_dir, ["doc_id", "text"]), cfg)

    def strip(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": batch.column("simhash").cast(pa.uint64()),
                "n_shingles": batch.column("n_shingles"),
            }
        )

    return sigs.map_batches(strip, batch_format="pyarrow", zero_copy_batch=True)


def doc_simhash_pairs(sf_dir: str, num_partitions: int = 8, max_hamming: int = 8):
    """SimHash near-dup edges over documents."""
    from dynaalign_ray.stages.minhash import signatures_dataset
    from dynaalign_ray.stages.simhash_stage import simhash_edges

    cfg = DedupConfig(shingle_k=3)
    sigs = signatures_dataset(_docs(sf_dir, ["doc_id", "text"]), cfg).materialize()
    return simhash_edges(sigs, cfg, num_partitions, max_hamming=max_hamming)


def doc_substring_pairs(sf_dir: str, num_partitions: int = 8, min_len: int = 120):
    """Exact long-match (substring) dup edges over documents."""
    from dynaalign_ray.stages.substring import substring_edges

    docs = _docs(sf_dir, ["doc_id", "text"]).materialize()
    return substring_edges(docs, num_partitions, min_len=min_len)


def embedding_topk(sf_dir: str, k: int = 5, n_queries: int = 5):
    """Exact cosine top-k: queries are the embeddings of vec_id < n_queries;
    the query's own vector is excluded.  Returns (query_id, rank, vec_id)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qrows = sorted(
        (r for r in emb.filter(expr=f"vec_id < {n_queries}").take_all()),
        key=lambda r: r["vec_id"],
    )
    qm = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    from dynaalign_ray.functions.similarity_search import brute_force_topk

    out = brute_force_topk(emb, qm, k=k, exclude_ids=qids)
    # map positional query index -> vec_id of the query
    qcol = np.asarray(out.column("query_id"))
    return pa.table(
        {
            "query_id": pa.array(qids[qcol], type=pa.int64()),
            "rank": out.column("rank"),
            "vec_id": out.column("vec_id"),
        }
    )


def embedding_cosine_pairs(sf_dir: str, threshold: float = 0.35):
    """Embedding-cosine near-dup pairs, EXACT plan (broadcast matrix,
    per-block stripe matmul): all (a < b) with cosine >= threshold.
    DuckDB-oracle-checked (cosine rounded to 4 decimals, both sides)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.similarity_search import cosine_neardup_pairs
    from dynaalign_ray.pipelines.relational import round4

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    pairs = cosine_neardup_pairs(emb, threshold)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "cosine": round4(batch.column("cosine")),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def embedding_cosine_pairs_lsh(sf_dir: str, threshold: float = 0.35, num_partitions: int = 8):
    """Embedding-cosine near-dup, LSH-bucketed scale path (sign-projection
    bands + in-bucket scoring + cross-band dedup).  Rows-only check here;
    recall vs the exact plan is pytest-gated."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.similarity_search import cosine_neardup_lsh
    from dynaalign_ray.pipelines.relational import round4

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    pairs = cosine_neardup_lsh(emb, threshold, num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": batch.column("a"),
                "b": batch.column("b"),
                "cosine": round4(batch.column("cosine")),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def embedding_semdedup(sf_dir: str, threshold: float = 0.35):
    """Semantic dedup, EXACT plan: (vec_id, cluster_id, keep) — connected
    components of the exact cosine >= threshold graph, cluster_id = component
    min vec_id, keep = representative.  DuckDB-oracle-checked (recursive-CTE
    reachability over the exact pair set, same shape as the flagship
    doc_neardup_clusters oracle)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.similarity_search import semantic_dedup

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return semantic_dedup(emb, threshold, plan="exact", num_partitions=4)


def embedding_semdedup_kmeans(sf_dir: str, threshold: float = 0.35):
    """Semantic dedup, SemDeDup k-means-bucketed scale plan (n_assign=2 to
    recover centroid-boundary pairs).  Rows-only for the driver; recall and
    plan agreement vs the exact plan are pytest-gated
    (tests/test_round3.py)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.similarity_search import semantic_dedup

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return semantic_dedup(
        emb,
        threshold,
        plan="kmeans",
        num_partitions=4,
        n_centroids=16,
        n_assign=2,
    )


def embedding_label_norms(sf_dir: str, num_partitions: int = 8):
    """Per-label mean L2 norm of embeddings (list-column numeric kernel)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Mean

    from dynaalign_ray.exec import configure_context

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def norms(batch: pa.Table) -> pa.Table:
        m = list_matrix(batch.column("embedding"), np.float64)
        return pa.table(
            {
                "label": batch.column("label").cast(pa.int64()),
                "norm": pa.array(np.sqrt((m * m).sum(axis=1)), type=pa.float64()),
            }
        )

    agg = (
        emb.map_batches(norms, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_vecs"), Mean("norm", alias_name="avg_norm"))
    )

    from dynaalign_ray.pipelines.relational import _round_cols

    return _round_cols(agg, ["avg_norm"])


def doc_vocab(sf_dir: str, k: int = 3, num_partitions: int = 8):
    """Global sorted distinct shingle vocabulary — the reference's
    ``create_vocab`` (R/minHash.R:38-41) as a distributed distinct: emit
    word-k-shingle STRINGS per doc, hash-aggregate distinct, sort.
    (Only used for R-path parity/oracles; the production path hashes
    shingles and never materializes a global vocab.)"""
    from ray.data.aggregate import Count

    def emit(batch: pa.Table) -> pa.Table:
        # Arrow-native k-shingle strings: split once, window by offset
        # arithmetic, join the k shifted token gathers element-wise —
        # no per-doc Python (empty tokens dropped to match str.split)
        toks = pc.utf8_split_whitespace(batch.column("text"))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        counts = np.diff(np.asarray(toks.offsets).astype(np.int64))
        nonempty = np.asarray(pc.greater(pc.utf8_length(flat), 0))
        if len(nonempty) and not nonempty.all():
            doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            flat = flat.filter(pa.array(nonempty))
            counts = np.bincount(doc_of[nonempty], minlength=len(counts)).astype(
                np.int64
            )
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(counts) else 0
        nwin = total - k + 1
        if nwin <= 0:
            return pa.table({"shingle": pa.array([], type=pa.string())})
        w = np.arange(nwin, dtype=np.int64)
        doc_of_w = np.searchsorted(ends, w, side="right")
        w = w[(w + k) <= ends[doc_of_w]]
        parts = [flat.take(pa.array(w + j, type=pa.int64())) for j in range(k)]
        return pa.table({"shingle": pc.binary_join_element_wise(*parts, " ")})

    ds = _docs(sf_dir, ["text"]).map_batches(
        emit, batch_format="pyarrow", zero_copy_batch=True
    )
    return (
        ds.groupby("shingle", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n"))
        .select_columns(["shingle"])
    )


def doc_novelty(sf_dir: str, k: int = 3, num_partitions: int = 8):
    """Per-doc novelty score: the fraction of a doc's DISTINCT word-k-shingles
    that appear in no other document (shingle document frequency == 1) — the
    boilerplate/novelty signal of a web-scale curation pass (low novelty =
    template-heavy page; the complement of the containment/near-dup family).

    100 TB plan — no broadcast, one linear pipeline, both wide steps ship
    (int63, int63) rows only:

    1. one map_batches pass: vectorized shingle hashes
       (shingles.batch_shingle_hashes — the same kernel the MinHash stage
       uses, so hash identity matches the rest of the engine), per-doc
       DISTINCT via one lexsort + adjacent-dup drop;
    2. repartition by shingle hash; per-block Arrow group_by gives each
       shingle's document frequency (rows for a hash are co-located), and
       every row re-emits (doc_id, is_novel = df == 1) — the shingle never
       travels as a string;
    3. repartition by doc_id; per-block group_by: n_shingles = row count
       (rows are per-doc distinct), n_novel = sum(is_novel), novelty =
       one float64 division.

    Shingle equality is 63-bit hash identity (repo-wide documented collision
    bound); the DuckDB oracle compares shingle strings — equal in expectation
    and verified exact on the driver tables."""
    from dynaalign_ray.hashing import to_id63
    from dynaalign_ray.shingles import batch_shingle_hashes

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_shingles", pa.int64()),
            ("n_novel", pa.int64()),
            ("novelty", pa.float64()),
        ]
    )

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        hashes, counts = batch_shingle_hashes(batch.column("text"), k)
        h63 = to_id63(hashes)
        doc_of = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
        order = np.lexsort((h63, doc_of))
        hs, ds = h63[order], doc_of[order]
        keep = np.ones(len(hs), dtype=bool)
        keep[1:] = (hs[1:] != hs[:-1]) | (ds[1:] != ds[:-1])
        return pa.table(
            {
                "sh": pa.array(hs[keep], type=pa.int64()),
                "doc_id": pa.array(ids[ds[keep]], type=pa.int64()),
            }
        )

    def df_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "is_novel": pa.array([], pa.int64()),
                }
            )
        g = b.group_by("sh").aggregate([("doc_id", "count")])
        j = b.join(g, keys=["sh"])
        return pa.table(
            {
                "doc_id": j.column("doc_id"),
                "is_novel": pc.cast(
                    pc.equal(j.column("doc_id_count"), 1), pa.int64()
                ),
            }
        )

    def nov_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        g = b.group_by("doc_id").aggregate(
            [("is_novel", "sum"), ("is_novel", "count")]
        )
        n_novel = np.asarray(g.column("is_novel_sum")).astype(np.int64)
        n_sh = np.asarray(g.column("is_novel_count")).astype(np.int64)
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "n_shingles": pa.array(n_sh, type=pa.int64()),
                "n_novel": pa.array(n_novel, type=pa.int64()),
                "novelty": pa.array(
                    n_novel.astype(np.float64) / n_sh, type=pa.float64()
                ),
            }
        )

    ex = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )
    df = ex.repartition(num_blocks=num_partitions, keys=["sh"]).map_batches(
        df_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    return df.repartition(num_blocks=num_partitions, keys=["doc_id"]).map_batches(
        nov_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


_MIX_KNUTH = np.uint64(0x9E3779B97F4A7C15)  # odd => bijective mod 2^64


def doc_source_mix(sf_dir: str, token_budget: int = 700, num_partitions: int = 8):
    """Deterministic token-budget corpus mixing — the LLM 'data mixture'
    operator: cap every source's contribution at ``token_budget`` tokens so
    no domain dominates the training mix.  Docs within a source are admitted
    in mix-key order (a pure multiplicative u64 hash of doc_id: reshard- and
    resume-stable, no RNG state, same discipline as doc_sample) while the
    source's INCLUSIVE cumulative token count stays <= budget.

    Plan: one narrow map (doc_id, source, n_tokens, mix_key — text never
    leaves the read stage), ONE keyed repartition by source, per-block
    Arrow sort + vectorized segment cumsum (the doc_source_quantiles block
    pattern).  Shuffle volume is 4 small columns per doc regardless of doc
    size."""
    from dynaalign_ray.functions.textstats import token_count_batch

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("source", pa.string()), ("n_tokens", pa.int64())]
    )

    def derive(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        toks = token_count_batch(batch)
        key = ((ids.astype(np.uint64) * _MIX_KNUTH) >> np.uint64(1)).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_tokens": toks.column("n_tokens"),
                "mix_key": pa.array(key, type=pa.int64()),
            }
        )

    def mix_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b,
            sort_keys=[
                ("source", "ascending"),
                ("mix_key", "ascending"),
                ("doc_id", "ascending"),
            ],
        )
        s = b.take(idx)
        src = s.column("source").combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.chunk(0)
        codes = np.asarray(src.dictionary_encode().indices, dtype=np.int64)
        toks = np.asarray(s.column("n_tokens")).astype(np.int64)
        starts = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]])
        )
        seg_lens = np.diff(np.append(starts, len(codes)))
        cs = np.cumsum(toks)
        seg_base = np.repeat(cs[starts] - toks[starts], seg_lens)
        keep = (cs - seg_base) <= token_budget  # inclusive group cumsum
        return s.select(["doc_id", "source", "n_tokens"]).filter(pa.array(keep))

    d = _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
        derive, batch_format="pyarrow", zero_copy_batch=True
    )
    return d.repartition(num_blocks=num_partitions, keys=["source"]).map_batches(
        mix_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_pack_sequences(sf_dir: str, pack_budget: int = 160, num_partitions: int = 8):
    """Greedy sequence packing — the LLM training-batch assembly operator:
    within each source, docs in doc_id order are packed into consecutive
    bins of at most ``pack_budget`` whitespace tokens; a doc that does not
    fit the open bin starts a new one (a doc larger than the whole budget
    packs alone).  pack_id = doc_id of the pack's first member, so labels
    are pure functions of the data — reshard- and resume-stable, no
    sequential counter to coordinate across partitions.

    Plan: narrow derive (doc_id, source, n_tokens — text never leaves the
    read stage), ONE keyed repartition by source, per-block Arrow sort +
    an O(#packs log n) searchsorted boundary walk over the per-source token
    cumsum (greedy bin boundaries are inherently sequential; the walk is
    per PACK, never per doc).  Shuffle volume is 3 small columns per doc
    regardless of document size."""
    from dynaalign_ray.functions.textstats import token_count_batch

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("source", pa.string()),
            ("n_tokens", pa.int64()),
            ("pack_id", pa.int64()),
        ]
    )

    def derive(batch: pa.Table) -> pa.Table:
        toks = token_count_batch(batch)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_tokens": toks.column("n_tokens"),
            }
        )

    def pack_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b, sort_keys=[("source", "ascending"), ("doc_id", "ascending")]
        )
        s = b.take(idx)
        src = s.column("source").combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.chunk(0)
        codes = np.asarray(src.dictionary_encode().indices, dtype=np.int64)
        ids = np.asarray(s.column("doc_id")).astype(np.int64)
        toks = np.asarray(s.column("n_tokens")).astype(np.int64)
        seg_starts = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1]])
        )
        seg_ends = np.append(seg_starts[1:], len(codes))
        cs = np.cumsum(toks)
        pack = np.empty(len(ids), dtype=np.int64)
        for st, en in zip(seg_starts, seg_ends):
            base = cs[st] - toks[st]
            pos = st
            while pos < en:
                target = (cs[pos - 1] if pos > st else base) + pack_budget
                end = int(np.searchsorted(cs[st:en], target, side="right")) + st
                end = max(end, pos + 1)  # oversized doc packs alone
                pack[pos:end] = ids[pos]
                pos = end
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "source": s.column("source"),
                "n_tokens": pa.array(toks, type=pa.int64()),
                "pack_id": pa.array(pack, type=pa.int64()),
            }
        )

    d = _docs(sf_dir, ["doc_id", "source", "text"]).map_batches(
        derive, batch_format="pyarrow", zero_copy_batch=True
    )
    return d.repartition(num_blocks=num_partitions, keys=["source"]).map_batches(
        pack_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_length_quantiles(sf_dir: str, num_partitions: int = 8):
    """Exact token-count quantiles over the corpus (p25/p50/p75/p90/p99) —
    the distributed-exact-quantile operator (value histogram, DuckDB
    quantile_disc semantics); see functions/sketches.exact_int_quantiles."""
    from dynaalign_ray.functions.sketches import exact_int_quantiles
    from dynaalign_ray.functions.textstats import token_count_batch

    counts = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    out = exact_int_quantiles(
        counts, "n_tokens", [0.25, 0.5, 0.75, 0.9, 0.99], num_partitions
    )
    return out.rename_columns(["q", "n_tokens"])


def doc_length_quantiles_cont(sf_dir: str, num_partitions: int = 8):
    """Exact INTERPOLATED token-count quantiles (DuckDB quantile_cont rule:
    linear interpolation at position q*(n-1)) over the same distributed
    value histogram; see functions/sketches.exact_int_quantiles_cont."""
    from dynaalign_ray.functions.sketches import exact_int_quantiles_cont
    from dynaalign_ray.functions.textstats import token_count_batch

    counts = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    out = exact_int_quantiles_cont(
        counts, "n_tokens", [0.25, 0.5, 0.75, 0.9, 0.99], num_partitions
    )
    return out.rename_columns(["q", "n_tokens"])


def doc_top_terms(sf_dir: str, num_partitions: int = 8):
    """Per-document most-distinctive term by rarity-weighted frequency
    (tf * n_docs / df over whitespace tokens; ties break on the
    lexicographically-first term) — see functions/tfidf.py for the plan."""
    from dynaalign_ray.functions.tfidf import top_terms

    docs = _docs(sf_dir, ["doc_id", "text"])
    return top_terms(docs, num_partitions)


def doc_search_topk(
    sf_dir: str,
    terms: tuple = ("hash", "join", "merge"),
    k: int = 10,
    num_partitions: int = 8,
):
    """Ranked BOOLEAN-OR retrieval: top-k docs by an exact-integer
    tf-idf score over a fixed query-term set — the search shape over the
    corpus.  Weight per term is the scaled floor ratio
    ``w(t) = (N * 10^6) // df(t)`` and ``score(d) = sum tf(t,d) * w(t)``
    — all integers, order-independent sums, bit-identical to the SQL
    oracle.  Plan: one tokenize pass emits only query-term (doc, term,
    tf) rows; df is a |terms|-row aggregate; weights are |terms| driver
    scalars; scoring is one tiny groupby-sum; the top-k is the repo's
    per-block partial pattern (never a global sort)."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.exec import partial_topk
    from dynaalign_ray.functions.tfidf import _flat_tokens
    from dynaalign_ray.joins import collect_arrow

    term_list = list(terms)
    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()  # parquet metadata, no execution

    def tf_block(batch: pa.Table) -> pa.Table:
        doc_per_tok, toks = _flat_tokens(batch)
        keep = pc.is_in(toks, value_set=pa.array(term_list))
        kn = np.asarray(keep)
        t = pa.table(
            {
                "doc_id": pa.array(doc_per_tok[kn], pa.int64()),
                "term": toks.filter(keep),
            }
        )
        return t.group_by(["doc_id", "term"]).aggregate([("term", "count")]).rename_columns(
            ["doc_id", "term", "tf"]
        )

    tf = docs.map_batches(
        tf_block, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    # blocks may split a (doc, term) pair: re-sum so tf is global
    tf = tf.groupby(["doc_id", "term"], num_partitions=num_partitions).aggregate(
        Sum("tf", alias_name="tf")
    ).materialize()
    df_tbl = collect_arrow(
        tf.groupby("term", num_partitions=num_partitions).aggregate(
            Count(alias_name="df")
        )
    )
    weights = {
        t: (n_docs * 10**6) // int(d)
        for t, d in zip(
            df_tbl.column("term").to_pylist(), df_tbl.column("df").to_pylist()
        )
    }

    def score_block(b: pa.Table) -> pa.Table:
        w = np.array(
            [weights.get(t, 0) for t in b.column("term").to_pylist()], dtype=np.int64
        )
        tfv = np.asarray(b.column("tf"), dtype=np.int64)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "partial": pa.array(tfv * w, pa.int64()),
            }
        )

    scores = (
        tf.map_batches(score_block, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id", num_partitions=num_partitions)
        .aggregate(Sum("partial", alias_name="score"))
    )
    return partial_topk(
        scores, [("score", "descending"), ("doc_id", "ascending")], k
    )


def events_user_sessions(sf_dir: str, num_partitions: int = 8):
    """Session windows (30-min gap) per user over the events table."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.stages.windows import user_sessions

    configure_context()
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return user_sessions(ev, num_partitions)


def doc_char_classes(sf_dir: str):
    """Per-doc character-class counts (punct/digit/upper + chars/tokens) —
    the integer-valued core of the quality features, bit-exact checkable
    against DuckDB (both regex engines are RE2)."""
    def kern(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": pc.utf8_length(text).cast(pa.int64()),
                "n_tokens": pc.count_substring_regex(text, r"\S+").cast(pa.int64()),
                "n_punct": pc.count_substring_regex(
                    text, r"[!-/:-@\[-`{-~]"
                ).cast(pa.int64()),
                "n_digit": pc.count_substring_regex(text, r"[0-9]").cast(pa.int64()),
                "n_upper": pc.count_substring_regex(text, r"[A-Z]").cast(pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        kern, batch_format="pyarrow", zero_copy_batch=True
    )


def events_sliding_counts(sf_dir: str, num_partitions: int = 8):
    """Sliding windows (size 1h, step 30min) over events: window-explode +
    keyed count (stages.windows.sliding_window_counts)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.stages.windows import sliding_window_counts

    configure_context()
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])
    return sliding_window_counts(
        ev, num_partitions, size_us=3_600_000_000, step_us=1_800_000_000
    )


def embedding_topk_lsh(sf_dir: str, k: int = 5, n_queries: int = 5):
    """Approximate (sign-LSH bucketed, multiprobe) cosine top-k — the ANN
    scale path; rows-only check (approximation is evaluated vs the exact
    path in tests)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.similarity_search import lsh_bucket_topk

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qrows = sorted(
        (r for r in emb.filter(expr=f"vec_id < {n_queries}").take_all()),
        key=lambda r: r["vec_id"],
    )
    qm = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    return lsh_bucket_topk(emb, qm, k=k, n_bits=6)


def embedding_topk_ivf(sf_dir: str, k: int = 5, n_queries: int = 5):
    """Approximate cosine top-k via an IVF index (sample-trained spherical
    k-means centroids, nprobe nearest lists per query) — the centroid
    counterpart of the sign-LSH scale path; rows-only check (recall is
    evaluated vs the exact path in tests)."""
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.similarity_search import ivf_topk

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qrows = sorted(
        (r for r in emb.filter(expr=f"vec_id < {n_queries}").take_all()),
        key=lambda r: r["vec_id"],
    )
    qm = np.array([r["embedding"] for r in qrows], dtype=np.float64)
    return ivf_topk(emb, qm, k=k, n_centroids=32, nprobe=8)


def doc_shingle_except(sf_dir: str, src_a: str = "src0", src_b: str = "src1", num_partitions: int = 8):
    """Distributed EXCEPT set-op: distinct word 3-shingles in ``src_a`` but
    none of ``src_b``'s docs.  See :func:`_shingle_setop` for the plan."""
    return _shingle_setop(sf_dir, src_a, src_b, num_partitions, op="except")


def doc_shingle_intersect(sf_dir: str, src_a: str = "src0", src_b: str = "src1", num_partitions: int = 8):
    """Distributed INTERSECT set-op: distinct word 3-shingles appearing in
    BOTH sources' documents (the shared-boilerplate detector — cross-source
    shingle overlap is exactly what inflates LSH buckets at web scale).
    Same side-bit plan as :func:`doc_shingle_except`; keep in_a AND in_b."""
    return _shingle_setop(sf_dir, src_a, src_b, num_partitions, op="intersect")


def _shingle_setop(sf_dir: str, src_a: str, src_b: str, num_partitions: int, op: str):
    """Shared side-bit set-op plan (EXCEPT / INTERSECT) over an exploded
    set (raw token vocabularies of the synthetic sources fully
    overlap; shingles discriminate).  Plan: filter to the two sources at
    the read, vectorized shingle-string construction (flat token gather +
    one ``binary_join_element_wise``), LOCAL per-block distinct of
    (shingle, side-bit) partials — the combiner, so the shuffle carries
    each block's distinct shingles once, not every occurrence — ONE keyed
    repartition on hash(shingle), and a final exact string-grouped OR of
    the side bits per block; keep by the op's side-bit predicate.
    Exactness never depends on the routing hash: shingles are compared as
    strings inside the block."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.hashing import hash_strings, to_id63

    configure_context()
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "text"],
        filter=(pads.field("source") == src_a) | (pads.field("source") == src_b),
    )

    def shingle_partial(batch: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [("sh", pa.string()), ("in_a", pa.int8()), ("in_b", pa.int8()), ("route", pa.int64())]
        )
        if batch.num_rows == 0:
            return out_schema.empty_table()
        lst = pc.split_pattern_regex(batch.column("text"), pattern=r"\s+")
        flat = pc.list_flatten(lst).combine_chunks()
        lens = np.asarray(pc.list_value_length(lst), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        flat = flat.filter(pa.array(nonempty))
        # token counts per doc after dropping the ''-tokens a leading /
        # trailing whitespace split produces (DuckDB's \\S+ never emits them)
        bounds = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=bounds[1:])
        lens = np.add.reduceat(nonempty.astype(np.int64), bounds[:-1]) if len(flat) else lens * 0
        lens[bounds[:-1] == bounds[1:]] = 0  # reduceat repeats on empty segments
        n_sh = np.maximum(lens - 2, 0)
        if n_sh.sum() == 0:
            return out_schema.empty_table()
        doc_start = np.zeros(len(lens), dtype=np.int64)
        np.cumsum(lens[:-1], out=doc_start[1:])
        # start index of every shingle: for each doc, doc_start .. doc_start+n_sh-1
        first = np.repeat(doc_start, n_sh)
        within = np.arange(int(n_sh.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(n_sh) - n_sh, n_sh
        )
        starts = first + within
        sh = pc.binary_join_element_wise(
            flat.take(pa.array(starts)),
            flat.take(pa.array(starts + 1)),
            flat.take(pa.array(starts + 2)),
            " ",
        )
        side_a = np.asarray(pc.equal(batch.column("source"), src_a))
        a_of_sh = np.repeat(side_a, n_sh)
        t = pa.table(
            {
                "sh": sh,
                "in_a": pa.array(a_of_sh.astype(np.int8)),
                "in_b": pa.array((~a_of_sh).astype(np.int8)),
            }
        )
        part = t.group_by(["sh"]).aggregate([("in_a", "max"), ("in_b", "max")])
        part = part.rename_columns(["sh", "in_a", "in_b"])
        route = to_id63(hash_strings(part.column("sh").to_pylist()))
        return part.append_column("route", pa.array(route, type=pa.int64())).cast(out_schema)

    b_bit = 0 if op == "except" else 1
    if op not in ("except", "intersect"):
        raise ValueError(f"op must be 'except' or 'intersect', got {op!r}")

    def setop_block(b: pa.Table) -> pa.Table:
        out_schema = pa.schema([("sh", pa.string())])
        if b.num_rows == 0:
            return out_schema.empty_table()
        g = b.group_by(["sh"]).aggregate([("in_a", "max"), ("in_b", "max")])
        g = g.rename_columns(["sh", "in_a", "in_b"])
        keep = pc.and_(
            pc.equal(g.column("in_a"), pa.scalar(1, pa.int8())),
            pc.equal(g.column("in_b"), pa.scalar(b_bit, pa.int8())),
        )
        return g.filter(keep).select(["sh"])

    return (
        ds.map_batches(shingle_partial, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["route"])
        .map_batches(
            setop_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )


def _media_codec_features(
    sf_dir: str, num_partitions: int, media_type: str, encode_fn
):
    """Shared driver for the per-codec feature queries: synthesize the
    deterministic image corpus re-encoded by ``encode_fn``, push it
    through the strict MediaFeatureActor pool (real decode, no fakes)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.multimodal import MediaFeatureActor, synth_image

    configure_context()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    n_media = max(8, n_docs // 4)

    def synth(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("id")).astype(np.int64)
        payloads = [encode_fn(synth_image(int(i))) for i in ids]
        return pa.table(
            {
                "media_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
                "media_type": pa.array([media_type] * len(ids), pa.string()),
            }
        )

    return (
        rd.range(n_media)
        .map_batches(synth, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(
            MediaFeatureActor,
            fn_constructor_kwargs={"decode": "strict"},
            batch_format="pyarrow",
            batch_size=64,
            concurrency=num_partitions,
        )
    )


def media_gif_features(sf_dir: str, num_partitions: int = 4):
    """GIF decode under the driver (rows-only): the synthetic image corpus
    as REAL GIF87a payloads (pure-spec LZW — functions/multimodal.decode_gif)
    through the strict actor pool; images posterized to 2 bits/channel so
    the 256-color constraint holds."""
    from dynaalign_ray.functions.multimodal import GIF_TYPE, encode_gif

    return _media_codec_features(
        sf_dir,
        num_partitions,
        GIF_TYPE,
        lambda img: encode_gif((img >> 6) << 6),
    )


def media_png_features(sf_dir: str, num_partitions: int = 4):
    """PNG decode under the driver (rows-only): REAL PNG payloads
    (stdlib-zlib DEFLATE + scanline filters — functions/multimodal.decode_png)
    through the strict actor pool."""
    from dynaalign_ray.functions.multimodal import PNG_TYPE, encode_png

    return _media_codec_features(sf_dir, num_partitions, PNG_TYPE, encode_png)


def media_jpeg_features(sf_dir: str, num_partitions: int = 4):
    """Baseline JPEG decode under the driver (rows-only): REAL JFIF
    payloads (pure-spec Huffman + IDCT + YCbCr — functions/jpeg.decode_jpeg)
    through the strict actor pool; 4:2:0 subsampling and restart markers
    exercised by alternating encoder settings per media row."""
    from dynaalign_ray.functions.jpeg import JPEG_TYPE, encode_jpeg

    def encode(img):
        # alternate the encoder's hard paths so the query exercises
        # 4:4:4, 4:2:0 and restart-interval decode in one corpus
        mode = int(img[0, 0, 0]) % 3
        if mode == 0:
            return encode_jpeg(img, quality=90)
        if mode == 1:
            return encode_jpeg(img, quality=85, subsample=True)
        return encode_jpeg(img, quality=80, restart_interval=2)

    return _media_codec_features(sf_dir, num_partitions, JPEG_TYPE, encode)


def media_codec_summary(sf_dir: str, num_partitions: int = 4):
    """Driver-checkable scalar form of the compressed-codec decode paths:
    GIF + PNG + baseline JPEG feature vectors (the three list-column
    rows-only queries) summarized to per-media (f_mean, f_min, f_max)
    round4 scalars.  Corpus and pure-spec codecs are deterministic, so
    the pinned-golden oracle gates all three decoders at the driver —
    a changed Huffman table, LZW width bump or scanline filter shows up
    as a hash mismatch here."""
    from dynaalign_ray.pipelines.relational import round4

    def summarize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [
                    ("media_id", pa.int64()),
                    ("media_type", pa.string()),
                    ("f_mean", pa.float64()),
                    ("f_min", pa.float64()),
                    ("f_max", pa.float64()),
                ]
            ).empty_table()
        arr = list_matrix(batch.column("feature"), np.float64)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "media_type": batch.column("media_type"),
                "f_mean": round4(arr.mean(axis=1)),
                "f_min": round4(arr.min(axis=1)),
                "f_max": round4(arr.max(axis=1)),
            }
        )

    # each codec pipeline materializes SEQUENTIALLY before the union: a
    # lazy 3-way union of actor-pool stages reserves 3 pools of CPUs at
    # once and deadlocks small clusters (the chained-actor-pool hazard);
    # outputs are row-bounded, so the materialize is a few hundred rows
    # per codec
    parts = [
        media_gif_features(sf_dir, num_partitions).materialize(),
        media_png_features(sf_dir, num_partitions).materialize(),
        media_jpeg_features(sf_dir, num_partitions).materialize(),
    ]
    ds = parts[0].union(parts[1], parts[2])
    return ds.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True)


def media_features(sf_dir: str, num_partitions: int = 4):
    """REAL multimodal decode under the driver (rows-only): a deterministic
    media corpus sized from the documents table (one media row per two docs;
    PPM images / PCM WAVs round-robin with opaque video rows), decodable
    types pushed through the strict MediaFeatureActor pool — actual PPM/WAV
    parsing, dHash and spectral features, no fakes.  Video rows are filtered
    upstream (compressed decode is the one honestly-stubbed step: no codec
    libs in this container).  Output: per-media feature summary scalars."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.multimodal import (
        PPM_TYPE,
        WAV_TYPE,
        MediaFeatureActor,
        synth_media_table,
    )
    from dynaalign_ray.pipelines.relational import round4

    configure_context()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    media = synth_media_table(max(n_docs // 2, 6))
    ds = rd.from_arrow(media).repartition(num_blocks=num_partitions)

    def decodable(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return batch.filter(
            _pc.is_in(batch.column("media_type"), value_set=pa.array([PPM_TYPE, WAV_TYPE]))
        )

    feats = ds.map_batches(
        decodable, batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(
        MediaFeatureActor,
        fn_constructor_kwargs={"decode": "strict"},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )

    def summarize(batch: pa.Table) -> pa.Table:
        arr = list_matrix(batch.column("feature"), np.float64)
        return pa.table(
            {
                "media_id": batch.column("media_id"),
                "media_type": batch.column("media_type"),
                "f_mean": round4(arr.mean(axis=1)),
                "f_min": round4(arr.min(axis=1)),
                "f_max": round4(arr.max(axis=1)),
            }
        )

    return feats.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True)


def media_image_neardup(sf_dir: str, num_partitions: int = 4, max_hamming: int = 10):
    """Image near-duplicate pairs (rows-only): REAL PPM decode -> 64-bit
    dHash -> the engine's SimHash pigeonhole bucketer (16 chunks of 4 bits
    cover Hamming <= 15 by pigeonhole) -> exact vectorized Hamming verify.
    The corpus is deterministic with planted noisy copies (every 4th image);
    mean-pooled dHash keeps planted pairs <= ~9 bits apart and unrelated
    images >= ~12, so max_hamming=10 separates them.

    Scale note: 4-bit chunks have only 16 key values per chunk — a
    skew-prone keyspace at 10^12 rows; the production setting is fewer,
    wider chunks with a tighter Hamming bound (e.g. 4x16-bit, <= 3) exactly
    as the text SimHash path defaults to, or salted sub-buckets via the
    bands-stage hot-key machinery."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.multimodal import (
        dhash_signature_batch,
        synth_image_corpus,
    )
    from dynaalign_ray.stages.simhash_stage import simhash_edges

    configure_context()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    corpus = synth_image_corpus(max(n_docs // 2, 16))
    sigs = (
        rd.from_arrow(corpus)
        .repartition(num_blocks=num_partitions)
        .map_batches(dhash_signature_batch, batch_format="pyarrow", zero_copy_batch=True)
    )
    return simhash_edges(
        sigs,
        DedupConfig(),
        num_partitions,
        num_chunks=16,
        max_hamming=max_hamming,
    )


def media_video_neardup(sf_dir: str, num_partitions: int = 4, max_hamming: int = 3):
    """Video near-duplicate pairs (rows-only): REAL Y4M decode (pure-spec
    uncompressed video) -> per-sampled-frame 64-bit dHash -> BITWISE
    MAJORITY over frames (temporal SimHash) -> the shared pigeonhole
    Hamming bucketer.  Deterministic corpus with planted ±3-noise copies
    (every 4th video); majority voting absorbs per-frame hash flips —
    measured: planted pairs <= 1 bit apart, unrelated clips >= 5 — so the
    audio path's production setting (4x16-bit pigeonhole, Hamming <= 3)
    separates them exactly."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.multimodal import (
        synth_video_corpus,
        video_hash_signature_batch,
    )
    from dynaalign_ray.stages.simhash_stage import simhash_edges

    configure_context()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    corpus = synth_video_corpus(max(n_docs // 4, 16))
    sigs = (
        rd.from_arrow(corpus)
        .repartition(num_blocks=num_partitions)
        .map_batches(
            video_hash_signature_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    return simhash_edges(
        sigs,
        DedupConfig(),
        num_partitions,
        num_chunks=4,  # 4x16-bit pigeonhole covers Hamming <= 3; 4-bit
        # chunks (256 buckets) measured recall 0.66 past the pair cap at ~2k videos
        max_hamming=max_hamming,
    )


_IMG_ID_BASE = 1 << 50  # image ids live above video ids; guarded below


def media_image_in_video(
    sf_dir: str, num_partitions: int = 4, max_hamming: int = 3
):
    """CROSS-MODAL near-dup (rows-only): find still images that appear as
    frames of videos (thumbnail / keyframe detection).  Video side emits
    one dHash row PER SAMPLED FRAME (multimodal.video_frame_signature_batch),
    image side one row each; both meet in the shared pigeonhole Hamming
    bucketer — a planted frame-image shares the exact 64-bit dHash of its
    source frame, so every chunk bucket collides.  Output: (video_id,
    image_id, hamming) pairs."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.multimodal import (
        PPM_TYPE,
        dhash_signature_batch,
        encode_ppm,
        synth_image,
        synth_video_corpus,
        video_frame_signature_batch,
    )
    from dynaalign_ray.stages.simhash_stage import simhash_edges

    configure_context()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    n = max(n_docs // 4, 16)
    if n >= _IMG_ID_BASE:
        raise ValueError("video id space would collide with image ids")
    videos = synth_video_corpus(n)

    # image corpus: every 5th image (when its video is not a noisy copy) is
    # EXACTLY frame 2 of video k (sampled by every_n=2); the rest unrelated
    img_payloads, img_ids = [], []
    for k in range(n):
        if k % 5 == 0 and k % 4 != 3:
            img = np.roll(synth_image(k, width=32, height=24), 2 * 2, axis=1)
        else:
            img = synth_image(k + 7777, width=32, height=24)
        img_payloads.append(encode_ppm(img))
        img_ids.append(_IMG_ID_BASE + k)
    images = pa.table(
        {
            "media_id": pa.array(np.array(img_ids, dtype=np.int64)),
            "media_type": pa.array([PPM_TYPE] * n, pa.string()),
            "payload": pa.array(img_payloads, pa.binary()),
        }
    )

    frame_sigs = (
        rd.from_arrow(videos)
        .repartition(num_blocks=num_partitions)
        .map_batches(
            video_frame_signature_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    img_sigs = (
        rd.from_arrow(images)
        .repartition(num_blocks=num_partitions)
        .map_batches(
            dhash_signature_batch, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    edges = simhash_edges(
        frame_sigs.union(img_sigs),
        DedupConfig(),
        num_partitions,
        num_chunks=4,  # same 4x16-bit pigeonhole as the video path
        max_hamming=max_hamming,
    )

    from ray.data.aggregate import Min

    # deterministic hamming per pair: different frame representatives can
    # find the same (video, image) pair at different distances — keep the
    # MINIMUM, not an arrival-order survivor
    edges = edges.groupby(["a", "b"], num_partitions=num_partitions).aggregate(
        Min("hamming", alias_name="hamming")
    )

    def cross_only(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a")).astype(np.int64)
        bb = np.asarray(b.column("b")).astype(np.int64)
        keep = (a < _IMG_ID_BASE) & (bb >= _IMG_ID_BASE)
        return pa.table(
            {
                "video_id": pa.array(a[keep], type=pa.int64()),
                "image_id": pa.array(bb[keep] - _IMG_ID_BASE, type=pa.int64()),
                "hamming": pa.array(
                    np.asarray(b.column("hamming")).astype(np.int64)[keep]
                ),
            }
        )

    return edges.map_batches(cross_only, batch_format="pyarrow", zero_copy_batch=True)


def media_audio_neardup(sf_dir: str, num_partitions: int = 4, max_hamming: int = 3):
    """Audio near-duplicate pairs (rows-only): REAL WAV decode -> 64-bit
    spectral signature (band-vs-mean bits) -> the text SimHash pigeonhole
    bucketer at its production setting (4x16-bit chunks, Hamming <= 3).
    Deterministic corpus with planted noise-added copies; planted pairs
    measure <= 1 bit apart, unrelated tone mixes >= ~5."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.functions.multimodal import (
        audio_hash_signature_batch,
        synth_audio_corpus,
    )
    from dynaalign_ray.stages.simhash_stage import simhash_edges

    configure_context()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    corpus = synth_audio_corpus(max(n_docs // 2, 16))
    sigs = (
        rd.from_arrow(corpus)
        .repartition(num_blocks=num_partitions)
        .map_batches(
            audio_hash_signature_batch, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    return simhash_edges(
        sigs, DedupConfig(), num_partitions, num_chunks=4, max_hamming=max_hamming
    )


def doc_corpus_stats(sf_dir: str):
    """Corpus-level metrics: doc count + HLL approximate distinct tokens
    (mergeable-sketch aggregation; deterministic, rows-only check)."""
    from dynaalign_ray.functions.sketches import approx_distinct_strings

    ds = _docs(sf_dir, ["text"])
    n_docs = ds.count()
    approx_tokens = approx_distinct_strings(ds, "text", flatten_tokens=True)
    return pa.table(
        {
            "n_docs": pa.array([n_docs], pa.int64()),
            "approx_distinct_tokens": pa.array([round(approx_tokens)], pa.int64()),
        }
    )


def doc_similarity_stats(sf_dir: str, num_partitions: int = 8):
    """The reference's compute_similarity_stats (R/similarity.R:11-34) over
    the verified near-dup edge set of the documents table: one row of
    mean/min/max edge Jaccard + edge count (rows-only check)."""
    from dynaalign_ray.pipelines.neardup import dedup_stats, near_dedup

    cfg = DedupConfig(shingle_k=3)
    res = near_dedup(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]), cfg=cfg,
        num_partitions=num_partitions,
    )
    s = dedup_stats(res.edges)
    from dynaalign_ray.pipelines.relational import round4

    return pa.table(
        {
            "n_edges": pa.array([s.get("n_edges", 0)], pa.int64()),
            "mean_jaccard": round4([s.get("mean_jaccard", 0.0)]),
            "min_jaccard": round4([s.get("min_jaccard", 0.0)]),
            "max_jaccard": round4([s.get("max_jaccard", 0.0)]),
        }
    )


def doc_neardup_recall_audit(sf_dir: str, num_partitions: int = 8):
    """Production recall monitor for the flagship LSH path — the
    BASELINE.json dup-pair-recall>=0.99 criterion as a driver-checkable
    query.  The exact prefix-filter SSJoin computes the TRUE tau-Jaccard
    pair set (recall 1.0 by the prefix-filter theorem, never O(n^2)); the
    LSH+verify path computes its found set; one tagged-union keyed
    shuffle counts the overlap.  Returns ONE row (n_true_pairs,
    n_found_pairs, n_matched, recall).  The oracle derives n_true_pairs
    from SQL and pins found == matched == true with recall 1.0, so ANY
    LSH recall regression — or a spurious edge the exact verify should
    have dropped — hash-mismatches at the driver."""
    from ray.data.aggregate import Sum

    from dynaalign_ray.joins import collect_arrow
    from dynaalign_ray.pipelines.neardup import near_dedup
    from dynaalign_ray.pipelines.relational import round4

    cfg = DedupConfig(shingle_k=3)  # the flagship documents config (tau=0.7)
    res = near_dedup(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]),
        cfg=cfg,
        num_partitions=num_partitions,
    )
    found = res.edges.select_columns(["a", "b"])
    true_edges = doc_jaccard_pairs_prefix(
        sf_dir, k=3, threshold=cfg.tau, num_partitions=num_partitions
    ).select_columns(["a", "b"])

    def tag(v: int):
        def f(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "a": b.column("a"),
                    "b": b.column("b"),
                    "t": pa.array(np.full(b.num_rows, v, dtype=np.int64)),
                }
            )

        return f

    u = found.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True).union(
        true_edges.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True)
    )

    def count_block(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        t = np.asarray(b.column("t"), dtype=np.int64)
        if len(a) == 0:
            z = pa.array([0], pa.int64())
            return pa.table({"n_found": z, "n_true": z, "n_matched": z})
        order = np.lexsort((t, bb, a))
        a, bb, t = a[order], bb[order], t[order]
        first = np.ones(len(a), dtype=bool)
        first[1:] = (a[1:] != a[:-1]) | (bb[1:] != bb[:-1])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(a))
        # both edge sets are internally duplicate-free, so a pair group
        # holds at most one row per tag
        has_found = t[starts] == 0
        has_true = t[ends - 1] == 1
        return pa.table(
            {
                "n_found": pa.array([int(has_found.sum())], pa.int64()),
                "n_true": pa.array([int(has_true.sum())], pa.int64()),
                "n_matched": pa.array([int((has_found & has_true).sum())], pa.int64()),
            }
        )

    parts = collect_arrow(
        u.repartition(num_blocks=num_partitions, keys=["a", "b"]).map_batches(
            count_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    n_found = int(np.asarray(parts.column("n_found"), dtype=np.int64).sum())
    n_true = int(np.asarray(parts.column("n_true"), dtype=np.int64).sum())
    n_matched = int(np.asarray(parts.column("n_matched"), dtype=np.int64).sum())
    recall = n_matched / n_true if n_true else 1.0
    return pa.table(
        {
            "n_true_pairs": pa.array([n_true], pa.int64()),
            "n_found_pairs": pa.array([n_found], pa.int64()),
            "n_matched": pa.array([n_matched], pa.int64()),
            "recall": round4(np.array([recall])),
        }
    )


def doc_pii(sf_dir: str):
    """Per-doc PII counts (emails / IPv4 / phones) — one Arrow RE2 pass per
    pattern; the oracle runs the same pattern strings through DuckDB RE2."""
    from dynaalign_ray.functions.pii import pii_stats_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        pii_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_pii_redacted(sf_dir: str):
    """Redacted text (emails/IPs/phones -> typed placeholder tokens)."""
    from dynaalign_ray.functions.pii import pii_redact_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        pii_redact_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (dup-word / top-word /
    top-2-gram fractions), lexsort+run-length vectorized per batch."""
    from dynaalign_ray.functions.repetition import repetition_stats_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        repetition_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# deterministic "benchmark set" for the decontam queries: the first
# N_BENCH docs' first SNIP_LEN characters (the oracle SQL derives the
# identical set from the same table, so no external data is involved)
_DECONTAM_N_BENCH = 20
_DECONTAM_SNIP_LEN = 120


def _bench_snippets(sf_dir: str) -> list[str]:
    import pyarrow.dataset as pads

    t = pads.dataset(f"{sf_dir}/documents.parquet").to_table(
        columns=["doc_id", "text"],
        filter=pads.field("doc_id") < _DECONTAM_N_BENCH,
    )
    t = t.sort_by("doc_id")
    return [s[:_DECONTAM_SNIP_LEN] for s in t.column("text").to_pylist()]


def doc_decontam(sf_dir: str):
    """Exact-substring decontamination vs the deterministic benchmark set:
    snippets are ray.put ONCE and fetched per actor in __init__."""
    import ray

    from dynaalign_ray.functions.decontam import SnippetDecontamActor

    ds = _docs(sf_dir, ["doc_id", "text"])  # configures context first
    snippets_ref = broadcast_put(_bench_snippets(sf_dir))
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return ds.map_batches(
        SnippetDecontamActor,
        fn_constructor_args=(snippets_ref,),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(2, max(2, ncpu // 2)),
    )


def doc_decontam_ngram(sf_dir: str, n: int = 8):
    """N-gram-overlap decontamination (the 100 TB scale path): benchmark
    n-gram hash set broadcast once, searchsorted membership per batch."""
    import ray

    from dynaalign_ray.functions.decontam import NgramDecontamActor, build_ngram_set

    ds = _docs(sf_dir, ["doc_id", "text"])
    ngrams_ref = broadcast_put(build_ngram_set(_bench_snippets(sf_dir), n=n))
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return ds.map_batches(
        NgramDecontamActor,
        fn_constructor_args=(ngrams_ref, n),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(2, max(2, ncpu // 2)),
    )


def doc_decontam_bloom(sf_dir: str, n: int = 8):
    """Bloom-filter decontamination (cheap-filter stage of the 100 TB
    filter/verify split): benchmark n-gram hashes folded into a ~16
    bits/key Bloom filter broadcast once; n_maybe upper-bounds the exact
    overlap (zero false negatives by construction — see
    functions/decontam.build_bloom)."""
    import ray

    from dynaalign_ray.functions.decontam import (
        BloomDecontamActor,
        build_bloom,
        build_ngram_set,
    )

    ds = _docs(sf_dir, ["doc_id", "text"])
    bloom_ref = broadcast_put(build_bloom(build_ngram_set(_bench_snippets(sf_dir), n=n)))
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return ds.map_batches(
        BloomDecontamActor,
        fn_constructor_args=(bloom_ref, n),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(2, max(2, ncpu // 2)),
    )


def doc_sample(sf_dir: str, rate_pct: int = 5):
    """Deterministic corpus sampling: keep a fixed pseudo-random rate_pct%
    of documents by an arithmetic hash of doc_id — reproducible across
    engines and runs (the sampling decision is a pure function of the key,
    so resumed / re-sharded runs pick the SAME sample; Ray's random_sample
    would not).  All int64 arithmetic stays below 2^63 (doc_id is first
    reduced mod 1000003), so the oracle's BIGINT expression is identical."""

    def filt(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id")).astype(np.int64)
        hv = ((d % 1000003) * 31 + 7) % 100
        return batch.filter(pa.array(hv < rate_pct))

    return _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        filt, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_stratified_sample(sf_dir: str, k: int = 20, num_partitions: int = 8):
    """Stratified per-group sampling: k docs per source, chosen by ranking
    on a deterministic arithmetic hash (uniform within the stratum) — the
    per-domain subsample step of a curation pipeline.  Same plan as
    doc_top_by_source: route by hash(source), exact string group delimiting
    inside the block, one sort + vectorized rank, keep rank <= k."""
    from dynaalign_ray.hashing import hash_strings, to_id63

    def add_cols(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id")).astype(np.int64)
        hv = ((d % 1000003) * 31 + 7) % 997
        h = to_id63(hash_strings(batch.column("source").to_pylist()))
        return pa.table(
            {
                "source": batch.column("source"),
                "doc_id": batch.column("doc_id"),
                "hv": pa.array(hv, type=pa.int64()),
                "src_hash": pa.array(h, type=pa.int64()),
            }
        )

    def sample_block(b: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("source", pa.string()),
                ("doc_id", pa.int64()),
                ("rnk", pa.int64()),
            ]
        )
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b,
            sort_keys=[
                ("source", "ascending"),
                ("hv", "ascending"),
                ("doc_id", "ascending"),
            ],
        )
        s = b.take(idx)
        src = s.column("source").combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.chunk(0)
        codes = np.asarray(src.dictionary_encode().indices, dtype=np.int64)
        n = len(codes)
        pos = np.arange(n, dtype=np.int64)
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = codes[1:] != codes[:-1]
        group_start = np.maximum.accumulate(np.where(boundary, pos, 0))
        rnk = pos - group_start + 1
        keep = rnk <= k
        kept = s.filter(pa.array(keep))
        return pa.table(
            {
                "source": kept.column("source"),
                "doc_id": kept.column("doc_id"),
                "rnk": pa.array(rnk[keep], type=pa.int64()),
            },
            schema=out_schema,
        )

    return (
        _docs(sf_dir, ["doc_id", "source"])
        .map_batches(add_cols, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["src_hash"])
        .map_batches(
            sample_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )


def doc_bpe_tokens(sf_dir: str):
    """BPE-ish pre-tokenizer piece counts (LLM-cost proxy), single Arrow
    RE2 pass; the oracle compiles the identical pattern through DuckDB RE2."""
    from dynaalign_ray.functions.textstats import bpe_token_count_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        bpe_token_count_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_chunk_stats(sf_dir: str, num_partitions: int = 8, chunk_words: int = 10):
    """Duplicate-chunk stats (chunk, n_occ, first_doc): the CCNet paragraph-
    dedup discovery step at word-window granularity (docs have no newlines)."""
    from dynaalign_ray.stages.chunk_dedup import chunk_dup_stats

    return chunk_dup_stats(
        _docs(sf_dir, ["doc_id", "text"]),
        num_partitions,
        unit="words",
        chunk_words=chunk_words,
    )


def doc_chunk_dedup(sf_dir: str, num_partitions: int = 8, chunk_words: int = 10):
    """Corpus-wide chunk-level exact dedup (keep lexicographic-first
    occurrence), documents re-assembled from surviving chunks."""
    from dynaalign_ray.stages.chunk_dedup import chunk_dedup

    return chunk_dedup(
        _docs(sf_dir, ["doc_id", "text"]),
        num_partitions,
        unit="words",
        chunk_words=chunk_words,
    )


def doc_substring_dedup(sf_dir: str, num_partitions: int = 8, k: int = 100):
    """Exact long-match span removal (Lee et al. 2022 ExactSubstr form):
    non-first occurrences of duplicated >=k-byte spans are cut out and the
    surviving text re-emitted.  DuckDB oracle since r3 (loser-window islands
    SQL in __ray_entry__.oracle_sql); also pytest-checked against a
    string-keyed pure-Python oracle."""
    from dynaalign_ray.stages.span_dedup import span_dedup

    return span_dedup(_docs(sf_dir, ["doc_id", "text"]), num_partitions, k=k)


def doc_heavy_tokens(sf_dir: str, k: int = 10, num_partitions: int = 8):
    """EXACT top-k tokens by global count via the bounded-candidate heavy-
    hitter plan (functions/heavyhitters.top_tokens): per-block top-w
    summaries + eps bounds -> certified candidate superset -> broadcast
    exact verify.  The wide pass ships blocks×w rows, never the vocabulary."""
    from dynaalign_ray.functions.heavyhitters import top_tokens

    return top_tokens(
        _docs(sf_dir, ["doc_id", "text"]), k=k, num_partitions=num_partitions
    )


def doc_source_quantiles(sf_dir: str, num_partitions: int = 8):
    """Per-group EXACT discrete quantiles (quantile_disc ... GROUP BY
    analog): n_chars quantiles per source.  Plan: route by hash(source)
    (groups delimited by exact string compare in-block), ONE Arrow sort per
    block, then O(groups x quantiles) rank picks — rank rule
    max(0, ceil(q*n)-1), the same empirically-DuckDB-matched rule as
    functions/sketches.exact_int_quantiles.  Never a global sort; shuffle
    carries (source, n_chars) only."""
    import math

    from dynaalign_ray.hashing import hash_strings, to_id63

    qs = (0.25, 0.5, 0.75, 0.9)
    out_schema = pa.schema(
        [("source", pa.string()), ("q", pa.float64()), ("n_chars", pa.int64())]
    )

    def add_route(batch: pa.Table) -> pa.Table:
        h = to_id63(hash_strings(batch.column("source").to_pylist()))
        return batch.append_column("route", pa.array(h, type=pa.int64()))

    def quantile_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b, sort_keys=[("source", "ascending"), ("n_chars", "ascending")]
        )
        s = b.take(idx)
        src = s.column("source").combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.chunk(0)
        vals = np.asarray(s.column("n_chars")).astype(np.int64)
        codes = np.asarray(src.dictionary_encode().indices, dtype=np.int64)
        bounds = np.flatnonzero(
            np.concatenate([[True], codes[1:] != codes[:-1], [True]])
        )
        out_src, out_q, out_v = [], [], []
        for g in range(len(bounds) - 1):  # O(groups-per-block), not per-row
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            n = hi - lo
            for q in qs:
                r = max(0, math.ceil(q * n) - 1)
                out_src.append(src[lo].as_py())
                out_q.append(q)
                out_v.append(int(vals[lo + r]))
        return pa.table(
            {
                "source": pa.array(out_src, pa.string()),
                "q": pa.array(out_q, pa.float64()),
                "n_chars": pa.array(out_v, pa.int64()),
            },
            schema=out_schema,
        )

    return (
        _docs(sf_dir, ["source", "n_chars"])
        .map_batches(add_route, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["route"])
        .map_batches(
            quantile_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )


def doc_weighted_sample(sf_dir: str, scale: int = 50):
    """Deterministic length-WEIGHTED sampling: P(keep) ∝ n_chars — the
    quality-weighted subsample step (longer docs more likely kept).  Keep
    iff arithmetic-hash(doc_id) mod (scale·1000) < n_chars, i.e. a doc of
    n_chars c is kept with probability min(1, c/(scale·1000)); pure
    function of (key, weight) so resharded/resumed runs agree.  All int64
    arithmetic below 2^63 — the oracle BIGINT expression is identical."""

    def filt(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id")).astype(np.int64)
        c = np.asarray(batch.column("n_chars")).astype(np.int64)
        hv = ((d % 1000003) * 37 + 11) % (scale * 1000)
        return batch.filter(pa.array(hv < c))

    return _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        filt, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_split_assign(sf_dir: str, train_pct: int = 90, val_pct: int = 5):
    """Deterministic leak-free train/val/test split assignment: split is a
    pure arithmetic-hash function of doc_id (same discipline as doc_sample
    — reshard- and resume-stable, no RNG state; near-dup CLUSTERS should be
    split by their cluster_id the same way so no near-pair straddles the
    boundary).  All int64 arithmetic; the oracle CASE expression is
    identical."""

    def kern(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id")).astype(np.int64)
        h = ((d % 1000003) * 53 + 13) % 100
        split = np.where(
            h < train_pct, "train", np.where(h < train_pct + val_pct, "val", "test")
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "split": pa.array(split, type=pa.string()),
            }
        )

    return _docs(sf_dir, ["doc_id", "source"]).map_batches(
        kern, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_model_scores(sf_dir: str):
    """Batched model inference over every document: a linear quality/tier
    classifier applied by a stateful actor pool — weights broadcast ONCE via
    ray.put, fetched per actor in __init__, vectorized RE2-count features +
    fixed-order float accumulation per batch (functions/modelscore.py).
    Bit-exact DuckDB oracle generated from the same weight constants."""
    import ray

    from dynaalign_ray.functions.modelscore import QUALITY_MODEL, LinearModelScorer

    model_ref = broadcast_put(QUALITY_MODEL)
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        LinearModelScorer,
        fn_constructor_kwargs={"model_ref": model_ref},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=(2, max(2, ncpu // 2)),
    )


def doc_lm_familiarity(
    sf_dir: str, vocab: int = 4096, num_partitions: int = 8
):
    """Corpus-trained char-trigram LM scoring (CCNet-style train-then-
    score quality filter, functions/ngramlm.py): exact global trigram
    counts via partial-aggregate + one small groupby-sum shuffle, top-
    ``vocab`` model broadcast once, vectorized binary-search scoring per
    block.  familiarity = hit_count / (n_trigrams * T) — one integer
    division, bit-exact vs the DuckDB oracle."""
    import functools

    from dynaalign_ray.functions.ngramlm import (
        familiarity_score_block,
        train_trigram_model,
    )

    docs = _docs(sf_dir, ["doc_id", "text"])
    model_ref = train_trigram_model(
        docs, vocab=vocab, num_partitions=num_partitions
    )
    return docs.map_batches(
        functools.partial(familiarity_score_block, model_ref=model_ref),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_lm_familiarity_ref(
    sf_dir: str,
    ref_source: str = "src0",
    vocab: int = 4096,
    num_partitions: int = 8,
):
    """Cross-corpus form of :func:`doc_lm_familiarity` — the full CCNet
    shape (Wenzek et al. 2019 train KenLM on Wikipedia and score Common
    Crawl by it): the trigram model is trained ONLY on the ``ref_source``
    slice (the trusted reference corpus), then EVERY document is scored
    against it.  T is the reference corpus's total window count, so
    familiarity is comparable across target docs regardless of target
    size.  Same bit-exact single-division contract as the in-corpus
    form."""
    import functools

    import pyarrow.compute as pc

    from dynaalign_ray.functions.ngramlm import (
        familiarity_score_block,
        train_trigram_model,
    )

    def ref_only(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch.column("source"), pa.scalar(ref_source))
        ).select(["doc_id", "text"])

    ref_docs = _docs(sf_dir, ["doc_id", "text", "source"]).map_batches(
        ref_only, batch_format="pyarrow", zero_copy_batch=True
    )
    model_ref = train_trigram_model(
        ref_docs, vocab=vocab, num_partitions=num_partitions
    )
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        functools.partial(familiarity_score_block, model_ref=model_ref),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_dsir_weights(
    sf_dir: str,
    target_source: str = "src0",
    vocab: int = 4096,
    num_partitions: int = 8,
):
    """DSIR importance weights (Xie et al. 2023): train a target trigram LM
    on the trusted ``target_source`` slice and a raw LM on the full corpus,
    then weight every doc by the smoothed count ratio
    ``(hit_target+1)*T_raw / ((hit_raw+1)*T_target)`` — high weight means
    the doc's character statistics look like the target distribution
    relative to the raw one.  Both models are O(vocab) broadcast refs; the
    scoring pass packs each doc's windows ONCE and binary-searches both
    models (functions/ngramlm.py:dsir_weight_block).  Bit-exact vs the
    DuckDB oracle: all counts are exact ints, the weight is one mirrored
    IEEE mul/mul/div tree."""
    import functools

    from dynaalign_ray.functions.ngramlm import (
        dsir_weight_block,
        train_dual_trigram_models,
    )

    # one corpus pass + one shuffle trains BOTH models (bit-identical to
    # two train_trigram_model calls; raises on an empty target slice)
    target_ref, raw_ref = train_dual_trigram_models(
        _docs(sf_dir, ["doc_id", "text", "source"]),
        target_source=target_source,
        vocab=vocab,
        num_partitions=num_partitions,
    )
    docs = _docs(sf_dir, ["doc_id", "text"])
    return docs.map_batches(
        functools.partial(
            dsir_weight_block, target_ref=target_ref, raw_ref=raw_ref
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_dsir_sample(
    sf_dir: str,
    m: int = 50,
    target_source: str = "src0",
    vocab: int = 4096,
    num_partitions: int = 8,
):
    """DSIR selection step: the top-``m`` docs by (weight DESC, doc_id ASC).

    Deterministic-top-m variant of DSIR's Gumbel-top-k resampling (the
    Gumbel form needs -log(-log(u)) noise — transcendental, so it cannot be
    oracle-checked bit-exact; the deterministic argmax form is the one the
    oracle gates, and seeded Gumbel noise can be layered on the same
    weights downstream).  Scale plan: per-block partial top-m (each block
    emits <= m rows) so the global sort sees O(m * n_blocks) rows, never
    the corpus."""
    import pyarrow.compute as pc

    weights = doc_dsir_weights(
        sf_dir,
        target_source=target_source,
        vocab=vocab,
        num_partitions=num_partitions,
    )

    def block_topm(b: pa.Table) -> pa.Table:
        b = b.select(["doc_id", "weight"])
        if b.num_rows <= m:
            return b
        idx = pc.sort_indices(
            b,
            sort_keys=[("weight", "descending"), ("doc_id", "ascending")],
        )
        return b.take(idx[:m])

    return (
        weights.map_batches(
            block_topm, batch_format="pyarrow", zero_copy_batch=True
        )
        .sort(["weight", "doc_id"], descending=[True, False])
        .limit(m)
    )


def doc_hash_embedding(sf_dir: str, dims: int = 64):
    """Feature-hashed trigram document embeddings as sparse (doc_id, dim,
    val) rows (functions/ngramlm.py:hash_embedding_block) — exact signed
    integer counts, bit-exact DuckDB oracle; one embarrassingly parallel
    map_batches, no shuffle."""
    import functools

    from dynaalign_ray.functions.ngramlm import hash_embedding_block

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        functools.partial(hash_embedding_block, dims=dims),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_range_bucket(sf_dir: str, num_shards: int = 8, num_partitions: int = 8):
    """Range-shard assignment: bucket = number of exact i/num_shards
    quantile boundaries of n_chars that are <= the doc's n_chars — the
    query form of sources/io.write_range_shards (same boundaries, same
    side='right' tie rule), so placement is auditable in SQL.  Boundaries
    come from the proven exact_int_quantiles (DuckDB quantile_disc rule),
    making the whole assignment hash-exact."""
    from dynaalign_ray.exec import broadcast_put
    from dynaalign_ray.functions.sketches import (
        assign_range_bucket,
        exact_range_bounds,
    )

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    bref = broadcast_put(
        exact_range_bounds(docs, "n_chars", num_shards, num_partitions)
    )

    def assign(batch: pa.Table) -> pa.Table:
        import ray

        x = np.asarray(batch.column("n_chars")).astype(np.int64)
        bucket = assign_range_bucket(x, ray.get(bref))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": batch.column("n_chars"),
                "bucket": pa.array(bucket, type=pa.int64()),
            }
        )

    return docs.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def doc_source_regression(sf_dir: str, num_partitions: int = 8):
    """Distributed least-squares fit per source: n_tokens ~ n_chars via
    exact integer sufficient statistics (n, Sx, Sy, Sxx, Sxy — partial
    per block, ONE small groupby-sum shuffle) and the closed-form OLS
    solve on the reduced rows.  slope = (n*Sxy - Sx*Sy)/(n*Sxx - Sx^2),
    intercept = (Sy - slope*Sx)/n — every sum is an exact int64 (safe to
    ~10^12 docs of 2k chars: Sxx < 2^63) and the float tree is mirrored
    op-for-op by the DuckDB oracle, so the fit is bit-exact.  The
    quality-calibration primitive: per-slice linear fits without any
    driver-side data pass."""
    from ray.data.aggregate import Count, Sum

    def stats(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column("n_chars")).astype(np.int64)
        y = np.asarray(
            pc.count_substring_regex(batch.column("text"), r"\S+")
        ).astype(np.int64)
        return pa.table(
            {
                "source": batch.column("source"),
                "x": pa.array(x, type=pa.int64()),
                "y": pa.array(y, type=pa.int64()),
                "xx": pa.array(x * x, type=pa.int64()),
                "xy": pa.array(x * y, type=pa.int64()),
            }
        )

    def solve(b: pa.Table) -> pa.Table:
        n = np.asarray(b.column("n")).astype(np.int64)
        sx = np.asarray(b.column("sx")).astype(np.int64)
        sy = np.asarray(b.column("sy")).astype(np.int64)
        sxx = np.asarray(b.column("sxx")).astype(np.int64)
        sxy = np.asarray(b.column("sxy")).astype(np.int64)
        den = (n * sxx - sx * sx).astype(np.float64)
        num = (n * sxy - sx * sy).astype(np.float64)
        slope = np.divide(
            num, den, out=np.zeros(len(n), dtype=np.float64), where=den != 0.0
        )
        intercept = (sy.astype(np.float64) - slope * sx.astype(np.float64)) / n.astype(
            np.float64
        )
        return pa.table(
            {
                "source": b.column("source"),
                "n": pa.array(n, type=pa.int64()),
                "slope": pa.array(slope, type=pa.float64()),
                "intercept": pa.array(intercept, type=pa.float64()),
            }
        )

    return (
        _docs(sf_dir, ["text", "source", "n_chars"])
        .map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n"),
            Sum("x", alias_name="sx"),
            Sum("y", alias_name="sy"),
            Sum("xx", alias_name="sxx"),
            Sum("xy", alias_name="sxy"),
        )
        .map_batches(solve, batch_format="pyarrow", zero_copy_batch=True)
    )


def doc_compress_ratio(sf_dir: str):
    """Per-doc zlib compression ratio (functions/textstats.py:
    compress_ratio_batch) — the low-entropy/boilerplate quality signal.
    Rows-only (zlib is not SQL-reproducible); laws pytest-gated."""
    from dynaalign_ray.functions.textstats import compress_ratio_batch

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        compress_ratio_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_cooccurrence(sf_dir: str, top_w: int = 100, num_partitions: int = 8):
    """Token co-occurrence counts over the top-``top_w``
    document-frequency tokens (functions/cooccur.py — GloVe/PMI-style
    count matrix): (t1, t2, n_docs) for t1 < t2 in binary string order.
    Everything past the df groupby is O(W^2)-bounded; the top-W token
    array is the only broadcast."""
    from dynaalign_ray.functions.cooccur import token_cooccurrence

    return token_cooccurrence(
        _docs(sf_dir, ["doc_id", "text"]), top_w, num_partitions
    )


def doc_paragraph_neardup(
    sf_dir: str,
    chunk_words: int = 16,
    tau: float = 0.7,
    num_partitions: int = 8,
):
    """Driver query wrapper over :func:`paragraph_neardup` (documents
    table)."""
    return paragraph_neardup(
        _docs(sf_dir, ["doc_id", "text"]),
        chunk_words=chunk_words,
        tau=tau,
        num_partitions=num_partitions,
    )


def paragraph_neardup(
    docs_ds,
    chunk_words: int = 16,
    tau: float = 0.7,
    num_partitions: int = 8,
    id_mode: str = "packed",
):
    """Paragraph-granular FUZZY dedup (the RefinedWeb-style tier between
    exact chunk dedup and document near-dup): split every document into
    ``chunk_words``-word paragraphs, run the flagship MinHash-LSH near-dup
    over the *paragraphs*, keep one representative per near-dup paragraph
    cluster (min encoded id — the earliest occurrence in the corpus), and
    reassemble the surviving paragraphs per document in original order.

    Plan (all stages streaming, same scale story as the flagship):
      1. explode docs -> (enc, para text, parent doc_id, para_no) — reuses
         chunk_dedup's vectorized word splitter;
      2. near_dedup(paras) — LSH banding + exact-Jaccard verify + CC; the
         paragraph id plays doc_id, so salting/pair caps/size gates all
         apply unchanged.  Paragraphs with < shingle_k words produce zero
         shingles and are automatic singletons (kept) — mirrored by the
         oracle's ``len(toks) >= 3`` guard;
      3. hash_join keep-flags back onto the paragraph rows (no broadcast:
         keep-set is corpus-sized), ONE keyed repartition by parent doc,
         per-block sort + Arrow ListArray segment join.
    The paragraph table is deliberately NOT materialized: it re-executes
    from the column-pruned parquet read for step 3 rather than pinning
    corpus text in the object store.

    ``id_mode`` picks the paragraph id:
      - "packed" (default): enc = doc_id * 2^20 + para_no.  EXACT (no hash
        anywhere), representative = earliest corpus occurrence, and the
        layout the DuckDB oracle mirrors — requires doc_id < 2^43.
      - "hashed": enc = 63-bit mix of (doc_id, para_no), for corpora whose
        doc ids are themselves url hashes (the flagship input contract).
        Same per-id collision bound as the flagship's url-hash doc ids
        (documented there); representative = min hashed id —
        arbitrary-but-deterministic instead of earliest-occurrence.
        Reassembly never decodes enc (parent/para_no ride alongside), so
        both modes share every stage after the explode.

    Composition note (measured, 600k fixture pages / 9.75M paragraphs /
    32 CPUs: 482 s): on boilerplate-heavy web corpora, identical nav/footer
    paragraphs form corpus-sized near-dup buckets — the flagship's salting
    and star caps keep it correct and bounded, but running the EXACT
    chunk-dedup tier first (stages/chunk_dedup.py, the standard funnel
    order) collapses each identical-paragraph group to one occurrence and
    leaves this fuzzy tier only the paraphrased remainder.
    """
    from dynaalign_ray.joins import hash_join
    from dynaalign_ray.pipelines.neardup import near_dedup
    from dynaalign_ray.stages.chunk_dedup import _enc_keys, _split_chunks

    if id_mode not in ("packed", "hashed"):
        raise ValueError(f"unknown id_mode {id_mode!r}")

    def explode(batch: pa.Table) -> pa.Table:
        chunks, parent, chunk_no = _split_chunks(
            batch.column("text"), unit="words", chunk_words=chunk_words
        )
        if id_mode == "packed":
            enc = _enc_keys(batch, parent, chunk_no)
        else:
            from dynaalign_ray.hashing import mix64

            d = np.asarray(batch.column("doc_id")).astype(np.int64)[parent]
            h = mix64(
                mix64(d.astype(np.uint64) * _MIX_KNUTH)
                ^ (chunk_no.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
            )
            enc = (h >> np.uint64(1)).astype(np.int64)
        doc_ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(enc, type=pa.int64()),
                "text": chunks,
                "parent": pa.array(doc_ids[parent], type=pa.int64()),
                "para_no": pa.array(chunk_no, type=pa.int64()),
            }
        )

    paras = docs_ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )
    cfg = DedupConfig(shingle_k=3, tau=tau)
    res = near_dedup(
        docs_ds=paras.select_columns(["doc_id", "text"]),
        cfg=cfg,
        num_partitions=num_partitions,
    )

    def keep_only(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "enc": batch.column("doc_id").cast(pa.int64()),
                "keep": batch.column("keep"),
            }
        )

    keeps = res.clusters.map_batches(
        keep_only, batch_format="pyarrow", zero_copy_batch=True
    )

    def para_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "enc": batch.column("doc_id"),
                "para": batch.column("text"),
                "parent": batch.column("parent"),
                "para_no": batch.column("para_no"),
            }
        )

    joined = hash_join(
        paras.map_batches(para_side, batch_format="pyarrow", zero_copy_batch=True),
        keeps,
        left_on="enc",
        right_on="enc",
        left_schema=pa.schema(
            [
                ("enc", pa.int64()),
                ("para", pa.string()),
                ("parent", pa.int64()),
                ("para_no", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("enc", pa.int64()), ("keep", pa.bool_())]),
        num_partitions=num_partitions,
        how="inner",
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("clean_text", pa.string()),
            ("n_paras", pa.int64()),
            ("n_removed", pa.int64()),
        ]
    )

    def reassemble_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b, sort_keys=[("parent", "ascending"), ("para_no", "ascending")]
        )
        s = b.take(idx)
        parent = np.asarray(s.column("parent")).astype(np.int64)
        keep = np.asarray(s.column("keep"))
        paras_arr = s.column("para").combine_chunks()
        if isinstance(paras_arr, pa.ChunkedArray):
            paras_arr = paras_arr.chunk(0)
        # doc segment boundaries over the sorted block
        starts = np.flatnonzero(np.concatenate([[True], parent[1:] != parent[:-1]]))
        doc_ids = parent[starts]
        n_docs = len(starts)
        seg_of = np.cumsum(np.concatenate([[False], parent[1:] != parent[:-1]]))
        kept_counts = np.bincount(seg_of[keep], minlength=n_docs)
        offsets = np.concatenate([[0], np.cumsum(kept_counts)]).astype(np.int32)
        kept = paras_arr.take(pa.array(np.flatnonzero(keep)))
        lists = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), kept)
        clean = pc.binary_join(lists, " ")
        n_paras = np.bincount(seg_of, minlength=n_docs)
        n_removed = np.bincount(seg_of[~keep], minlength=n_docs)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "clean_text": clean,
                "n_paras": pa.array(n_paras, type=pa.int64()),
                "n_removed": pa.array(n_removed, type=pa.int64()),
            },
            schema=out_schema,
        )

    return joined.repartition(
        num_blocks=num_partitions, keys=["parent"]
    ).map_batches(
        reassemble_block,
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_token_cms(sf_dir: str):
    """Approximate token-frequency probes via a distributed count-min
    sketch (functions/sketches.py): per-batch (d,w) partials, driver merge,
    vectorized probe.  Deterministic given the seeds but not
    SQL-reproducible (rows-only driver check); the >= exact / <= exact +
    eps*N guarantees are pytest-gated (tests/test_round3b.py)."""
    from dynaalign_ray.functions.sketches import approx_token_counts

    probes = [
        "the", "data", "merge", "join", "sort", "filter",
        "key", "row", "batch", "table", "zzz_absent_token",
    ]
    return approx_token_counts(_docs(sf_dir, ["text"]), "text", probes)


def doc_neardup_histogram(sf_dir: str, num_partitions: int = 8):
    """Flagship dedup REPORT as an oracle-checked query: the cluster-size
    histogram (cluster_size, n_clusters) of the near-dup clustering — two
    small count aggregates over the cluster assignment (the run-report shape
    from pipelines/neardup.write_run_report, whose driver only ever sees
    histogram rows, never per-cluster rows)."""
    from ray.data.aggregate import Count

    from dynaalign_ray.pipelines.neardup import near_dedup

    cfg = DedupConfig(shingle_k=3)
    res = near_dedup(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]),
        cfg=cfg,
        num_partitions=num_partitions,
    )
    sizes = res.clusters.groupby("cluster_id", num_partitions=num_partitions).aggregate(
        Count(alias_name="cluster_size")
    )
    return (
        sizes.groupby("cluster_size", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_clusters"))
        .select_columns(["cluster_size", "n_clusters"])
    )


def doc_global_rank(sf_dir: str, num_partitions: int = 8):
    """Distributed GLOBAL RANK by (n_chars DESC, doc_id ASC) — the total-
    order surface (row_number over the whole corpus) WITHOUT a global sort:

      1. distributed (value, count) histogram of n_chars (the exact-quantile
         helper; shuffle carries narrow partials only) -> per-value prefix
         counts on the driver (bounded-cardinality assumption, same as the
         quantile ops) -> broadcast;
      2. ONE keyed repartition by n_chars; per block, equal values are
         contiguous after an in-block sort, so rank = broadcast prefix +
         within-value position — a vectorized segment arange.

    No stage ever holds more than one block plus the tiny histogram."""
    import functools

    from dynaalign_ray.functions.sketches import _int_value_histogram

    docs = _docs(sf_dir, ["doc_id", "n_chars"])
    vals, counts = _int_value_histogram(docs, "n_chars", num_partitions)
    if vals is None:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            }
        )
    # rows strictly GREATER than v (rank prefix under DESC order)
    desc = vals[::-1]
    gt_prefix = np.concatenate([[0], np.cumsum(counts[::-1])[:-1]])

    def rank_block(b: pa.Table, *, desc, gt_prefix) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        idx = pc.sort_indices(
            b, sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")]
        )
        s = b.take(idx)
        v = np.asarray(s.column("n_chars")).astype(np.int64)
        starts = np.flatnonzero(np.concatenate([[True], v[1:] != v[:-1]]))
        seg_lens = np.diff(np.append(starts, len(v)))
        within = np.arange(len(v), dtype=np.int64) - np.repeat(starts, seg_lens)
        # desc is sorted descending: locate each value's global prefix
        pos = len(desc) - 1 - np.searchsorted(desc[::-1], v, side="left")
        rank = gt_prefix[pos] + within + 1
        return pa.table(
            {
                "doc_id": s.column("doc_id"),
                "n_chars": s.column("n_chars"),
                "rank": pa.array(rank, type=pa.int64()),
            }
        )

    return docs.repartition(num_blocks=num_partitions, keys=["n_chars"]).map_batches(
        functools.partial(rank_block, desc=desc, gt_prefix=gt_prefix),
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def doc_top_quartile(sf_dir: str, num_partitions: int = 8):
    """Percentile-gated filtering — keep docs at or above the corpus's Q3
    length: a tiny exact-quantile aggregate (value-histogram plan) sets the
    global threshold, then a streaming filter applies it.  The two-phase
    aggregate-then-filter shape every 'top X% by score' curation rule
    uses."""
    from dynaalign_ray.functions.sketches import exact_int_quantiles

    docs = _docs(sf_dir, ["doc_id", "source", "n_chars"])
    q3 = int(
        exact_int_quantiles(
            docs.select_columns(["n_chars"]), "n_chars", [0.75], num_partitions
        )
        .column("value")[0]
        .as_py()
    )

    def filt(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch.column("n_chars"), q3))

    return docs.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)


def doc_decontam_fuzzy(sf_dir: str, tau: float = 0.7, num_partitions: int = 8):
    """FUZZY decontamination — the near-dup analog of doc_decontam: flag
    every training doc that is NEAR-duplicate (exact Jaccard >= tau) to any
    held-out benchmark doc, catching the paraphrased/partially-edited
    contamination exact n-gram matching misses.  The benchmark membership
    is a pure function of doc_id (doc_id % 10 == 7 plays the eval set), so
    the flag derivation is reshard-stable.

    Edges come from the EXACT prefix-filtered SSJoin (recall 1.0 by the
    prefix-filter theorem) — NOT the flagship LSH, whose banded recall is
    probabilistic and whose hot-bucket pair_cap falls back to star edges
    that preserve connectivity but can drop a direct target-benchmark edge
    (connectivity is the wrong invariant here: contamination is per-EDGE,
    deliberately not transitive — a target near a target near a benchmark
    is clean, the standard decontamination rule).  Benchmark docs are
    ordinary rows in ONE joint SSJoin pass (no second corpus pass); the
    edge set is then filtered to CROSS-side edges only, distinct'd per
    keyed block, and left-joined back onto the target docs."""
    import functools

    from dynaalign_ray.joins import hash_join
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=3),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()  # consumed twice: prefix explode + verify joins
    )
    exact_edges = prefix_jaccard_join(sets_ds, tau, num_partitions)

    flag_schema = pa.schema([("doc_id", pa.int64()), ("hit", pa.bool_())])

    def cross_targets(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a")).astype(np.int64)
        b = np.asarray(batch.column("b")).astype(np.int64)
        ab = (a % 10) == 7
        bb = (b % 10) == 7
        t = np.where(ab & ~bb, b, np.where(bb & ~ab, a, -1))
        t = t[t >= 0]
        return pa.table(
            {
                "doc_id": pa.array(t, type=pa.int64()),
                "hit": pa.array(np.ones(len(t), dtype=bool)),
            },
            schema=flag_schema,
        )

    def distinct_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return flag_schema.empty_table()
        ids = np.unique(np.asarray(b.column("doc_id")).astype(np.int64))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "hit": pa.array(np.ones(len(ids), dtype=bool)),
            },
            schema=flag_schema,
        )

    flagged = (
        exact_edges.map_batches(
            cross_targets, batch_format="pyarrow", zero_copy_batch=True
        )
        .repartition(num_blocks=num_partitions, keys=["doc_id"])
        .map_batches(
            distinct_block,
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    def targets_only(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id")).astype(np.int64)
        return pa.table({"tid": pa.array(d[(d % 10) != 7], type=pa.int64())})

    targets = _docs(sf_dir, ["doc_id"]).map_batches(
        targets_only, batch_format="pyarrow", zero_copy_batch=True
    )
    j = hash_join(
        targets,
        flagged,
        left_on="tid",
        right_on="doc_id",
        left_schema=pa.schema([("tid", pa.int64())]),
        right_schema=flag_schema,
        num_partitions=num_partitions,
        how="left outer",
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("tid"),
                "contaminated": pc.coalesce(
                    batch.column("hit"), pa.scalar(False)
                ),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def doc_shard_assign(sf_dir: str, num_shards: int = 16):
    """Deterministic training-shard assignment — the narrow query form of
    the resumable shard sink (sources/io.write_training_shards uses this
    exact hash): shard = (doc_id * Knuth-multiplier mod 2^64) >> 1 mod
    num_shards.  Pure function of the key; the oracle mirrors it in
    HUGEINT modular arithmetic."""

    def kern(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        shard = (
            ((ids.astype(np.uint64) * _MIX_KNUTH) >> np.uint64(1))
            % np.uint64(num_shards)
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shard": pa.array(shard, type=pa.int64()),
            }
        )

    return _docs(sf_dir, ["doc_id"]).map_batches(
        kern, batch_format="pyarrow", zero_copy_batch=True
    )


def vocab_edit_pairs(
    sf_dir: str,
    max_dist: int = 2,
    min_len: int = 3,
    num_partitions: int = 8,
    hot_bucket_cap: int = 20_000,
):
    """Edit-distance similarity join over the corpus vocabulary: every
    unordered pair of distinct tokens (length >= ``min_len``) within
    Levenshtein distance ``max_dist`` — the spell-candidate /
    entity-resolution join.  See functions/editdist.py for the
    recall-completeness proof of the deletion-neighborhood blocking.

    100 TB plan — O(vocab) work after one tokenize pass, never O(vocab^2):
    1. tokenize -> per-block distinct -> one narrow string groupby gives
       the global distinct vocabulary (web-scale vocab is millions of
       rows, tiny next to the corpus);
    2. each word emits <= 1 + L + C(L, 2) deletion-variant hash keys
       (d = 2) — constant fan-out per word;
    3. repartition on the variant key; per-block bucket pairing emits
       candidate pairs (bucket members share a variant).  Most buckets
       stay small, but ULTRA-SHORT variants are not bounded by a language
       constant: a 1-char variant of 3-letter words collects every such
       word sharing that letter, so hot buckets GROW WITH VOCAB and their
       C(m, 2) pairing is quadratic in m.  No silent pair cap is applied
       (recall stays 1.0 by construction); instead any bucket larger than
       ``hot_bucket_cap`` raises loudly with the offending variant length
       and the knobs (min_len / max_dist / hot_bucket_cap) that bound it —
       a skipped or sampled bucket would silently lose pairs;
    4. one (w1, w2) groupby dedupes pairs that share several variants;
    5. the exact batched Levenshtein DP verifies, keeping dist <= d.
    """
    from ray.data.aggregate import Count

    from dynaalign_ray.functions.editdist import (
        deletion_variant_keys,
        levenshtein_batch,
    )

    def distinct_words(batch: pa.Table) -> pa.Table:
        # Arrow-native tokenize: split + length filter + per-block unique
        # (Python str.split and utf8_split_whitespace agree on unicode
        # whitespace; empty tokens fall to the min_len filter)
        flat = pc.list_flatten(pc.utf8_split_whitespace(batch.column("text")))
        keep = pc.greater_equal(pc.utf8_length(flat), min_len)
        return pa.table({"word": pc.unique(flat.filter(keep))})

    vocab = (
        _docs(sf_dir, ["text"])
        .map_batches(distinct_words, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word", num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .select_columns(["word"])
    )

    def emit_variants(batch: pa.Table) -> pa.Table:
        # batched kernel: one codepoint pass over the whole column, keys
        # by vectorized segment-fold polynomial hashing — bucket structure
        # matches string-variant equality (hash collisions only add
        # candidates the DP verify removes)
        words_col = batch.column("word").combine_chunks()
        idx, vkey = deletion_variant_keys(words_col.to_pylist(), max_dist)
        return pa.table(
            {
                "vkey": pa.array(vkey, type=pa.int64()),
                "word": words_col.take(pa.array(idx, type=pa.int64())),
            }
        )

    variants = vocab.map_batches(
        emit_variants, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(b: pa.Table) -> pa.Table:
        empty = pa.schema([("w1", pa.string()), ("w2", pa.string())]).empty_table()
        if b.num_rows == 0:
            return empty
        order = pc.sort_indices(
            b, sort_keys=[("vkey", "ascending"), ("word", "ascending")]
        )
        t = b.take(order)
        vk = np.asarray(t.column("vkey"), dtype=np.int64)
        words = t.column("word")
        n = len(vk)
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = vk[1:] != vk[:-1]
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], n)
        m_of = ends - starts
        if int(m_of.max()) > hot_bucket_cap:
            bi = int(np.argmax(m_of))
            run = words.slice(starts[bi], m_of[bi])
            raise ValueError(
                "vocab_edit_pairs: variant bucket of "
                f"{int(m_of[bi])} words (shortest member "
                f"{int(pc.min(pc.utf8_length(run)).as_py())} chars) exceeds "
                f"hot_bucket_cap={hot_bucket_cap}; its C(m,2) "
                "pairing would be quadratic — raise min_len, "
                "lower max_dist, or raise hot_bucket_cap explicitly"
            )
        # segment-vectorized triu over every bucket at once (words sorted
        # within a bucket, so w1 <= w2 positionally; equal-word pairs from
        # duplicate variant paths are filtered after the gather)
        bucket_of = np.repeat(np.arange(len(starts), dtype=np.int64), m_of)
        rows = np.flatnonzero(m_of[bucket_of] >= 2)
        if len(rows) == 0:
            return empty
        rep = ends[bucket_of[rows]] - rows - 1
        total = int(rep.sum())
        if total == 0:
            return empty
        a_rows = np.repeat(rows, rep)
        e2 = np.cumsum(rep)
        offs = np.arange(total, dtype=np.int64) - np.repeat(e2 - rep, rep)
        b_rows = a_rows + 1 + offs
        w1 = words.take(pa.array(a_rows, type=pa.int64()))
        w2 = words.take(pa.array(b_rows, type=pa.int64()))
        neq = pc.not_equal(w1, w2)
        return pa.table({"w1": w1.filter(neq), "w2": w2.filter(neq)})

    candidates = (
        variants.repartition(num_blocks=num_partitions, keys=["vkey"])
        .map_batches(
            bucket_pairs, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["w1", "w2"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .select_columns(["w1", "w2"])
    )

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [("w1", pa.string()), ("w2", pa.string()), ("dist", pa.int64())]
            ).empty_table()
        w1 = b.column("w1").to_pylist()
        w2 = b.column("w2").to_pylist()
        dist = levenshtein_batch(w1, w2)
        keep = dist <= max_dist
        return pa.table(
            {
                "w1": b.column("w1").filter(pa.array(keep)),
                "w2": b.column("w2").filter(pa.array(keep)),
                "dist": pa.array(dist[keep], type=pa.int64()),
            }
        )

    return candidates.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)


def doc_bfs_depths(
    sf_dir: str,
    k: int = 3,
    threshold: float = 0.5,
    seed_mod: int = 10,
    max_rounds: int = 12,
    num_partitions: int = 8,
):
    """Multi-source BFS over the exact tau-Jaccard graph: the minimum hop
    distance from the seed set (doc_id % seed_mod == 0, restricted to
    docs that have >= 1 edge) to every reachable doc — the
    traversal/reachability primitive (contamination spread, seed-labelled
    propagation radius).  Same edge definition as doc_kcore /
    doc_pagerank; iteration mirrors kcore_from_edges: the oracle unrolls
    ``max_rounds`` frontier expansions and the engine RAISES if the BFS
    needs more, so the two sides can never silently diverge."""
    import functools

    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    raw = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def canon(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": pa.array(np.asarray(b.column("a")).astype(np.int64)),
                "b": pa.array(np.asarray(b.column("b")).astype(np.int64)),
            }
        )

    edges = raw.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True).materialize()
    return bfs_depths_from_edges(edges, seed_mod, max_rounds, num_partitions)


def bfs_depths_from_edges(edges, seed_mod: int, max_rounds: int, num_partitions: int = 8):
    """Frontier-expansion BFS over a canonical (a < b) int64 edge Dataset.

    Per round: ONE broadcast semi-join keeps the symmetric adjacency rows
    whose src is in the current frontier, one groupby-distinct gives the
    neighbour set, and the unvisited ones become the next frontier at
    depth r+1.  Only node-grain sets (frontier, visited) ever reach the
    driver — bounded by the GRAPH's node count (docs with >= 1 near-dup
    edge), which is metadata-sized next to the corpus; at 10^9+ node
    graphs the keyset filter flips to the partitioned hash anti-join
    exactly as kcore_from_edges documents."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow

    out_schema = pa.schema([("doc_id", pa.int64()), ("depth", pa.int64())])

    def sym(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    sym_ds = edges.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True).materialize()
    nodes_t = collect_arrow(
        sym_ds.groupby("src", num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .select_columns(["src"])
    )
    nodes = np.asarray(nodes_t.column("src"), dtype=np.int64)
    seeds = nodes[nodes % seed_mod == 0]
    if len(seeds) == 0:
        return out_schema.empty_table()
    depths = [np.sort(seeds)]
    visited = np.sort(seeds)
    frontier = seeds
    for r in range(max_rounds):
        if len(frontier) == 0:
            break
        touched = broadcast_semi_join(
            sym_ds, pa.table({"src": pa.array(frontier, pa.int64())}), left_on="src"
        )
        nbr_t = collect_arrow(
            touched.groupby("dst", num_partitions=num_partitions)
            .aggregate(Count(alias_name="_n"))
            .select_columns(["dst"])
        )
        nbrs = np.asarray(nbr_t.column("dst"), dtype=np.int64)
        new = np.setdiff1d(nbrs, visited)  # both sorted-unique: exact set diff
        if len(new):
            depths.append(new)
            visited = np.union1d(visited, new)
        frontier = new
    if len(frontier) != 0:
        raise ValueError(
            f"BFS did not exhaust within {max_rounds} rounds; raise "
            "max_rounds (and regenerate the unrolled SQL oracle to match)"
        )
    doc_ids = np.concatenate(depths)
    dvals = np.concatenate(
        [np.full(len(d), i, dtype=np.int64) for i, d in enumerate(depths)]
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "depth": pa.array(dvals, pa.int64()),
        },
        schema=out_schema,
    )


def doc_rank_by_source(sf_dir: str, k: int = 3, num_partitions: int = 8):
    """Per-group RANK() with tie-sharing (vs doc_top_by_source's
    ROW_NUMBER): all docs whose length-rank within their source is <= k,
    where equal n_chars SHARE a rank and the next distinct value skips
    ahead (gaps) — so tied boundaries return MORE than k rows.  Same
    routed-shuffle plan as doc_top_by_source; the rank is the group-start
    offset of each (source, n_chars) TIE RUN rather than the row
    position."""
    from dynaalign_ray.hashing import hash_strings, to_id63

    def add_route(batch: pa.Table) -> pa.Table:
        h = to_id63(hash_strings(batch.column("source").to_pylist()))
        return batch.append_column("src_hash", pa.array(h, type=pa.int64()))

    def rank_block(b: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("source", pa.string()),
                ("doc_id", pa.int64()),
                ("n_chars", pa.int64()),
                ("rnk", pa.int64()),
            ]
        )
        if b.num_rows == 0:
            return out_schema.empty_table()
        idx = pc.sort_indices(
            b,
            sort_keys=[
                ("source", "ascending"),
                ("n_chars", "descending"),
                ("doc_id", "ascending"),
            ],
        )
        s = b.take(idx)
        src = s.column("source").combine_chunks()
        if isinstance(src, pa.ChunkedArray):
            src = src.chunk(0)
        codes = np.asarray(src.dictionary_encode().indices, dtype=np.int64)
        chars = np.asarray(s.column("n_chars"), dtype=np.int64)
        n = len(codes)
        pos = np.arange(n, dtype=np.int64)
        g_boundary = np.ones(n, dtype=bool)
        g_boundary[1:] = codes[1:] != codes[:-1]
        group_start = np.maximum.accumulate(np.where(g_boundary, pos, 0))
        # a tie run starts at a group boundary OR a value change
        t_boundary = g_boundary.copy()
        t_boundary[1:] |= chars[1:] != chars[:-1]
        run_start = np.maximum.accumulate(np.where(t_boundary, pos, 0))
        rnk = run_start - group_start + 1  # RANK(): run offset, with gaps
        keep = rnk <= k
        kept = s.filter(pa.array(keep))
        return pa.table(
            {
                "source": kept.column("source"),
                "doc_id": kept.column("doc_id"),
                "n_chars": kept.column("n_chars"),
                "rnk": pa.array(rnk[keep], type=pa.int64()),
            },
            schema=out_schema,
        )

    return (
        _docs(sf_dir, ["doc_id", "source", "n_chars"])
        .map_batches(add_route, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["src_hash"])
        .map_batches(
            rank_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )


def embedding_label_centroid(sf_dir: str, num_partitions: int = 8):
    """Per-label centroid vector in long form (label, dim, centroid) — the
    VECTOR AGGREGATE the class-prototype / SemDeDup-centroid step needs.
    Exactness: every float32 component converts exactly to float64, is
    scaled to an int64 micro-unit (round half-away x 10^6 — the same op
    DuckDB round() applies), and per-(label, dim) sums accumulate exact
    integers; per-block partials bound the shuffle at
    blocks x labels x dim narrow int rows, never vectors.  The final
    centroid divides the SAME exact ints on both sides."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.pipelines.relational import round4

    configure_context()
    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partials(batch: pa.Table) -> pa.Table:
        m = list_matrix(batch.column("embedding"), np.float64)
        dim = m.shape[1]
        # half-away-from-zero, matching SQL round() (np.rint is half-even)
        scaled = np.sign(m * 1e6) * np.floor(np.abs(m * 1e6) + 0.5)
        scaled = scaled.astype(np.int64)
        labels = np.asarray(batch.column("label"), dtype=np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), dim), dtype=np.int64)
        np.add.at(sums, inv, scaled)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, dim), pa.int64()),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq))),
                "psum": pa.array(sums.ravel(), pa.int64()),
                "pn": pa.array(np.repeat(counts, dim), pa.int64()),
            }
        )

    agg = (
        emb.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["label", "dim"], num_partitions=num_partitions)
        .aggregate(Sum("psum", alias_name="ssum"), Sum("pn", alias_name="n_vecs"))
    )

    def finish(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column("ssum"), dtype=np.float64)
        n = np.asarray(b.column("n_vecs"), dtype=np.float64)
        return pa.table(
            {
                "label": b.column("label"),
                "dim": b.column("dim"),
                "n_vecs": b.column("n_vecs").cast(pa.int64()),
                "centroid": round4((s / n) / 1e6),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def doc_length_gini(sf_dir: str, num_partitions: int = 8):
    """EXACT Gini coefficient of the document-length distribution (the
    corpus-inequality audit: is volume concentrated in a few giant docs?)
    WITHOUT a global sort: lengths are small ints, so ONE groupby gives
    the value histogram, the driver sorts #distinct-values rows, and the
    rank-weighted sum comes from the closed form over runs of equal
    values — a run of count c starting after cumulative position p
    contributes v * (c*p + c*(c+1)/2) to sum(rank * x).  All int64
    (Python-int exact on the driver); Gini = (2*S - (n+1)*T) / (n*T)
    divides the same exact integers on both sides.  Tie order never
    matters because tied values contribute identically at any rank
    permutation — which is what makes the histogram plan exact."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow
    from dynaalign_ray.pipelines.relational import round4

    hist = collect_arrow(
        _docs(sf_dir, ["n_chars"])
        .groupby("n_chars", num_partitions=num_partitions)
        .aggregate(Count(alias_name="cnt"))
    )
    vals = np.asarray(hist.column("n_chars"), dtype=np.int64)
    cnts = np.asarray(hist.column("cnt"), dtype=np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    n = int(cnts.sum())
    total = int((vals * cnts).sum())
    p = 0
    s = 0  # sum over ranks i of i * x_i, ranks 1..n ascending
    for v, c in zip(vals.tolist(), cnts.tolist()):
        s += v * (c * p + c * (c + 1) // 2)
        p += c
    gini = (2 * s - (n + 1) * total) / (n * total) if n and total else 0.0
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "total_chars": pa.array([total], pa.int64()),
            "gini": round4(np.array([gini])),
        }
    )


def source_vocab_overlap(sf_dir: str, min_len: int = 1, num_partitions: int = 8):
    """Pairwise Jaccard overlap between SOURCES' vocabularies — the
    group-level set-similarity matrix (which crawls/feeds speak the same
    language?).  One tokenize pass reduces to the distinct (word, source)
    edge set; a keyed repartition co-locates each word's sources so
    intersections fall out as per-word C(s, 2) pairs (bounded by the
    source count, a catalog constant); set sizes are one tiny groupby.
    jaccard = i / (na + nb - i) divides exact ints."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow

    def edges(batch: pa.Table) -> pa.Table:
        # Arrow-native (word, source) edge emitter: split once, broadcast
        # the source per token by offset repeat, length-filter, and use an
        # empty-aggregate group_by as the per-block distinct (empty tokens
        # fall to the >= max(min_len, 1) filter, matching str.split)
        toks = pc.utf8_split_whitespace(batch.column("text"))
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        counts = np.diff(np.asarray(toks.offsets).astype(np.int64))
        src = batch.column("source").combine_chunks() if isinstance(
            batch.column("source"), pa.ChunkedArray
        ) else batch.column("source")
        src_flat = src.take(
            pa.array(
                np.repeat(np.arange(len(counts), dtype=np.int64), counts),
                type=pa.int64(),
            )
        )
        keep = pc.greater_equal(pc.utf8_length(flat), max(min_len, 1))
        t = pa.table({"word": flat.filter(keep), "source": src_flat.filter(keep)})
        return t.group_by(["word", "source"]).aggregate([])

    edge_ds = (
        _docs(sf_dir, ["text", "source"])
        .map_batches(edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["word", "source"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .select_columns(["word", "source"])
        .materialize()
    )
    sizes_t = collect_arrow(
        edge_ds.groupby("source", num_partitions=num_partitions).aggregate(
            Count(alias_name="n_words")
        )
    )
    size_map = dict(
        zip(
            sizes_t.column("source").to_pylist(),
            np.asarray(sizes_t.column("n_words"), dtype=np.int64).tolist(),
        )
    )

    def pairs_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("source_a", pa.string()), ("source_b", pa.string())]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        order = pc.sort_indices(
            b, sort_keys=[("word", "ascending"), ("source", "ascending")]
        )
        t = b.take(order)
        # segment-vectorized per-word source-pair triu (shared kernel);
        # word-run boundaries computed on the sorted string column
        from dynaalign_ray.stages.bands import segment_triu_rows

        words_col = t.column("word").combine_chunks()
        n = len(words_col)
        neq = pc.not_equal(words_col.slice(1), words_col.slice(0, n - 1))
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = np.asarray(neq)
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], n)
        a_rows, b_rows = segment_triu_rows(starts, ends, (ends - starts) >= 2)
        if len(a_rows) == 0:
            return empty
        src_col = t.column("source").combine_chunks()
        return pa.table(
            {
                "source_a": src_col.take(pa.array(a_rows, type=pa.int64())),
                "source_b": src_col.take(pa.array(b_rows, type=pa.int64())),
            }
        )

    inter_t = collect_arrow(
        edge_ds.repartition(num_blocks=num_partitions, keys=["word"])
        .map_batches(
            pairs_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(["source_a", "source_b"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_common"))
    )  # pair-grain: C(|sources|, 2) rows
    sa = inter_t.column("source_a").to_pylist()
    sb = inter_t.column("source_b").to_pylist()
    i = np.asarray(inter_t.column("n_common"), dtype=np.int64)
    na = np.array([size_map[s] for s in sa], dtype=np.int64)
    nb = np.array([size_map[s] for s in sb], dtype=np.int64)
    jac = i.astype(np.float64) / (na + nb - i).astype(np.float64)
    from dynaalign_ray.pipelines.relational import round4

    return pa.table(
        {
            "source_a": pa.array(sa, pa.string()),
            "source_b": pa.array(sb, pa.string()),
            "n_common": pa.array(i, pa.int64()),
            "jaccard": round4(jac),
        }
    )


def doc_best_match(
    sf_dir: str, k: int = 3, threshold: float = 0.5, num_partitions: int = 8
):
    """NEAREST NEIGHBOUR per document: each doc's single most similar doc
    among the exact tau-Jaccard pairs (jaccard DESC, neighbour doc_id ASC
    on ties) — the per-item argmax shape that canonical-representative
    selection needs.  The exact prefix-filtered join supplies the edges
    (recall 1.0, never O(n^2)); both directions of each edge route
    through ONE keyed repartition and a per-block vectorized argmax.
    Ordering compares the same unrounded doubles the oracle's window
    ORDER BY sees (identical division on both sides), with doc_id
    breaking any double-equal tie deterministically."""
    import functools

    from dynaalign_ray.pipelines.relational import round4
    from dynaalign_ray.stages.ssjoin import prefix_jaccard_join

    sets_ds = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(
            functools.partial(_shingle_sets_block, k=k),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .materialize()
    )
    edges = prefix_jaccard_join(sets_ds, threshold, num_partitions, order="value")

    def both_dirs(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        j = np.asarray(b.column("jaccard"), dtype=np.float64)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([a, bb]), pa.int64()),
                "other": pa.array(np.concatenate([bb, a]), pa.int64()),
                "jac": pa.array(np.concatenate([j, j]), pa.float64()),
            }
        )

    def argmax_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("doc_id", pa.int64()),
                ("best_match", pa.int64()),
                ("jaccard", pa.float64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        order = pc.sort_indices(
            b,
            sort_keys=[
                ("doc_id", "ascending"),
                ("jac", "descending"),
                ("other", "ascending"),
            ],
        )
        t = b.take(order)
        d = np.asarray(t.column("doc_id"), dtype=np.int64)
        first = np.empty(len(d), dtype=bool)
        first[0] = True
        first[1:] = d[1:] != d[:-1]
        sel = pa.array(np.nonzero(first)[0])
        return pa.table(
            {
                "doc_id": t.column("doc_id").take(sel),
                "best_match": t.column("other").take(sel),
                "jaccard": pa.array(
                    round4(np.asarray(t.column("jac"))[first]), pa.float64()
                ),
            }
        )

    return (
        edges.map_batches(both_dirs, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["doc_id"])
        .map_batches(
            argmax_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )


def doc_lorenz_deciles(sf_dir: str, num_partitions: int = 8):
    """LORENZ CURVE at decile points: after ranking docs by length
    ascending, the cumulative doc count and cumulative character share at
    each k/10 boundary — the inequality profile behind doc_length_gini.
    Same histogram plan (one groupby, no global sort): boundary
    m_k = k*n//10 falls inside an equal-value run, whose partial
    contribution is v * (m_k - cum_before) — exact, and independent of
    how ties are ordered, which is why row_number tie order on the
    oracle side cannot matter."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow
    from dynaalign_ray.pipelines.relational import round4

    hist = collect_arrow(
        _docs(sf_dir, ["n_chars"])
        .groupby("n_chars", num_partitions=num_partitions)
        .aggregate(Count(alias_name="cnt"))
    )
    vals = np.asarray(hist.column("n_chars"), dtype=np.int64)
    cnts = np.asarray(hist.column("cnt"), dtype=np.int64)
    o = np.argsort(vals)
    vals, cnts = vals[o], cnts[o]
    n = int(cnts.sum())
    total = int((vals * cnts).sum())
    cum_n = np.concatenate([[0], np.cumsum(cnts)])
    cum_v = np.concatenate([[0], np.cumsum(vals * cnts)])
    out_k, out_docs, out_chars, out_share = [], [], [], []
    for kk in range(1, 11):
        m = kk * n // 10
        # run containing position m: last run with cum_before < m
        idx = int(np.searchsorted(cum_n, m, side="left"))  # cum_n[idx] >= m
        cum_chars = int(cum_v[idx - 1] + vals[idx - 1] * (m - cum_n[idx - 1])) if m else 0
        if idx > 0 and cum_n[idx] == m:
            cum_chars = int(cum_v[idx])
        out_k.append(kk)
        out_docs.append(m)
        out_chars.append(cum_chars)
        out_share.append(cum_chars / total if total else 0.0)
    return pa.table(
        {
            "decile": pa.array(out_k, pa.int64()),
            "cum_docs": pa.array(out_docs, pa.int64()),
            "cum_chars": pa.array(out_chars, pa.int64()),
            "share": round4(np.array(out_share)),
        }
    )


def doc_dedup_savings(sf_dir: str, num_partitions: int = 8):
    """STORAGE SAVINGS of exact-text dedup, by source: characters kept
    (the per-cluster min-doc_id winner) vs characters dropped — the
    ROI report every dedup run owes its operator.  One (text-hash)
    groupby dedups; the winner flag is a per-block vectorized first-of-
    group after ONE keyed repartition; savings aggregate per source in
    exact int64 chars."""
    from ray.data.aggregate import Sum

    from dynaalign_ray.hashing import content_hash

    docs = _docs(sf_dir, ["doc_id", "text", "source", "n_chars"])

    def key_block(b: pa.Table) -> pa.Table:
        h = content_hash(b.column("text").to_pylist())
        return pa.table(
            {
                "thash": pa.array(h, pa.int64()),
                "doc_id": b.column("doc_id"),
                "source": b.column("source"),
                "n_chars": b.column("n_chars").cast(pa.int64()),
            }
        )

    def winners_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [
                    ("source", pa.string()),
                    ("kept", pa.int64()),
                    ("kept_chars", pa.int64()),
                    ("dropped", pa.int64()),
                    ("dropped_chars", pa.int64()),
                ]
            ).empty_table()
        order = pc.sort_indices(
            b, sort_keys=[("thash", "ascending"), ("doc_id", "ascending")]
        )
        t = b.take(order)
        h = np.asarray(t.column("thash"), dtype=np.int64)
        ch = np.asarray(t.column("n_chars"), dtype=np.int64)
        first = np.empty(len(h), dtype=bool)
        first[0] = True
        first[1:] = h[1:] != h[:-1]
        tt = pa.table(
            {
                "source": t.column("source"),
                "kept": pa.array(first.astype(np.int64)),
                "kept_chars": pa.array(np.where(first, ch, 0)),
                "dropped": pa.array((~first).astype(np.int64)),
                "dropped_chars": pa.array(np.where(~first, ch, 0)),
            }
        )
        return (
            tt.group_by(["source"])
            .aggregate(
                [
                    ("kept", "sum"),
                    ("kept_chars", "sum"),
                    ("dropped", "sum"),
                    ("dropped_chars", "sum"),
                ]
            )
            .rename_columns(["source", "kept", "kept_chars", "dropped", "dropped_chars"])
        )

    return (
        docs.map_batches(key_block, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["thash"])
        .map_batches(
            winners_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("source", num_partitions=num_partitions)
        .aggregate(
            Sum("kept", alias_name="kept"),
            Sum("kept_chars", alias_name="kept_chars"),
            Sum("dropped", alias_name="dropped"),
            Sum("dropped_chars", alias_name="dropped_chars"),
        )
    )


def doc_cluster_size_gini(sf_dir: str, num_partitions: int = 8):
    """GINI of the flagship near-dup CLUSTER-SIZE distribution — are
    duplicates spread thin or concentrated in a few mega-clusters (the
    boilerplate-farm indicator that decides salting strategy)?  Composes
    the flagship MinHash-LSH clustering with the histogram Gini: cluster
    sizes from one groupby over the labels, then the exact closed form
    over equal-size runs (see doc_length_gini).  Singleton docs count as
    size-1 clusters, matching the oracle's CC over all docs."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow
    from dynaalign_ray.pipelines.neardup import near_dedup
    from dynaalign_ray.pipelines.relational import round4

    cfg = DedupConfig(shingle_k=3)
    res = near_dedup(
        docs_ds=_docs(sf_dir, ["doc_id", "text"]),
        cfg=cfg,
        num_partitions=num_partitions,
    )
    sizes = (
        res.clusters.groupby("cluster_id", num_partitions=num_partitions)
        .aggregate(Count(alias_name="sz"))
        .groupby("sz", num_partitions=num_partitions)
        .aggregate(Count(alias_name="cnt"))
    )
    hist = collect_arrow(sizes)  # size-histogram grain: #distinct sizes rows
    vals = np.asarray(hist.column("sz"), dtype=np.int64)
    cnts = np.asarray(hist.column("cnt"), dtype=np.int64)
    o = np.argsort(vals)
    vals, cnts = vals[o], cnts[o]
    n = int(cnts.sum())
    total = int((vals * cnts).sum())
    p = 0
    s = 0
    for v, c in zip(vals.tolist(), cnts.tolist()):
        s += v * (c * p + c * (c + 1) // 2)
        p += c
    gini = (2 * s - (n + 1) * total) / (n * total) if n and total else 0.0
    return pa.table(
        {
            "n_clusters": pa.array([n], pa.int64()),
            "n_docs": pa.array([total], pa.int64()),
            "gini": round4(np.array([gini])),
        }
    )


def doc_top_term_coverage(sf_dir: str, k: int = 10, num_partitions: int = 8):
    """What fraction of ALL corpus tokens do the top-k terms cover — the
    head-heaviness probe behind stopword lists and vocab truncation.
    One tokenize pass pre-aggregates per block, one narrow groupby gives
    global term counts, the top-k is the per-block partial pattern
    (count DESC, term ASC — total order), and coverage divides two exact
    int64s."""
    from ray.data.aggregate import Sum

    from dynaalign_ray.exec import partial_topk
    from dynaalign_ray.joins import collect_arrow
    from dynaalign_ray.pipelines.relational import round4

    def term_counts(batch: pa.Table) -> pa.Table:
        # Arrow-native per-block pre-aggregate: split + flatten +
        # value_counts (empty tokens dropped to match str.split)
        flat = pc.list_flatten(pc.utf8_split_whitespace(batch.column("text")))
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "term": vc.field("values"),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    global_counts = (
        _docs(sf_dir, ["text"])
        .map_batches(term_counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term", num_partitions=num_partitions)
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    total_t = collect_arrow(
        global_counts.map_batches(
            lambda b: pa.table(
                {"t": pa.array([int(np.asarray(b.column("n"), dtype=np.int64).sum())], pa.int64())}
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    total = int(np.asarray(total_t.column("t"), dtype=np.int64).sum())
    top = partial_topk(
        global_counts, [("n", "descending"), ("term", "ascending")], k
    )
    top_t = top if isinstance(top, pa.Table) else collect_arrow(top)
    n = np.asarray(top_t.column("n"), dtype=np.int64)
    order = np.lexsort((np.array(top_t.column("term").to_pylist()), -n))
    terms = [top_t.column("term").to_pylist()[i] for i in order]
    n = n[order]
    cum = np.cumsum(n)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(n) + 1, dtype=np.int64)),
            "term": pa.array(terms, pa.string()),
            "n": pa.array(n, pa.int64()),
            "cum_coverage": round4(cum.astype(np.float64) / float(total)),
        }
    )


def doc_shingle_df_hist(sf_dir: str, k: int = 3, num_partitions: int = 8):
    """Document-frequency HISTOGRAM of the distinct word-k-shingles — the
    boilerplate profile that sizes LSH bucket salting (a fat df tail
    means hot buckets).  Two narrow groupbys: per-doc-distinct shingle
    hashes -> df per shingle -> shingle count per df value.  The shuffle
    never carries strings (the same hashed-shingle kernel as the MinHash
    stage); the oracle walks the same distinct-shingle CTE in string
    space, exercising hash-set equivalence end to end."""
    from ray.data.aggregate import Count

    from dynaalign_ray.shingles import batch_shingle_hashes

    def distinct_shingles(batch: pa.Table) -> pa.Table:
        hashes, counts = batch_shingle_hashes(batch.column("text"), k=k, mode="word")
        doc_ids = np.repeat(
            np.asarray(batch.column("doc_id"), dtype=np.int64), counts
        )
        t = pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "sh": pa.array(hashes.astype(np.int64), pa.int64()),
            }
        )
        # per-doc distinct via one lexsort + adjacent-dup drop
        order = pc.sort_indices(t, sort_keys=[("doc_id", "ascending"), ("sh", "ascending")])
        t = t.take(order)
        d = np.asarray(t.column("doc_id"), dtype=np.int64)
        s = np.asarray(t.column("sh"), dtype=np.int64)
        keep = np.empty(len(d), dtype=bool)
        if len(d):
            keep[0] = True
            keep[1:] = (d[1:] != d[:-1]) | (s[1:] != s[:-1])
        return t.filter(pa.array(keep))

    df = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(distinct_shingles, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("sh", num_partitions=num_partitions)
        .aggregate(Count(alias_name="df"))
    )
    return (
        df.groupby("df", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_shingles"))
    )


def doc_langid_confusion(sf_dir: str, num_partitions: int = 8):
    """CONFUSION MATRIX of the heuristic language-ID against the labeled
    lang column — the model-evaluation shape (which languages get
    mistaken for which).  The same LangIdActor the histogram query uses,
    with the label carried through the batch (row order is preserved by
    the vectorized actor); one (label, prediction) groupby ends it."""
    import ray
    from ray.data.aggregate import Count

    from dynaalign_ray.functions.textstats import LangIdActor

    class _LangIdWithLabel(LangIdActor):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            return out.append_column("lang", batch.column("lang"))

    ncpu = int(ray.cluster_resources().get("CPU", 8))
    pred = _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(
        _LangIdWithLabel,
        batch_format="pyarrow",
        batch_size=512,
        concurrency=(2, max(2, ncpu // 2)),
    )
    return pred.groupby(["lang", "pred_lang"], num_partitions=num_partitions).aggregate(
        Count(alias_name="n_docs")
    )
