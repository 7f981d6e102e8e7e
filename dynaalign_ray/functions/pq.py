"""Product quantization (PQ — public algorithm: Jégou, Douze, Schmid,
"Product Quantization for Nearest Neighbor Search", TPAMI 2011) — the
vector-COMPRESSION scale path for embedding columns: a d-dim float vector
becomes ``m`` uint8 codes (one per subspace), a 32x+ size cut that lets
10^12 embeddings live in the object store / on disk where raw floats
cannot.

Distributed shape (same discipline as the IVF index in
functions/similarity_search.py):

- ``train_pq``      — codebooks from a BOUNDED deterministic hash-sample
  (never the full corpus), k-means per subspace on the driver's sample;
- ``encode_pq``     — map_batches: codebooks broadcast ONCE (ray.put),
  per-batch vectorized argmin over each subspace -> m-byte binary codes;
- ``pq_topk``       — asymmetric distance (ADC): per query ONE (m, k)
  lookup table of exact query-subvector-to-centroid distances; per batch
  the code matrix gathers+sums through the LUT (pure numpy take/sum), a
  per-block partial top-k bounds what leaves each block, deterministic
  final reduce.

Approximation contract: distances are quantized (recall gated by pytest
against the exact scan), determinism is exact (fixed seed, argmin
first-min tie rule, (dist, vec_id) final ordering).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from dynaalign_ray.exec import broadcast_put
from dynaalign_ray.hashing import mix64
from dynaalign_ray.shingles import list_matrix

U64 = np.uint64



def train_pq(
    embeddings_ds,
    m: int = 8,
    k: int = 256,
    *,
    sample_cap: int = 100_000,
    n_iter: int = 12,
    seed: int = 42,
    id_col: str = "vec_id",
    col: str = "embedding",
) -> np.ndarray:
    """-> (m, k, d/m) float64 codebooks.  Trained on a deterministic
    hash-sample (mix64(vec_id) cut — partition/order invariant), plain L2
    Lloyd iterations per subspace; empty clusters re-seeded from the rows
    farthest from their assigned centroid (deterministic)."""
    import ray

    n = embeddings_ds.count()
    frac = min(1.0, sample_cap / max(n, 1))
    cut = np.int64(frac * float(2**63 - 1025))

    def sample_block(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        keep = mix64(ids.astype(U64)).astype(np.int64) & np.int64(2**63 - 1)
        return pa.table({col: batch.column(col).filter(pa.array(keep <= cut))})

    parts = [
        t
        for t in (
            ray.get(r)
            for r in embeddings_ds.map_batches(
                sample_block, batch_format="pyarrow", zero_copy_batch=True
            ).materialize().to_arrow_refs()
        )
        if t.num_rows and col in t.column_names
    ]
    sample = list_matrix(pa.concat_tables(parts).column(col), np.float64)
    n_s, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    kk = min(k, n_s)
    rng = np.random.Generator(np.random.PCG64(seed))
    books = np.empty((m, kk, dsub), dtype=np.float64)
    for j in range(m):
        x = sample[:, j * dsub : (j + 1) * dsub]
        cent = x[rng.choice(n_s, size=kk, replace=False)]
        for _ in range(n_iter):
            # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; ||x||^2 constant per row
            d2 = -2.0 * (x @ cent.T) + (cent * cent).sum(axis=1)[None, :]
            assign = np.argmin(d2, axis=1)
            best = d2[np.arange(n_s), assign]
            new = np.zeros_like(cent)
            np.add.at(new, assign, x)
            counts = np.bincount(assign, minlength=kk)
            empty = counts == 0
            if empty.any():
                far = np.argsort(-best)[: int(empty.sum())]
                new[empty] = x[far]
                counts[empty] = 1
            cent = new / counts[:, None]
        books[j] = cent
    return books


def _encode_matrix(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) floats -> (n, m) uint8 codes (argmin per subspace,
    first-min tie rule)."""
    n = x.shape[0]
    m, k, dsub = books.shape
    codes = np.empty((n, m), dtype=np.uint8)
    for j in range(m):
        sub = x[:, j * dsub : (j + 1) * dsub]
        cent = books[j]
        d2 = -2.0 * (sub @ cent.T) + (cent * cent).sum(axis=1)[None, :]
        codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def encode_pq(
    embeddings_ds,
    books: np.ndarray,
    *,
    id_col: str = "vec_id",
    col: str = "embedding",
):
    """-> Dataset(vec_id, codes: binary[m]) — the compressed at-rest form.
    Codebooks are broadcast once; each batch is one matmul per subspace."""
    import ray

    books_ref = broadcast_put(np.ascontiguousarray(books))
    m = books.shape[0]

    # stateless-task form (no actor pool): ray.get on a local plasma object
    # is a zero-copy mmap per batch — cheap — and task operators can never
    # starve each other's CPU reservations the way chained min-size actor
    # pools can on a small cluster (stages/minhash.py uses the same shape)
    def encode_batch(batch: pa.Table) -> pa.Table:
        bks = ray.get(books_ref) if isinstance(books_ref, ray.ObjectRef) else books_ref
        x = list_matrix(batch.column(col), np.float64)
        codes = _encode_matrix(x, bks)
        n = len(codes)
        offsets = np.arange(0, (n + 1) * m, m, dtype=np.int32)
        arr = pa.Array.from_buffers(
            pa.binary(),
            n,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(codes.tobytes())],
        )
        return pa.table(
            {"vec_id": batch.column(id_col).cast(pa.int64()), "codes": arr}
        )

    return embeddings_ds.map_batches(
        encode_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def pq_topk(
    codes_ds,
    books: np.ndarray,
    queries: np.ndarray,
    k: int = 5,
) -> pa.Table:
    """Asymmetric-distance top-k over PQ codes: per query one exact (m, k)
    LUT, per batch a numpy gather+sum over the code matrix, per-block
    partial top-k (bounds egress at n_queries*k rows per block), then a
    deterministic driver reduce ordered by (dist, vec_id).

    -> (query_id, vec_id, approx_dist) with k rows per query."""
    import ray

    q = np.ascontiguousarray(np.asarray(queries, dtype=np.float64))
    nq = q.shape[0]
    m, kc, dsub = books.shape
    # LUT[qi, j, c] = ||q_sub - centroid||^2 (exact, tiny: nq * m * kc)
    lut = np.empty((nq, m, kc), dtype=np.float64)
    for j in range(m):
        sub = q[:, j * dsub : (j + 1) * dsub]  # (nq, dsub)
        cent = books[j]  # (kc, dsub)
        lut[:, j, :] = (
            (sub * sub).sum(axis=1)[:, None]
            - 2.0 * (sub @ cent.T)
            + (cent * cent).sum(axis=1)[None, :]
        )
    lut_ref = broadcast_put(lut)
    cols = np.arange(m)

    def block_topk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "codes" not in b.column_names:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "approx_dist": pa.array([], pa.float64()),
                }
            )
        L = ray.get(lut_ref) if isinstance(lut_ref, ray.ObjectRef) else lut_ref
        codes_arr = b.column("codes").combine_chunks()
        n = len(codes_arr)
        # decode through the offsets buffer — a sliced array's data
        # buffer does not start at byte 0
        offs = np.frombuffer(codes_arr.buffers()[1], dtype=np.int32, count=n + 1)
        data = np.frombuffer(codes_arr.buffers()[2], dtype=np.uint8)
        codes = data[offs[0] : offs[0] + n * m].reshape(n, m)
        ids = np.asarray(b.column("vec_id")).astype(np.int64)
        out_q, out_v, out_d = [], [], []
        for qi in range(nq):
            # gather per-subspace distances and sum: (n, m) -> (n,)
            dist = L[qi][cols[None, :], codes].sum(axis=1)
            kk = min(k, n)
            # deterministic block-local top-k: full (dist, id) lexsort
            order = np.lexsort((ids, dist))[:kk]
            out_q.extend([qi] * kk)
            out_v.extend(ids[order].tolist())
            out_d.extend(dist[order].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "approx_dist": pa.array(out_d, pa.float64()),
            }
        )

    parts = [
        t
        for t in (
            ray.get(r)
            for r in codes_ds.map_batches(
                block_topk,
                batch_size=4096,
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "approx_dist": pa.array([], pa.float64()),
            }
        )
    cand = pa.concat_tables(parts).combine_chunks()
    qs = np.asarray(cand.column("query_id")).astype(np.int64)
    vs = np.asarray(cand.column("vec_id")).astype(np.int64)
    ds_ = np.asarray(cand.column("approx_dist")).astype(np.float64)
    out_q, out_v, out_d = [], [], []
    for qi in range(nq):
        sel = qs == qi
        order = np.lexsort((vs[sel], ds_[sel]))[:k]
        out_q.extend([qi] * len(order))
        out_v.extend(vs[sel][order].tolist())
        out_d.extend(ds_[sel][order].tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "approx_dist": pa.array(out_d, pa.float64()),
        }
    )
