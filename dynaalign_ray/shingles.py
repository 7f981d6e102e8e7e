"""Vectorized shingling + signature kernels (batch-level).

Re-expresses the reference's per-document loops as whole-batch array ops.
The numpy bodies below are the specification; word-mode token hashing and
windowing, MinHash, SimHash and bottom-k sketching each first try a C
loop from :mod:`dynaalign_ray.ckernels` that returns byte-identical arrays
without numpy's batch-sized temporaries, and run the numpy body when the
kernel is unavailable.  Tokenisation stays in Arrow
(``pc.utf8_split_whitespace``) on both paths.

- ``shingle`` / ``generate_kmers`` (/root/reference/R/minHash.R:12-23,
  src/minHash.cpp:92-105): instead of materializing shingle *strings*, we
  hash tokens once and combine sliding windows of token hashes
  (:func:`batch_shingle_hashes`).  Documents shorter than k yield an empty
  shingle set (the C++ path's behavior, src/minHash.cpp:99-101) and become
  singletons downstream.
- ``compute_signature_matrix`` (/root/reference/R/minHash.R:126-143,
  src/minHash.cpp:140-158): per-permutation min over shingle hashes via
  ``np.minimum.reduceat`` segmented by doc boundaries
  (:func:`minhash_signatures`).  MinHash over a multiset equals MinHash over
  the set, so no per-doc dedup is needed before the min-reduce.
- SimHash (engine addition, north-star fallback path): 64-bit
  sign-of-weighted-bit-sums fingerprint (:func:`simhash_signatures`).
- retained shingle sketches for exact-Jaccard verification: per-doc sorted
  distinct bottom-k hashes (:func:`bottomk_sketches`); bottom-k of a uniform
  hash space is a consistent Jaccard estimator and is exact while the doc's
  distinct-shingle count stays under the cap.
"""

from __future__ import annotations

import numpy as np

from dynaalign_ray import ckernels
from dynaalign_ray.hashing import U64, hash_u64, mix64, poly_powers

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def tokenize(text: str, mode: str) -> np.ndarray:
    """One doc -> token array. mode="word": whitespace tokens (object array);
    mode="char": unicode codepoints (uint32 array, reference's char shingles)."""
    if mode == "word":
        return np.array(text.split(), dtype=object)
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


_BYTE_P = U64(0x100000001B3)
_BYTE_PINV = U64(pow(0x100000001B3, -1, 1 << 64))


def varlen_offsets(arr) -> np.ndarray:
    """Element offsets of an Arrow varlen array (string/binary and their
    large_ variants) read off the raw offsets buffer with the CORRECT
    width: large_string/large_binary carry int64 offsets, and reading them
    as int32 silently interleaves offset halves into garbage spans (pandas
    and Polars-originated datasets produce large_ types routinely)."""
    import pyarrow as pa

    dt = (
        np.int64
        if pa.types.is_large_string(arr.type)
        or pa.types.is_large_binary(arr.type)
        or pa.types.is_large_list(arr.type)
        else np.int32
    )
    return np.frombuffer(arr.buffers()[1], dtype=dt)[
        arr.offset : arr.offset + len(arr) + 1
    ]


def list_matrix(col, dtype=None) -> np.ndarray:
    """The rows of an equal-length Arrow list column (list, large_list or
    fixed_size_list; Array or ChunkedArray) as a ``(rows, dim)`` matrix.

    Built on ``pc.list_flatten``, which reads only the array's own rows:
    ``arr.values`` is the whole child buffer, so on a sliced batch it also
    returns rows outside the slice.  Null or ragged rows raise."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = np.asarray(pc.list_flatten(arr), dtype=dtype)
    n = len(arr)
    dim = len(flat) // n if n else 0
    if arr.null_count or (
        n and not (np.asarray(pc.list_value_length(arr)) == dim).all()
    ):
        raise ValueError("list column has null or ragged rows")
    return flat.reshape(n, dim)


def varlen_data(arr) -> np.ndarray:
    """The data buffer of an Arrow string or binary array (plain or large_)
    as uint8 (empty when Arrow allocated none, as it may for an array of
    empty strings)."""
    buf = arr.buffers()[2]
    return np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.empty(0, np.uint8)


def _hash_utf8_spans(arr, seed: int) -> np.ndarray:
    """Vectorized uint64 hash of every string in an Arrow StringArray,
    computed directly off the (offsets, data) buffers — no Python string
    objects.  Polynomial rolling hash over the utf8 bytes in the 2^64 ring
    (prefix sums + inverse powers, the substring-stage technique), mixed
    with the byte length and seed through splitmix64."""
    import pyarrow as pa

    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=U64)
    offs = varlen_offsets(arr)
    data = varlen_data(arr)
    # C path: one Horner loop per string, no per-byte uint64 temporaries
    fused = ckernels.hash_utf8_spans(offs, data, seed)
    if fused is not None:
        return fused
    lo, hi = int(offs[0]), int(offs[-1])
    b = data[lo:hi].astype(U64)
    s = (offs[:-1] - lo).astype(np.int64)
    e = (offs[1:] - lo).astype(np.int64)
    nb = len(b)
    pows = np.ones(nb, dtype=U64)
    if nb > 1:
        np.multiply.accumulate(np.full(nb - 1, _BYTE_P, dtype=U64), out=pows[1:])
    pre = np.zeros(nb + 1, dtype=U64)
    np.cumsum(b * pows, out=pre[1:], dtype=U64)
    inv = np.ones(nb + 1, dtype=U64)
    if nb > 0:
        np.multiply.accumulate(np.full(nb, _BYTE_PINV, dtype=U64), out=inv[1:])
    span = (pre[e] - pre[s]) * inv[s]
    h = mix64(span ^ mix64((e - s).astype(U64)))
    if seed:
        h = mix64(h ^ U64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
    return h


def _word_shingles_arrow(col, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Word-mode shingling over an Arrow string column: split, hash and
    window-combine entirely in Arrow/numpy kernels (the per-doc
    ``text.split()`` Python loop removed — SURVEY.md §2 #1 at scale)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n_docs = len(col)
    toks = pc.utf8_split_whitespace(col)
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    list_offs = np.asarray(toks.offsets).astype(np.int64)
    counts_tok = np.diff(list_offs)
    flat = pc.list_flatten(toks)
    total = int(counts_tok.sum())
    if total == 0:
        return _combine_doc_windows(np.empty(0, dtype=U64), counts_tok, k, n_docs)
    # Arrow's split keeps empty strings at whitespace boundaries ("" for an
    # empty doc, leading/trailing for padded ones); Python str.split drops
    # them — both paths skip them (order within each doc is preserved)
    foffs = varlen_offsets(flat)
    # C path: token hashes and windows in one pass per doc, written straight
    # into the window array (no global token-hash array or boundary mask)
    fused = ckernels.word_shingles(
        foffs, varlen_data(flat), counts_tok, poly_powers(k), seed=0x5417
    )
    if fused is not None:
        return fused
    all_hashes = _hash_utf8_spans(flat, seed=0x5417)
    nonempty = np.diff(foffs) > 0
    if not nonempty.all():
        doc_of_tok = np.repeat(np.arange(n_docs, dtype=np.int64), counts_tok)
        counts_tok = np.bincount(doc_of_tok[nonempty], minlength=n_docs).astype(
            np.int64
        )
        all_hashes = all_hashes[nonempty]
    return _combine_doc_windows(all_hashes, counts_tok, k, n_docs)


def batch_shingle_hashes(
    texts, k: int, mode: str = "word"
) -> tuple[np.ndarray, np.ndarray]:
    """All docs of a batch -> (concatenated window hashes, per-doc counts).

    ``texts`` may be a list of Python strings or an Arrow string array /
    chunked array (the zero-copy fast path used by the signature stage —
    one implementation either way, so pipeline and oracle hashes agree).
    Window hashes are grouped by doc in input order; ``counts[d] ==
    max(len_tokens(d) - k + 1, 0)`` (multiset, duplicates retained, matching
    the reference's shingle vector semantics at R/minHash.R:17-22).
    """
    import pyarrow as pa

    if mode == "word":
        col = (
            texts
            if isinstance(texts, (pa.Array, pa.ChunkedArray))
            else pa.array(list(texts), type=pa.string())
        )
        return _word_shingles_arrow(col, k)
    if isinstance(texts, (pa.Array, pa.ChunkedArray)):
        texts = texts.to_pylist()
    n_docs = len(texts)
    counts_tok = np.empty(n_docs, dtype=np.int64)
    if mode == "char":
        arrs = [np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32) for t in texts]
        for i, a in enumerate(arrs):
            counts_tok[i] = len(a)
        cat = (
            np.concatenate(arrs).astype(U64)
            if arrs and counts_tok.sum()
            else np.empty(0, dtype=U64)
        )
        all_hashes = hash_u64(cat, seed=0x5417)
    else:
        raise ValueError(f"unknown shingle mode {mode!r}")
    return _combine_doc_windows(all_hashes, counts_tok, k, n_docs)


def _combine_doc_windows(
    all_hashes: np.ndarray, counts_tok: np.ndarray, k: int, n_docs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Combine every global window of k token hashes, masking windows that
    cross a doc boundary."""
    ends = np.cumsum(counts_tok)
    n_tok = int(ends[-1]) if n_docs else 0
    shingle_counts = np.maximum(counts_tok - k + 1, 0)
    if n_tok < k:
        return np.empty(0, dtype=U64), shingle_counts

    w = np.lib.stride_tricks.sliding_window_view(all_hashes, k)
    pows = poly_powers(k)
    acc = (w * pows[np.newaxis, :]).sum(axis=1, dtype=U64)
    windows = mix64(acc)

    n_windows = n_tok - k + 1
    starts_idx = np.arange(n_windows, dtype=np.int64)
    doc_of = np.searchsorted(ends, starts_idx, side="right")
    valid = (starts_idx + k) <= ends[doc_of]
    return windows[valid], shingle_counts


def minhash_signatures(
    shingle_hashes: np.ndarray,
    counts: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    perm_chunk: int = 8,
) -> np.ndarray:
    """(n_docs, num_perm) uint64 signature matrix.

    sig[d, i] = min over doc-d shingles s of (a_i * s + b_i)  [u64 wraparound]
    — the ``pmin`` column update of R/minHash.R:126-143 turned into a
    segmented min-reduce.  Empty docs get the U64_MAX sentinel ("infinity",
    cf. src/minHash.cpp:148 numeric_limits<uint32_t>::max()), so they never
    match anything and surface as singletons.
    Permutations are processed in chunks to bound the (chunk, n_shingles)
    working set.
    """
    n_docs = len(counts)
    num_perm = len(a)
    sig = np.full((n_docs, num_perm), _U64_MAX, dtype=U64)
    nonempty = counts > 0
    if not nonempty.any() or len(shingle_hashes) == 0:
        return sig
    # fused C path: keeps the num_perm minima in L1 and reads each shingle
    # once (the numpy chunked form below streams (perm_chunk, n_shingles)
    # DRAM temporaries — memory-bandwidth-bound under concurrent workers)
    all_starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=all_starts[1:])
    fused = ckernels.minhash_segments(shingle_hashes, all_starts, counts, a, b)
    if fused is not None:
        return fused
    seg_starts = np.zeros(int(nonempty.sum()), dtype=np.int64)
    np.cumsum(counts[nonempty][:-1], out=seg_starts[1:])
    s = shingle_hashes
    for c0 in range(0, num_perm, perm_chunk):
        c1 = min(c0 + perm_chunk, num_perm)
        h = a[c0:c1, np.newaxis] * s[np.newaxis, :] + b[c0:c1, np.newaxis]
        mins = np.minimum.reduceat(h, seg_starts, axis=1)
        sig[nonempty, c0:c1] = mins.T
    return sig


def simhash_signatures(
    shingle_hashes: np.ndarray, counts: np.ndarray, bit_chunk: int = 16
) -> np.ndarray:
    """64-bit SimHash per doc: bit j of the fingerprint is the sign of the
    sum over shingles of (2*bit_j(shingle_hash) - 1).  Empty docs -> 0.

    Bits are processed in chunks of ``bit_chunk`` so the temporary bit
    matrix stays small ((n_shingles, 16) instead of (n_shingles, 64)·2 —
    first-touch page faults on fresh worker heaps dominate otherwise).
    sum(2b-1) > 0  <=>  2*sum(b) > count, so only the 0/1 bit sums are
    accumulated.
    """
    n_docs = len(counts)
    out = np.zeros(n_docs, dtype=U64)
    nonempty = counts > 0
    if not nonempty.any() or len(shingle_hashes) == 0:
        return out
    # fused C path (see minhash_signatures): per-segment bit counters stay
    # in registers instead of an (n_shingles, bit_chunk) DRAM temporary
    all_starts = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(counts[:-1], out=all_starts[1:])
    fused = ckernels.simhash_segments(shingle_hashes, all_starts, counts)
    if fused is not None:
        return fused
    seg_starts = np.zeros(int(nonempty.sum()), dtype=np.int64)
    np.cumsum(counts[nonempty][:-1], out=seg_starts[1:])
    seg_counts = counts[nonempty].astype(np.int64)
    packed = np.zeros(int(nonempty.sum()), dtype=U64)
    for c0 in range(0, 64, bit_chunk):
        c1 = min(c0 + bit_chunk, 64)
        shifts = np.arange(c0, c1, dtype=U64)
        bits = ((shingle_hashes[:, np.newaxis] >> shifts) & U64(1)).astype(np.int32)
        sums = np.add.reduceat(bits, seg_starts, axis=0)
        pos = (2 * sums) > seg_counts[:, np.newaxis]
        packed |= (pos.astype(U64) << shifts).sum(axis=1, dtype=U64)
    out[nonempty] = packed
    return out


def bottomk_sketches(
    shingle_hashes: np.ndarray, counts: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-doc sorted distinct shingle hashes, bottom-k capped.

    Returns (concatenated sketch values grouped by doc, per-doc sketch
    sizes, per-doc DISTINCT shingle counts pre-cap).  This is the scalable
    stand-in for the reference's characteristic matrix column
    (R/minHash.R:60-66): the doc's shingle *set*, kept sparse.
    """
    # C path: sort + unique per doc segment (numpy's lexsort below sorts the
    # whole batch by a (doc, hash) key through multi-MB temporaries)
    fused = ckernels.bottomk_segments(shingle_hashes, counts, cap)
    if fused is not None:
        return fused
    n_docs = len(counts)
    sizes = np.zeros(n_docs, dtype=np.int64)
    if len(shingle_hashes) == 0:
        return np.empty(0, dtype=U64), sizes, sizes.copy()
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    order = np.lexsort((shingle_hashes, doc_idx))
    s = shingle_hashes[order]
    d = doc_idx[order]
    first = np.ones(len(s), dtype=bool)
    first[1:] = (d[1:] != d[:-1]) | (s[1:] != s[:-1])
    s, d = s[first], d[first]
    distinct = np.bincount(d, minlength=n_docs).astype(np.int64)
    # rank within doc (values already ascending per doc => bottom-k = first k)
    boundary = np.ones(len(d), dtype=bool)
    boundary[1:] = d[1:] != d[:-1]
    seg_start_pos = np.flatnonzero(boundary)
    seg_id = np.cumsum(boundary) - 1
    rank = np.arange(len(d)) - seg_start_pos[seg_id]
    keep = rank < cap
    s, d = s[keep], d[keep]
    sizes = np.bincount(d, minlength=n_docs).astype(np.int64)
    return s, sizes, distinct


def jaccard_from_sketches(a: np.ndarray, b: np.ndarray, cap: int) -> float:
    """Jaccard from two sorted-distinct bottom-k sketches.

    Exact |A∩B|/|A∪B| when both sketches are complete (size < cap);
    otherwise the standard bottom-k estimator: among the k smallest of
    A∪B, the fraction present in both.  This is the verify-stage analog of
    the reference's signature-slot match estimator
    (src/minHash.cpp:168-176) but computed on true shingle sets.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    inter = np.intersect1d(a, b, assume_unique=True)
    if la < cap and lb < cap:
        union = la + lb - len(inter)
        return len(inter) / union if union else 0.0
    if len(inter) == 0:
        return 0.0
    union = np.union1d(a, b)
    k = min(cap, len(union))
    smallest = union[:k]
    hits = np.minimum(np.searchsorted(inter, smallest), len(inter) - 1)
    return float(np.count_nonzero(inter[hits] == smallest)) / k


def signature_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """The reference's estimator verbatim: fraction of matching signature
    slots (src/minHash.cpp:160-178, R/minHash.R:166-182 similarity)."""
    return float(np.count_nonzero(sig_a == sig_b)) / len(sig_a)
