"""Exact long-match span REMOVAL — the "deduplicating training data"
ExactSubstr operator (Lee et al. 2022): any byte span of at least ``k``
characters that appears more than once in the corpus is removed from every
occurrence except the lexicographic-first one, and documents are re-emitted
with the duplicated bytes cut out.

This completes the substring-dedup family: ``stages/substring.py`` finds
document PAIRS sharing a long run (winnowing + diagonal verify); this stage
performs the per-byte removal the north star calls "exact long-match
removal".

Algorithm (fixed-threshold specialization of the suffix-array formulation):
a span of length >= k is duplicated iff some stride-1 k-gram window inside
it has a colliding occurrence elsewhere, so adjacent-suffix LCP >= k
detection reduces exactly to duplicate k-gram-hash detection — no global
suffix array needed, and every step is a vectorized rolling-hash kernel
(``substring._gram_hashes``, O(n) per doc in the 2^64 ring).  Window
identity is the 63-bit rolling hash (the published ExactSubstr practice);
a cross-window collision — odds ~(windows^2)/2^64, i.e. ~1e-4 even at 10^9
windows — can only remove a span that merely HASHES like a duplicate; the
k-byte window length makes the damage bounded and this bound is the
documented exactness caveat of the operator.

1. explode: every (window_hash, enc) int64 pair, enc = doc_id * 2^POS_BITS
   + byte_pos (lexicographic (doc_id, pos) order preserved; guarded).
2. hash-repartition by win_hash + one Arrow group_by per block:
   per hash -> (min enc = winner, count); duplicated hashes (count >= 2)
   yield the winner row AND every LOSER occurrence enc (all co-located).
3. apply: cut every byte covered by a loser window (difference-array pass).

Physical plans (size-gated, identical output):

- ``plan="broadcast"`` (default while the duplicate-winner table fits
  ``max_broadcast_rows``): winner table broadcast once, second pass
  re-derives window hashes per batch and marks loser windows.
- ``plan="join"`` (the 10^12-doc fallback, chosen automatically above the
  gate): loser encs from step 2 are grouped per doc_id into position lists
  and ``joins.hash_join``-ed against the docs; the apply pass cuts the
  listed positions directly — no re-hashing, no broadcast, and every
  intermediate scales with the duplicate-window count, not the corpus.
"""

from __future__ import annotations

from dynaalign_ray.exec import broadcast_put

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_POS_BITS = 26  # byte offset within doc (64 MiB cap per doc)
_POS_CAP = 1 << _POS_BITS
_DOC_CAP = 1 << (63 - _POS_BITS)


def window_keys_batch(batch: pa.Table, *, k: int) -> pa.Table:
    """docs -> (win_hash, enc) rows for every stride-1 k-byte window —
    one zero-copy batched gram pass over the whole column
    (``_gram_hashes_batch``), no per-doc Python."""
    from dynaalign_ray.stages.substring import _gram_hashes_batch

    doc_ids = np.asarray(batch.column("doc_id")).astype(np.int64)
    if len(doc_ids) and int(doc_ids.max()) >= _DOC_CAP:
        raise ValueError(f"doc_id >= 2^{63 - _POS_BITS}: enc key would overflow")
    hashes, counts = _gram_hashes_batch(batch.column("text"), k)
    if len(counts) and int(counts.max()) > _POS_CAP:
        raise ValueError(f"doc longer than 2^{_POS_BITS} bytes: raise _POS_BITS")
    if not len(hashes):
        empty = pa.array([], type=pa.int64())
        return pa.table({"win_hash": empty, "enc": empty})
    ends = np.cumsum(counts)
    # per-window doc index and within-doc position, all vectorized
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos = np.arange(len(hashes), dtype=np.int64) - np.repeat(ends - counts, counts)
    return pa.table(
        {
            "win_hash": pa.array(
                (hashes >> np.uint64(1)).astype(np.int64), type=pa.int64()
            ),
            "enc": pa.array(doc_ids[doc_idx] * _POS_CAP + pos, type=pa.int64()),
        }
    )


def _dup_and_losers(docs_ds, num_partitions: int, *, k: int):
    """One explode + ONE keyed shuffle -> tagged union per block:

    - kind=0: winner rows (win_hash, enc=winner_enc)
    - kind=1: loser occurrences (enc) of duplicated window hashes

    Both physical plans of :func:`span_dedup` read from this one dataset."""
    ex = docs_ds.map_batches(
        functools.partial(window_keys_batch, k=k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def split_block(b: pa.Table) -> pa.Table:
        g = b.group_by("win_hash").aggregate([("enc", "min"), ("enc", "count")])
        g = g.filter(pc.greater(g.column("enc_count"), 1))
        winners = pa.table(
            {
                "kind": pa.array(np.zeros(g.num_rows, dtype=np.int8)),
                "win_hash": g.column("win_hash"),
                "enc": g.column("enc_min"),
            }
        )
        j = b.join(
            pa.table({"win_hash": g.column("win_hash"), "wenc": g.column("enc_min")}),
            keys=["win_hash"],
            join_type="inner",
        )
        j = j.filter(pc.not_equal(j.column("enc"), j.column("wenc")))
        losers = pa.table(
            {
                "kind": pa.array(np.ones(j.num_rows, dtype=np.int8)),
                "win_hash": pa.nulls(j.num_rows, type=pa.int64()),
                "enc": j.column("enc"),
            }
        )
        return pa.concat_tables([winners, losers]).combine_chunks()

    return ex.repartition(num_blocks=num_partitions, keys=["win_hash"]).map_batches(
        split_block,
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _cut_rows(
    batch: pa.Table, starts_per_doc: list[np.ndarray], k: int
) -> pa.Table:
    """Shared removal kernel: per doc, cut every byte covered by a loser
    window start (difference-array pass — O(doc bytes), no per-byte Python)."""
    texts = batch.column("text").to_pylist()
    clean, removed, dup_windows = [], [], []
    for text, starts in zip(texts, starts_per_doc):
        if len(starts):
            raw = text.encode("utf-8")
            diff = np.zeros(len(raw) + 1, dtype=np.int32)
            np.add.at(diff, starts, 1)
            np.add.at(diff, np.minimum(starts + k, len(raw)), -1)
            covered = np.cumsum(diff[:-1]) > 0
            kept = np.frombuffer(raw, dtype=np.uint8)[~covered]
            clean.append(kept.tobytes().decode("utf-8", errors="ignore"))
            removed.append(int(covered.sum()))
        else:
            clean.append(text)
            removed.append(0)
        dup_windows.append(int(len(starts)))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "clean_text": pa.array(clean, type=pa.string()),
            "n_removed_bytes": pa.array(removed, type=pa.int64()),
            "n_dup_windows": pa.array(dup_windows, type=pa.int64()),
        }
    )


class _ApplySpanDedup:
    """Broadcast-plan second pass: re-derive window hashes per batch, mark
    loser windows (occurrence enc != winner enc), cut their bytes."""

    def __init__(self, dup_ref, *, k: int):
        import ray

        self.dup_hashes, self.winner_enc = ray.get(dup_ref)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from dynaalign_ray.stages.substring import _gram_hashes_batch

        k = self.k
        doc_ids = np.asarray(batch.column("doc_id")).astype(np.int64)
        hashes, counts = _gram_hashes_batch(batch.column("text"), k)
        h = (hashes >> np.uint64(1)).astype(np.int64)
        ends = np.cumsum(counts)
        doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        win_pos = np.arange(len(h), dtype=np.int64) - np.repeat(ends - counts, counts)
        if len(self.dup_hashes) and len(h):
            pos = np.minimum(
                np.searchsorted(self.dup_hashes, h), len(self.dup_hashes) - 1
            )
            enc = doc_ids[doc_idx] * _POS_CAP + win_pos
            lose = (self.dup_hashes[pos] == h) & (self.winner_enc[pos] != enc)
        else:
            lose = np.zeros(len(h), dtype=bool)
        starts_per_doc = [
            win_pos[(ends[i] - counts[i]) : ends[i]][
                lose[(ends[i] - counts[i]) : ends[i]]
            ]
            for i in range(len(counts))
        ]
        return _cut_rows(batch, starts_per_doc, k)


def _span_dedup_join_plan(docs_ds, losers_ds, num_partitions: int, *, k: int):
    """Partitioned plan: loser encs -> per-doc position lists -> hash_join
    against the docs -> difference-array cut.  No broadcast, no re-hashing."""
    from dynaalign_ray.joins import hash_join, pack_int64_list, unpack_int64_blob

    def derive(b: pa.Table) -> pa.Table:
        enc = np.asarray(b.column("enc")).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(enc // _POS_CAP, type=pa.int64()),
                "pos": pa.array(enc % _POS_CAP, type=pa.int64()),
            }
        )

    def to_lists(b: pa.Table) -> pa.Table:
        # list payloads ride the join as packed int64 bytes (acero rejects
        # nested non-key types; see joins.pack_int64_list)
        g = b.group_by("doc_id").aggregate([("pos", "list")])
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "drop_blob": pack_int64_list(g.column("pos_list")),
            }
        )

    loser_lists = (
        losers_ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_partitions, keys=["doc_id"])
        .map_batches(
            to_lists, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    joined = hash_join(
        docs_ds.select_columns(["doc_id", "text"]),
        loser_lists,
        left_on="doc_id",
        right_on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64()), ("drop_blob", pa.binary())]),
        num_partitions=num_partitions,
        how="left outer",
    )

    def apply(batch: pa.Table) -> pa.Table:
        dl = batch.column("drop_blob")
        if isinstance(dl, pa.ChunkedArray):
            dl = dl.combine_chunks()
        starts_per_doc: list[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(batch.num_rows)
        ]
        for i in np.flatnonzero(np.asarray(pc.is_valid(dl))):
            starts_per_doc[int(i)] = unpack_int64_blob(dl[int(i)].as_py())
        return _cut_rows(
            batch.select(["doc_id", "text"]), starts_per_doc, k
        )

    return joined.map_batches(apply, batch_format="pyarrow", zero_copy_batch=True)


def span_dedup(
    docs_ds,
    num_partitions: int,
    *,
    k: int = 100,
    max_broadcast_rows: int = 50_000_000,
    plan: str | None = None,
):
    """docs -> (doc_id, clean_text, n_removed_bytes, n_dup_windows) with every
    non-first occurrence of a duplicated >=k-byte span removed.

    ``plan``: None = auto (broadcast while the winner table fits
    ``max_broadcast_rows``, else the partitioned join plan), or force
    "broadcast" / "join"."""
    import ray

    if plan not in (None, "broadcast", "join"):
        raise ValueError(f"unknown plan {plan!r}")
    both = _dup_and_losers(docs_ds, num_partitions, k=k).materialize()

    def _only(kind: int):
        def f(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("kind"), kind))

        return f

    winners_ds = both.map_batches(_only(0), batch_format="pyarrow", zero_copy_batch=True)
    if plan is None:
        plan = "broadcast" if winners_ds.count() <= max_broadcast_rows else "join"
    if plan == "join":
        losers_ds = both.map_batches(
            _only(1), batch_format="pyarrow", zero_copy_batch=True
        ).select_columns(["enc"])
        return _span_dedup_join_plan(docs_ds, losers_ds, num_partitions, k=k)

    from dynaalign_ray.joins import collect_arrow

    dup_tbl = collect_arrow(winners_ds.select_columns(["win_hash", "enc"]))
    if dup_tbl.num_rows == 0:
        dup_tbl = pa.table(
            {
                "win_hash": pa.array([], type=pa.int64()),
                "enc": pa.array([], type=pa.int64()),
            }
        )
    hashes = np.asarray(dup_tbl.column("win_hash")).astype(np.int64)
    winners = np.asarray(dup_tbl.column("enc")).astype(np.int64)
    order = np.argsort(hashes, kind="stable")
    dup_ref = broadcast_put((hashes[order], winners[order]))
    return docs_ds.map_batches(
        _ApplySpanDedup,
        fn_constructor_kwargs={"dup_ref": dup_ref, "k": k},
        concurrency=(1, 8),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
