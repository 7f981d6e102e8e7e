"""Parquet sources/sinks (SURVEY.md §2.5: the reference has only lazy .rda
loads and NO sink — results live in RAM; here every table is Parquet in and
partitioned Parquet out).

Readers prune columns at the scan (only requested columns leave storage);
the writer lays output out as one directory per key-range so a rerun can
skip finished partitions (resume story, with state/lineage.py on top).
"""

from __future__ import annotations

def read_pages(path: str, *, with_html: bool = True, with_text: bool = False):
    """Read a Common-Crawl-style pages table (BASELINE.json input_hint
    shape).  By default only the columns the extract stage needs leave
    storage — reading all 5 columns for a 2-column transform is wrong."""
    import ray.data as rd

    cols = ["url", "lang"] + (["html"] if with_html else []) + (
        ["text"] if with_text else []
    )
    return rd.read_parquet(path, columns=cols)


def read_table(path: str, columns=None, *, format: str = "parquet"):
    """Columnar table source.  ``format``: "parquet" (default; columns are
    pruned AT THE SCAN — only requested columns/row-groups leave storage),
    "jsonl" (newline-delimited JSON — the common web-crawl interchange
    shape), or "csv".  jsonl/csv have no row-group projection, so column
    pruning happens right after decode (still before the first shuffle)."""
    import ray.data as rd

    if format == "parquet":
        return rd.read_parquet(path, columns=columns)
    if format == "jsonl":
        ds = rd.read_json(path)
    elif format == "csv":
        ds = rd.read_csv(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    return ds.select_columns(list(columns)) if columns else ds


def write_partitioned(ds, out_dir: str, *, num_partitions: int, keys=None):
    """Partitioned Parquet sink: hash-partition on ``keys`` (or keep block
    layout) and write one file per partition — never one giant file."""
    if keys:
        ds = ds.repartition(num_blocks=num_partitions, keys=list(keys))
    else:
        ds = ds.repartition(num_blocks=num_partitions)
    ds.write_parquet(out_dir)
    return out_dir


def _dir_id_stats(path: str, id_col: str) -> tuple[int, int]:
    """Distributed (rows, id_xor) over one directory's parquet files: each
    block emits a single two-int partial (count and xor are both
    associative + commutative), the driver folds scalars only."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    def _block_stats(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        x = int(np.bitwise_xor.reduce(ids)) if len(ids) else 0
        return pa.table(
            {
                "rows": pa.array([len(ids)], type=pa.int64()),
                "id_xor": pa.array([x], type=pa.int64()),
            }
        )

    part = (
        rd.read_parquet(path, columns=[id_col])
        .map_batches(_block_stats, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    if not len(part):
        return 0, 0
    return (
        int(part["rows"].sum()),
        int(np.bitwise_xor.reduce(part["id_xor"].to_numpy(np.int64))),
    )


def compact_training_shards(
    out_dir: str, *, target_bytes: int = 128 << 20
) -> dict:
    """Streaming compaction pass for the resumable shard sink: shard
    directories whose file count exceeds ceil(bytes/target_bytes) (skewed
    hash assignment, retried writers leave many small files) are rewritten
    into that many files.

    Safety contract:
    - the new files are written to a hidden staging dir and VERIFIED
      distributed (rows + id_xor vs the shard's manifest entry) before any
      swap — a failed verify aborts with the original files untouched;
    - the swap is rename-based (old dir -> .bak, staged -> live, drop
      .bak), so a crash leaves either the old or the new complete file
      set, never a mix;
    - manifest keys and stats are unchanged by construction, so resume
      continues to skip compacted shards exactly as before.

    Returns {shard: n_files_after} for the shards it rewrote."""
    import json
    import os
    import shutil

    import ray.data as rd

    manifest_path = os.path.join(out_dir, "_manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    id_col = manifest["id_col"]
    compacted: dict[str, int] = {}
    for k, st in manifest["shards"].items():
        src = os.path.join(out_dir, f"shard={k}")
        if not os.path.isdir(src):
            continue
        files = [f for f in os.listdir(src) if f.endswith(".parquet")]
        nbytes = sum(os.path.getsize(os.path.join(src, f)) for f in files)
        n_target = max(1, -(-nbytes // target_bytes))
        if len(files) <= n_target:
            continue
        stage = os.path.join(out_dir, f".compact-shard={k}")
        shutil.rmtree(stage, ignore_errors=True)
        rd.read_parquet(src).repartition(int(n_target)).write_parquet(stage)
        rows, id_xor = _dir_id_stats(stage, id_col)
        if rows != st["rows"] or id_xor != st["id_xor"]:
            shutil.rmtree(stage)
            raise RuntimeError(
                f"compaction verify failed for shard {k}: "
                f"got (rows={rows}, id_xor={id_xor}), manifest has "
                f"(rows={st['rows']}, id_xor={st['id_xor']}) — originals kept"
            )
        bak = os.path.join(out_dir, f".bak-shard={k}")
        shutil.rmtree(bak, ignore_errors=True)
        os.rename(src, bak)
        os.rename(stage, src)
        shutil.rmtree(bak)
        compacted[k] = len(
            [f for f in os.listdir(src) if f.endswith(".parquet")]
        )
    return compacted


def write_training_shards(
    ds,
    out_dir: str,
    *,
    num_shards: int = 16,
    id_col: str = "doc_id",
    resume: bool = False,
):
    """Resumable training-shard sink: deterministic shard assignment +
    partitioned Parquet + a write-verified manifest.

    - shard = multiplicative-hash(id) % num_shards — a pure function of the
      row key, so reshard/retry/resume all agree (no RNG, no row order
      dependence);
    - layout: ``out_dir/shard=<k>/*.parquet`` via ``partition_cols`` — one
      directory per shard, never one giant file;
    - _manifest.json records per-shard (rows, id_xor) computed by READING
      BACK the written files (write-verified, not trusted from the writer),
      plus num_shards; published with an atomic rename AFTER the data;
    - ``resume=True``: shards already in the manifest are skipped entirely
      (their rows never leave storage — the input is filtered at the scan
      edge); directories of incomplete shards (on disk but absent from the
      manifest — a crashed writer) are deleted and rewritten.

    Returns the manifest dict."""
    import json
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    _GOLD = np.uint64(0x9E3779B97F4A7C15)
    manifest_path = os.path.join(out_dir, "_manifest.json")
    done: dict[str, dict] = {}
    if resume and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            prev = json.load(f)
        if prev.get("num_shards") != num_shards:
            raise ValueError(
                f"resume with num_shards={num_shards} but manifest has "
                f"{prev.get('num_shards')} — shard assignment would change"
            )
        done = prev.get("shards", {})
    # delete partial shard dirs (on disk, not in the manifest)
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.startswith("shard=") and name.split("=", 1)[1] not in done:
                shutil.rmtree(os.path.join(out_dir, name))

    done_ids = np.array(sorted(int(k) for k in done), dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        shard = (
            ((ids.astype(np.uint64) * _GOLD) >> np.uint64(1))
            % np.uint64(num_shards)
        ).astype(np.int64)
        out = batch.append_column("shard", pa.array(shard, type=pa.int64()))
        if len(done_ids):
            keep = ~np.isin(shard, done_ids)
            out = out.filter(pa.array(keep))
        return out

    pending = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    if pending.count() > 0:
        pending.write_parquet(out_dir, partition_cols=["shard"])

    # write-verified stats: re-read ONLY the id column of the written
    # files, reduced DISTRIBUTED (_dir_id_stats) — the driver receives two
    # scalars per block, never an id column (a billion-row shard must not
    # become an 8 GB driver pull).
    shards: dict[str, dict] = dict(done)
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("shard="):
            continue
        k = name.split("=", 1)[1]
        if k in done:
            continue
        rows, id_xor = _dir_id_stats(os.path.join(out_dir, name), id_col)
        shards[k] = {"rows": rows, "id_xor": id_xor}
    manifest = {"num_shards": num_shards, "id_col": id_col, "shards": shards}
    os.makedirs(out_dir, exist_ok=True)
    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, manifest_path)
    return manifest


def write_range_shards(
    ds,
    out_dir: str,
    *,
    col: str,
    num_shards: int = 8,
    num_partitions: int = 8,
):
    """Range-partitioned SORTED Parquet sink: shard boundaries are the
    exact ``i/num_shards`` quantiles of ``col`` (bounded-cardinality int
    column — functions/sketches.exact_int_quantiles), each row goes to
    bucket = #boundaries <= value, buckets are co-located by a keyed
    repartition and each block is sorted by (col) before writing under
    ``out_dir/bucket=<k>/``.  The at-rest layout downstream range scans
    want: bucket k holds a contiguous value range, files within it are
    sorted, and the bucket directories enumerate in key order.  Balanced
    by construction (quantile boundaries), resumable per bucket dir."""
    import functools

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from dynaalign_ray.exec import broadcast_put
    from dynaalign_ray.functions.sketches import (
        assign_range_bucket,
        exact_range_bounds,
    )

    bref = broadcast_put(exact_range_bounds(ds, col, num_shards, num_partitions))

    def assign(batch: pa.Table) -> pa.Table:
        import ray

        x = np.asarray(batch.column(col)).astype(np.int64)
        bucket = assign_range_bucket(x, ray.get(bref))
        return batch.append_column("bucket", pa.array(bucket, type=pa.int64()))

    def sort_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        return batch.take(pc.sort_indices(batch, sort_keys=[(col, "ascending")]))

    (
        ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(num_blocks=num_shards, keys=["bucket"])
        .map_batches(
            sort_block,
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .write_parquet(out_dir, partition_cols=["bucket"])
    )
    return out_dir


# ------------------------------------------------------------------ evolved


_INT_WIDENING = {"int8": 0, "int16": 1, "int32": 2, "int64": 3}
_FLOAT_WIDENING = {"halffloat": 0, "float": 1, "double": 2}


def _unify_types(a, b):
    """Widest-common Arrow type for schema evolution: integer widths
    promote upward, float widths promote upward, int-vs-float promotes to
    float64 (union-by-name semantics a la Spark's int+float -> double: a
    narrower float could not represent wide int values and the align cast
    would raise on any int64 outside its mantissa), anything-vs-null keeps
    the non-null type; any other mismatch is a loud error (silent coercion
    corrupts data)."""
    import pyarrow as pa

    if a.equals(b):
        return a
    if pa.types.is_null(a):
        return b
    if pa.types.is_null(b):
        return a
    sa, sb = str(a), str(b)
    if sa in _INT_WIDENING and sb in _INT_WIDENING:
        return a if _INT_WIDENING[sa] >= _INT_WIDENING[sb] else b
    if sa in _FLOAT_WIDENING and sb in _FLOAT_WIDENING:
        return a if _FLOAT_WIDENING[sa] >= _FLOAT_WIDENING[sb] else b
    if (sa in _INT_WIDENING and sb in _FLOAT_WIDENING) or (
        sa in _FLOAT_WIDENING and sb in _INT_WIDENING
    ):
        return pa.float64()
    raise ValueError(f"cannot unify evolved column types {a} vs {b}")


def evolved_schema(paths: list[str]):
    """Union-by-name schema across parquet footers (metadata only — no
    data reads): columns missing from a file null-fill, common columns
    take the widest compatible type."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    fields: dict[str, pa.DataType] = {}
    order: list[str] = []
    for p in paths:
        s = pq.read_schema(p)
        for f in s:
            if f.name not in fields:
                fields[f.name] = f.type
                order.append(f.name)
            else:
                fields[f.name] = _unify_types(fields[f.name], f.type)
    return pa.schema([(n, fields[n]) for n in order])


def read_parquet_evolved(paths: list[str], columns=None):
    """Schema-evolution-tolerant parquet source (the data-lake reality:
    crawls re-run for months add/widen columns between shards).  Resolves
    the union-by-name target schema from footers only, then reads each
    file and aligns every batch — missing columns null-fill, narrower
    numerics upcast — so downstream stages see ONE stable schema.
    Column pruning still happens at the scan (``columns=``)."""
    import pyarrow as pa
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()
    target = evolved_schema(list(paths))
    if columns:
        target = pa.schema([target.field(c) for c in columns])

    def align(batch: pa.Table) -> pa.Table:
        cols = []
        for f in target:
            if f.name in batch.column_names:
                col = batch.column(f.name)
                if not col.type.equals(f.type):
                    col = col.cast(f.type)
            else:
                col = pa.nulls(batch.num_rows, type=f.type)
            cols.append(col)
        return pa.table(dict(zip(target.names, cols)), schema=target)

    parts = []
    for p in paths:
        import pyarrow.parquet as pq

        have = set(pq.read_schema(p).names)
        want = [c for c in target.names if c in have]
        ds = rd.read_parquet(p, columns=want if want else None)
        parts.append(ds.map_batches(align, batch_format="pyarrow", zero_copy_batch=True))
    out = parts[0]
    for ds in parts[1:]:
        out = out.union(ds)
    return out
