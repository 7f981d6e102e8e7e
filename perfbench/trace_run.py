"""Traced run: per-layer metrics for one workload.

The pipeline is rebuilt here from the engine's public stage functions, one
stage at a time, each followed by ``materialize()``.  Around every call a
span (name, start, end, parent) is recorded together with row counts and
the materialized dataset's ``Dataset.stats()`` (remote wall, UDF time, peak
heap).  The hot kernels are also timed with no Ray on the workload's own
rows.  Spans stay in memory and are written to
``.perfbench/traces/<workload>-<seed>-<pid>.jsonl`` at the end.

Barriered stages sum to more than the streaming end-to-end time, so the
traced total is reported next to the untraced median of the same run.
Nothing here touches engine code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

from driver import collect, crash_and_resume, dir_bytes, emit, save_clusters
from prep import WORK_DIR

UNTRACED_CALLS = 2


class Tracer:
    """In-memory spans of one traced run; all share ``trace_id``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "trace_id": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self._stack.append(name)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            self.spans.append(rec)

    def seconds(self, name: str) -> float:
        s = next(s for s in self.spans if s["name"] == name)
        return s["end"] - s["start"]

    def write(self, path: str) -> None:
        """One JSON span per line, with its self time (duration minus the
        time its children cover; children run one after another here)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                child = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == s["name"])
                f.write(json.dumps({**s, "self_s": s["end"] - s["start"] - child}) + "\n")


def stage_stats(stages: dict) -> dict:
    """Per stage: remote wall seconds, UDF seconds and peak heap (MiB) of
    the operators that ran to produce that materialized dataset.  Each
    summary chain is walked down to the first materialized input (the
    only summaries with a dataset uuid), so no operator is counted in two
    stages."""
    out = {}
    for name, ds in stages.items():
        top = ds._get_stats_summary()
        wall = udf = heap = 0.0
        todo = [top]
        while todo:
            summ = todo.pop()
            for op in summ.operators_stats:
                wall += (op.wall_time or {}).get("sum", 0.0)
                udf += (op.udf_time or {}).get("sum", 0.0)
                heap = max(heap, (op.memory or {}).get("max", 0.0))
            todo.extend(p for p in summ.parents if p.dataset_uuid == "unknown_uuid")
        out[name] = {"stats_wall_s": wall, "udf_s": udf, "peak_heap_mib": heap}
    return out


def traced_pipeline(session, tr: Tracer):
    """The flagship dataflow, stage by stage.  Returns the materialized
    intermediates, cc info and the collected cluster table."""
    import ray.data as rd

    from dynaalign_ray.extract import extract_text_batch
    from dynaalign_ray.sources.warc import read_warc
    from dynaalign_ray.stages.bands import candidate_pairs
    from dynaalign_ray.stages.cluster import assign_clusters, connected_components
    from dynaalign_ray.stages.minhash import signatures_dataset
    from dynaalign_ray.stages.verify import verified_edges

    w, cfg, paths = session.w, session.cfg, session.meta["paths"]
    P = w.num_partitions
    out: dict = {}
    with tr.span("pipeline"):
        if w.source == "warc":
            with tr.span("sources") as sp:
                pages = out["sources"] = read_warc(paths).materialize()
                sp["rows"] = pages.count()
        else:
            pages = rd.read_parquet(paths)
        with tr.span("extract") as sp:
            docs = out["extract"] = pages.map_batches(
                extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
            ).materialize()
            sp["rows"] = docs.count()
        with tr.span("signatures") as sp:
            sigs = out["signatures"] = signatures_dataset(docs, cfg).materialize()
            sp["rows"] = n = sigs.count()
        with tr.span("bands") as sp:
            pairs = out["bands"] = candidate_pairs(
                sigs, cfg, P, salt_hot=True, dedup=True,
                approx_band_rows=n * cfg.num_bands,
            ).materialize()
            sp["rows"] = n_pairs = pairs.count()
        with tr.span("verify") as sp:
            edges = out["verify"] = verified_edges(
                pairs, sigs, cfg, P, approx_pairs=n_pairs
            ).materialize()
            sp["rows"] = edges.count()
        with tr.span("cluster.cc") as sp:
            labels, cc = connected_components(
                edges, P, cfg.max_cc_rounds, cfg.small_cc_limit
            )
            sp["rounds"] = cc["rounds"]
        with tr.span("cluster.assign") as sp:
            assigned = out["cluster"] = assign_clusters(
                sigs.select_columns(["doc_id"]), labels, P,
                labels_table=cc.pop("labels_table", None),
            ).materialize()
            clusters = collect(assigned)
            sp["rows"] = clusters.num_rows
    return out, cc, clusters


def hot_keys_probe(session, sigs, tr: Tracer):
    """find_hot_band_keys on the unsalted band rows, outside the pipeline
    span (candidate_pairs runs it again internally)."""
    from dynaalign_ray.stages.bands import explode_bands, find_hot_band_keys

    cfg = session.cfg
    with tr.span("bands.hot_keys") as sp:
        plain = sigs.map_batches(
            functools.partial(explode_bands, cfg=cfg),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        keys, counts = find_hot_band_keys(
            plain, cfg, session.w.num_partitions,
            approx_rows=sigs.count() * cfg.num_bands,
        )
        sp["rows"] = len(keys)
    return keys, counts


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def kernel_layer(session, pages_tbl, pairs_tbl, hot) -> dict:
    """The hot kernels with no Ray, on this workload's rows."""
    import numpy as np
    import pyarrow as pa

    from dynaalign_ray import ckernels
    from dynaalign_ray.extract import extract_text_batch
    from dynaalign_ray.stages.bands import dedup_pairs_block, emit_pairs_block, explode_bands
    from dynaalign_ray.stages.minhash import minhash_batch
    from dynaalign_ray.stages.verify import build_sketch_csr

    cfg = session.cfg
    docs, t_extract = _timed(extract_text_batch, pages_tbl)
    bs = cfg.batch_size
    t0 = time.perf_counter()
    sigs = pa.concat_tables(
        [minhash_batch(docs.slice(i, bs), cfg=cfg) for i in range(0, docs.num_rows, bs)]
    )
    t_minhash = time.perf_counter() - t0
    band_rows = explode_bands(sigs, cfg=cfg, hot_keys=hot if len(hot[0]) else None)
    emitted, t_emit = _timed(emit_pairs_block, band_rows, pair_cap=cfg.pair_cap)
    distinct = dedup_pairs_block(emitted)

    ids, starts, ends, vals = build_sketch_csr([sigs.select(["doc_id", "sketch"])])
    a = np.asarray(pairs_tbl.column("a")).astype(np.int64)
    b = np.asarray(pairs_tbl.column("b")).astype(np.int64)
    ra, rb = np.searchsorted(ids, a), np.searchsorted(ids, b)
    jac, t_jac = _timed(
        ckernels.jaccard_batch, vals, starts[ra], ends[ra], vals, starts[rb], ends[rb],
        cfg.sketch_cap,
    )
    if jac is None:
        raise RuntimeError("the compiled Jaccard kernel is unavailable (no C compiler?)")
    return {
        "t_extract": t_extract,
        "t_minhash": t_minhash,
        "t_emit": t_emit,
        "t_jaccard": t_jac,
        "docs": docs.num_rows,
        "band_rows": band_rows.num_rows,
        "emitted_pairs": emitted.num_rows,
        "distinct_pairs": distinct.num_rows,
        "sketch_mb": sigs.column("sketch").nbytes / 1e6,
    }


def _rate(n: float, t: float) -> float:
    return n / t if t > 0 else 0.0


def _block_skew(ds) -> float:
    """max / median rows per block of a materialized dataset."""
    import ray

    rows = [ray.get(r).num_rows for r in ds.to_arrow_refs()]
    med = statistics.median(rows) if rows else 0
    return max(rows) / med if med else 0.0


def run_traced(session, out_dir: str) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    w, meta = session.w, session.meta
    tr = Tracer(f"{w.name}-{os.getpid()}")
    session.start()

    # untraced reference: the same input, streamed through near_dedup
    walls = []
    for i in range(UNTRACED_CALLS):
        wall, clusters, _ = session.call()
        path = os.path.join(out_dir, f"call-{i}.npz")
        save_clusters(clusters, path)
        emit("call", i=i, wall_s=wall, clusters=path)
        walls.append(wall)
    untraced = statistics.median(walls)

    lineage = {"write_mb": 0.0, "ckpt_bytes_per_page": 0.0, "stages_resumed": 0, "resume_s": 0.0}
    if w.source == "warc":
        ckpt = os.path.join(out_dir, "ckpt")
        wall, clusters, _ = session.call(checkpoint_dir=ckpt)
        path = os.path.join(out_dir, "ckpt-call.npz")
        save_clusters(clusters, path)
        emit("call", i=UNTRACED_CALLS, wall_s=wall, clusters=path)
        written = dir_bytes(ckpt)
        resume_s, clusters, resumed = crash_and_resume(session, ckpt)
        path = os.path.join(out_dir, "resume.npz")
        save_clusters(clusters, path)
        emit("resume", i=0, wall_s=resume_s, clusters=path, resumed=resumed)
        lineage = {
            "write_mb": written / 1e6,
            "ckpt_bytes_per_page": written / meta["pages"],
            "stages_resumed": sum(resumed.values()),
            "resume_s": resume_s,
        }

    stages, cc, clusters = traced_pipeline(session, tr)
    path = os.path.join(out_dir, "traced.npz")
    save_clusters(clusters, path)
    emit("traced", i=0, clusters=path)
    hot = hot_keys_probe(session, stages["signatures"], tr)
    stats = stage_stats(stages)
    pairs_tbl = collect(stages["bands"])
    n_pairs = pairs_tbl.num_rows
    n_edges = stages["verify"].count()
    skew = _block_skew(stages["bands"])

    if w.source == "warc":
        pages_tbl = collect(stages["sources"])
    else:
        pages_tbl = pa.concat_tables([pq.read_table(p) for p in meta["paths"]])
    k = kernel_layer(session, pages_tbl, pairs_tbl, hot)
    session.stop()
    tr.write(os.path.join(WORK_DIR, "traces", os.path.basename(out_dir) + ".jsonl"))

    traced_total = tr.seconds("pipeline")
    kernel_s = k["t_extract"] + k["t_minhash"] + k["t_emit"] + k["t_jaccard"]
    m = {
        "sources.warc_parse_s": (tr.seconds("sources") if w.source == "warc" else 0.0, "s"),
        "sources.input_mb": (meta["input_bytes"] / 1e6, "MB"),
        "extract.wall_s": (tr.seconds("extract"), "s"),
        "extract.kernel_docs_per_s": (_rate(k["docs"], k["t_extract"]), "docs/s"),
        "signatures.wall_s": (tr.seconds("signatures"), "s"),
        "signatures.kernel_docs_per_s": (_rate(k["docs"], k["t_minhash"]), "docs/s"),
        "signatures.sketch_mb": (k["sketch_mb"], "MB"),
        "bands.wall_s": (tr.seconds("bands"), "s"),
        "bands.band_rows": (k["band_rows"], "count"),
        "bands.hot_keys": (len(hot[0]), "count"),
        "bands.max_bucket": (meta["max_bucket"], "count"),
        "bands.pairs": (n_pairs, "count"),
        "bands.dup_pair_ratio": (_rate(k["emitted_pairs"], k["distinct_pairs"]), "ratio"),
        "bands.partition_skew": (skew, "ratio"),
        "bands.kernel_rows_per_s": (_rate(k["band_rows"], k["t_emit"]), "rows/s"),
        "verify.wall_s": (tr.seconds("verify"), "s"),
        "verify.edges": (n_edges, "count"),
        "verify.precision": (_rate(n_edges, n_pairs), "ratio"),
        "verify.kernel_pairs_per_s": (_rate(n_pairs, k["t_jaccard"]), "pairs/s"),
        "cluster.cc_wall_s": (tr.seconds("cluster.cc"), "s"),
        "cluster.assign_wall_s": (tr.seconds("cluster.assign"), "s"),
        "cluster.rounds": (cc["rounds"], "count"),
        "cluster.clusters": (len(set(clusters.column("cluster_id").to_pylist())), "count"),
        "lineage.write_mb": (lineage["write_mb"], "MB"),
        "lineage.ckpt_bytes_per_page": (lineage["ckpt_bytes_per_page"], "B/page"),
        "lineage.stages_resumed": (lineage["stages_resumed"], "count"),
        "lineage.resume_s": (lineage["resume_s"], "s"),
        "pipeline.untraced_e2e_s": (untraced, "s"),
        "pipeline.traced_total_s": (traced_total, "s"),
        "pipeline.overhead_s": (traced_total - untraced, "s"),
        "pipeline.kernel_share": (kernel_s / untraced, "ratio"),
    }
    for layer in ("extract", "signatures", "bands", "verify", "cluster"):
        for key, unit in (("stats_wall_s", "s"), ("udf_s", "s"), ("peak_heap_mib", "MiB")):
            m[f"{layer}.{key}"] = (stats[layer][key], unit)
    emit("layers", metrics=m)
