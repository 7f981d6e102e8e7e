"""Flagship near-duplicate pipeline — the Ray-native re-expression of the
reference's ``clusterbreak`` end-to-end flow (/root/reference/R/clusterbreak.R:180-275,
traced in SURVEY.md §3.3/§3.4):

    pages --extract--> docs --minhash_batch tasks--> signatures
      --hot-key pass (driver merge)--> hot band keys
      below the back-half gate, ONE Ray task on the signature blocks:
        explode bands -> emit + dedup pairs -> sketch-CSR Jaccard, tau
        filter -> union-find -> cluster decisions
        --> pairs, verified_edges, clusters
      above it, staged (Ray Data per stage):
        --explode bands--> band_entries
        --hash shuffles on band_key, then (a, b)--> pairs
        --broadcast sketch CSR | ⋈ sketches, exact-Jaccard tau filter-->
          verified_edges
        --driver union-find | contraction rounds--> clusters/dedup decisions
      with ``tau_quantile``, ``edge_filter`` or ``cluster_backend``, on
      either plan: verified_edges --quantile refilter--> --edge_filter-->
        --driver union-find | contraction rounds | cluster_backend-->
        clusters/dedup decisions

Below the gate the work after ``signatures`` is tiny (4.5k pairs at 3k
pages, tens of ms of kernels), and running it as five Ray Data executions
cost ~0.5 s of engine overhead per call; the one task runs the same
kernels, so both plans give byte-identical pairs, edges and clusters.  One
function, ``_task_plan_sizes``, picks the plan: the task runs where its
worst-case heap fits one CPU's share of memory and where every staged gate
would pick its single-process plan anyway.  A call with an option takes
its pairs and edges from the task and clusters them with the staged code;
the task's own clusters then go unused.  The simhash / substring backends
always run staged.  ``stats["back_half"]`` records the plan and the sizes
that chose it.

The reference's recursive size controller with global mutable state becomes
a flat keyed dataflow; its per-subset quantile threshold
(R/clusterbreak.R:219) is available as ``cfg.tau_quantile`` (approximate
quantile over verified edge weights), fixed ``cfg.tau`` is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa

from dynaalign_ray.config import DedupConfig
from dynaalign_ray.exec import configure_context, pick_num_partitions
from dynaalign_ray.extract import extract_text_batch
from dynaalign_ray.stages.bands import (
    candidate_pairs,
    dedup_pairs_block,
    emit_pairs_block,
    explode_bands,
)
from dynaalign_ray.stages.cluster import (
    _decide,
    assign_clusters,
    collect_labels,
    component_labels,
    connected_components,
)
from dynaalign_ray.stages.minhash import signatures_dataset
from dynaalign_ray.stages.verify import build_sketch_csr, verified_edges, verify_pairs_csr
from dynaalign_ray.state.lineage import CheckpointContext


@dataclass
class NearDupResult:
    clusters: Any  # Dataset(doc_id, cluster_id, keep, duplicate_of)
    edges: Any  # Dataset(a, b, jaccard)
    signatures: Any  # Dataset(doc_id, minhash, simhash, n_shingles, sketch)
    docs: Any  # Dataset(doc_id, url?, text, ...)
    pairs: Any = None  # Dataset(a, b) of candidate pairs (minhash backend)
    stats: dict = field(default_factory=dict)


def near_dedup(
    pages_ds=None,
    docs_ds=None,
    cfg: DedupConfig = DedupConfig(),
    checkpoint_dir: str | None = None,
    num_partitions: int | None = None,
    approx_rows: int | None = None,
    similarity_backend: str = "minhash",
    cluster_backend=None,
    edge_filter=None,
    edge_filter_tag: str = "",
) -> NearDupResult:
    """Run the flagship pipeline.

    Provide either ``pages_ds`` (url, warc_ts, html, text?, lang — the
    extract stage runs and drops the wide html column immediately) or
    ``docs_ds`` (doc_id, text, ...).  With ``checkpoint_dir`` set, every
    stage persists per-partition Parquet + lineage and a rerun resumes from
    the last completed stage; without it, only the genuinely multi-consumer
    intermediates (signatures, pairs, edges) are pinned with
    ``materialize()`` — extract streams into the signature kernel with no
    barrier, and the final assignment reads ids off the signature table.

    ``edge_filter`` (Dataset(a, b, jaccard) -> Dataset, applied AFTER
    verify, before clustering) scopes which verified near-dup edges may
    merge clusters — e.g. a crawl-time window or a same-host constraint.
    Because the callable can't be fingerprinted, pass a stable
    ``edge_filter_tag`` whenever ``checkpoint_dir`` is set: it is folded
    into the clusters-stage fingerprint so a changed filter invalidates
    the cached assignment (the cached EDGES stay valid — the filter is
    downstream of them).
    """
    configure_context()
    if (pages_ds is None) == (docs_ds is None):
        raise ValueError("provide exactly one of pages_ds / docs_ds")
    P = num_partitions or pick_num_partitions(approx_rows)
    # with any of these the clusters come from the staged clustering code,
    # on either back-half plan
    options = (
        cluster_backend is not None or edge_filter is not None or cfg.tau_quantile is not None
    )
    # the lineage chain must cover EVERY knob that changes stage outputs,
    # not just DedupConfig: a rerun with a different partition count /
    # similarity backend / clustering backend must invalidate stale
    # checkpoints
    cb_token = (
        "default"
        if cluster_backend is None
        else f"{getattr(cluster_backend, '__module__', '?')}.{getattr(cluster_backend, '__qualname__', repr(cluster_backend))}"
    )
    ckpt = CheckpointContext(
        checkpoint_dir,
        cfg.config_hash()
        + f"|P{P}|sim={similarity_backend}|cb={cb_token}",
    )

    if docs_ds is None:
        docs_ds, fp_docs = ckpt.run_stage(
            "docs",
            "pages-input",
            lambda: pages_ds.map_batches(
                extract_text_batch, batch_format="pyarrow", zero_copy_batch=True
            ),
        )
        if checkpoint_dir is None and similarity_backend == "substring":
            # the substring backend consumes doc TEXT several times
            # (fingerprints + two verify joins); pin the html-free table.
            # On the minhash/simhash paths docs stay LAZY: extract streams
            # straight into the signature kernel (stage overlap — no
            # barrier), and the final cluster assignment reads doc ids from
            # the signature table instead of re-running extract.
            docs_ds = docs_ds.materialize()
    else:
        fp_docs = "docs-input"

    sigs, fp_sigs = ckpt.run_stage(
        "signatures", fp_docs, lambda: signatures_dataset(docs_ds, cfg)
    )
    if checkpoint_dir is None and similarity_backend != "substring":
        # signatures fan out to the hot-key pass and then either the
        # one-task back half (its block refs) or, on the staged plan, band
        # explode, verify and the final assignment — the ONE pinned
        # intermediate on the default path (extract fused upstream,
        # everything downstream streams).  The substring backend never
        # consumes signatures, so there they stay lazy.
        sigs = sigs.materialize()
    # pluggable similarity backend (the reference's sim_fn injection point,
    # R/clusterbreak.R:185-188): minhash (LSH + exact-Jaccard verify,
    # default), simhash (banded Hamming), substring (winnowing long-match)
    back_half = {"plan": "staged"}
    if similarity_backend == "minhash":
        # the row count lets hot-key detection pick the no-shuffle
        # driver-merge plan and the back half its one-task plan below the
        # memory gate.  It is the real signature count, not the caller's
        # approx_rows hint: a low hint would let the one-task plan run past
        # the gate's row and heap bounds.  sigs is materialized or a Parquet
        # checkpoint here, so count() reads metadata only.
        n_rows = sigs.count()
        n_band_rows = n_rows * cfg.num_bands
        hot_keys = None
        # with an option the clusters come from the staged clustering, so
        # the task builds pairs and edges only; the clusters fingerprint
        # also carries edge_filter_tag, which the chain cannot know
        task_stages = ("pairs", "edges") if options else ("pairs", "edges", "clusters")
        if ckpt.resumes_chain(fp_sigs, task_stages):
            back_half = {"plan": "resumed"}
        else:
            back_half, sigs, hot_keys = _choose_back_half(
                sigs, cfg, P, n_rows, checkpointed=checkpoint_dir is not None
            )
        if back_half["plan"] == "task":
            task_out: list = []

            def task_output(i: int):
                # launched by whichever stage is rebuilt first; stages that
                # resume never wait on it
                import ray.data as rd

                if not task_out:
                    task_out.extend(
                        _launch_back_half(sigs.to_arrow_refs(), cfg, hot_keys)
                    )
                return rd.from_arrow_refs([task_out[i]])

            pairs, fp_pairs = ckpt.run_stage("pairs", fp_sigs, lambda: task_output(0))
            edges, fp_edges = ckpt.run_stage("edges", fp_pairs, lambda: task_output(1))
        else:
            # dedup=True: cross-band duplicate pairs (a near-dup pair matches
            # in many of the 32 bands) are deduplicated BEFORE the verify
            # joins — even on the shuffle plan, the extra (a,b) shuffle on
            # narrow pair rows is far cheaper than dragging per-doc sketches
            # through the joins once per duplicate (measured 6x join volume
            # at 100k pages without it)
            pairs, fp_pairs = ckpt.run_stage(
                "pairs",
                fp_sigs,
                lambda: candidate_pairs(
                    sigs, cfg, P, dedup=True,
                    approx_band_rows=n_band_rows, hot_keys=hot_keys,
                ),
            )
            if checkpoint_dir is None:
                pairs = pairs.materialize()
            # materialized or a Parquet checkpoint: count() reads metadata
            n_pairs = pairs.count()
            edges, fp_edges = ckpt.run_stage(
                "edges",
                fp_pairs,
                lambda: verified_edges(pairs, sigs, cfg, P, approx_pairs=n_pairs),
            )
    elif similarity_backend == "simhash":
        from dynaalign_ray.stages.simhash_stage import simhash_edges

        def _simhash_edges():
            import pyarrow as _pa

            raw = simhash_edges(sigs, cfg, P)

            def to_weight(batch):
                import numpy as _np

                ham = _np.asarray(batch.column("hamming")).astype(_np.float64)
                return _pa.table(
                    {
                        "a": batch.column("a"),
                        "b": batch.column("b"),
                        "jaccard": _pa.array(1.0 - ham / 64.0),
                    }
                )

            return raw.map_batches(to_weight, batch_format="pyarrow", zero_copy_batch=True)

        edges, fp_edges = ckpt.run_stage("edges", fp_sigs, _simhash_edges)
    elif similarity_backend == "substring":
        from dynaalign_ray.stages.substring import substring_edges

        def _sub_edges():
            import pyarrow as _pa

            raw = substring_edges(docs_ds, P)

            def to_weight(batch):
                return _pa.table(
                    {
                        "a": batch.column("a"),
                        "b": batch.column("b"),
                        "jaccard": _pa.array(
                            [1.0] * batch.num_rows, type=_pa.float64()
                        ),
                    }
                )

            return raw.map_batches(to_weight, batch_format="pyarrow", zero_copy_batch=True)

        edges, fp_edges = ckpt.run_stage("edges", fp_docs, _sub_edges)
    else:
        raise ValueError(f"unknown similarity_backend {similarity_backend!r}")
    if checkpoint_dir is None and back_half["plan"] != "task":
        edges = edges.materialize()

    if cfg.tau_quantile is not None:
        # reference parity: quantile-based threshold over the similarity
        # distribution (R/clusterbreak.R:219).  The quantile is taken over
        # the CANDIDATE-pair similarities (the sparse analog of the upper
        # triangle; sub-candidate pairs have similarity below the LSH
        # operating point by construction) and then applied on top of tau.
        import pyarrow.compute as pc

        q = _approx_quantile(edges, "jaccard", cfg.tau_quantile)

        def refilter(batch):
            return batch.filter(pc.greater_equal(batch["jaccard"], q))

        edges = edges.map_batches(refilter, batch_format="pyarrow")
        if checkpoint_dir is None:
            edges = edges.materialize()

    cluster_edges = edges
    if edge_filter is not None:
        cluster_edges = edge_filter(edges)
        if checkpoint_dir is None:
            cluster_edges = cluster_edges.materialize()
        fp_edges = f"{fp_edges}|edge_filter:{edge_filter_tag}"

    if back_half["plan"] == "task" and not options:
        clusters, _ = ckpt.run_stage("clusters", fp_edges, lambda: task_output(2))
        cc_info = {"n_edges": edges.count(), "mode": "driver_union_find", "rounds": 1,
                   "converged": True}
    else:
        cc_info = {}
        # doc-id source for the final cluster assignment: the signature
        # table carries one row per doc, so the (wide) docs table never
        # re-executes
        ids_ds = (
            docs_ds.select_columns(["doc_id"])
            if similarity_backend == "substring"
            else sigs.select_columns(["doc_id"])
        )

        def _clusters():
            # CC runs inside the build, so a resumed clusters stage never
            # solves a union-find only to discard its labels
            if cluster_backend is not None:
                # the reference's cluster_fn injection point
                # (R/clusterbreak.R:185-188, netcluster's cluster_func): any
                # callable (edges_ds, num_partitions) -> labels Dataset(node, label)
                labels = cluster_backend(cluster_edges, P).materialize()
                cc_info.update(mode="custom", n_edges=cluster_edges.count())
                # within the driver union-find's limit the labels are
                # broadcast, like its own, instead of hash-joined with
                # every doc id
                labels_table = (
                    collect_labels(labels)
                    if labels.count() <= cfg.small_cc_limit
                    else None
                )
            else:
                labels, info = connected_components(
                    cluster_edges, P, cfg.max_cc_rounds, cfg.small_cc_limit
                )
                labels_table = info.pop("labels_table", None)
                cc_info.update(info)
            return assign_clusters(ids_ds, labels, P, labels_table=labels_table)

        clusters, _ = ckpt.run_stage("clusters", fp_edges, _clusters)
    if ckpt.counters["clusters"].get("resumed"):
        cc_info = {"mode": "resumed", "n_edges": cluster_edges.count()}
    stats = {
        "cc": cc_info,
        "back_half": back_half,
        "stages": ckpt.counters,
        "num_partitions": P,
    }
    return NearDupResult(
        clusters=clusters,
        edges=edges,
        signatures=sigs,
        docs=docs_ds,
        pairs=pairs if similarity_backend == "minhash" else None,
        stats=stats,
    )


_BAND_ROW_BYTES = 16  # int64 band_key + int64 doc_id
_PAIR_BYTES = 16  # int64 a + int64 b
# Largest band-row count at which the one-process pair emission was timed
# against the two-shuffle plan and won: 20k pages x 32 bands (F1 corpus,
# seed 42, default DedupConfig, 2 logical CPUs on a 4-vCPU VM).  There a
# near_dedup call took 9.7-12.8 s against 18.4-23.3 s on the two-shuffle
# plan, and the emit + dedup itself took 0.34 s: spreading it over more CPUs
# can save at most that, while the shuffle plan's engine overhead was
# seconds (4.5 s of a 4.6 s band stage at 3k pages).  At 100k pages one
# process also won at 2 CPUs (48.9 s against 80.6 s, same edges), but it
# grows with the corpus and was not timed against a 32-CPU shuffle, so
# larger corpora keep the staged plan.
_TASK_MAX_BAND_ROWS = 640_000
# Peak heap of the task, measured three ways:
# - per band-row byte on F1 corpora (Dataset.stats(), one emit + dedup task
#   over all band rows): 230 MiB at 20k pages (10.2 MB of band rows);
#   668 MiB at 100k pages (53.2 MB), i.e. 12.6x once the Python worker's
#   fixed ~100-150 MiB stops dominating;
# - per byte of pairs emitted before dedup, on the worst pair shape
#   (pair_cap-doc clusters recurring as one bucket in all 32 bands, max RSS
#   of emit_pairs_block + dedup_pairs_block): 3.5-3.7x at 131k-524k rows;
# - per byte of signatures (num_perm x 8 + sketch_cap x 8 per doc), its
#   input blocks mapped from the object store: peak RSS above a bare worker
#   (118 MiB) was 165 / 241 / 384 MiB at 3k / 10k / 20k F1 pages (15 / 51 /
#   102 MB of signature bytes, 2 logical CPUs), i.e. 2.1-2.8x per added
#   signature byte, band rows and pairs included.
_TASK_HEAP_PER_BAND_BYTE = 16
_TASK_HEAP_PER_PAIR_BYTE = 4
_TASK_HEAP_PER_SIG_BYTE = 3
# The task's returns (pairs, edges, clusters) land in the object store next
# to the signature blocks it reads.  The band bytes stand in for them: the
# deduped pairs were 4.5k against 96k band rows at 3k F1 pages, and the
# clusters table holds ~25 bytes per doc against 512 band bytes.  The
# quarter was set for an earlier one-block pair plan and has not been
# re-measured for the task.
_TASK_STORE_SHARE = 0.25


def _task_plan_sizes(n_docs: int, salted_rows: int, cfg: DedupConfig) -> dict:
    """The back half's plan choice and the sizes that made it; the one place
    it is made.  The one-task plan runs when
    - the band rows, salted rows counted twice (each is emitted into two
      sub-buckets), are at most ``_TASK_MAX_BAND_ROWS``;
    - the task's worst-case heap fits one CPU's share of Ray's ``memory``
      resource: band bytes, the pairs they emit before dedup if every
      bucket held ``pair_cap`` docs and recurred in every band, and the
      signature bytes, each times its measured factor;
    - the band bytes fit ``_TASK_STORE_SHARE`` of the object store;
    - the doc count is within the broadcast verify gate and the worst-case
      pair count (so also the edge count) within ``cfg.small_cc_limit``,
      the driver union-find gate: every staged stage would pick its
      single-process plan anyway."""
    import ray

    from dynaalign_ray.stages import verify

    band_rows = n_docs * cfg.num_bands
    rows = band_rows + salted_rows
    band_bytes = rows * _BAND_ROW_BYTES
    # a bucket of m <= pair_cap docs emits (m-1)/2 pairs per row, a bigger
    # one (star edges) fewer than one
    worst_pairs = rows * max(cfg.pair_cap - 1, 2) / 2
    sig_bytes = n_docs * (cfg.num_perm + cfg.sketch_cap) * 8
    heap = (
        band_bytes * _TASK_HEAP_PER_BAND_BYTE
        + worst_pairs * _PAIR_BYTES * _TASK_HEAP_PER_PAIR_BYTE
        + sig_bytes * _TASK_HEAP_PER_SIG_BYTE
    )
    res = ray.cluster_resources()
    heap_per_cpu = res.get("memory", 0.0) / max(res.get("CPU", 1.0), 1.0)
    fits = (
        rows <= _TASK_MAX_BAND_ROWS
        and heap <= heap_per_cpu
        and band_bytes <= res.get("object_store_memory", 0.0) * _TASK_STORE_SHARE
        and n_docs <= verify.broadcast_doc_limit(cfg)
        and worst_pairs <= cfg.small_cc_limit
    )
    return {
        "plan": "task" if fits else "staged",
        "docs": n_docs,
        "band_rows": band_rows,
        "salted_rows": salted_rows,
        "worst_case_pairs": int(worst_pairs),
        "heap_bytes": int(heap),
        "heap_per_cpu_bytes": int(heap_per_cpu),
    }


def _choose_back_half(sigs, cfg: DedupConfig, P: int, n_docs: int, checkpointed: bool):
    """-> (plan record, signatures for the task, hot keys).  The gate is
    first taken without salted rows: if that already fails, the staged plan
    runs exactly as ``candidate_pairs`` alone would (its own hot-key pass,
    lazily read checkpoints).  Otherwise the signatures are read once (from
    a checkpoint) and the hot-key pass runs once, on its driver-merge plan;
    its salted rows complete the gate and its keys go to whichever plan
    runs."""
    from dynaalign_ray.stages.bands import hot_band_keys

    plan = _task_plan_sizes(n_docs, 0, cfg)
    if plan["plan"] != "task":
        return plan, sigs, None
    if checkpointed:
        sigs = sigs.materialize()
    hot_keys = None
    if cfg.salt_cap:
        hot_keys = hot_band_keys(sigs, cfg, P, n_docs * cfg.num_bands)
    salted_rows = 0 if hot_keys is None else int(hot_keys[1].sum())
    plan = _task_plan_sizes(n_docs, salted_rows, cfg)
    plan["hot_keys"] = 0 if hot_keys is None else len(hot_keys[0])
    return plan, sigs, hot_keys


_BAND_SCHEMA = pa.schema([("band_key", pa.int64()), ("doc_id", pa.int64())])


def back_half_tables(cfg: DedupConfig, hot_keys, *sig_blocks: pa.Table):
    """Signature blocks -> (pairs, edges, clusters) tables, in one process,
    with the staged plan's kernels: ``explode_bands`` with the hot keys,
    pair emit + dedup over every band row at once (so each bucket is whole
    and every copy of a pair is at hand), the broadcast verify plan's CSR
    lookup, the driver union-find and the cluster decision."""
    blocks = [t for t in sig_blocks if t.num_rows]  # empty ones may lack a schema
    band_parts = [explode_bands(t, cfg=cfg, hot_keys=hot_keys) for t in blocks]
    band_rows = pa.concat_tables(band_parts) if band_parts else _BAND_SCHEMA.empty_table()
    pairs = dedup_pairs_block(emit_pairs_block(band_rows, pair_cap=cfg.pair_cap))
    edges = verify_pairs_csr(
        np.asarray(pairs.column("a")),
        np.asarray(pairs.column("b")),
        build_sketch_csr(blocks),
        cfg,
    )
    nodes, root = component_labels(
        np.asarray(edges.column("a")), np.asarray(edges.column("b"))
    )
    doc = np.concatenate(
        [np.asarray(t.column("doc_id")).astype(np.int64) for t in blocks]
        or [np.empty(0, dtype=np.int64)]
    )
    if len(nodes):
        pos = np.minimum(np.searchsorted(nodes, doc), len(nodes) - 1)
        label = pa.array(root[pos], type=pa.int64(), mask=nodes[pos] != doc)
    else:
        label = pa.nulls(len(doc), pa.int64())
    clusters = _decide(pa.table({"doc_id": pa.array(doc, pa.int64()), "label": label}))
    return pairs, edges, clusters


_BACK_HALF_TASK = None


def _launch_back_half(sig_refs: list, cfg: DedupConfig, hot_keys) -> list:
    """Start ``back_half_tables`` as one plain Ray task on the default 1 CPU
    (it starts no actor, pool, subprocess or nested task); the signature
    block refs are top-level arguments, so Ray maps them into the task
    zero-copy.  Returns the refs of (pairs, edges, clusters)."""
    import ray

    global _BACK_HALF_TASK
    if _BACK_HALF_TASK is None:
        _BACK_HALF_TASK = ray.remote(num_returns=3)(back_half_tables)
    return _BACK_HALF_TASK.remote(cfg, hot_keys, *sig_refs)


_QUANTILE_BINS = 20_000  # histogram resolution: quantile exact to 5e-5


def _approx_quantile(ds, col: str, q: float) -> float:
    """Distributed quantile over a [0, 1]-bounded column (edge Jaccard) —
    the scalable stand-in for R's exact ``quantile(upper.tri)``
    (R/clusterbreak.R:219).

    Mergeable fixed-bin histogram: each block emits a ``_QUANTILE_BINS``
    bincount partial (a few tens of KB, independent of block size), the
    driver sums the tiny arrays and reads the quantile off the cumulative
    counts — deterministic, one pass, no edge sample ever leaves the
    workers.  Error bound: half a bin width (2.5e-5), far below any
    meaningful tau granularity."""
    import numpy as np
    import pyarrow as pa
    import ray

    nb = _QUANTILE_BINS

    def block_hist(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(col)).astype(np.float64)
        idx = np.clip((v * nb).astype(np.int64), 0, nb - 1)
        return pa.table({"h": pa.array(np.bincount(idx, minlength=nb), pa.int64())})

    parts = [
        np.asarray(t.column("h")).astype(np.int64)
        for t in (
            ray.get(r)
            for r in ds.select_columns([col])
            .map_batches(
                block_hist, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
            )
            .materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:
        return 0.0
    hist = np.sum(parts, axis=0)
    total = int(hist.sum())
    if total == 0:
        return 0.0
    # index of the q-th order statistic (nearest-rank, matching R type-1
    # closely at this resolution), then the bin LOWER edge: the caller
    # applies `jaccard >= q` — a midpoint (or upper edge) sits strictly
    # above every value in the bin, so it would drop the entire equal-valued
    # mass at the quantile (e.g. all edges at exactly 0.5 when the 0.5-bin
    # is the quantile bin).  The lower edge keeps them; error is one-sided,
    # at most one bin width (5e-5) below the exact quantile.
    target = max(int(np.ceil(q * total)), 1)
    bin_idx = int(np.searchsorted(np.cumsum(hist), target))
    return bin_idx / nb


def write_run_report(res: NearDupResult, path: str, svg_dir: str | None = None) -> dict:
    """Driver-side run report — the scalable stand-in for the reference's
    plotting outputs (consensusplot / plot_similarity_matrix,
    R/clusterbreak.R:379-399, R/plotting.R:14-29): cluster-size histogram,
    edge-weight stats, per-stage counters.  Small aggregates only.

    ``svg_dir``: also render the actual figures as SVG
    (functions/svgplot.py) — a similarity heatmap over the largest
    clusters' edge weights.  Figure inputs are capped driver-side
    (top clusters only), so this stays a small artifact at any corpus
    size."""
    import json

    from ray.data.aggregate import Count

    # two-level aggregate: cluster -> size, then size -> count, so the
    # driver receives only the (size, count) histogram rows — #distinct
    # sizes is O(log max_cluster) in practice, never O(#clusters)
    # (VERDICT r2 #9: at 10^12 docs the per-cluster rows are themselves
    # a huge table; the histogram is not)
    hist_rows = (
        res.clusters.groupby("cluster_id", num_partitions=8)
        .aggregate(Count(alias_name="n"))
        .select_columns(["n"])
        .groupby("n", num_partitions=8)
        .aggregate(Count(alias_name="n_clusters"))
        .take_all()
    )
    hist: dict[int, int] = {int(r["n"]): int(r["n_clusters"]) for r in hist_rows}
    report = {
        "n_docs": int(sum(k * v for k, v in hist.items())),
        "n_clusters": int(sum(hist.values())),
        "n_dup_docs": int(sum(k * v for k, v in hist.items() if k > 1)),
        "cluster_size_histogram": {str(k): v for k, v in sorted(hist.items())},
        "edge_stats": dedup_stats(res.edges),
        "stages": res.stats,
    }
    if svg_dir is not None:
        report["figures"] = _render_report_figures(res, svg_dir)
    with open(path, "w") as f:
        json.dump(report, f, indent=2, default=str)
    return report


_FIGURE_MAX_DOCS = 40  # heatmap over at most this many members of the top cluster


def _render_report_figures(res: NearDupResult, svg_dir: str) -> dict:
    """The actual figure files (heatmap of the largest cluster's verified
    edge weights) — inputs bounded to _FIGURE_MAX_DOCS docs via partial
    top-1 on cluster size + limit(), so the figure is a driver-side
    constant regardless of corpus size."""
    import os

    import numpy as np
    import pyarrow as pa
    import ray
    from ray.data.aggregate import Count

    from dynaalign_ray.exec import partial_topk
    from dynaalign_ray.functions.svgplot import similarity_heatmap_svg

    os.makedirs(svg_dir, exist_ok=True)
    sizes = res.clusters.groupby("cluster_id", num_partitions=8).aggregate(
        Count(alias_name="n")
    )
    top = partial_topk(
        sizes, [("n", "descending"), ("cluster_id", "ascending")], 1
    ).take_all()
    if not top:
        return {}
    top_cid = int(top[0]["cluster_id"])

    def in_top(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch.column("cluster_id"), top_cid))

    members = (
        res.clusters.map_batches(in_top, batch_format="pyarrow", zero_copy_batch=True)
        .limit(_FIGURE_MAX_DOCS)
        .take_all()
    )
    ids = sorted(int(r["doc_id"]) for r in members)
    idset = set(ids)
    pos = {d: i for i, d in enumerate(ids)}
    mat = np.eye(len(ids))

    def member_edges(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vs = pa.array(ids, type=batch.column("a").type)
        keep = pc.and_(
            pc.is_in(batch.column("a"), value_set=vs),
            pc.is_in(batch.column("b"), value_set=vs),
        )
        return batch.filter(keep)

    for ref in (
        res.edges.map_batches(
            member_edges, batch_format="pyarrow", zero_copy_batch=True
        ).materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        for a, b, j in zip(
            np.asarray(t.column("a")), np.asarray(t.column("b")), np.asarray(t.column("jaccard"))
        ):
            if int(a) in idset and int(b) in idset:
                mat[pos[int(a)], pos[int(b)]] = mat[pos[int(b)], pos[int(a)]] = float(j)

    heatmap_path = os.path.join(svg_dir, "top_cluster_heatmap.svg")
    with open(heatmap_path, "w") as f:
        f.write(similarity_heatmap_svg(mat, labels=[str(d) for d in ids]))
    return {"top_cluster_heatmap": heatmap_path, "cluster_id": top_cid, "n_members": len(ids)}


def dedup_stats(edges_ds) -> dict:
    """Engine metrics — the reference's ``compute_similarity_stats``
    (/root/reference/R/similarity.R:11-34) over the sparse verified-edge
    table: mean/min/max of edge similarity + the most/least similar pair
    (top-1 by sort, not an n×n argmax)."""
    import numpy as np
    import pyarrow as pa
    import ray

    from ray.data.aggregate import Max, Mean, Min

    n = edges_ds.count()
    if n == 0:
        return {"n_edges": 0}
    agg = edges_ds.aggregate(
        Mean("jaccard", alias_name="mean_j"),
        Min("jaccard", alias_name="min_j"),
        Max("jaccard", alias_name="max_j"),
    )

    # most/least similar pair via per-block argmax/argmin + a tiny driver
    # reduce (2 rows per block) — shuffle-free, vs. sort().limit(1) which is
    # an all-to-all exchange each.  Ties broken on (a, b) for determinism.
    def block_extremes(batch: pa.Table) -> pa.Table:
        j = np.asarray(batch.column("jaccard")).astype(np.float64)
        if len(j) == 0:
            return batch.slice(0, 0)
        a = np.asarray(batch.column("a")).astype(np.int64)
        b = np.asarray(batch.column("b")).astype(np.int64)
        order = np.lexsort((b, a, j))
        return batch.take(pa.array([int(order[-1]), int(order[0])]))

    parts = [
        t
        for t in (
            ray.get(r)
            for r in edges_ds.map_batches(
                block_extremes,
                batch_size=None,
                batch_format="pyarrow",
                zero_copy_batch=True,
            ).materialize().to_arrow_refs()
        )
        if t.num_rows
    ]
    cand = pa.concat_tables(parts)
    jj = np.asarray(cand.column("jaccard")).astype(np.float64)
    aa = np.asarray(cand.column("a")).astype(np.int64)
    bb = np.asarray(cand.column("b")).astype(np.int64)
    order = np.lexsort((bb, aa, jj))
    hi, lo = int(order[-1]), int(order[0])
    most = {"a": int(aa[hi]), "b": int(bb[hi]), "jaccard": float(jj[hi])}
    least = {"a": int(aa[lo]), "b": int(bb[lo]), "jaccard": float(jj[lo])}
    return {
        "n_edges": n,
        "mean_jaccard": agg["mean_j"],
        "min_jaccard": agg["min_j"],
        "max_jaccard": agg["max_j"],
        "most_similar_pair": (most["a"], most["b"], most["jaccard"]),
        "least_similar_pair": (least["a"], least["b"], least["jaccard"]),
    }
