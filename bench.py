"""Benchmark driver (BASELINE.md protocol).

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(num_cpus=$RAY_GRAFT_CPUS or 32) and
print ONE JSON line:
    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ..., "n_pages": ...}

The headline is the flagship near-dup pipeline (extract -> minhash -> LSH ->
verify -> connected components) over a deterministic synthetic web-page
corpus sized to the scale factor (FIXTURES.md F1; generation is untimed and
cached under /tmp).  Secondary timings cover the relational/curation
operator surface on the driver testdata.

--scaling: run the headline twice in FRESH processes at num_cpus=8 and 32
on the same corpus and report both throughputs + scaling efficiency
( (t8/t32)/4 ; 1.0 = linear ) — the sandbox evidence for the N->4N-node
criterion (BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_PER_SF = 1_000_000  # sf0.1 -> 100k pages (steady-state-dominated run)


def _sf_from_dir(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


def _corpus(sf: float) -> tuple[str, int]:
    from dynaalign_ray.fixtures import write_pages_dir

    n_pages = int(os.environ.get("GRAFT_BENCH_PAGES", "0")) or max(
        200, int(PAGES_PER_SF * sf)
    )
    out_dir = f"/tmp/dynaalign_bench/corpus_n{n_pages}_s42"
    pages_dir, _ = write_pages_dir(out_dir, n_pages, seed=42, num_shards=32)
    return pages_dir, n_pages


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.pipelines import curation as c
    from dynaalign_ray.pipelines import relational as r
    from dynaalign_ray.pipelines import webpages as w
    from dynaalign_ray.pipelines.neardup import near_dedup

    configure_context()
    sf = _sf_from_dir(SF_DIR)
    pages_dir, n_pages = _corpus(sf)

    # warm-up: OS page cache + Ray worker/aggregator-actor spawn, so the
    # timed run measures steady-state compute + shuffle (cluster cold-start
    # is a per-job constant, not a per-doc cost)
    rd.read_parquet(pages_dir).count()
    warm = rd.read_parquet(pages_dir).limit(500).materialize()
    near_dedup(pages_ds=warm, cfg=DedupConfig(), num_partitions=8).clusters.count()

    queries: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.time()
        out = fn()
        dt = time.time() - t0
        queries[name] = round(dt, 3)
        return out

    # --- headline: flagship near-dup over the synthetic page corpus.
    # Partition count scales with DATA (fixed across CPU levels so the
    # scaling run compares identical plans), parallelism with CPUs.
    # ~20k docs (~600k band rows, ~10 MB partitions) per partition: hash-
    # shuffle cost is dominated by per-partition aggregator finalize, so
    # oversplitting at this scale doubles shuffle wall time (measured
    # P=64 12.8s vs P=32 5.7s on the same 307 MB band table).
    P = max(8, min(32, n_pages // 20_000))
    t0 = time.time()
    res = near_dedup(
        pages_ds=rd.read_parquet(pages_dir),
        cfg=DedupConfig(),
        num_partitions=P,
        approx_rows=n_pages,
    )
    n_out = res.clusters.count()
    headline = time.time() - t0
    queries["neardup_pages"] = round(headline, 3)
    assert n_out == n_pages, (n_out, n_pages)

    # --- operator surface over the driver testdata.  Scaling children skip
    # it: the criterion is headline throughput, and ~2 min of extra load per
    # child degrades the box for the next interleaved level (measured: the
    # level that follows a long child reads up to 2x slower).
    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        result = {
            "metric": "neardup_pages_e2e",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": queries,
            "sf": sf,
            "num_cpus": NUM_CPUS,
            "n_pages": n_pages,
            "docs_per_sec": round(n_pages / headline, 1),
            "cc": res.stats["cc"],
        }
        ray.shutdown()
        return result

    timed("doc_neardup_clusters", lambda: c.doc_neardup_clusters(SF_DIR, P).count())
    timed("doc_exact_dedup", lambda: c.doc_exact_dedup(SF_DIR, P).count())
    timed("q1_pricing", lambda: r.q1_pricing(SF_DIR, P).count())
    timed("orders_customer_hashjoin", lambda: r.orders_customer_hashjoin(SF_DIR, P).count())
    timed("events_hourly", lambda: r.events_hourly(SF_DIR, P).count())
    timed("embedding_topk", lambda: c.embedding_topk(SF_DIR).num_rows)
    timed("top_customers", lambda: r.top_customers(SF_DIR, 10, P).count())
    timed("doc_repetition", lambda: c.doc_repetition(SF_DIR).count())
    timed("doc_pii", lambda: c.doc_pii(SF_DIR).count())
    timed("doc_decontam", lambda: c.doc_decontam(SF_DIR).count())
    timed("doc_chunk_dedup", lambda: c.doc_chunk_dedup(SF_DIR, P).count())
    timed("doc_substring_dedup", lambda: c.doc_substring_dedup(SF_DIR, P).count())
    timed("doc_top_terms", lambda: c.doc_top_terms(SF_DIR, P).count())
    timed("doc_length_quantiles", lambda: c.doc_length_quantiles(SF_DIR, P).num_rows)
    timed("doc_top_by_source", lambda: c.doc_top_by_source(SF_DIR, 3, P).count())
    timed("embedding_topk_ivf", lambda: c.embedding_topk_ivf(SF_DIR).num_rows)
    timed("pages_latest_snapshot", lambda: w.pages_latest_snapshot(SF_DIR, P).count())
    timed("q3_shipping_priority", lambda: r.q3_shipping_priority(SF_DIR, P).count())
    timed("customer_order_counts", lambda: r.customer_order_counts(SF_DIR, P).count())
    timed("events_trailing_hour", lambda: r.events_trailing_hour(SF_DIR, P).count())
    timed("doc_source_quantiles", lambda: c.doc_source_quantiles(SF_DIR, P).count())
    timed("media_image_neardup", lambda: c.media_image_neardup(SF_DIR, P).count())
    timed("embedding_semdedup", lambda: c.embedding_semdedup(SF_DIR).count())
    timed(
        "embedding_semdedup_kmeans",
        lambda: c.embedding_semdedup_kmeans(SF_DIR).count(),
    )
    timed("doc_pack_sequences", lambda: c.doc_pack_sequences(SF_DIR, 160, P).count())
    timed("doc_model_scores", lambda: c.doc_model_scores(SF_DIR).count())
    timed(
        "doc_paragraph_neardup",
        lambda: c.doc_paragraph_neardup(SF_DIR, num_partitions=P).count(),
    )
    timed(
        "doc_lm_familiarity",
        lambda: c.doc_lm_familiarity(SF_DIR, num_partitions=P).count(),
    )
    timed(
        "doc_dsir_weights",
        lambda: c.doc_dsir_weights(SF_DIR, num_partitions=P).count(),
    )
    timed(
        "doc_neardup_exact",
        lambda: c.doc_neardup_exact(SF_DIR, num_partitions=P).count(),
    )
    timed(
        "doc_cooccurrence",
        lambda: c.doc_cooccurrence(SF_DIR, num_partitions=P).count(),
    )
    timed("pages_crawl_diff", lambda: w.pages_crawl_diff(SF_DIR, P).count())
    timed("events_user_funnel", lambda: r.events_user_funnel(SF_DIR, P).count())

    result = {
        "metric": "neardup_pages_e2e",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "n_pages": n_pages,
        "docs_per_sec": round(n_pages / headline, 1),
        "cc": res.stats["cc"],
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Fresh-process runs at 8 and 32 CPUs on the same input.

    The scaling corpus is larger than the default headline corpus
    (GRAFT_SCALING_PAGES, default 100k pages) so per-doc compute dominates
    the per-job orchestration constant — the quantity the N->4N criterion
    is about is steady-state throughput, not job-setup latency (which is
    amortized to nothing over a 10^12-doc run).
    """

    scaling_pages = os.environ.get("GRAFT_SCALING_PAGES", "600000")

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_BENCH_PAGES=scaling_pages,
            GRAFT_HEADLINE_ONLY="1",
        )
        last_err = None
        for _attempt in range(2):  # one retry for transient Ray startup failures
            proc = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(__file__) or ".", "bench.py")],
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode == 0:
                return json.loads(proc.stdout.strip().splitlines()[-1])
            last_err = proc.stderr[-2000:]
        raise RuntimeError(f"bench child (num_cpus={ncpu}) failed twice; stderr tail:\n{last_err}")

    # level pair: default 8->32 CPUs; GRAFT_SCALING_LEVELS="2,8" measures the
    # low pair, where neither level saturates the socket's shared memory
    # bandwidth — the closest single-box analog of N->4N NODES (each added
    # node brings its own bandwidth)
    lo, hi = (
        int(x) for x in os.environ.get("GRAFT_SCALING_LEVELS", "8,32").split(",")
    )
    # Fastest of 2 fresh-process runs per level, levels INTERLEAVED
    # (lo, hi, lo, hi): back-to-back Ray sessions on one box degrade
    # through the sequence (measured 59.4s then 44.0s for identical 32-CPU
    # children after two 8-CPU runs; 35-37s standalone — OS memory
    # reclaim / page-cache churn from the previous child), so a blocked
    # order biases whichever level runs last.  Interleaving gives both
    # levels early and late slots; min-of-reps is the standard
    # steady-state-throughput protocol and every individual run is recorded.
    runs: dict[int, list[dict]] = {lo: [], hi: []}
    ceilings: list[dict] = []
    first = True
    for _ in range(2):
        for lvl in (lo, hi):
            if not first:
                time.sleep(20)
            first = False
            runs[lvl].append(run(lvl))
        # same-session hardware ceiling: the pure no-Ray signature kernel in
        # N independent processes at the SAME two levels.  This box drifts
        # hour-to-hour (BENCH/BASELINE.md caveat); pipeline-vs-ceiling
        # measured back-to-back is the drift-stable quantity.
        proc = subprocess.run(
            [sys.executable,
             os.path.join(os.path.dirname(__file__) or ".", "scripts",
                          "kernel_ceiling.py"), str(lo), str(hi)],
            capture_output=True, text=True,
        )
        if proc.returncode == 0:
            ceilings.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    r_lo = min(runs[lo], key=lambda r: r["value"])
    r_lo["all_secs"] = [r["value"] for r in runs[lo]]
    r_hi = min(runs[hi], key=lambda r: r["value"])
    r_hi["all_secs"] = [r["value"] for r in runs[hi]]
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    ceil_out: dict = {}
    if ceilings:
        c_lo = max(c[f"docs_per_sec_{lo}"] for c in ceilings)
        c_hi = max(c[f"docs_per_sec_{hi}"] for c in ceilings)
        ceil_eff = (c_hi / c_lo) / (hi / lo)
        ceil_out = {
            f"ceiling_docs_per_sec_{lo}": c_lo,
            f"ceiling_docs_per_sec_{hi}": c_hi,
            "ceiling_efficiency": round(ceil_eff, 3),
            "efficiency_vs_ceiling": round(eff / ceil_eff, 3),
        }
    return {
        **ceil_out,
        "metric": "scaling_efficiency",
        "sf": r_lo["sf"],
        "n_pages": r_lo["n_pages"],
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"all_secs_{lo}": r_lo["all_secs"],
        f"all_secs_{hi}": r_hi["all_secs"],
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "scaling_efficiency": round(eff, 3),
    }


def run_plans() -> dict:
    """Time the LARGE-path physical plans above their size gates on the same
    corpus (VERDICT r1 #8): verify plans 2 and 3 (semi-join-reduced and full
    hash joins — the 100 TB path, normally size-gated off at bench scale),
    the distributed contraction-round CC (normally the driver union-find
    wins under 2M edges), the exact all-pairs Jaccard plans and the top-k
    plans.  Gates are forced down via the module knobs; each plan's result
    is re-checked against the default plan's."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd

    import dynaalign_ray.stages.verify as V
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.pipelines.neardup import near_dedup

    configure_context()
    sf = _sf_from_dir(SF_DIR)
    pages_dir, n_pages = _corpus(sf)
    P = max(8, min(32, n_pages // 20_000))
    rd.read_parquet(pages_dir).count()  # warm page cache

    out: dict = {"metric": "large_path_plans", "sf": sf, "n_pages": n_pages,
                 "num_cpus": NUM_CPUS}

    t0 = time.time()
    res = near_dedup(
        pages_ds=rd.read_parquet(pages_dir), cfg=DedupConfig(),
        num_partitions=P, approx_rows=n_pages,
    )
    base_clusters = res.clusters.count()
    out["default_plan_sec"] = round(time.time() - t0, 3)
    out["cc_default"] = res.stats["cc"]

    # verify plan 2: semi-join-reduced hash joins (broadcast disabled)
    old_semi, old_bc = V._SEMI_JOIN_LIMIT, V._BROADCAST_SKETCH_BYTES
    V._BROADCAST_SKETCH_BYTES = 0
    try:
        t0 = time.time()
        res2 = near_dedup(
            pages_ds=rd.read_parquet(pages_dir), cfg=DedupConfig(),
            num_partitions=P, approx_rows=n_pages,
        )
        n2 = res2.clusters.count()
        out["verify_plan2_sec"] = round(time.time() - t0, 3)
        out["verify_plan2_clusters_match"] = bool(n2 == base_clusters)

        # verify plan 3: full hash joins (no semi-join reduction either)
        V._SEMI_JOIN_LIMIT = 0
        t0 = time.time()
        res3 = near_dedup(
            pages_ds=rd.read_parquet(pages_dir), cfg=DedupConfig(),
            num_partitions=P, approx_rows=n_pages,
        )
        n3 = res3.clusters.count()
        out["verify_plan3_sec"] = round(time.time() - t0, 3)
        out["verify_plan3_clusters_match"] = bool(n3 == base_clusters)
    finally:
        V._SEMI_JOIN_LIMIT, V._BROADCAST_SKETCH_BYTES = old_semi, old_bc

    # distributed CC (contraction rounds: keyed shuffle + local union-find stars)
    t0 = time.time()
    resd = near_dedup(
        pages_ds=rd.read_parquet(pages_dir),
        cfg=DedupConfig(small_cc_limit=0),
        num_partitions=P, approx_rows=n_pages,
    )
    nd = resd.clusters.count()
    out["distributed_cc_sec"] = round(time.time() - t0, 3)
    out["cc_distributed"] = resd.stats["cc"]
    out["distributed_cc_clusters_match"] = bool(nd == base_clusters)

    # distributed CC, multi-block forced: tiny edges_per_block so the edge
    # set spans many contraction blocks and never fits a single block or
    # the driver finish in round 1 — times the true many-node shape
    import dynaalign_ray.stages.cluster as CC

    old_epb, old_dfl = CC._EDGES_PER_BLOCK, CC._DRIVER_FINISH_EDGES
    CC._EDGES_PER_BLOCK, CC._DRIVER_FINISH_EDGES = 50_000, 0
    try:
        t0 = time.time()
        resm = near_dedup(
            pages_ds=rd.read_parquet(pages_dir),
            cfg=DedupConfig(small_cc_limit=0),
            num_partitions=P, approx_rows=n_pages,
        )
        nm = resm.clusters.count()
        out["distributed_cc_multiblock_sec"] = round(time.time() - t0, 3)
        out["cc_distributed_multiblock"] = resm.stats["cc"]
        out["distributed_cc_multiblock_clusters_match"] = bool(nm == base_clusters)
    finally:
        CC._EDGES_PER_BLOCK, CC._DRIVER_FINISH_EDGES = old_epb, old_dfl

    # exact all-pairs Jaccard: broadcast plan vs the striped group-pair
    # plan forced into multi-group mode (the past-the-4GiB-gate shape);
    # same pair set required
    import dynaalign_ray.pipelines.curation as cur

    t0 = time.time()
    n_bc = cur.doc_jaccard_pairs(SF_DIR, plan="broadcast").count()
    out["allpairs_broadcast_sec"] = round(time.time() - t0, 3)
    old_stripe = cur._ALLPAIRS_STRIPE_BYTES
    cur._ALLPAIRS_STRIPE_BYTES = 1  # one CSR group per input block
    try:
        t0 = time.time()
        n_st = cur.doc_jaccard_pairs(SF_DIR, plan="striped").count()
        out["allpairs_striped_sec"] = round(time.time() - t0, 3)
        out["allpairs_striped_pairs_match"] = bool(n_st == n_bc)
    finally:
        cur._ALLPAIRS_STRIPE_BYTES = old_stripe

    # prefix-filtered exact SSJoin: third exact plan — never O(n^2) row
    # pairs, recall 1.0 by construction; same pair set required
    t0 = time.time()
    n_pf = cur.doc_jaccard_pairs_prefix(SF_DIR).count()
    out["allpairs_prefix_sec"] = round(time.time() - t0, 3)
    out["allpairs_prefix_pairs_match"] = bool(n_pf == n_bc)

    # top-k plans (VERDICT r3 #1/#2): partial per-block top-k vs the global
    # range-partition sort it replaced — identical rows required
    from dynaalign_ray.exec import partial_topk

    li_pq = f"{SF_DIR}/lineitem.parquet"
    li_cols = ["l_orderkey", "l_linenumber", "l_extendedprice"]
    keys = [
        ("l_extendedprice", "descending"),
        ("l_orderkey", "ascending"),
        ("l_linenumber", "ascending"),
    ]

    def _src():
        # production block layout: the operators run after a keyed
        # repartition, not on read-splinter micro-blocks
        return rd.read_parquet(li_pq, columns=li_cols).repartition(num_blocks=P)

    def _rows(ds):
        return [
            (r["l_orderkey"], r["l_linenumber"], r["l_extendedprice"])
            for r in ds.select_columns(li_cols).take_all()
        ]

    t0 = time.time()
    rows_part = _rows(partial_topk(_src(), keys, 100))
    out["topk_partial_sec"] = round(time.time() - t0, 3)
    # the shrink the plan buys: rows entering the final (range-partition)
    # sort — the partial plan feeds <= k x blocks winners where the global
    # sort range-partitions the whole table
    import pyarrow.compute as _pc

    def _block_topk(b):
        idx = _pc.sort_indices(b, sort_keys=keys)
        return b.take(idx[:100])

    out["topk_sort_input_rows_partial"] = (
        _src()
        .map_batches(_block_topk, batch_format="pyarrow", zero_copy_batch=True)
        .count()
    )
    t0 = time.time()
    glob = (
        _src()
        .sort(
            ["l_extendedprice", "l_orderkey", "l_linenumber"],
            descending=[True, False, False],
        )
        .limit(100)
    )
    rows_glob = _rows(glob)
    out["topk_globalsort_sec"] = round(time.time() - t0, 3)
    out["topk_sort_input_rows_global"] = _src().count()
    out["topk_rows_match"] = bool(rows_part == rows_glob)
    ray.shutdown()
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--plans" in sys.argv:
        print(json.dumps(run_plans()))
    else:
        print(json.dumps(run_bench()))
