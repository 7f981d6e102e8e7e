"""Benchmark inputs: workloads, cached corpora and their exact oracle.

Generation, WARC writing, the oracle and the workload guard run here, once
per (corpus, seed), outside any timed process.  The timed driver only reads
the files this module writes.

    python3 perfbench/prep.py --workload skewed_warc_resume --seed 7
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
NUM_SHARDS = 4
WARM_PAGES = 200  # pages in the untimed warm-up pipeline run


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int
    boiler_frac: float  # share of pages in the one boilerplate cluster
    source: str  # "parquet" or "warc"
    num_partitions: int
    # guard: True = some unsalted LSH bucket must exceed salt_cap (salting
    # engages); False = none may (salting is bypassed)
    salts: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pages_mixed", 3000, 0.05, "parquet", 4, salts=False),
        Workload("skewed_warc_resume", 3000, 0.25, "warc", 4, salts=True),
    )
}

# salt_cap is scaled to the corpus: DedupConfig's 4096 needs ~17k skewed
# pages before any bucket exceeds it.  At 3k pages the skewed corpus's
# boilerplate buckets hold several hundred docs and the mixed corpus's
# hold at most ~150, so 256 separates the two shapes.
SALT_CAP = 256


def dedup_config():
    from dynaalign_ray.config import DedupConfig

    return DedupConfig(salt_cap=SALT_CAP)


def corpus_dir(w: Workload, seed: int) -> str:
    """Cache dir of one corpus; the config hash keys the oracle and guard."""
    cfg_hash = dedup_config().config_hash()[:8]
    return os.path.join(
        WORK_DIR, "cache", f"n{w.pages}-b{w.boiler_frac}-s{seed}-{cfg_hash}"
    )


def _write_shards(pages, out_dir: str, source: str) -> list[str]:
    import pyarrow.parquet as pq

    from dynaalign_ray.sources.warc import write_warc

    os.makedirs(out_dir, exist_ok=True)
    step = -(-pages.num_rows // NUM_SHARDS)
    paths = []
    for s in range(NUM_SHARDS):
        chunk = pages.slice(s * step, step)
        if source == "parquet":
            path = os.path.join(out_dir, f"part-{s:05d}.parquet")
            pq.write_table(chunk, path)
        else:
            path = os.path.join(out_dir, f"part-{s:05d}.warc.gz")
            write_warc(chunk, path, gzip_per_record=True)
        paths.append(path)
    return paths


def _bucket_sizes(pages, cfg):
    """Unsalted LSH bucket sizes, computed with the engine's kernels and no
    Ray (the guard is measured outside the engine's execution)."""
    import numpy as np

    from dynaalign_ray.extract import extract_text_batch
    from dynaalign_ray.stages.bands import explode_bands
    from dynaalign_ray.stages.minhash import minhash_batch

    sigs = minhash_batch(extract_text_batch(pages), cfg=cfg)
    keys = np.asarray(explode_bands(sigs, cfg=cfg).column("band_key"))
    _, counts = np.unique(keys, return_counts=True)
    return counts


def prepare(w: Workload, seed: int) -> dict:
    """Build (or reuse) the workload's cached inputs.  Returns the meta
    record: input paths, page count, guard figures."""
    import numpy as np
    import pyarrow.parquet as pq

    out = corpus_dir(w, seed)
    meta_path = os.path.join(out, f"meta-{w.source}.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)

    from dynaalign_ray.extract import extract_text
    from dynaalign_ray.fixtures import generate_pages
    from dynaalign_ray.hashing import doc_id_from_urls

    from oracle import exact_clusters

    cfg = dedup_config()
    pages, _ = generate_pages(w.pages, seed=seed, boiler_frac=w.boiler_frac)
    oracle_path = os.path.join(out, "oracle.npz")
    warm_path = os.path.join(out, "warm.parquet")
    if not os.path.exists(oracle_path):
        os.makedirs(out, exist_ok=True)
        pq.write_table(pages.slice(0, WARM_PAGES), warm_path)
        texts = [extract_text(h) for h in pages.column("html").to_pylist()]
        ids = doc_id_from_urls(pages.column("url").to_pylist())
        tmp = oracle_path + ".tmp.npz"
        np.savez(tmp, **exact_clusters(texts, ids, cfg))
        os.replace(tmp, oracle_path)
    paths = _write_shards(pages, os.path.join(out, w.source), w.source)
    counts = _bucket_sizes(pages, cfg)
    meta = {
        "pages": pages.num_rows,
        "paths": paths,
        "warm": warm_path,
        "oracle": oracle_path,
        "input_bytes": sum(os.path.getsize(p) for p in paths),
        "max_bucket": int(counts.max()) if len(counts) else 0,
        "buckets_over_salt_cap": int((counts > cfg.salt_cap).sum()),
    }
    with open(meta_path + ".tmp", "w") as f:
        json.dump(meta, f)
    os.replace(meta_path + ".tmp", meta_path)
    return meta


def check_guard(w: Workload, meta: dict) -> None:
    """Raise when the corpus lost the property the workload was chosen for."""
    over = meta["buckets_over_salt_cap"]
    if w.salts and over == 0:
        raise RuntimeError(
            f"guard: {w.name} has no LSH bucket above salt_cap={SALT_CAP} "
            f"(max bucket {meta['max_bucket']}), so salting is not exercised"
        )
    if not w.salts and over:
        raise RuntimeError(
            f"guard: {w.name} has {over} LSH buckets above salt_cap="
            f"{SALT_CAP} (max {meta['max_bucket']}), so it no longer bypasses salting"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    meta = prepare(w, args.seed)
    check_guard(w, meta)
    print(json.dumps(meta))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    raise SystemExit(main())
