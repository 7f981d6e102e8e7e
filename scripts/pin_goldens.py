"""Generate dynaalign_ray/goldens_sf001.json — pinned VALUES oracles for
the deterministic non-SQL-expressible queries (see dynaalign_ray/goldens.py).

Runs every target query TWICE, each in a fresh subprocess with its own Ray
session, and refuses to pin a query whose two runs differ (the determinism
proof).  Floats are pinned post-round (the queries already emit 4dp-rounded
doubles); uint64 columns become UBIGINT.

Usage:  python scripts/pin_goldens.py [sf_dir] [name ...]
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sf-independent: corpus synthesized in-process from seeds
PEPTIDE = [
    "peptide_nw_rescore",
    "peptide_clusterbreak",
    "peptide_consensus",
    "peptide_consensus_msa",
    "peptide_louvain",
]
# read the sf0.01 tables: golden valid only at the driver's correctness sf
SF_BOUND = [
    "doc_neardup_sized",
    "doc_compress_ratio",
    "doc_token_cms",
    "doc_corpus_stats",
    "doc_minhash_signatures",
    "doc_simhash_pairs",
    "doc_decontam_bloom",
    "embedding_semdedup_kmeans",
    "embedding_cosine_pairs_lsh",
    "embedding_topk_lsh",
    "embedding_topk_ivf",
    "events_type_users_approx",
    "media_features",
    "media_codec_summary",
    "media_image_neardup",
    "media_audio_neardup",
    "media_video_neardup",
    "media_image_in_video",
]

_RUNNER = r"""
import os, pickle, sys
import ray
ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
sys.path.insert(0, {repo!r})
from dynaalign_ray.exec import configure_context
configure_context()
import __ray_entry__ as m
qs = m.queries()
out = {{}}
for name in {names!r}:
    r = qs[name]({sf!r})
    df = r.to_pandas() if hasattr(r, "to_pandas") else r
    out[name] = df
with open({out!r}, "wb") as f:
    pickle.dump(out, f)
ray.shutdown()
"""


def run_once(names: list[str], sf: str, tag: str) -> dict:
    out = f"/tmp/goldens_{tag}.pkl"
    code = _RUNNER.format(repo=REPO, names=names, sf=sf, out=out)
    subprocess.run([sys.executable, "-c", code], check=True, cwd=REPO)
    with open(out, "rb") as f:
        return pickle.load(f)


def sql_type(dtype: str) -> str:
    if dtype == "uint64":
        return "UBIGINT"
    if dtype.startswith("int"):
        return "BIGINT"
    if dtype.startswith("float"):
        return "DOUBLE"
    if dtype == "bool":
        return "BOOLEAN"
    return "VARCHAR"


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    names = sys.argv[2:] or (PEPTIDE + SF_BOUND)
    print(f"pinning {len(names)} queries at {sf} (two independent runs each)")
    a = run_once(names, sf, "a")
    b = run_once(names, sf, "b")

    path = os.path.join(REPO, "dynaalign_ray", "goldens_sf001.json")
    existing = {"tables": {}}
    if os.path.exists(path):
        with open(path) as f:
            existing = json.load(f)

    pinned, refused = [], []
    for name in names:
        da = a[name].reset_index(drop=True)
        db = b[name].reset_index(drop=True)
        key = sorted(da.columns)
        ca = da.sort_values(key).reset_index(drop=True)
        cb = db.sort_values(key).reset_index(drop=True)
        if not ca.equals(cb):
            refused.append(name)
            print(f"REFUSED {name}: two runs differ — not deterministic")
            continue
        rows = [
            [None if v != v and isinstance(v, float) else v for v in row]
            for row in da.itertuples(index=False)
        ]
        # json-safe: numpy scalars -> python
        rows = [
            [v.item() if hasattr(v, "item") else v for v in row] for row in rows
        ]
        existing["tables"][name] = {
            "columns": list(da.columns),
            "types": [sql_type(str(t)) for t in da.dtypes],
            "rows": rows,
            "scope": (
                "sf-independent seeded fixture"
                if name in PEPTIDE
                else f"valid only for {sf} inputs"
            ),
        }
        pinned.append(name)
        print(f"pinned  {name}: {len(rows)} rows")

    with open(path, "w") as f:
        json.dump(existing, f, separators=(",", ":"))
    print(f"wrote {path}: {len(pinned)} pinned, {len(refused)} refused")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
