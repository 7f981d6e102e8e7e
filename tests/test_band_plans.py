"""The back-half gate (``neardup._task_plan_sizes``) holds the measured row
cap, the per-CPU heap and the object store; and the whole pipeline runs on
a 1-CPU Ray node on either back-half plan."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest


def _with_resources(monkeypatch, **res):
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0, **res})


def _fits(n_docs: int, salted_rows: int = 0, **cfg) -> bool:
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup

    return neardup._task_plan_sizes(n_docs, salted_rows, DedupConfig(**cfg))["plan"] == "task"


def test_gate_caps_rows_at_the_measured_size(monkeypatch):
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup

    _with_resources(monkeypatch, memory=1e12, object_store_memory=1e12)
    docs = neardup._TASK_MAX_BAND_ROWS // DedupConfig().num_bands
    assert _fits(docs)
    assert not _fits(docs + 1)
    # salted rows are emitted twice, so they count against the same cap
    assert _fits(docs - 1, salted_rows=DedupConfig().num_bands)
    assert not _fits(docs - 1, salted_rows=DedupConfig().num_bands + 1)


def test_gate_bounds_worst_case_pair_heap_per_cpu(monkeypatch):
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup as nd

    # per doc: num_bands band rows, each with its own bytes plus
    # (pair_cap-1)/2 pairs emitted before dedup, and the signature bytes,
    # each times its measured heap factor
    cfg = DedupConfig()
    per_doc = cfg.num_bands * (
        nd._BAND_ROW_BYTES * nd._TASK_HEAP_PER_BAND_BYTE
        + 63 / 2 * nd._PAIR_BYTES * nd._TASK_HEAP_PER_PAIR_BYTE
    ) + (cfg.num_perm + cfg.sketch_cap) * 8 * nd._TASK_HEAP_PER_SIG_BYTE
    _with_resources(monkeypatch, memory=2 * 1000 * per_doc, object_store_memory=1e12)
    assert _fits(1000, pair_cap=64)
    assert not _fits(1001, pair_cap=64)
    # fewer pairs per bucket leave room for more rows
    assert _fits(1001, pair_cap=32)


def test_gate_bounds_band_bytes_by_object_store(monkeypatch):
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup

    band_bytes = 1000 * DedupConfig().num_bands * neardup._BAND_ROW_BYTES
    _with_resources(
        monkeypatch, memory=1e12, object_store_memory=band_bytes / neardup._TASK_STORE_SHARE
    )
    assert _fits(1000)
    assert not _fits(1001)


_ONE_CPU_RUN = textwrap.dedent(
    """
    import json, sys
    import ray, ray.data as rd
    ray.init(address="local", num_cpus=1, object_store_memory=256 * 2**20,
             include_dashboard=False, logging_level="ERROR")
    from dynaalign_ray.exec import configure_context
    configure_context()
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.fixtures import generate_pages
    from dynaalign_ray.pipelines import neardup
    n_pages, staged = int(sys.argv[2]), sys.argv[3] == "staged"
    cfg = DedupConfig()
    if staged:
        # the gate shut: hash shuffles in candidate_pairs, and the
        # contraction CC's keyed repartition
        neardup._task_plan_sizes = lambda *a: {"plan": "staged"}
        cfg = DedupConfig(small_cc_limit=0)
    pages, _ = generate_pages(n_pages, seed=42)
    res = neardup.near_dedup(pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=4)
    rows = res.clusters.take_all()
    plan = [res.stats["back_half"]["plan"], res.stats["cc"]["mode"]]
    ray.shutdown()
    json.dump({"plan": plan, "clusters": {str(r["doc_id"]): int(r["cluster_id"]) for r in rows}},
              open(sys.argv[1], "w"))
    """
)


def test_near_dedup_completes_on_one_cpu(tmp_path):
    """Below the gate the back half is one Ray task and starts no shuffle
    aggregator, so a 2k-page run finishes at num_cpus=1."""
    _check_one_cpu_run(tmp_path, 2000, ["task", "driver_union_find"])


def test_staged_plan_completes_on_one_cpu(tmp_path):
    """At num_cpus=1 hash-shuffle aggregators reserve no CPU share
    (``exec.configure_context``); with any share, no 1-CPU map task could be
    scheduled after them.  So the staged plan, forced through the gate into
    candidate_pairs' hash shuffles and the contraction CC, finishes too."""
    _check_one_cpu_run(tmp_path, 1000, ["staged", "contraction"])


def _check_one_cpu_run(tmp_path, n_pages: int, plan: list[str]) -> None:
    """near_dedup on ``n_pages`` at num_cpus=1 must run ``plan`` (back half,
    CC mode) and match the oracle.  It runs in its own process group under a
    timeout, and the whole group is killed afterwards, so a hang can leave
    no Ray process behind."""
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.extract import extract_text
    from dynaalign_ray.fixtures import generate_pages
    from dynaalign_ray.hashing import doc_id_from_urls
    from dynaalign_ray.oracle import true_pairs, union_find_clusters

    out = tmp_path / "clusters.json"
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": repo, "RAY_USAGE_STATS_ENABLED": "0"}
    log = tmp_path / "run.log"
    with open(log, "wb") as f:
        proc = subprocess.Popen(
            [sys.executable, "-c", _ONE_CPU_RUN, str(out), str(n_pages), plan[0]],
            env=env,
            start_new_session=True,
            stdout=f,
            stderr=subprocess.STDOUT,
        )
    try:
        proc.wait(timeout=300)
    except subprocess.TimeoutExpired:
        pytest.fail(f"near_dedup at num_cpus=1 ({plan[0]} plan) did not finish in 300 s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, log.read_text(errors="replace")[-2000:]
    got = json.loads(out.read_text())
    assert got["plan"] == plan
    clusters = {int(k): v for k, v in got["clusters"].items()}

    pages, _ = generate_pages(n_pages, seed=42)
    texts = [extract_text(h) for h in pages.column("html").to_pylist()]
    ids = doc_id_from_urls(pages.column("url").to_pylist()).tolist()
    oracle = union_find_clusters(true_pairs(texts, ids, DedupConfig()), ids)
    assert sorted(clusters) == sorted(ids)
    assert all(clusters[d] == oracle[d] for d in ids)
