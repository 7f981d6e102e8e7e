"""candidate_pairs' two physical plans: the local plan (every band row in
one ``repartition(1)`` block, one emit+dedup task) and the two-hash-shuffle
plan must return byte-identical pair sets, salted or not; the gate between
them holds the measured row cap, the per-CPU heap and the object store; and
the whole pipeline runs on a 1-CPU Ray node on either back-half plan."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pytest


def _sorted_pairs(ds) -> np.ndarray:
    import ray

    t = pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])
    a = t.column("a").to_numpy().astype(np.int64)
    b = t.column("b").to_numpy().astype(np.int64)
    order = np.lexsort((b, a))
    return np.stack([a[order], b[order]])


@pytest.mark.parametrize("boiler_frac", [0.05, 0.25])
def test_local_and_shuffle_plans_emit_identical_pairs(ray_session, monkeypatch, boiler_frac):
    import functools

    import ray.data as rd

    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.extract import extract_text_batch
    from dynaalign_ray.fixtures import generate_pages
    from dynaalign_ray.stages import bands
    from dynaalign_ray.stages.minhash import signatures_dataset

    cfg = DedupConfig(salt_cap=256)
    pages, _ = generate_pages(1500, seed=42, boiler_frac=boiler_frac)
    docs = rd.from_arrow(pages).map_batches(extract_text_batch, batch_format="pyarrow")
    sigs = signatures_dataset(docs, cfg).repartition(4).materialize()
    n_band_rows = sigs.count() * cfg.num_bands

    plain = sigs.map_batches(
        functools.partial(bands.explode_bands, cfg=cfg), batch_format="pyarrow"
    )
    hot_keys, hot_counts = bands.find_hot_band_keys(plain, cfg, 4, approx_rows=n_band_rows)
    if boiler_frac == 0.25:
        # the skewed corpus must take the salted explode on both plans
        assert len(hot_keys) > 0
    assert bands.fits_local_plan(n_band_rows, int(hot_counts.sum()), pair_cap=cfg.pair_cap)

    local = _sorted_pairs(
        bands.candidate_pairs(sigs, cfg, 4, approx_band_rows=n_band_rows)
    )
    # force the shuffle plan through the gate: a None row hint would also
    # switch the hot-key pass to its distributed plan, whose salt_cap/2
    # threshold salts a different key set and so emits different pairs
    monkeypatch.setattr(bands, "fits_local_plan", lambda *a, **k: False)
    shuffled = _sorted_pairs(
        bands.candidate_pairs(sigs, cfg, 4, approx_band_rows=n_band_rows)
    )
    assert local.shape[1] > 0
    assert local.tobytes() == shuffled.tobytes()


def _with_resources(monkeypatch, **res):
    import ray

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 2.0, **res})


def test_gate_caps_rows_at_the_measured_size(monkeypatch):
    from dynaalign_ray.stages import bands

    _with_resources(monkeypatch, memory=1e12, object_store_memory=1e12)
    cap = bands._LOCAL_PLAN_MAX_BAND_ROWS
    assert bands.fits_local_plan(cap, pair_cap=64)
    assert not bands.fits_local_plan(cap + 1, pair_cap=64)
    # salted rows are emitted twice, so they count against the same cap
    assert not bands.fits_local_plan(cap - 10, salted_rows=11, pair_cap=64)


def test_gate_bounds_worst_case_pair_heap_per_cpu(monkeypatch):
    from dynaalign_ray.stages import bands

    # per band row: its own bytes plus (pair_cap-1)/2 pairs emitted before
    # dedup, each times its measured heap factor
    per_row = (
        bands._BAND_ROW_BYTES * bands._LOCAL_HEAP_PER_BAND_BYTE
        + 63 / 2 * bands._PAIR_BYTES * bands._LOCAL_HEAP_PER_PAIR_BYTE
    )
    _with_resources(monkeypatch, memory=2 * 1000 * per_row, object_store_memory=1e12)
    assert bands.fits_local_plan(1000, pair_cap=64)
    assert not bands.fits_local_plan(1001, pair_cap=64)
    # fewer pairs per bucket leave room for more rows
    assert bands.fits_local_plan(1001, pair_cap=32)


def test_gate_bounds_band_bytes_by_object_store(monkeypatch):
    from dynaalign_ray.stages import bands

    store = 1000 * bands._BAND_ROW_BYTES / bands._LOCAL_STORE_SHARE
    _with_resources(monkeypatch, memory=1e12, object_store_memory=store)
    assert bands.fits_local_plan(1000, pair_cap=64)
    assert not bands.fits_local_plan(1001, pair_cap=64)


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
    from dynaalign_ray.pipelines.neardup import near_dedup
    from dynaalign_ray.stages import bands
    n_pages, staged = int(sys.argv[2]), sys.argv[3] == "staged"
    cfg = DedupConfig()
    if staged:
        # the gate shut: hash shuffles in candidate_pairs, and the
        # contraction CC's keyed repartition
        bands.fits_local_plan = lambda *a, **k: False
        cfg = DedupConfig(small_cc_limit=0)
    pages, _ = generate_pages(n_pages, seed=42)
    res = near_dedup(pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=4)
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
