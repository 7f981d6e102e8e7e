"""near_dedup's back half below the memory gate: pairs -> edges -> clusters
as one Ray task must give byte-identical pairs, edges and clusters to the
staged plan, with or without ``edge_filter``, ``tau_quantile`` or
``cluster_backend``, handle corpora with no candidate pairs, and interact
with the per-stage checkpoints exactly as the staged plan does."""

import shutil

import numpy as np
import pyarrow as pa
import pytest


def _table(ds) -> pa.Table:
    import ray

    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    return pa.concat_tables([t for t in tables if t.num_rows] or tables)


def _sorted_bytes(ds, keys: list[str], cols: list[str]) -> bytes:
    t = _table(ds)
    order = np.lexsort([t.column(k).to_numpy() for k in reversed(keys)])
    return b"".join(np.ascontiguousarray(t.column(c).to_numpy()[order]).tobytes() for c in cols)


def _outputs(res) -> dict:
    return {
        "pairs": _sorted_bytes(res.pairs, ["a", "b"], ["a", "b"]),
        "edges": _sorted_bytes(res.edges, ["a", "b"], ["a", "b", "jaccard"]),
        "clusters": _sorted_bytes(
            res.clusters, ["doc_id"], ["doc_id", "cluster_id", "keep", "duplicate_of"]
        ),
    }


def _pages_ds(n: int, boiler_frac: float):
    import ray.data as rd

    from dynaalign_ray.fixtures import generate_pages

    pages, _ = generate_pages(n, seed=42, boiler_frac=boiler_frac)
    return rd.from_arrow(pages)


def _force_staged(monkeypatch):
    """Shut the back-half gate, keeping the sizes it records.  (Not with a
    missing row hint, which would also switch the hot-key pass to its
    distributed plan and so salt a different key set.)"""
    from dynaalign_ray.pipelines import neardup

    gate = neardup._task_plan_sizes
    monkeypatch.setattr(neardup, "_task_plan_sizes", lambda *a: {**gate(*a), "plan": "staged"})


def _small_cc_backend(edges_ds, num_partitions):
    import ray.data as rd

    from dynaalign_ray.stages.cluster import connected_components_small

    return rd.from_arrow(connected_components_small(edges_ds))


_OPTIONS = {
    "": {},
    "edge_filter": {"edge_filter": lambda e: e, "edge_filter_tag": "identity"},
    "tau_quantile": {"tau_quantile": 0.95},
    "cluster_backend": {"cluster_backend": _small_cc_backend},
}


@pytest.mark.parametrize(
    "boiler_frac,option",
    [pytest.param(f, o, id=f"{f}-{o}" if o else str(f)) for o in _OPTIONS for f in (0.05, 0.25)],
)
def test_task_and_staged_plans_give_identical_outputs(
    ray_session, monkeypatch, boiler_frac, option
):
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines.neardup import near_dedup

    kwargs = dict(_OPTIONS[option])
    cfg = DedupConfig(salt_cap=256, tau_quantile=kwargs.pop("tau_quantile", None))

    def run():
        return near_dedup(
            pages_ds=_pages_ds(1500, boiler_frac), cfg=cfg, num_partitions=4, **kwargs
        )

    task = run()
    plan = task.stats["back_half"]
    assert plan["plan"] == "task"
    assert plan["heap_bytes"] <= plan["heap_per_cpu_bytes"]
    if boiler_frac == 0.25:
        # the skewed corpus must take the salted explode
        assert plan["hot_keys"] > 0 and plan["salted_rows"] > 0
    mode = "custom" if option == "cluster_backend" else "driver_union_find"
    assert task.stats["cc"]["mode"] == mode

    _force_staged(monkeypatch)
    staged = run()
    assert staged.stats["back_half"]["plan"] == "staged"
    assert staged.stats["cc"]["n_edges"] == task.stats["cc"]["n_edges"] > 0

    got, want = _outputs(task), _outputs(staged)
    for name in ("pairs", "edges", "clusters"):
        assert got[name] == want[name], name


@pytest.mark.parametrize("texts", [[], ["a b", "c", "", "d e f"]], ids=["empty", "short"])
def test_corpus_without_pairs_gives_singletons(ray_session, texts):
    import ray.data as rd

    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines.neardup import near_dedup

    ids = list(range(10, 10 + len(texts)))
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})
    )
    res = near_dedup(docs_ds=docs, cfg=DedupConfig(), num_partitions=2)
    assert res.stats["back_half"]["plan"] == "task"
    t = _table(res.clusters)
    assert sorted(t.column("doc_id").to_pylist()) == ids
    assert t.column("cluster_id").to_pylist() == t.column("doc_id").to_pylist()
    assert all(t.column("keep").to_pylist())
    assert _table(res.edges).num_rows == 0


def test_resume_with_the_task_plan(ray_session, monkeypatch, tmp_path):
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup
    from dynaalign_ray.stages import bands

    cfg = DedupConfig(salt_cap=256)
    ckpt = str(tmp_path / "ckpt")

    def run():
        return neardup.near_dedup(
            pages_ds=_pages_ds(800, 0.25), cfg=cfg, checkpoint_dir=ckpt, num_partitions=4
        )

    first = run()
    assert first.stats["back_half"]["plan"] == "task"
    want = _outputs(first)

    # a full resume needs neither the hot-key pass nor the task
    def refuse(*a, **k):
        raise AssertionError("a full resume must not run the back half")

    with monkeypatch.context() as m:
        m.setattr(neardup, "_launch_back_half", refuse)
        m.setattr(bands, "hot_band_keys", refuse)
        full = run()
    assert full.stats["back_half"]["plan"] == "resumed"
    assert all(s["resumed"] for s in full.stats["stages"].values())
    assert _outputs(full) == want

    # lost edges and clusters: the task runs again from the signatures
    for stage in ("edges", "clusters"):
        shutil.rmtree(tmp_path / "ckpt" / stage)
    part = run()
    assert part.stats["back_half"]["plan"] == "task"
    resumed = {s: c.get("resumed", False) for s, c in part.stats["stages"].items()}
    assert resumed == {
        "docs": True, "signatures": True, "pairs": True, "edges": False, "clusters": False,
    }
    assert _outputs(part) == want


def test_resume_with_an_edge_filter(ray_session, monkeypatch, tmp_path):
    """With an option the task builds pairs and edges only: a full resume
    runs no task, and a changed ``edge_filter_tag`` rebuilds the clusters
    from the checkpointed edges."""
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup
    from dynaalign_ray.stages import bands

    ckpt = str(tmp_path / "ckpt")

    def run(tag):
        return neardup.near_dedup(
            pages_ds=_pages_ds(800, 0.25), cfg=DedupConfig(salt_cap=256),
            checkpoint_dir=ckpt, num_partitions=4,
            edge_filter=lambda e: e, edge_filter_tag=tag,
        )

    first = run("identity")
    assert first.stats["back_half"]["plan"] == "task"
    want = _outputs(first)

    def refuse(*a, **k):
        raise AssertionError("a resume with an edge filter must not run the back half")

    monkeypatch.setattr(neardup, "_launch_back_half", refuse)
    monkeypatch.setattr(bands, "hot_band_keys", refuse)
    full = run("identity")
    assert full.stats["back_half"]["plan"] == "resumed"
    assert all(s["resumed"] for s in full.stats["stages"].values())
    assert _outputs(full) == want

    retagged = run("identity-v2")
    assert retagged.stats["back_half"]["plan"] == "resumed"
    resumed = {s: c.get("resumed", False) for s, c in retagged.stats["stages"].items()}
    assert resumed == {
        "docs": True, "signatures": True, "pairs": True, "edges": True, "clusters": False,
    }
    assert retagged.stats["cc"]["mode"] == "driver_union_find"
    assert _outputs(retagged) == want


def test_staged_resume_does_not_solve_cc(ray_session, monkeypatch, tmp_path):
    """A resumed clusters stage reports its edge count and runs no CC."""
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup
    from dynaalign_ray.stages import cluster

    _force_staged(monkeypatch)
    ckpt = str(tmp_path / "ckpt")

    def run():
        return neardup.near_dedup(
            pages_ds=_pages_ds(800, 0.05), cfg=DedupConfig(), checkpoint_dir=ckpt,
            num_partitions=4,
        )

    first = run()
    assert first.stats["back_half"]["plan"] == "staged"
    cc = first.stats["cc"]
    assert cc["mode"] == "driver_union_find" and cc["n_edges"] > 0
    assert set(cc) == {"n_edges", "mode", "rounds", "converged"}

    def refuse(*a, **k):
        raise AssertionError("a resumed clusters stage must not run CC")

    monkeypatch.setattr(cluster, "connected_components_small", refuse)
    full = run()
    assert all(s["resumed"] for s in full.stats["stages"].values())
    assert full.stats["cc"] == {"mode": "resumed", "n_edges": cc["n_edges"]}
    assert _outputs(full) == _outputs(first)


def test_gate_counts_signatures_not_the_row_hint(ray_session, monkeypatch):
    """A low ``approx_rows`` hint must not let the one-task plan past the
    gate: the back half is sized from the real signature count."""
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.pipelines import neardup

    # 400 pages x 32 bands = 12,800 band rows: over this cap, under the hint's
    monkeypatch.setattr(neardup, "_TASK_MAX_BAND_ROWS", 1_000)
    res = neardup.near_dedup(
        pages_ds=_pages_ds(400, 0.05), cfg=DedupConfig(), num_partitions=2, approx_rows=1
    )
    plan = res.stats["back_half"]
    assert plan["plan"] == "staged"
    assert plan["docs"] == 400
    assert plan["band_rows"] == 400 * DedupConfig().num_bands
    assert res.clusters.count() == 400
