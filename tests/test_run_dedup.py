"""Smoke test of the job driver ``scripts/run_dedup.py`` in every mode.

Each run is a subprocess in its own process group under a timeout, at
``--num-cpus 2``: ``main()`` owns its Ray session and calls
``ray.shutdown()``, so it cannot share the test session's.  Every mode must
print its JSON summary line and write its output Parquet:

- ``--mode full`` clusters must equal the brute-force oracle;
- ``--url-dedup`` over a corpus with older snapshots of some URLs must give
  the clusters of the corpus without them;
- ``build-index`` then ``probe-index`` must assign the new docs the
  clusters of the one-shot run;
- ``paragraph`` must reassemble every doc with its paragraph counts;
- a ``--checkpoint`` run whose whole process group is SIGKILLed once its
  signatures checkpoint is published must leave no process behind, and a
  rerun must resume from that checkpoint to the oracle clusters.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "run_dedup.py")
N_PAGES = 300
N_NEW = 30  # the last N_NEW pages play the probed snapshot
N_REVISITS = 40  # older snapshots of the first N_REVISITS urls


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Page corpora written as Parquet dirs, plus the oracle clusters of the
    full corpus."""
    from dynaalign_ray.config import DedupConfig
    from dynaalign_ray.extract import extract_text
    from dynaalign_ray.fixtures import generate_pages
    from dynaalign_ray.hashing import doc_id_from_urls
    from dynaalign_ray.oracle import true_pairs, union_find_clusters

    # no boilerplate cluster: no bucket reaches pair_cap, so the incremental
    # probe must reproduce the one-shot clusters exactly
    pages, _ = generate_pages(N_PAGES, seed=11, boiler_frac=0.0)
    root = tmp_path_factory.mktemp("run_dedup")

    def write(name: str, table: pa.Table) -> str:
        d = root / name
        d.mkdir()
        pq.write_table(table, d / "part-0.parquet")
        return str(d)

    # a revisit: same url, one day older, another page's html
    old = pages.slice(0, N_REVISITS)
    day_us = 86_400 * 10**6
    older_ts = pc.cast(
        pc.subtract(pc.cast(old.column("warc_ts"), pa.int64()), day_us),
        old.schema.field("warc_ts").type,
    )
    revisits = old.set_column(
        old.schema.get_field_index("warc_ts"), "warc_ts", older_ts
    ).set_column(
        old.schema.get_field_index("html"), "html",
        pages.column("html").slice(N_PAGES - N_REVISITS, N_REVISITS),
    )

    texts = [extract_text(h) for h in pages.column("html").to_pylist()]
    ids = doc_id_from_urls(pages.column("url").to_pylist()).tolist()
    oracle = union_find_clusters(true_pairs(texts, ids, DedupConfig()), ids)
    return {
        "root": root,
        "pages": write("pages", pages),
        "revisited": write("revisited", pa.concat_tables([revisits, pages])),
        "base": write("base", pages.slice(0, N_PAGES - N_NEW)),
        "new": write("new", pages.slice(N_PAGES - N_NEW)),
        "ids": ids,
        "oracle": oracle,
    }


def _start(log, *args: str) -> subprocess.Popen:
    """Start the driver in its own process group, stdout to ``log``."""
    env = {**os.environ, "PYTHONPATH": REPO, "RAY_USAGE_STATS_ENABLED": "0"}
    with open(log, "wb") as f:
        return subprocess.Popen(
            [sys.executable, SCRIPT, "--num-cpus", "2", "--num-partitions", "2", *args],
            env=env,
            start_new_session=True,
            stdout=f,
            stderr=subprocess.DEVNULL,
        )


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run(tmp_path, *args: str) -> dict:
    """Run the driver; return its JSON summary (the last stdout line)."""
    log = tmp_path / "run.log"
    proc = _start(log, *args)
    try:
        proc.wait(timeout=180)
    except subprocess.TimeoutExpired:
        pytest.fail(f"run_dedup.py {' '.join(args)} did not finish in 180 s")
    finally:
        _kill_group(proc)
    out = log.read_text(errors="replace")
    assert proc.returncode == 0, out[-2000:]
    return json.loads(out.strip().splitlines()[-1])


def _clusters(path) -> dict[int, int]:
    t = pq.read_table(path, columns=["doc_id", "cluster_id"])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("cluster_id").to_pylist()))


def test_full_mode_matches_oracle(inputs, tmp_path):
    out = tmp_path / "out"
    summary = _run(tmp_path, "--input", inputs["pages"], "--output", str(out))
    got = _clusters(out / "clusters")
    assert summary["n_docs"] == N_PAGES == len(got)
    sizes = np.unique(list(got.values()), return_counts=True)[1]
    assert summary["n_clusters"] == len(sizes)
    # docs in clusters of two or more
    assert summary["n_dup_docs"] == int(sizes[sizes > 1].sum()) > 0
    assert got == inputs["oracle"]
    assert pq.read_table(out / "edges").num_rows > 0
    assert json.loads((out / "report.json").read_text())["n_clusters"] == summary["n_clusters"]


def test_url_dedup_drops_older_snapshots(inputs, tmp_path):
    out = tmp_path / "out"
    summary = _run(
        tmp_path, "--input", inputs["revisited"], "--output", str(out), "--url-dedup"
    )
    assert summary["n_docs"] == N_PAGES
    assert _clusters(out / "clusters") == inputs["oracle"]


def test_build_then_probe_index(inputs, tmp_path):
    index = str(tmp_path / "index")
    built = _run(
        tmp_path, "--mode", "build-index", "--input", inputs["base"],
        "--output", str(tmp_path / "unused"), "--index", index,
    )
    assert built["mode"] == "build-index"
    assert built["n_docs"] == N_PAGES - N_NEW
    assert os.path.exists(os.path.join(index, "meta.json"))

    out = tmp_path / "out"
    probed = _run(
        tmp_path, "--mode", "probe-index", "--input", inputs["new"],
        "--output", str(out), "--index", index,
    )
    assert probed["mode"] == "probe-index"
    assert probed["n_new_docs"] == N_NEW
    got = _clusters(out / "new_clusters")
    new_ids = inputs["ids"][N_PAGES - N_NEW:]
    assert sorted(got) == sorted(new_ids)
    assert all(got[d] == inputs["oracle"][d] for d in new_ids)
    assert pq.read_table(out / "delta_edges").num_rows == probed["n_delta_edges"]


def test_paragraph_mode(inputs, tmp_path):
    out = tmp_path / "out"
    summary = _run(
        tmp_path, "--mode", "paragraph", "--input", inputs["pages"], "--output", str(out)
    )
    t = pq.read_table(out / "clean_docs")
    assert t.column_names == ["doc_id", "clean_text", "n_paras", "n_removed"]
    assert summary["mode"] == "paragraph"
    assert summary["n_docs"] == t.num_rows == N_PAGES
    assert sorted(t.column("doc_id").to_pylist()) == sorted(inputs["ids"])
    n_paras = np.asarray(t.column("n_paras"))
    n_removed = np.asarray(t.column("n_removed"))
    assert summary["n_paras"] == int(n_paras.sum())
    assert summary["n_paras_removed"] == int(n_removed.sum()) > 0
    assert (n_removed <= n_paras).all()


def test_driver_kill_resumes_from_checkpoints(inputs, tmp_path):
    """SIGKILL the driver's whole process group (driver, GCS, raylet and
    workers) as soon as the signatures checkpoint is published.  No process
    of the group may survive, and a rerun with the same ``--checkpoint``
    must resume docs and signatures and give the oracle clusters.  Each
    wait is bounded, so the test cannot hang."""
    ck = tmp_path / "ck"
    out = tmp_path / "out"
    args = ("--input", inputs["pages"], "--output", str(out), "--checkpoint", str(ck))

    proc = _start(tmp_path / "killed.log", *args)
    deadline = time.monotonic() + 180
    try:
        while not (ck / "signatures" / "_LINEAGE.json").exists():
            assert proc.poll() is None, "driver exited before the signatures checkpoint"
            assert time.monotonic() < deadline, "no signatures checkpoint in 180 s"
            time.sleep(0.02)
    finally:
        _kill_group(proc)
    gone_by = time.monotonic() + 10
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < gone_by, "a process of the killed run survived"
        time.sleep(0.1)

    # a half-written stage dir, as a kill during a write leaves it: resume
    # must never read one (this file is not Parquet, so a read would raise)
    junk = ck / ".tmp-pairs-00000000" / "data" / "part-0.parquet"
    junk.parent.mkdir(parents=True)
    junk.write_bytes(b"not parquet")

    summary = _run(tmp_path, *args)
    assert summary["n_docs"] == N_PAGES
    assert _clusters(out / "clusters") == inputs["oracle"]
    stages = json.loads((out / "report.json").read_text())["stages"]["stages"]
    assert stages["docs"]["resumed"] is True
    assert stages["signatures"]["resumed"] is True
    assert junk.read_bytes() == b"not parquet"
