"""Worker-death fault tolerance: the 100 TB claim is not only "spills
instead of dying" (scripts/spill_check.py) but "a killed worker mid-pipeline
is retried and the output is unchanged".  This injects a REAL worker death —
SIGKILL of the worker process from inside a map_batches task, the same
failure class as a lost node — and asserts the flagship's cluster
assignment is byte-identical to the healthy run (Ray retries system
failures by default; determinism makes the retried output comparable)."""

import os

import pyarrow as pa


def _first_claimant_killer(flag_path: str):
    """A no-argument fn that SIGKILLs its own worker process if it is the
    FIRST claimant (cross-process O_EXCL on the flag file).  The flag is
    created BEFORE the kill, so the retried task sees it and passes.  It is
    a closure, so Ray ships it by value to workers that cannot import this
    test module."""

    def kill() -> None:
        import signal

        try:
            fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
        except FileExistsError:
            pass

    return kill


def _killer_for(flag_path: str):
    """Identity batch fn whose first claimant dies mid-task."""
    kill = _first_claimant_killer(flag_path)

    def killer(batch: pa.Table) -> pa.Table:
        kill()
        return batch

    return killer


class TestWorkerDeath:
    def test_flagship_survives_worker_sigkill(self, ray_session, tmp_path):
        import ray.data as rd

        from dynaalign_ray.config import DedupConfig
        from dynaalign_ray.fixtures import generate_pages
        from dynaalign_ray.pipelines.neardup import near_dedup

        pages, _ = generate_pages(800, seed=3)
        cfg = DedupConfig()
        clean = {
            r["doc_id"]: r["cluster_id"]
            for r in near_dedup(
                pages_ds=rd.from_arrow(pages), cfg=cfg, num_partitions=4
            ).clusters.take_all()
        }

        flag = str(tmp_path / "worker_killed.flag")
        wounded = rd.from_arrow(pages).map_batches(
            _killer_for(flag), batch_format="pyarrow", zero_copy_batch=True
        )
        got = {
            r["doc_id"]: r["cluster_id"]
            for r in near_dedup(
                pages_ds=wounded, cfg=cfg, num_partitions=4
            ).clusters.take_all()
        }
        assert os.path.exists(flag), "kill was never injected"
        assert got == clean

    def test_back_half_task_survives_worker_sigkill(self, ray_session, tmp_path, monkeypatch):
        """The one back-half task, killed once, is retried by Ray and gives
        the healthy run's clusters."""
        import ray
        import ray.data as rd

        from dynaalign_ray.config import DedupConfig
        from dynaalign_ray.fixtures import generate_pages
        from dynaalign_ray.pipelines import neardup

        pages, _ = generate_pages(800, seed=3)

        def clusters():
            res = neardup.near_dedup(
                pages_ds=rd.from_arrow(pages), cfg=DedupConfig(), num_partitions=4
            )
            assert res.stats["back_half"]["plan"] == "task"
            return {r["doc_id"]: r["cluster_id"] for r in res.clusters.take_all()}

        clean = clusters()

        flag = str(tmp_path / "task_killed.flag")
        kill = _first_claimant_killer(flag)

        def killed_once(*args):
            kill()
            return neardup.back_half_tables(*args)

        monkeypatch.setattr(
            neardup, "_BACK_HALF_TASK", ray.remote(num_returns=3)(killed_once)
        )
        got = clusters()
        assert os.path.exists(flag), "kill was never injected"
        assert got == clean
