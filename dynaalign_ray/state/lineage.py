"""Per-stage Parquet checkpoints with lineage metadata (SURVEY.md §4, M6).

The reference loses all recursion state on crash (its only safety valve is
the ``max_itr`` counter, /root/reference/R/clusterbreak.R:211-215).  Here
every stage can persist as a directory of Parquet parts plus a
``_LINEAGE.json`` sidecar recording {stage, config hash, input fingerprint,
row count}; a rerun whose fingerprint chain matches skips the stage and
reads the checkpoint — resume is per-stage, and writes are atomic
(tmp dir + rename) so a killed run never leaves a half-valid checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

LINEAGE_FILE = "_LINEAGE.json"
DATA_SUBDIR = "data"


def stage_fingerprint(stage: str, config_hash: str, input_fp: str) -> str:
    payload = f"{stage}|{config_hash}|{input_fp}"
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


class CheckpointContext:
    """Orchestrates run-or-resume per stage.

    With ``root=None`` checkpointing is off and stages stream end-to-end
    (pure lazy pipeline); with a root dir, each stage writes
    ``{root}/{stage}/data/*.parquet`` + lineage and downstream stages read
    from the checkpoint (which also prevents upstream re-execution when a
    dataset fans out to several consumers).
    """

    def __init__(self, root: str | None, config_hash: str):
        self.root = root
        self.config_hash = config_hash
        self.counters: dict[str, dict] = {}

    def run_stage(self, stage: str, input_fp: str, build):
        """Returns (dataset, fingerprint). ``build`` is a zero-arg callable
        producing the stage's Dataset; it is not invoked on resume."""
        import ray.data as rd

        fp = stage_fingerprint(stage, self.config_hash, input_fp)
        if self.root is None:
            self.counters[stage] = {"fingerprint": fp, "checkpointed": False}
            return build(), fp

        stage_dir = os.path.join(self.root, stage)
        data_dir = os.path.join(stage_dir, DATA_SUBDIR)
        lineage = self._lineage(stage)
        if lineage is not None:
            if lineage.get("fingerprint") == fp:
                self.counters[stage] = {**lineage, "resumed": True}
                return rd.read_parquet(data_dir), fp
            # stale checkpoint (config or upstream changed): rebuild
            shutil.rmtree(stage_dir, ignore_errors=True)

        ds = build()
        tmp_dir = os.path.join(self.root, f".tmp-{stage}-{uuid.uuid4().hex[:8]}")
        os.makedirs(os.path.join(tmp_dir, DATA_SUBDIR), exist_ok=True)
        ds.write_parquet(os.path.join(tmp_dir, DATA_SUBDIR))
        num_rows = _count_parquet_rows(os.path.join(tmp_dir, DATA_SUBDIR))
        with open(os.path.join(tmp_dir, LINEAGE_FILE), "w") as f:
            json.dump(
                {
                    "stage": stage,
                    "fingerprint": fp,
                    "config_hash": self.config_hash,
                    "input_fingerprint": input_fp,
                    "num_rows": num_rows,
                },
                f,
            )
        shutil.rmtree(stage_dir, ignore_errors=True)
        os.replace(tmp_dir, stage_dir)  # atomic publish
        self.counters[stage] = {
            "fingerprint": fp,
            "num_rows": num_rows,
            "resumed": False,
            "checkpointed": True,
        }
        return rd.read_parquet(data_dir), fp

    def _lineage(self, stage: str) -> dict | None:
        path = os.path.join(self.root, stage, LINEAGE_FILE)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    def resumes_chain(self, input_fp: str, stages: tuple[str, ...]) -> bool:
        """Whether ``run_stage`` would resume every one of ``stages``, run in
        order with each stage's fingerprint as the next one's input, from
        ``input_fp`` — so a caller can skip work only those builds need."""
        if self.root is None:
            return False
        fp = input_fp
        for stage in stages:
            fp = stage_fingerprint(stage, self.config_hash, fp)
            lineage = self._lineage(stage)
            if lineage is None or lineage.get("fingerprint") != fp:
                return False
        return True


def _count_parquet_rows(data_dir: str) -> int:
    import pyarrow.parquet as pq

    total = 0
    for name in os.listdir(data_dir):
        if name.endswith(".parquet"):
            total += pq.read_metadata(os.path.join(data_dir, name)).num_rows
    return total
