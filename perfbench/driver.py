"""The timed process: one Ray session per setup, near_dedup calls on cached
inputs.  It reads only what ``prep.py`` wrote and reports one event per
line on stdout (``PERFBENCH {json}``); ``run.py`` watches those lines, kills
this process if a step hangs, and checks every cluster table it saved.

    python3 perfbench/driver.py --workload skewed_warc_resume --meta M --out DIR \
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_CPUS = 2  # logical Ray CPUs; num_cpus=1 hangs in candidate_pairs (NOTES.md)
SETUPS = 2  # Ray sessions per untraced run; setup_s is their median
# a fixed object store instead of Ray's default 30% of host RAM: the same
# Ray Data memory budget on every host, and no multi-GB /dev/shm mapping
OBJECT_STORE_BYTES = 512 * 2**20
MIN_CALLS = 2  # near_dedup calls made when driver_peak_rss_mb is read
EVENT = "PERFBENCH "


def emit(event: str, **fields) -> None:
    print(EVENT + json.dumps({"event": event, **fields}), flush=True)


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


class Session:
    """A Ray session on a fixed 2-CPU budget, warmed by one untimed
    pipeline run on the workload's first pages."""

    def __init__(self, w, meta: dict, cfg):
        self.w, self.meta, self.cfg = w, meta, cfg

    def start(self) -> float:
        """ray.init + configure_context + warm-up; returns seconds taken."""
        import ray
        import ray.data as rd

        from dynaalign_ray.exec import configure_context
        from dynaalign_ray.pipelines.neardup import near_dedup

        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
        )
        configure_context()
        t1 = time.perf_counter()
        warm = near_dedup(
            pages_ds=rd.read_parquet(self.meta["warm"]),
            cfg=self.cfg,
            num_partitions=self.w.num_partitions,
        )
        collect(warm.clusters)
        t2 = time.perf_counter()
        # progress for driver.log, which run.py prints when a run fails
        print(f"perfbench: ray.init {t1 - t0:.1f} s, warm-up {t2 - t1:.1f} s", file=sys.stderr)
        return t2 - t0

    @staticmethod
    def stop() -> None:
        import ray

        ray.shutdown()

    def read_pages(self):
        import ray.data as rd

        from dynaalign_ray.sources.warc import read_warc

        if self.w.source == "warc":
            return read_warc(self.meta["paths"])
        return rd.read_parquet(self.meta["paths"])

    def call(self, checkpoint_dir: str | None = None):
        """One near_dedup call from input dataset creation until every
        cluster row is at the driver.  Returns (wall_s, clusters, result)."""
        from dynaalign_ray.pipelines.neardup import near_dedup

        t0 = time.perf_counter()
        res = near_dedup(
            pages_ds=self.read_pages(),
            cfg=self.cfg,
            checkpoint_dir=checkpoint_dir,
            num_partitions=self.w.num_partitions,
        )
        clusters = collect(res.clusters)
        return time.perf_counter() - t0, clusters, res


def collect(ds):
    """Every row of a Dataset as one Arrow table at the driver."""
    import pyarrow as pa
    import ray

    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    return pa.concat_tables([t for t in tables if t.num_rows] or tables)


def save_clusters(table, path: str) -> None:
    """(doc_id, cluster_id) sorted by doc_id, for run.py's oracle check."""
    import numpy as np

    ids = table.column("doc_id").to_numpy()
    order = np.argsort(ids)
    np.savez(path, doc_id=ids[order], cluster_id=table.column("cluster_id").to_numpy()[order])


RESUMED_STAGES = ("docs", "signatures")
REBUILT_STAGES = ("pairs", "edges", "clusters")


def crash_and_resume(session: Session, ckpt: str):
    """Simulate a crash after the signatures stage by deleting the later
    checkpoints, then rerun.  Returns (resume_s, clusters, resumed flags)."""
    for stage in REBUILT_STAGES:
        shutil.rmtree(os.path.join(ckpt, stage))
    wall, clusters, res = session.call(checkpoint_dir=ckpt)
    stages = res.stats["stages"]
    resumed = {s: bool(stages[s].get("resumed")) for s in RESUMED_STAGES + REBUILT_STAGES}
    return wall, clusters, resumed


def iteration(session: Session, i: int, out: str) -> int:
    """One timed iteration.  Parquet workloads: one call.  WARC workload: a
    checkpointed call into a fresh checkpoint dir, then a simulated crash
    and resume from those checkpoints.  Returns the number of near_dedup
    calls made."""
    ckpt = None
    if session.w.source == "warc":
        ckpt = os.path.join(out, "ckpt")
        shutil.rmtree(ckpt, ignore_errors=True)
    wall, clusters, _ = session.call(checkpoint_dir=ckpt)
    path = os.path.join(out, f"call-{i}.npz")
    save_clusters(clusters, path)
    emit("call", i=i, wall_s=wall, clusters=path)
    if ckpt is None:
        return 1
    resume_s, clusters, resumed = crash_and_resume(session, ckpt)
    path = os.path.join(out, f"resume-{i}.npz")
    save_clusters(clusters, path)
    emit("resume", i=i, wall_s=resume_s, clusters=path, resumed=resumed)
    return 2


def peak_rss_mb() -> float:
    """Peak resident set of this process image (VmHWM).  ru_maxrss is not
    used: Linux carries the forking parent's peak across execve into it."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_untraced(session: Session, seconds: float, out: str) -> None:
    """SETUPS sessions; each is set up, then measures for its share of
    ``seconds`` (at least one iteration), then shut down."""
    i = calls = 0
    for _ in range(SETUPS):
        emit("setup", s=session.start())
        t_end = time.perf_counter() + seconds / SETUPS
        first = True
        while first or time.perf_counter() < t_end:
            first = False
            before = calls
            calls += iteration(session, i, out)
            i += 1
            if before < MIN_CALLS <= calls:
                emit("rss", mb=peak_rss_mb())
        session.stop()


def prime(session: Session) -> None:
    """One untimed, unreported session, so that the first measured setup
    does not pay for paging in Ray and the engine on a cold host.  A
    failure here is logged and left to the measured setups to repeat."""
    try:
        session.start()
    except Exception as e:  # noqa: BLE001 - logged; the measured setup decides
        print(f"perfbench: priming session failed: {e!r}", file=sys.stderr)
    session.stop()


def die_with_parent() -> None:
    """Have Linux SIGKILL this process when run.py exits, so a killed run
    leaves no driver behind (PR_SET_PDEATHSIG)."""
    import ctypes
    import signal

    ctypes.CDLL(None, use_errno=True).prctl(1, int(signal.SIGKILL))


def main() -> int:
    die_with_parent()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--meta", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold", action="store_true", help="prime Ray with one untimed session first")
    args = ap.parse_args()

    from prep import WORKLOADS, dedup_config

    with open(args.meta) as f:
        meta = json.load(f)
    session = Session(WORKLOADS[args.workload], meta, dedup_config())
    if args.cold:
        prime(session)
    if args.trace:
        from trace_run import run_traced

        run_traced(session, args.out)
    else:
        run_untraced(session, args.seconds, args.out)
    emit("done")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    raise SystemExit(main())
