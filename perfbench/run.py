"""near_dedup benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload skewed_warc_resume --seed 42 --seconds 10 --trace 0

Inputs and their exact oracle come from ``prep.py`` (cached per corpus and
seed under ``.perfbench/``).  The timed process is ``driver.py``, watched
here: a step that does not report in time is killed and counts as failed.
Every cluster table the driver saves is compared with the oracle.  The last
stdout line is the JSON result; ``--trace 1`` reports per-layer metrics
from ``trace_run.py`` instead of the end-to-end ones.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from driver import EVENT, REBUILT_STAGES, RESUMED_STAGES
from prep import WORK_DIR, WORKLOADS, check_guard, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# watchdog: seconds a step may take before the driver counts as hung
SETUP_TIMEOUT_S = 60.0
STEP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # the whole run up to the driver's last event
EXIT_GRACE_S = 20.0  # after its last event, for Ray shutdown and exit
# The first run in a checkout may start on a cold host: importing Ray and
# paging in its binaries took minutes on a freshly restored VM.  Until one
# run has passed, the driver primes Ray with an untimed session and the
# watchdog allows for the slow start (staying under 900 s).
COLD_SETUP_TIMEOUT_S = 600.0
COLD_RUN_DEADLINE_S = 840.0
WARM_MARK = os.path.join(WORK_DIR, "warm")
LOG_TAIL_LINES = 40  # driver.log lines echoed to stderr on a failure

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets ~70
# bytes below its temp dir, so a longer checkout path keeps Ray's default.
_RAY_SOCKET_SUFFIX = len("/ray/session_2026-01-01_00-00-00_000000_1234567/sockets/plasma_store.1")

# the WARC workload's rerun after the simulated crash must resume exactly these
RESUME_GUARD = {**{s: True for s in RESUMED_STAGES}, **{s: False for s in REBUILT_STAGES}}

END_TO_END = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "resume_s": "s",
    "driver_peak_rss_mb": "MB",
    "dup_pair_recall": "ratio",
}


class Driver:
    """The driver subprocess and its event stream."""

    def __init__(self, argv: list[str], env: dict, log_path: str, deadline: float):
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            start_new_session=True,
        )
        self.events: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.deadline = deadline

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith(EVENT):
                self.events.put(json.loads(line[len(EVENT):]))
        self.events.put(None)

    def next_event(self, timeout: float):
        """The next event, or None when the driver exited or ran out of time."""
        timeout = min(timeout, self.deadline - time.monotonic())
        try:
            return self.events.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            return None

    def close(self, grace: float) -> int:
        """Give the driver ``grace`` seconds to exit, then kill its process
        group.  Returns its exit code."""
        try:
            self.proc.wait(timeout=max(min(grace, self.deadline - time.monotonic()), 0.0))
        except subprocess.TimeoutExpired:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        code = self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()
        self.log.close()
        return code


def ray_env(work: str) -> dict:
    """Driver environment: the engine importable, the C kernel cache in
    ``work/tmp``, and this run's own Ray temp dir ``work/ray-<pid>``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, HERE])
    # the same Ray behaviour on every host: no usage-stats upload, and no
    # memory monitor killing workers because other tenants fill host RAM
    env["RAY_USAGE_STATS_ENABLED"] = "0"
    env["RAY_memory_monitor_refresh_ms"] = "0"
    env["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    ray_tmp = os.path.join(work, f"ray-{os.getpid()}")
    if len(ray_tmp) + _RAY_SOCKET_SUFFIX <= 107:
        env["RAY_TMPDIR"] = ray_tmp
    else:
        env["RAY_TMPDIR"] = os.environ.get("RAY_TMPDIR", "/tmp")
    return env


def stop_ray(work: str) -> None:
    """Force-stop Ray processes left by this run or by a run that is gone:
    every process whose command line names ``work/ray-<pid>`` where <pid>
    is this process or no longer exists.  Sweeps until none is left (a
    dying raylet can still start workers), then deletes those temp dirs.
    Ray clusters of other live runs are left alone."""
    me = os.getpid()
    pattern = re.compile(re.escape(os.path.join(work, "ray-")) + r"(\d+)")

    def ours(pid: int) -> bool:
        return pid == me or not os.path.exists(f"/proc/{pid}")

    end = time.monotonic() + 15
    while time.monotonic() < end:
        victims = []
        for pid in os.listdir("/proc"):
            if not pid.isdigit() or int(pid) == me or _zombie(int(pid)):
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    m = pattern.search(f.read().decode(errors="replace"))
            except OSError:
                continue
            if m and ours(int(m.group(1))):
                victims.append(int(pid))
        if not victims:
            break
        for pid in victims:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
    for name in os.listdir(work):
        m = pattern.fullmatch(os.path.join(work, name))
        if m and ours(int(m.group(1))):
            shutil.rmtree(os.path.join(work, name), ignore_errors=True)


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def log_tail(path: str, lines: int) -> str:
    try:
        with open(path, errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError as e:
        return f"({e})"


def check_clusters(path: str, truth) -> tuple[bool, float]:
    """(cluster table equals the oracle's, dup-pair recall)."""
    import numpy as np

    from oracle import pair_recall

    got = np.load(path)
    try:
        recall = pair_recall(got["doc_id"], got["cluster_id"], truth["pair_a"], truth["pair_b"])
    except KeyError:
        return False, 0.0
    exact = np.array_equal(got["doc_id"], truth["doc_id"]) and np.array_equal(
        got["cluster_id"], truth["cluster_id"]
    )
    return exact, recall


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "dynaalign_ray", "__init__.py")):
        sys.exit(f"perfbench: no dynaalign_ray package in {ROOT}; run from a full checkout")

    # the engine and the driver share one temp dir, so prep's first use of
    # the C kernels compiles them there, outside the timed process
    env = ray_env(WORK_DIR)
    os.environ["TMPDIR"] = env["TMPDIR"]
    sys.path.insert(0, ROOT)
    import numpy as np

    w = WORKLOADS[args.workload]
    meta = prepare(w, args.seed)
    check_guard(w, meta)
    truth = np.load(meta["oracle"])

    out = os.path.join(WORK_DIR, "runs", f"{w.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    meta_path = os.path.join(out, "meta.json")
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    stop_ray(WORK_DIR)
    cold = not os.path.exists(WARM_MARK)
    setup_timeout = COLD_SETUP_TIMEOUT_S if cold else SETUP_TIMEOUT_S
    deadline = started + (COLD_RUN_DEADLINE_S if cold else RUN_DEADLINE_S)
    print(f"prep: {time.monotonic() - started:.1f} s{' (cold checkout)' if cold else ''}")
    # a terminated run still kills its driver and Ray (the finally below)
    terminated: list[int] = []

    def on_term(signum, _frame):
        terminated.append(signum)
        sys.exit("perfbench: terminated")

    signal.signal(signal.SIGTERM, on_term)

    driver = Driver(
        [
            sys.executable, os.path.join(HERE, "driver.py"),
            "--workload", w.name, "--meta", meta_path, "--out", out,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            *(["--cold"] if cold else []),
        ],
        env,
        os.path.join(out, "driver.log"),
        deadline=deadline,
    )
    setups, walls, resumes, recalls, layer = [], [], [], [], {}
    rss = None
    attempted = failed = 0
    problems: list[str] = []
    timeout = setup_timeout
    try:
        while True:
            ev = driver.next_event(timeout)
            if ev is None:
                attempted += 1
                failed += 1
                problems.append(
                    f"driver hung or exited before finishing, {time.monotonic() - started:.0f} s "
                    "into the run (driver.log below)"
                )
                break
            kind = ev["event"]
            if kind == "done":
                break
            timeout = STEP_TIMEOUT_S
            if kind == "setup":
                setups.append(ev["s"])
            elif kind == "rss":
                rss = ev["mb"]
            elif kind == "layers":
                layer = ev["metrics"]
            elif kind in ("call", "resume", "traced"):
                if "wall_s" in ev:
                    print(f"{kind} {ev['i']}: {ev['wall_s']:.3f} s")
                attempted += 1
                exact, recall = check_clusters(ev["clusters"], truth)
                recalls.append(recall)
                bad = [] if exact else ["cluster table differs from the oracle"]
                if kind == "resume":
                    resumes.append(ev["wall_s"])
                    if ev["resumed"] != RESUME_GUARD:
                        bad.append(f"guard: resumed flags {ev['resumed']}, want {RESUME_GUARD}")
                elif kind == "call":
                    walls.append(ev["wall_s"])
                if bad:
                    failed += 1
                    problems += [f"{kind} {ev['i']}: {b}" for b in bad]
    finally:
        code = driver.close(grace=0.0 if problems or terminated else EXIT_GRACE_S)
        stop_ray(WORK_DIR)
    if code != 0 and not problems:
        attempted += 1
        failed += 1
        problems.append(f"driver exited with code {code}")
    if not problems:
        shutil.rmtree(out, ignore_errors=True)
        with open(WARM_MARK, "w"):
            pass

    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    if problems:
        print(f"--- last lines of {os.path.join(out, 'driver.log')}", file=sys.stderr)
        print(log_tail(os.path.join(out, "driver.log"), LOG_TAIL_LINES), file=sys.stderr)
    print(f"failed_frac: {failed / max(attempted, 1):.4f} ({failed} of {attempted} calls)")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = {
            "docs_per_s": statistics.median(meta["pages"] / t for t in walls) if walls else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            # without checkpoints a crashed run restarts from its input
            "resume_s": statistics.median(resumes or walls) if walls else 0.0,
            "driver_peak_rss_mb": rss or 0.0,
            "dup_pair_recall": min(recalls) if recalls else 0.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    for k, m in metrics.items():
        print(f"{k}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
