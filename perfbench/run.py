"""Benchmark for logcave: time to verdict on four scan workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload skew-midpoint --seed 1 --seconds 30 --trace 0

With --trace 0 it repeats the workload until --seconds are used up and prints
the end-to-end metrics as medians over the repetitions.  With --trace 1 it
runs the workload once untraced for the per-scan report times, then once
in-process with spans around every module's public functions (traced_run.py), and
prints the per-layer metrics.  Either way the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every verify scan runs as a fresh `logcave verify` process at --jobs 2, so
each pays the cold memo caches a command-line user pays.  An operation (one
scan process, or one valuation-body pair) fails on a nonzero exit, a timeout,
a report whose digest does not match its payload or the reference recorded in
reference.json, a theorem check that does not hold, or a torn line in the LR
cache file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

JOBS = 2
DEFAULT_SEED = 1
PROCESS_TIMEOUT_S = 120.0
# every run must end within 180 s; no process is started or kept past this
RUN_DEADLINE_S = 165.0

# Scan arguments per workload; "{seed}" is replaced by the workload seed.
# Sizes keep one repetition within a few seconds so that a run holds several.
SCANS = {
    "skew-midpoint": [
        ["theorem1", "--bound", "7"],
        ["slm", "--bound", "4"],
    ],
    # conj1 writes the LR cache file, then alpha loads it in a new process
    "triple-invariant": [
        ["conj1", "--bound", "2", "--rank", "3", "--pq", "5"],
        ["alpha", "--rank", "3", "--bound", "2", "--pq", "5"],
    ],
    "scanner-sweep": [
        ["logv", "--rank", "3", "--bound", "4"],
        ["logv", "--rank", "4", "--bound", "2"],
        ["saturation", "--bound", "5", "--rank", "4", "--kmax", "5"],
        ["restriction", "--n", "6", "--k", "3", "--bound", "8"],
        ["weyl", "--rank", "4", "--bound", "10"],
        ["convolution", "--cases", "200", "--bound", "12", "--seed", "{seed}"],
    ],
}
BODIES = "valuation-bodies"
WORKLOADS = [*SCANS, BODIES]
# the only workload whose scans share a fresh LR cache directory
CACHED_WORKLOAD = "triple-invariant"

def scan_argv(scan: list[str], seed: int) -> list[str]:
    return [a.replace("{seed}", str(seed)) for a in scan]


def scan_key(argv: list[str]) -> str:
    return " ".join(argv)


def is_seeded(scan: list[str]) -> bool:
    return any("{seed}" in a for a in scan)


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------


def payload_digest(report: dict) -> str:
    """sha256 of the deterministic part of a report, as `logcave verify` digests it."""
    doc = {k: report[k] for k in ("subcommand", "params", "checked", "violations")}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("ascii")).hexdigest()


def report_problems(report: dict, reference: str | None) -> list[str]:
    """Why a verify report fails the gate; empty when it passes.

    reference is the recorded --jobs 1 digest, or None where no reference
    applies (a seeded scan at another seed than the default).
    """
    problems = []
    digest = report.get("manifest", {}).get("output_digest")
    try:
        if digest != payload_digest(report):
            problems.append("output_digest does not match the report payload")
    except KeyError as exc:
        problems.append(f"report lacks {exc}")
    if reference is not None and digest != reference:
        problems.append(f"output_digest {digest} differs from reference {reference}")
    if report.get("violations"):
        problems.append(f"{len(report['violations'])} violations")
    return problems


def cache_file_problems(path: str) -> list[str]:
    """An LR cache file must exist, hold entries, and end every line in a newline."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return [f"LR cache file unreadable: {exc}"]
    if not data:
        return ["LR cache file is empty"]
    if not data.endswith(b"\n"):
        return ["LR cache file ends in a torn line: " + repr(data.rsplit(b"\n", 1)[-1])]
    return []


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def reference_digest(reference: dict, scan: list[str], seed: int) -> str | None:
    """The recorded digest for this scan; a seeded scan has one only at the default seed."""
    if is_seeded(scan) and seed != reference["default_seed"]:
        return None
    return reference["scans"].get(scan_key(scan_argv(scan, seed)), "no reference recorded")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    """Outcome of one child process: exit code (None on timeout) and rusage."""

    code: int | None
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def child_env(cache_dir: str | None) -> dict:
    env = dict(os.environ)
    env.pop("LOGCAVE_CACHE_DIR", None)
    if cache_dir is not None:
        env["LOGCAVE_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = SRC
    return env


def launch(argv: list[str], env: dict, workdir: str, timeout: float) -> Child:
    """Run one child to completion and collect its resource usage.

    wait4 reports the child's CPU and peak RSS together with those of the
    children it reaped, so pool workers count toward the scan that forked
    them.  The child leads its own process group, which a timeout kills whole.
    """
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=workdir,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        # reap what the killed process group left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")[-2000:]
    return Child(
        None if timed_out.is_set() else proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        stderr,
    )


class Rep:
    """One repetition of a workload: per-process figures and gate results."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.setup_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.runtime_s: dict[str, float] = {}
        self.pool_cpu_per_wall: float | None = None

    def count(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


def run_scan_rep(workload, seed, reference, workdir, deadline) -> Rep:
    rep = Rep()
    cache_dir = None
    if workload == CACHED_WORKLOAD:
        cache_dir = os.path.join(workdir, "lr_cache")
        shutil.rmtree(cache_dir, ignore_errors=True)
    env = child_env(cache_dir)
    t0 = time.perf_counter()
    for scan in SCANS[workload]:
        argv = scan_argv(scan, seed)
        out = os.path.join(workdir, "report.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [sys.executable, "-m", "logcave.cli", "verify", *argv, "--jobs", str(JOBS), "--out", out]
        child = launch(cmd, env, workdir, min(PROCESS_TIMEOUT_S, deadline - time.perf_counter()))
        rep.cpu_s += child.cpu_s
        rep.rss_mb = max(rep.rss_mb, child.rss_mb)
        problems = []
        if child.code is None:
            problems.append("timed out")
        elif child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr.strip()}")
        runtime_s = None
        try:
            with open(out, encoding="ascii") as fh:
                report = json.load(fh)
            problems += report_problems(report, reference_digest(reference, scan, seed))
            runtime_ms = report.get("runtime_ms", report.get("manifest", {}).get("wall_time_ms"))
            runtime_s = runtime_ms / 1000.0
        except (OSError, ValueError, TypeError) as exc:
            problems.append(f"no readable report: {exc}")
        if runtime_s is not None:
            rep.setup_s += child.wall_s - runtime_s
            rep.runtime_s[argv[0]] = rep.runtime_s.get(argv[0], 0.0) + runtime_s
        if argv[0] == "theorem1":
            rep.pool_cpu_per_wall = child.cpu_s / child.wall_s
        if cache_dir is not None and argv[0] == "conj1":
            problems += cache_file_problems(os.path.join(cache_dir, "lr_cache.txt"))
        rep.count(scan_key(argv), problems)
    rep.wall_s = time.perf_counter() - t0
    return rep


def run_bodies_rep(seed, reference, workdir, deadline) -> Rep:
    rep = Rep()
    out = os.path.join(workdir, "bodies.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "bodies_work.py"), "--seed", str(seed), "--out", out]
    child = launch(cmd, child_env(None), workdir, min(PROCESS_TIMEOUT_S, deadline - time.perf_counter()))
    rep.wall_s = child.wall_s
    rep.cpu_s = child.cpu_s
    rep.rss_mb = child.rss_mb
    try:
        with open(out, encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        code = "timed out" if child.code is None else f"exit code {child.code}"
        rep.count(BODIES, [f"{code}, no readable result: {exc} {child.stderr.strip()}"])
        return rep
    rep.setup_s = child.wall_s - doc["work_s"]
    # the pair records are invariant under the seed, so one reference serves every seed
    expected = reference["bodies"]
    if len(expected) != len(doc["pairs"]):
        rep.count(BODIES, [f"{len(doc['pairs'])} pairs, reference has {len(expected)}"])
    for i, outcome in enumerate(doc["pairs"]):
        problems = []
        if not outcome["passed"]:
            problems.append(outcome.get("error", "a theorem check does not hold"))
        if i < len(expected) and outcome["digest"] != expected[i]:
            problems.append(f"digest {outcome['digest']} differs from reference {expected[i]}")
        rep.count(f"pair {i}", problems)
    return rep


def run_rep(workload, seed, reference, workdir, deadline) -> Rep:
    if workload == BODIES:
        return run_bodies_rep(seed, reference, workdir, deadline)
    return run_scan_rep(workload, seed, reference, workdir, deadline)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def commit_id() -> str:
    """The checked-out commit, read from .git without running git; unknown elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": JOBS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, reference, workdir, started) -> tuple[dict, list[Rep]]:
    """Repeat the workload until `seconds` are used up; medians over repetitions."""
    deadline = started + RUN_DEADLINE_S
    reps = []
    t0 = time.perf_counter()
    while True:
        rep = run_rep(workload, seed, reference, workdir, deadline)
        reps.append(rep)
        now = time.perf_counter()
        # start another repetition only if it should end within the budget
        if now - t0 + rep.wall_s > seconds or now + 2 * rep.wall_s > deadline:
            break
    metrics = {
        "wall_s": metric(statistics.median(r.wall_s for r in reps), "s"),
        "cpu_s": metric(statistics.median(r.cpu_s for r in reps), "s"),
        "setup_s": metric(statistics.median(r.setup_s for r in reps), "s"),
        "peak_rss_mb": metric(statistics.median(r.rss_mb for r in reps), "MB"),
    }
    return metrics, reps


def trace_metrics(workload, seed, reference, workdir, started) -> tuple[dict, Rep, dict]:
    """One untraced repetition for report times, then the in-process traced run."""
    deadline = started + RUN_DEADLINE_S
    rep = run_rep(workload, seed, reference, workdir, deadline)
    out = os.path.join(workdir, "trace.json")
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "traced_run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", workdir,
        "--out", out,
    ]
    child = launch(cmd, child_env(None), workdir, deadline - time.perf_counter())
    try:
        with open(out, encoding="ascii") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        code = "timed out" if child.code is None else f"exit code {child.code}"
        doc = {"metrics": {}, "attempted": 1, "failed": 1,
               "problems": [f"traced run: {code}, {exc} {child.stderr.strip()}"]}
    metrics = doc["metrics"]
    for scanner in SCANNERS:
        metrics[f"cli.verify.{scanner}_s"] = metric(rep.runtime_s.get(scanner, 0.0), "s")
    metrics["concavity.pool.cpu_per_wall"] = metric(rep.pool_cpu_per_wall or 0.0, "ratio")
    return metrics, rep, doc


# scanner names as `logcave verify` takes them
SCANNERS = [
    "theorem1", "slm", "conj1", "saturation", "logv", "alpha", "weyl", "restriction", "convolution",
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="logcave time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "logcave", "cli.py")):
        print(f"error: no logcave sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        reference = load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {REFERENCE_PATH}: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        # compile the package once so no timed process pays bytecode compilation
        launch([sys.executable, "-c", "import logcave.cli"], child_env(None), workdir, 60.0)
        print("env " + json.dumps(environment(args.workload, args.seed, args.seconds, args.trace)))
        if args.trace:
            metrics, rep, doc = trace_metrics(args.workload, args.seed, reference, workdir, started)
            attempted = rep.attempted + doc["attempted"]
            failed = rep.failed + doc["failed"]
            problems = rep.problems + doc["problems"]
            for line in doc.get("spans", []):
                print("span " + json.dumps(line))
        else:
            metrics, reps = measure(args.workload, args.seed, args.seconds, reference, workdir, started)
            attempted = sum(r.attempted for r in reps)
            failed = sum(r.failed for r in reps)
            problems = [p for r in reps for p in r.problems]
            for i, r in enumerate(reps):
                print(
                    f"rep {i}: wall_s={r.wall_s:.4f} cpu_s={r.cpu_s:.4f} setup_s={r.setup_s:.4f} "
                    f"peak_rss_mb={r.rss_mb:.1f} failed={r.failed}/{r.attempted}"
                )
        for p in problems[:50]:
            print("FAIL " + p)
        print(f"fail_ratio {failed}/{attempted}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
