"""Self-test of the benchmark harness at tiny scan sizes.

Run from the root of a checkout; exits 0 when every check holds:

    python3 perfbench/selftest.py

It checks that a run prints every end-to-end metric of BENCHMARK.json by name
with its unit, that a traced run reports every per-layer metric, that
--jobs 2 reports match their --jobs 1 reference, and that the gate counts a
failure for a report whose digest was altered and for an LR cache file whose
last line is torn.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run as bench

sys.path.insert(0, bench.SRC)

TINY_SCANS = {
    "skew-midpoint": [["theorem1", "--bound", "3"], ["slm", "--bound", "2"]],
    "triple-invariant": [
        ["conj1", "--bound", "1", "--rank", "2", "--pq", "2"],
        ["alpha", "--rank", "2", "--bound", "1", "--pq", "2"],
    ],
    "scanner-sweep": [["convolution", "--cases", "5", "--bound", "4", "--seed", "{seed}"]],
}
SEED = 1

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_cli(argv: list[str], jobs: int, workdir: str, cache_dir: str | None) -> dict:
    out = os.path.join(workdir, "report.json")
    cmd = [sys.executable, "-m", "logcave.cli", "verify", *argv, "--jobs", str(jobs), "--out", out]
    child = bench.launch(cmd, bench.child_env(cache_dir), workdir, bench.PROCESS_TIMEOUT_S)
    if child.code != 0:
        raise RuntimeError(f"{argv}: exit {child.code} {child.stderr}")
    with open(out, encoding="ascii") as fh:
        return json.load(fh)


def tiny_reference(workdir: str) -> dict:
    """--jobs 1 digests of the tiny scans, recorded the way record_reference.py does."""
    scans = {}
    for workload, scan_list in TINY_SCANS.items():
        cache_dir = os.path.join(workdir, "ref_cache") if workload == bench.CACHED_WORKLOAD else None
        for scan in scan_list:
            argv = bench.scan_argv(scan, SEED)
            scans[bench.scan_key(argv)] = run_cli(argv, 1, workdir, cache_dir)["manifest"]["output_digest"]
    with open(bench.REFERENCE_PATH, encoding="ascii") as fh:
        bodies = json.load(fh)["bodies"]
    return {"default_seed": SEED, "scans": scans, "bodies": bodies}


def check_end_to_end(reference: dict, expected: dict) -> None:
    for workload in TINY_SCANS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = bench.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "0"])
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        check(code == 0, f"{workload}: run exits 0")
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == expected, f"{workload}: every end-to-end metric printed with its unit")
        check(
            result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload}: --jobs 2 reports match the --jobs 1 reference",
        )


def check_gate(workdir: str) -> None:
    argv = ["theorem1", "--bound", "3"]
    report = run_cli(argv, 2, workdir, None)
    digest = report["manifest"]["output_digest"]
    check(bench.report_problems(report, digest) == [], "gate passes an unaltered report")
    altered = json.loads(json.dumps(report))
    altered["manifest"]["output_digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    check(bench.report_problems(altered, digest) != [], "gate fails a report whose digest was altered")
    tampered = json.loads(json.dumps(report))
    tampered["checked"] += 1
    check(bench.report_problems(tampered, digest) != [], "gate fails a report whose payload was altered")

    cache_dir = os.path.join(workdir, "torn_cache")
    run_cli(["conj1", "--bound", "1", "--rank", "2", "--pq", "2"], 2, workdir, cache_dir)
    path = os.path.join(cache_dir, "lr_cache.txt")
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    whole = b"".join(lines[:-1]) + lines[-1].rsplit(b";", 1)[0] + b";12\n"
    with open(path, "wb") as fh:
        fh.write(whole)
    check(bench.cache_file_problems(path) == [], "gate passes a whole cache file ending in ;12")
    with open(path, "wb") as fh:
        fh.write(whole[: -len(b"2\n")])
    check(bench.cache_file_problems(path) != [], "gate fails a cache file whose last line ;12 is torn to ;1")


def check_per_layer(reference: dict, workdir: str, expected: dict) -> None:
    import traced_run

    seen: dict[str, str] = {}
    for workload in TINY_SCANS:
        tracer = traced_run.Tracer()
        memos = traced_run.Memos()
        tracer.install()
        try:
            outcome = traced_run.run_workload(workload, SEED, reference, workdir, memos)
        finally:
            tracer.uninstall()
        check(outcome["failed"] == 0, f"{workload}: traced scans pass the gate")
        metrics = traced_run.per_layer(tracer, memos, outcome, 1.0, 1.0)
        seen.update({k: v["unit"] for k, v in metrics.items()})
    # run.py adds the figures taken from the untraced processes
    from_processes = {k for k in expected if k.startswith("cli.verify.") or k == "concavity.pool.cpu_per_wall"}
    check(
        {k: v for k, v in expected.items() if k not in from_processes} == seen,
        "traced run reports every per-layer metric of BENCHMARK.json with its unit",
    )
    check(
        from_processes == {f"cli.verify.{s}_s" for s in bench.SCANNERS} | {"concavity.pool.cpu_per_wall"},
        "per-scan report times cover every scanner",
    )


def main() -> int:
    with open(bench.BENCHMARK_PATH, encoding="ascii") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workdir = tempfile.mkdtemp(prefix=".perfbench_selftest_", dir=bench.ROOT)
    try:
        reference = tiny_reference(workdir)
        bench.SCANS = TINY_SCANS
        bench.load_reference = lambda: reference
        check_end_to_end(reference, end_to_end)
        check_gate(workdir)
        check_per_layer(reference, workdir, per_layer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
