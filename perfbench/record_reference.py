"""Record the reference outputs the benchmark's correctness gate compares against.

Runs every scan of every workload once at --jobs 1 (the seeded convolution
scan at the default seed) and the valuation-body pairs once, checks that
all of them are clean, and writes perfbench/reference.json.  Run it from the
root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run as bench


def main() -> int:
    scans = {}
    with tempfile.TemporaryDirectory(dir=bench.ROOT, prefix=".perfbench_ref_") as workdir:
        for workload, scan_list in bench.SCANS.items():
            cache_dir = None
            if workload == bench.CACHED_WORKLOAD:
                cache_dir = os.path.join(workdir, "lr_cache")
                shutil.rmtree(cache_dir, ignore_errors=True)
            for scan in scan_list:
                argv = bench.scan_argv(scan, bench.DEFAULT_SEED)
                out = os.path.join(workdir, "report.json")
                cmd = [sys.executable, "-m", "logcave.cli", "verify", *argv, "--jobs", "1", "--out", out]
                child = bench.launch(cmd, bench.child_env(cache_dir), workdir, bench.PROCESS_TIMEOUT_S)
                if child.code != 0:
                    print(f"{bench.scan_key(argv)}: exit {child.code} {child.stderr}", file=sys.stderr)
                    return 1
                with open(out, encoding="ascii") as fh:
                    report = json.load(fh)
                problems = bench.report_problems(report, None)
                if problems:
                    print(f"{bench.scan_key(argv)}: {problems}", file=sys.stderr)
                    return 1
                scans[bench.scan_key(argv)] = report["manifest"]["output_digest"]
        out = os.path.join(workdir, "bodies.json")
        cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "bodies_work.py"),
               "--seed", str(bench.DEFAULT_SEED), "--out", out]
        child = bench.launch(cmd, bench.child_env(None), workdir, bench.PROCESS_TIMEOUT_S)
        if child.code != 0:
            print(f"{bench.BODIES}: exit {child.code} {child.stderr}", file=sys.stderr)
            return 1
        with open(out, encoding="ascii") as fh:
            pairs = json.load(fh)["pairs"]
    if not all(p["passed"] for p in pairs):
        print(f"{bench.BODIES}: a theorem check does not hold", file=sys.stderr)
        return 1
    doc = {
        "commit": bench.commit_id(),
        "default_seed": bench.DEFAULT_SEED,
        "scans": scans,
        "bodies": [p["digest"] for p in pairs],
    }
    with open(bench.REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bench.REFERENCE_PATH}: {len(scans)} scans, {len(pairs)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
