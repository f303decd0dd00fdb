"""Whole `logcave verify` runs, each a fresh process on the sources under
src/ with no $LOGCAVE_CACHE_DIR unless set here, against pinned values."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="ascii") as fh:
    REFERENCE = json.load(fh)["scans"]


def verify(tmp, scan, *options, cache=False):
    """Run `logcave verify` into the directory tmp, also the cache directory if cache;
    return its exit code and its report's manifest."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("LOGCAVE_CACHE_DIR", None)
    if cache:
        env["LOGCAVE_CACHE_DIR"] = str(tmp)
    out = tmp / "report.json"
    argv = [sys.executable, "-m", "logcave.cli", "verify", *scan.split(), *options, "--out", str(out)]
    code = subprocess.run(argv, env=env).returncode
    return code, json.loads(out.read_text(encoding="utf-8"))["manifest"]


@pytest.mark.parametrize("scan", sorted(REFERENCE))
def test_reference_digest_at_one_job(scan, tmp_path):
    """The benchmark runs every scan at --jobs 2; this checks each recorded
    scan digest at --jobs 1 too, reading the file only."""
    code, manifest = verify(tmp_path, scan, "--jobs", "1")
    assert code in (0, 1) and manifest["output_digest"] == REFERENCE[scan]


POOL_DIGESTS = {
    "theorem1 --bound 9": "sha256:5a60054f4ae0ea4042421fcff867c4eb4eded745b7f4733abfc46859f1c82ead",
    "slm --bound 8": "sha256:7bc09edc577d6d133c1d49958f7b37668cdca9ca362131e3b8b27d0d6c1fbaac",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scan", POOL_DIGESTS)
def test_degree_grouped_pool(scan, jobs, tmp_path):
    """theorem1 and slm make one worker call, a pool task, per pair degree.  These sizes,
    beyond the tests and the benchmark, have enough classes (2,201 and 1,001) that --jobs 2
    starts a pool, as manifest.jobs shows.  The digests predate the degree-group workers."""
    code, manifest = verify(tmp_path, scan, "--jobs", str(jobs))
    assert code == 0 and (manifest["output_digest"], manifest["jobs"]) == (POOL_DIGESTS[scan], jobs)


LR_CACHE_HASHES = {
    "conj1 --bound 2 --rank 3 --pq 5; alpha --rank 3 --bound 2 --pq 5": (
        "8b2f13176a0a405f8a62ac4da4a7cd00038c809750cfc504a24e4a8349cb68e6"
    ),
    "alpha --rank 3 --bound 2 --pq 5": "3ee1ad72f08e4f034364e161680d3c753837b60fe2df96a595e32a014172c722",
    "saturation --bound 5 --rank 4 --kmax 5": "d307283429f7282eaba338b78a1b3a7ab4d13a54c3da5ea9ed8acd88ab493380",
    # 36,217 lines, ten times the benchmark's file
    "conj1 --bound 3 --rank 3 --pq 3": "83deba17415a2f83fd548566fe3cfbfb5989b6fdb3341f46d920702190d8a890",
}


@pytest.mark.parametrize("scans", LR_CACHE_HASHES)
def test_lr_cache_file_bytes(scans, tmp_path):
    """The on-disk LR cache keeps its lines from one change to the next: the scans, in
    turn, write lr_cache.txt into a fresh $LOGCAVE_CACHE_DIR, whose sha256 must stay the
    same.  A change that alters these lines on purpose updates the hash and says so."""
    for scan in scans.split("; "):
        assert verify(tmp_path, scan, cache=True)[0] in (0, 1), scan
    assert hashlib.sha256((tmp_path / "lr_cache.txt").read_bytes()).hexdigest() == LR_CACHE_HASHES[scans]


def test_lr_cache_warm_rerun_reads_every_value(tmp_path):
    """A second run on the file the first wrote finds every value stored: it reports
    the same digest, and the file keeps its pinned bytes, so it appended nothing."""
    scan = "conj1 --bound 3 --rank 3 --pq 3"
    cold_code, cold = verify(tmp_path, scan, cache=True)
    warm_code, warm = verify(tmp_path, scan, cache=True)
    assert cold_code in (0, 1) and warm_code == cold_code
    assert warm["output_digest"] == cold["output_digest"]
    assert hashlib.sha256((tmp_path / "lr_cache.txt").read_bytes()).hexdigest() == LR_CACHE_HASHES[scan]
