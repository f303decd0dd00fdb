"""In-process traced run of one benchmark workload: spans and exact counters.

The workload runs twice in this process at --jobs 1, each time from cold
memo caches: once untraced, then with spans around the public functions of
each module.  The difference between the two wall times is the tracing
overhead.  Spans are recorded from outside the package: each target function
is replaced by a wrapper under every name that refers to it in any logcave
module, because modules import each other's functions by name.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are folded into per-name and per-(parent, name) totals as they
close, so memory stays flat however many calls a scan makes; a span's self
time is its duration minus the time its child spans cover.

    PYTHONPATH=src python3 perfbench/traced_run.py --workload skew-midpoint --seed 1 \\
        --workdir /tmp/w --out trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import defaultdict

import bodies_work
import run as bench

from logcave import bodies, cli, concavity, geometry, lr, partitions, symfunc

# span name -> (module, function); generator functions are timed per next()
SPANS = {
    "partitions.partitions_of": (partitions, "partitions_of"),
    "symfunc.kostka_table": (symfunc, "kostka_table"),
    "symfunc.monomial_product_row": (symfunc, "monomial_product_row"),
    "symfunc.multiply": (symfunc, "multiply"),
    "symfunc.to_schur_basis": (symfunc, "to_schur_basis"),
    "lr.triple_invariant": (lr, "triple_invariant"),
    "lr.lr_skew_count": (lr, "lr_skew_count"),
    "lr.tensor_product_multiplicities": (lr, "tensor_product_multiplicities"),
    "concavity.theorem1": (concavity, "theorem1_scan"),
    "concavity.slm": (concavity, "slm_scan"),
    "concavity.conj1": (concavity, "conjecture1_scan"),
    "concavity.saturation": (concavity, "saturation_scan_all"),
    "concavity.logv": (concavity, "logv_scan"),
    "concavity.alpha": (concavity, "alpha_scan"),
    "concavity.weyl": (concavity, "weyl_logconcavity_scan"),
    "concavity.restriction": (concavity, "restriction_logconcavity_scan"),
    "concavity.convolution": (concavity, "convolution_random_suite"),
    "bodies.subspace_product": (bodies, "subspace_product"),
    "bodies.body_approximation": (bodies, "body_approximation"),
    "bodies.degree_estimate": (bodies, "degree_estimate"),
    "geometry.hull_vertices": (geometry, "hull_vertices"),
    "geometry.in_convex_hull": (geometry, "in_convex_hull"),
    "geometry.hull_volume": (geometry, "hull_volume"),
}
GENERATORS = {"partitions.partitions_of"}
# the unbounded memo caches; each scan of a workload starts with them empty
LRU_CACHES = {
    "partitions.arrangement_count": partitions.arrangement_count,
    "symfunc.kostka_table": symfunc.kostka_table,
    "symfunc.monomial_product_row": symfunc.monomial_product_row,
    "lr.lr_skew_count": lr.lr_skew_count,
}
SYMFUNC_MEMOS = ("symfunc.kostka_table", "symfunc.monomial_product_row")


def cold_start() -> None:
    for fn in LRU_CACHES.values():
        fn.cache_clear()
    lr.reset_default_cache()


class Tracer:
    """Span stack plus folded totals; install() patches, uninstall() restores."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child time]
        # (parent, name) -> [calls, total s, self s]
        self.edges: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.tableaux = 0
        self.cache_calls = 0
        self.cache_hits = 0
        self.cache_entries = 0
        self._patched: list[tuple] = []

    def _close(self, frame: list, start: float) -> None:
        dt = time.perf_counter() - start
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dt
        edge = self.edges[(parent[0] if parent else None, frame[0])]
        edge[0] += 1
        edge[1] += dt
        edge[2] += dt - frame[1]

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, start)

        return wrapper

    def generator_span(self, name: str, fn):
        """Each next() on the generator is one span, so its consumer's time is not counted."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                self.stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame, start)
                yield item

        return wrapper

    def counted_tableaux(self, fn):
        def wrapper(*args, **kwargs):
            for rows in fn(*args, **kwargs):
                self.tableaux += 1
                yield rows

        return wrapper

    def counted_cache(self, fn):
        def get_or_compute(cache, key, compute):
            before = len(cache)
            value = fn(cache, key, compute)
            after = len(cache)
            self.cache_calls += 1
            self.cache_hits += after == before
            self.cache_entries = max(self.cache_entries, after)
            return value

        return get_or_compute

    def _patch_everywhere(self, original, replacement) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "logcave" or n.startswith("logcave.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            fn = getattr(module, attr)
            wrap = self.generator_span if name in GENERATORS else self.span
            self._patch_everywhere(fn, wrap(name, fn))
        self._patch_everywhere(partitions.iter_ssyt_rows, self.counted_tableaux(partitions.iter_ssyt_rows))
        original = lr.LRCache.get_or_compute
        lr.LRCache.get_or_compute = self.counted_cache(original)
        self._patched.append((lr.LRCache, "get_or_compute", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, list]:
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, own) in self.edges.items():
            acc = out[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out


class Memos:
    """lru_cache counters summed over the scans of a workload.

    cache_clear() also zeroes the counters, so each scan's figures are read
    before the next cold start; sizes are the largest any scan reached.
    """

    def __init__(self):
        self.hits = defaultdict(int)
        self.misses = defaultdict(int)
        self.size = defaultdict(int)
        self.symfunc_entries = 0

    def collect(self) -> None:
        for name, fn in LRU_CACHES.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.size[name] = max(self.size[name], info.currsize)
        entries = sum(LRU_CACHES[n].cache_info().currsize for n in SYMFUNC_MEMOS)
        self.symfunc_entries = max(self.symfunc_entries, entries)


def run_workload(workload, seed, reference, workdir, memos: Memos | None) -> dict:
    """Run every scan (or body pair) of the workload in this process, from cold caches."""
    outcome = {"attempted": 0, "failed": 0, "problems": [], "cache_lines": 0, "cache_bytes": 0}

    def count(what, problems):
        outcome["attempted"] += 1
        if problems:
            outcome["failed"] += 1
            outcome["problems"].extend(f"traced {what}: {p}" for p in problems)

    if workload == bench.BODIES:
        expected = reference["bodies"]
        for i, pair in enumerate(bodies_work.make_pairs(seed)):
            try:
                record = bodies_work.check_pair(pair)
            except Exception as exc:  # counted as a failed pair, like the untraced run
                count(f"pair {i}", [repr(exc)])
                continue
            problems = []
            if not (record["minkowski_inclusion"] and record["brunn_minkowski"]):
                problems.append("a theorem check does not hold")
            if i >= len(expected) or bodies_work.record_digest(record) != expected[i]:
                problems.append("digest differs from reference")
            count(f"pair {i}", problems)
        return outcome

    cache_dir = os.path.join(workdir, "traced_lr_cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.environ.pop("LOGCAVE_CACHE_DIR", None)
    if workload == bench.CACHED_WORKLOAD:
        os.environ["LOGCAVE_CACHE_DIR"] = cache_dir
    parser = cli.build_parser()
    for scan in bench.SCANS[workload]:
        argv = bench.scan_argv(scan, seed)
        cold_start()
        args = parser.parse_args(["verify", *argv, "--jobs", "1"])
        args.argv = argv
        report, _ = cli.run_scan(args)
        if memos is not None:
            memos.collect()
        problems = bench.report_problems(report, bench.reference_digest(reference, scan, seed))
        if workload == bench.CACHED_WORKLOAD and argv[0] == "conj1":
            path = os.path.join(cache_dir, "lr_cache.txt")
            problems += bench.cache_file_problems(path)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                outcome["cache_lines"] = data.count(b"\n")
                outcome["cache_bytes"] = len(data)
        count(bench.scan_key(argv), problems)
    os.environ.pop("LOGCAVE_CACHE_DIR", None)
    cold_start()
    return outcome


def per_layer(tracer: Tracer, memos: Memos, outcome: dict, wall_s: float, untraced_s: float) -> dict:
    totals = tracer.totals()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def self_s(span):
        return totals[span][2] if span in totals else 0.0

    def calls(span):
        return totals[span][0] if span in totals else 0

    put("partitions.iter_ssyt_rows.tableaux", tracer.tableaux, "count")
    put("partitions.partitions_of.self_s", self_s("partitions.partitions_of"), "s")
    for span in ("symfunc.kostka_table", "symfunc.monomial_product_row", "symfunc.multiply",
                 "symfunc.to_schur_basis", "lr.triple_invariant", "lr.lr_skew_count",
                 "lr.tensor_product_multiplicities", "bodies.subspace_product",
                 "bodies.body_approximation", "bodies.degree_estimate", "geometry.hull_vertices",
                 "geometry.in_convex_hull", "geometry.hull_volume"):
        put(f"{span}.self_s", self_s(span), "s")
    for span in ("lr.triple_invariant", "bodies.subspace_product", "geometry.hull_vertices",
                 "geometry.in_convex_hull"):
        put(f"{span}.calls", calls(span), "count")
    for name in LRU_CACHES:
        put(f"{name}.hits", memos.hits[name], "count")
        put(f"{name}.misses", memos.misses[name], "count")
        put(f"{name}.currsize", memos.size[name], "count")
    put("symfunc.memo_entries", memos.symfunc_entries, "count")
    put("lr.cache.entries", tracer.cache_entries, "count")
    put("lr.cache.file_lines", outcome["cache_lines"], "count")
    put("lr.cache.file_bytes", outcome["cache_bytes"], "bytes")
    ratio = tracer.cache_hits / tracer.cache_calls if tracer.cache_calls else 0.0
    put("lr.cache.hit_ratio", ratio, "ratio")
    for scanner in bench.SCANNERS:
        put(f"concavity.{scanner}.self_s", self_s(f"concavity.{scanner}"), "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_s, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    reference = bench.load_reference()

    t0 = time.perf_counter()
    untraced = run_workload(args.workload, args.seed, reference, args.workdir, None)
    untraced_s = time.perf_counter() - t0

    tracer = Tracer()
    memos = Memos()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run_workload(args.workload, args.seed, reference, args.workdir, memos)
        wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    spans = [
        {"parent": parent, "name": name, "calls": c, "total_s": round(total, 6), "self_s": round(own, 6)}
        for (parent, name), (c, total, own) in sorted(tracer.edges.items(), key=lambda kv: -kv[1][1])
    ]
    doc = {
        "metrics": per_layer(tracer, memos, traced, wall_s, untraced_s),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "problems": untraced["problems"] + traced["problems"],
        "spans": spans,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
