#!/usr/bin/env python3
"""Repository benchmark: builds noreba-perfbench from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload cold_sweep|warm_replay
        --seed N --seconds N --trace 0|1

Run it from the repository root. The set-up runs SETUP_REPS times, then
timed passes (one process each) repeat until --seconds have passed and
at least MIN_PASSES ran. The first pass, and then one every
CHECK_EVERY_S seconds, also runs the fig06 check simulations. With --trace 1 one traced pass follows and the per-layer
metrics are printed instead of the end-to-end ones. Metric units come
from BENCHMARK.json. The last
line of standard output is the result object; the lines before it give
the run manifest, sample counts and cache-tier counts, and the full
record lands in .perfbench/results/. Exits 1 when any correctness check
fails. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import perfstats

WORKLOADS = ("cold_sweep", "warm_replay")
SETUP_REPS = 3
MIN_PASSES = 3
# Check passes are spread over the run, so the throughput they measure
# is a median over the run and not one sample of a few seconds.
CHECK_EVERY_S = 1.5
RUN_LIMIT_S = 170   # wall budget after the build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_units():
    """(end-to-end units, per-layer units) by name, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def build(target="noreba-perfbench"):
    """Configure once, then (re)build `target`; returns its path."""
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no %s beside perfbench/: run from a checkout "
                             "of the whole repository" % need)
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "--parallel", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    for sub in ("", "bench"):
        path = os.path.join(build_dir, sub, target)
        if os.path.exists(path):
            return path
    raise BenchError("the build left no %s" % target)


class Runner:
    """Starts noreba-perfbench processes under one wall-clock budget."""

    def __init__(self, binary, args, work):
        self.binary = binary
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        # Knobs the user's shell may carry must not steer the runs.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("NOREBA_")}

    def run(self, mode, workdir, extra=()):
        """Run one process; returns (record, launch time)."""
        self.count += 1
        out = os.path.join(self.work, "record-%d.json" % self.count)
        cmd = [self.binary, mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--work", workdir,
               "--out", out] + list(extra)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before %s" % mode)
        with open(os.path.join(self.work, "tables.log"), "a") as tables:
            launch = time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=tables, env=self.env,
                                      timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError("%s did not finish in time" % mode)
        if proc.returncode != 0:
            raise BenchError("%s exited with %d" % (mode, proc.returncode))
        with open(out) as f:
            record = json.load(f)
        record["process_wall_s"] = time.monotonic() - launch
        return record, launch


def source_digest():
    """sha256 over the sources the benchmark builds (git may be absent)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def check_digests(records, problems):
    """Every process must report the same CoreStats for the same job."""
    merged = {}
    for rec in records:
        for key, digest in rec["digests"].items():
            if merged.setdefault(key, digest) != digest:
                problems.append("job %s: CoreStats digest differs between "
                                "passes" % key)
    return merged


def check_seed_digests(merged, seed, sources, problems, record):
    """Compare with what earlier runs of the same sources recorded at this
    seed (other workloads included); returns how many jobs they share.
    With `record`, and when nothing differs, the jobs not yet recorded
    are added; recorded digests are never replaced."""
    ddir = os.path.join(ROOT, ".perfbench", "digests")
    os.makedirs(ddir, exist_ok=True)
    path = os.path.join(ddir, "%s-seed%d.json" % (sources, seed))
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    shared = [k for k in merged if k in known]
    for key in [k for k in shared if known[k] != merged[k]][:10]:
        problems.append("job %s: CoreStats digest differs from an earlier "
                        "run at this seed" % key)
    fresh = {k: v for k, v in merged.items() if k not in known}
    if record and fresh and len(shared) == sum(
            known[k] == merged[k] for k in shared):
        known.update(fresh)
        with open(path, "w") as f:
            json.dump(known, f)
    return len(shared)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        units = declared_units()
        binary = build()
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work_root = os.environ.get("PERFBENCH_WORK_ROOT") or os.path.join(
        ROOT, ".perfbench", "work")
    work = os.path.join(work_root, "%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, Runner(binary, args, work), work, units)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, runner, work, units):
    # Set-up: references, report bundles, and (warm_replay) the stores.
    setups = []
    for i in range(SETUP_REPS):
        setup_dir = os.path.join(work, "setup")
        shutil.rmtree(setup_dir, ignore_errors=True)
        rec, _ = runner.run("setup", setup_dir)
        setups.append(rec)

    # Timed passes, one process each, until --seconds have passed.
    passes, pre_phase = [], []
    start = time.monotonic()
    last_check = None
    i = 0
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        pass_dir = os.path.join(work, "pass-%d" % i)
        extra = ["--setup", setup_dir]
        if last_check is None or time.monotonic() - last_check >= \
                CHECK_EVERY_S:
            last_check = time.monotonic()
            extra.append("--check")
        rec, launch = runner.run("pass", pass_dir, extra)
        shutil.rmtree(pass_dir, ignore_errors=True)
        pre_phase.append(rec["phase_start_s"] - launch)
        passes.append(rec)
        i += 1

    traced = None
    if args.trace:
        traced_dir = os.path.join(work, "traced")
        traced, _ = runner.run("pass", traced_dir,
                               ["--setup", setup_dir, "--traced"])
        with open(os.path.join(traced_dir, "spans.tsv")) as f:
            spans = perfstats.parse_spans(f.read())

    # Correctness: per-operation checks in every process, and the same
    # CoreStats for the same job everywhere.
    records = setups + passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    cross = []  # checks across processes
    merged = check_digests(records, cross)
    geomeans = {}
    for key in ("noreba_speedup_geomean", "noreba_of_specbr"):
        values = {r[key] for r in records if key in r}
        if len(values) != 1:
            cross.append("%s: %d different values across passes" %
                         (key, len(values)))
        geomeans[key] = min(values) if values else 0.0
    sim_rates = [v for r in passes for v in r.get("sim_rates", [])]
    if not sim_rates:
        cross.append("no simulator throughput was measured")
    sources = source_digest()
    shared = check_seed_digests(merged, args.seed, sources, cross,
                                record=failed == 0 and not cross)
    failed += len(cross)
    problems = [p for r in records for p in r["problems"]] + cross

    walls = [w for r in passes for w in r["wall_s"]]
    cpus = [c for r in passes for c in r["cpu_s"]]
    ops = sorted(ms for r in passes for ms in r["op_ms"])
    tail = perfstats.tail_percentile(len(ops))
    if tail is None:
        raise BenchError("too few operations (%d) for a percentile" %
                         len(ops))
    e2e = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(r["process_wall_s"] for r in setups) +
        statistics.median(pre_phase),
        "job_p50_ms": perfstats.nearest_rank(ops, 50),
        "job_p95_ms": perfstats.nearest_rank(ops, tail),
        "sim_kcycles_per_cpu_s": statistics.median(sim_rates or [0.0]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "ok_share": 1.0 - failed / attempted,
    }
    e2e.update(geomeans)
    samples = {
        "wall_s": len(walls), "cpu_s": len(cpus),
        "setup_s": "%d set-ups + %d passes" % (len(setups), len(passes)),
        "job_p50_ms": len(ops),
        "job_p95_ms": "%d (p%d, %d beyond)" % (
            len(ops), tail, perfstats.samples_beyond(len(ops), tail)),
        "sim_kcycles_per_cpu_s": len(sim_rates),
        "peak_rss_mb": len(passes), "ok_share": attempted,
        "noreba_speedup_geomean": sum(
            "noreba_speedup_geomean" in r for r in passes),
        "noreba_of_specbr": sum("noreba_of_specbr" in r for r in passes),
    }
    if traced:
        metrics = perfstats.layer_metrics(
            spans, traced["counters"], traced["threads"],
            traced["wall_s"][0], traced["cpu_s"][0], e2e["wall_s"])
    else:
        metrics = e2e
    e2e_units, layer_units = units
    units = layer_units if traced else e2e_units
    bad = [k for k in metrics if not perfstats.valid_metric_name(k)]
    if bad:
        raise BenchError("invalid metric names: %s" % ", ".join(bad))
    if set(metrics) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: %s" % ", ".join(
            sorted(set(metrics) ^ set(units))))

    manifest = {k: passes[0][k] for k in (
        "build_type", "compiler", "threads", "trace_len", "store_fs")}
    manifest.update({
        "git_sha": git_sha(), "source_digest": sources,
        "nproc": os.cpu_count(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace,
    })
    caches = {"first_pass": passes[0].get("caches")}
    if traced:
        caches["traced_pass"] = traced["counters"]
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("caches " + json.dumps(caches, sort_keys=True))
    for name, value in e2e.items():
        print("%-24s %14.6g %-10s samples: %s" % (
            name, value, e2e_units[name], samples[name]))
    print("digests: %d jobs, %d also recorded by earlier runs at this seed" %
          (len(merged), shared))
    for p in problems[:20]:
        print("FAILED CHECK: " + p)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"manifest": manifest, "end_to_end": e2e,
                   "samples": samples, "caches": caches,
                   "traced_phase": traced and {
                       "wall_s": traced["wall_s"][0],
                       "cpu_s": traced["cpu_s"][0]},
                   "problems": problems, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
