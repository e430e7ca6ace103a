#!/usr/bin/env python3
"""Check that cold_sweep issues the same simulations as the real driver.

    python3 perfbench/verify_traffic.py

Runs `noreba-bench --run all` and one cold_sweep pass, both at seed 42
(the registry default) and the benchmark's trace length, into separate
result stores. The stores are content-addressed: equal file names mean
equal result keys, and byte-identical files mean identical CoreStats.
Also checks that the pass's fig06 geomeans match the ones noreba-bench
prints. Exits 1 on any difference.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import run


def main():
    bench = run.build("noreba-bench")
    perfbench = run.build()
    work = os.path.join(run.ROOT, ".perfbench", "verify")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NOREBA_")}
    try:
        setup = os.path.join(work, "setup")
        record_path = os.path.join(work, "record.json")
        with open(os.devnull, "w") as tables:
            for mode, workdir, extra in (
                    ("setup", setup, []),
                    ("pass", os.path.join(work, "pass"), ["--setup", setup])):
                subprocess.run(
                    [perfbench, mode, "--workload", "cold_sweep", "--seed",
                     "42", "--work", workdir, "--out", record_path] + extra,
                    check=True, stdout=tables, env=env)
        with open(record_path) as f:
            record = json.load(f)
        driver_store = os.path.join(work, "driver")
        out = subprocess.run(
            [bench, "--run", "all"], check=True, capture_output=True,
            text=True,
            env=dict(env, NOREBA_TRACE_LEN=str(record["trace_len"]),
                     NOREBA_JOBS=str(record["threads"]),
                     NOREBA_TRACE_DIR=driver_store + "/traces",
                     NOREBA_RESULT_DIR=driver_store + "/results")).stdout
        return compare(out, driver_store + "/results",
                       os.path.join(work, "pass", "store", "results"),
                       record)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def compare(driver_out, driver_results, pass_results, record):
    ok = True
    a = set(os.listdir(driver_results))
    b = set(os.listdir(pass_results))
    print("result files: noreba-bench %d, cold_sweep %d, shared %d" %
          (len(a), len(b), len(a & b)))
    if a != b:
        ok = False
        print("DIFFERENT KEYS: only noreba-bench %d, only cold_sweep %d" %
              (len(a - b), len(b - a)))
    differing = 0
    for name in sorted(a & b):
        with open(os.path.join(driver_results, name), "rb") as f1, \
                open(os.path.join(pass_results, name), "rb") as f2:
            differing += f1.read() != f2.read()
    print("byte-identical results: %d of %d" % (len(a & b) - differing,
                                                len(a & b)))
    ok = ok and differing == 0

    speedup = re.search(r"Noreba geomean speedup over InO-C: ([0-9.]+)x",
                        driver_out)
    of_specbr = re.search(r"Noreba / SpeculativeBR: ([0-9.]+)%", driver_out)
    if not speedup or not of_specbr:
        print("fig06 output not found")
        return 1
    pairs = (("noreba_speedup_geomean", speedup.group(1),
              "%.3f" % record["noreba_speedup_geomean"]),
             ("noreba_of_specbr", of_specbr.group(1),
              "%.1f" % (100 * record["noreba_of_specbr"])))
    for name, printed, measured in pairs:
        print("%s: fig06 prints %s, cold_sweep measures %s" % (
            name, printed, measured))
        ok = ok and printed == measured
    print("traffic matches" if ok else "TRAFFIC DIFFERS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
