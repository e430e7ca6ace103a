"""Pure helpers of the benchmark harness: percentiles, metric names,
span self times and the per-layer metrics derived from a traced pass.

Nothing here runs a process or touches a file, so test_perfstats.py can
check every rule directly.
"""

import math
import re

# Metric names: a letter or digit, then letters, digits, '_', '.', '-';
# at most 64 characters.
_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

# Commit modes, by the suffix the traced pass gives their core spans.
MODES = ("inorder", "nonspec_ooo", "noreba", "ideal_reconv", "spec_br",
         "spec_full", "validation_buffer")

# The six CoreStats commit-stall causes.
STALL_CAUSES = ("empty", "head_branch", "head_mem", "head_exec", "fence",
                "structural")


def valid_metric_name(name):
    return isinstance(name, str) and _METRIC_NAME.fullmatch(name) is not None


def nearest_rank(sorted_values, pct):
    """The pct-th percentile of ascending values, by nearest rank."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n, pct):
    """Samples of n ranked above the pct-th percentile's nearest rank."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(n, want=95, beyond=TAIL_SAMPLES):
    """The highest whole percentile <= want, not below the median, that
    leaves at least `beyond` of n samples above its nearest rank; None
    when even the median does not."""
    for pct in range(want, 49, -1):
        if samples_beyond(n, pct) >= beyond:
            return pct
    return None


def covered(interval, others):
    """Length of [start, end) covered by the union of other intervals."""
    start, end = interval
    clipped = sorted((max(s, start), min(e, end)) for s, e in others
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Map span id -> (self wall ns, self cpu ns).

    Self wall time is the span's interval minus the part its children
    cover. Self CPU time subtracts the CPU of children on the span's own
    thread; children on other threads burn their own threads' CPU.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        wall = s["wall_end"] - s["wall_start"]
        wall -= covered((s["wall_start"], s["wall_end"]),
                        [(k["wall_start"], k["wall_end"]) for k in kids])
        cpu = s["cpu_end"] - s["cpu_start"]
        cpu -= sum(k["cpu_end"] - k["cpu_start"] for k in kids
                   if k["thread"] == s["thread"])
        out[s["id"]] = (wall, cpu)
    return out


def parse_spans(text):
    """Spans from the traced pass's tab-separated spans.tsv."""
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split("\t")
    rename = {"wall_start_ns": "wall_start", "wall_end_ns": "wall_end",
              "cpu_start_ns": "cpu_start", "cpu_end_ns": "cpu_end"}
    spans = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split("\t")))
        span = {rename.get(k, k): (v if k == "name" else int(v))
                for k, v in rec.items()}
        spans.append(span)
    return spans


def sweep_shape(spans, threads):
    """Busy worker-seconds, pool utilization and tail idle seconds.

    Operations are the children of each `sweep.dispatch` span. After
    the last operation of a dispatch starts (the queue has drained),
    every worker idles from the end of its last operation until the
    slowest one finishes the dispatch.
    """
    busy = wall = tail = 0
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    for d in spans:
        if d["name"] != "sweep.dispatch":
            continue
        ops = by_parent.get(d["id"], [])
        wall += d["wall_end"] - d["wall_start"]
        if not ops:
            continue
        busy += sum(o["wall_end"] - o["wall_start"] for o in ops)
        finish = max(o["wall_end"] for o in ops)
        drained = max(o["wall_start"] for o in ops)
        last_end = {}
        for o in ops:
            last_end[o["thread"]] = max(last_end.get(o["thread"], 0),
                                        o["wall_end"])
        idle_workers = max(0, threads - len(last_end))
        tail += sum(finish - max(drained, e) for e in last_end.values())
        tail += idle_workers * (finish - drained)
    util = busy / (wall * threads) if wall else 0.0
    return busy * 1e-9, util, tail * 1e-9


def layer_metrics(spans, counters, threads, traced_wall_s, traced_cpu_s,
                  untraced_wall_s):
    """Every per-layer metric of one traced pass, by name."""
    selfs = self_times(spans)
    wall = {}   # span name -> summed self wall seconds
    cpu = {}    # span name -> summed self CPU seconds
    calls = {}  # span name -> spans
    total = {}  # span name -> summed count
    nonzero = {}  # span name -> spans whose count is non-zero
    for s in spans:
        w, c = selfs[s["id"]]
        name = s["name"]
        wall[name] = wall.get(name, 0.0) + w * 1e-9
        cpu[name] = cpu.get(name, 0.0) + c * 1e-9
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + s["count"]
        nonzero[name] = nonzero.get(name, 0) + (1 if s["count"] else 0)

    def ratio(a, b, empty=0.0):
        return a / b if b else empty

    m = {
        "workloads.build_s": wall.get("workloads.build", 0.0),
        "compiler.pass_s": wall.get("compiler.pass", 0.0),
        "compiler.setups_inserted": total.get("compiler.pass", 0),
        "interp.setup_s": wall.get("interp.setup", 0.0),
        "interp.run_s": wall.get("interp.run", 0.0),
        "interp.minsts_per_s": ratio(total.get("interp.run", 0) / 1e6,
                                     wall.get("interp.run", 0.0)),
        "uarch.predict_s": wall.get("uarch.predict", 0.0),
    }
    core_names = ["core." + mode for mode in MODES]
    for mode, name in zip(MODES, core_names):
        m["core.self_s." + mode] = wall.get(name, 0.0)
    core_cycles = sum(total.get(n, 0) for n in core_names)
    core_cpu = sum(cpu.get(n, 0.0) for n in core_names)
    m["core.kcycles_per_cpu_s"] = ratio(core_cycles / 1e3, core_cpu)
    m["core.jobs"] = sum(calls.get(n, 0) for n in core_names)
    m["core.sim_kcycles"] = core_cycles / 1e3

    design = counters.get("design", {})
    for mode in MODES:
        d = design.get(mode, {})
        m["design.ipc." + mode] = ratio(d.get("insts", 0), d.get("cycles", 0))
    noreba = design.get("noreba", {})
    for cause in STALL_CAUSES:
        m["design.stall_%s_share.noreba" % cause] = ratio(
            noreba.get("stall_" + cause, 0), noreba.get("cycles", 0))

    publishes = calls.get("trace_store.publish", 0)
    m["trace_store.publish_s"] = wall.get("trace_store.publish", 0.0)
    m["trace_store.bytes_written"] = total.get("trace_store.publish", 0)
    m["trace_store.publish_ok_share"] = ratio(
        nonzero.get("trace_store.publish", 0), publishes, 1.0)
    m["trace_store.open_s"] = wall.get("trace_store.open", 0.0)
    m["trace_store.bytes_mapped"] = total.get("trace_store.open", 0)
    # No bundle opened means no open was wasted.
    m["trace_store.used_share"] = ratio(counters.get("bundles_opened_used", 0),
                                        counters.get("bundles_opened", 0), 1.0)

    m["result_store.load_s"] = wall.get("result_store.load", 0.0)
    m["result_store.hits"] = nonzero.get("result_store.load", 0)
    m["result_store.misses"] = (calls.get("result_store.load", 0) -
                                nonzero.get("result_store.load", 0))
    m["result_store.save_s"] = wall.get("result_store.save", 0.0)

    busy, util, tail = sweep_shape(spans, threads)
    m["sweep.busy_s"] = busy
    m["sweep.utilization"] = util
    m["sweep.tail_idle_s"] = tail
    m["sweep.retries"] = counters.get("retries", 0)
    bundle_cache = counters.get("bundle_cache", {})
    m["bundle_cache.builds"] = bundle_cache.get("builds", 0)
    m["bundle_cache.shared_builds"] = bundle_cache.get("sharedBuilds", 0)
    m["result_cache.sim_builds"] = counters.get("result_cache", {}).get(
        "simBuilds", 0)
    m["exp.report_s"] = wall.get("exp.report", 0.0)

    # CPU no span covers: the process's CPU in the traced phase minus
    # the CPU of every thread's outermost spans.
    by_id = {s["id"]: s for s in spans}
    outer_cpu = sum(
        s["cpu_end"] - s["cpu_start"] for s in spans
        if s["parent"] not in by_id or
        by_id[s["parent"]]["thread"] != s["thread"]) * 1e-9
    m["trace.unattributed_share"] = ratio(traced_cpu_s - outer_cpu,
                                          traced_cpu_s)
    m["trace.overhead_share"] = ratio(traced_wall_s - untraced_wall_s,
                                      untraced_wall_s)
    return m
