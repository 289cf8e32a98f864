"""pombox benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --selftest

A run issues the workload's queries from one caller that waits for each
verdict (a closed loop).  Every pass over the query list runs in a fresh
child process (``child.py``), so the program's caches start empty; passes
repeat until ``--seconds`` of timed work, scaled to the reference host
speed, are done.  Nine more children only
set up, so that ``setup_s`` is a median.  Every verdict is checked after the
timed phase: the first pass checks its own, and every later pass of the
same inputs must repeat them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics from a traced pass: one untraced pass, then two traced
passes whose call counts must match.  Spans go to ``.perfbench/``.  The last
line of standard output is the result as one JSON object.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("casestudy", "differential", "symmetric")
SETUP_ONLY_CHILDREN = 9
# Most of a differential pass is a handful of oracle calls of seconds each,
# too few to average out the host's changes of speed; two passes halve
# that noise.
MIN_PASSES = {"differential": 2}
# Reported times are scaled to a host that runs child.reference_kernel in
# this time (about the faster of the speeds it ran at on the 2-vCPU Intel
# Xeon virtual machine, Python 3.11, the benchmark was defined on).
REFERENCE_S = 0.0013
# every run, and so every child, must end well within 180 s
RUN_DEADLINE_S = 170.0
# the seven end-to-end metrics as printed; BENCHMARK.json bounds
# correct_ratio = 1 - error_ratio instead of error_ratio, which is 0 on a
# correct program
PRINTED = [("setup_s", "s"), ("queries_per_s", "1/s"),
           ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
           ("peak_rss_mb", "MB"), ("decided_ratio", "ratio"),
           ("error_ratio", "ratio")]


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(workload, seed, deadline, extra=()):
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    spawned = time.monotonic()
    cmd = [sys.executable, CHILD, "--workload", workload,
           "--seed", str(seed), "--spawned", repr(spawned)] + list(extra)
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline passed before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("child for %s timed out" % workload)
    if proc.returncode != 0:
        raise BenchError("child for %s failed (exit %d):\n%s" % (
            workload, proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mismatches(checked, p):
    """Verdicts of pass ``p`` that differ from those of the checked pass of
    the same inputs (a query that raised is already counted as failed)."""
    return sum(1 for a, b in zip(checked["verdicts"], p["verdicts"])
               if a != b and b is not None)


def compensated_latencies(p):
    """Each query's wall time, scaled by REFERENCE_S over the median of the
    reference-kernel times around and during it: the two that bracket it, up
    to two more on either side, and those sampled while it ran."""
    refs, during = p["refs_s"], p["during_s"]
    return [lat * REFERENCE_S /
            statistics.median(refs[max(0, i - 2):i + 4] + during[i])
            for i, lat in enumerate(p["latencies_s"])]


def compensated_setup(c):
    return c["setup_s"] * REFERENCE_S / statistics.median(c["setup_refs_s"])


def percentile(xs, q):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def run_e2e(workload, seed, seconds, smoke=False, inject=False):
    deadline = time.monotonic() + RUN_DEADLINE_S
    flags = (["--smoke"] if smoke else []) + \
        (["--inject-wrong"] if inject else [])
    setups = [spawn(workload, seed, deadline, flags + ["--setup-only"])
              for _ in range(SETUP_ONLY_CHILDREN)]
    # only the first pass checks its verdicts; later passes must repeat them
    passes = [spawn(workload, seed, deadline, flags)]
    while len(passes) < MIN_PASSES.get(workload, 1) or \
            sum(sum(compensated_latencies(p)) for p in passes) < seconds:
        p = spawn(workload, seed, deadline, flags + ["--no-check"])
        p["failed"] += mismatches(passes[0], p)
        passes.append(p)
    latencies = [x for p in passes for x in compensated_latencies(p)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    completed = attempted - sum(len(p["exceptions"]) for p in passes)
    error_ratio = failed / attempted
    values = {
        "setup_s": statistics.median(compensated_setup(c)
                                     for c in setups + passes),
        "queries_per_s": completed / sum(latencies),
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000.0 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "decided_ratio": sum(p["decided"] for p in passes) / attempted,
        "error_ratio": error_ratio,
        "correct_ratio": 1.0 - error_ratio,
    }
    raw = [x for p in passes for x in p["latencies_s"]]
    lines = ["%s seed %d: %d pass(es) of %d queries, %d setup-only "
             "children" % (workload, seed, len(passes),
                           passes[0]["attempted"], len(setups)),
             "  as measured: setup_s %.6g s, queries_per_s %.6g 1/s, "
             "latency_p50_ms %.6g ms, latency_p90_ms %.6g ms; host speed "
             "%.3g of reference" % (
                 statistics.median(c["setup_s"] for c in setups + passes),
                 completed / sum(p["timed_s"] for p in passes),
                 1000.0 * percentile(raw, 0.5), 1000.0 * percentile(raw, 0.9),
                 REFERENCE_S / statistics.median(
                     r for p in passes for r in p["refs_s"])),
             "  scaled to the reference host speed:"]
    for name, unit in PRINTED:
        extra = ""
        if name.startswith("latency_"):
            extra = "  (%d samples)" % len(latencies)
        lines.append("  %-16s %12.6g %s%s" % (name, values[name], unit,
                                              extra))
    for p in passes:
        lines.extend("  exception in %s" % e for e in p["exceptions"])
    return {"attempted": attempted, "failed": failed,
            "values": values, "lines": lines}


def run_traced(workload, seed, smoke=False):
    deadline = time.monotonic() + RUN_DEADLINE_S
    flags = ["--smoke"] if smoke else []
    os.makedirs(OUT_DIR, exist_ok=True)
    base = spawn(workload, seed, deadline, flags)
    traced = []
    for k in (1, 2):
        path = os.path.join(OUT_DIR, "spans-%s-%d.bin" % (workload, k))
        p = spawn(workload, seed, deadline,
                  flags + ["--no-check", "--trace-out", path])
        p["failed"] += mismatches(base, p)
        traced.append(p)
    values = dict(traced[0]["layers"])
    values["trace.overhead_ratio"] = \
        sum(compensated_latencies(traced[0])) / \
        sum(compensated_latencies(base)) - 1.0
    runs = [base] + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lines = ["%s seed %d: traced pass of %d queries" % (
        workload, seed, base["attempted"])]
    deterministic = traced[0]["calls"] == traced[1]["calls"]
    if not deterministic:
        lines.append("  call counts differ between two traced passes: "
                     "%r vs %r" % (traced[0]["calls"], traced[1]["calls"]))
    return {"attempted": attempted, "failed": failed, "values": values,
            "lines": lines, "deterministic": deterministic}


def result_json(res, metrics):
    correct = res["failed"] == 0 and res.get("deterministic", True)
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": res["values"][m["name"]],
                                    "unit": m["unit"]} for m in metrics}}


def run_one(spec, workload, seed, seconds, trace):
    if trace:
        res = run_traced(workload, seed)
        metrics = spec["per_layer"]
    else:
        res = run_e2e(workload, seed, seconds)
        metrics = spec["end_to_end"]
    for m in metrics:
        if m["name"] not in res["values"]:
            raise BenchError("metric %s was not measured" % m["name"])
    for line in res["lines"]:
        print(line)
    if trace:
        for m in metrics:
            print("  %-40s %14.6g %s" % (m["name"], res["values"][m["name"]],
                                         m["unit"]))
    return result_json(res, metrics)


def save(path, workload, seed, result):
    """Merge one workload's metrics into the result file at ``path``."""
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    entry = data.setdefault(workload, {"seed": seed, "metrics": {}})
    entry["seed"] = seed
    entry["metrics"].update(result["metrics"])
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def compare(spec, old_path, new_path):
    """Print per-workload, per-metric deltas between two result files."""
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print("%-13s %-40s %14s %14s %9s  %s" % (
        "workload", "metric", "old", "new", "delta", "verdict"))
    for w in sorted(set(old) & set(new)):
        om, nm = old[w]["metrics"], new[w]["metrics"]
        for name in sorted(set(om) & set(nm)):
            a, b = om[name]["value"], nm[name]["value"]
            delta = (b - a) / a if a else float("inf") if b else 0.0
            verdict = ""
            m = defs.get(name)
            if m is not None and a != b:
                worse = (b > a) == (m["better"] == "lower")
                verdict = "worse" if worse else "better"
                if worse and "bound" in m and abs(delta) > m["bound"]:
                    verdict = "WORSE beyond bound %g" % m["bound"]
            print("%-13s %-40s %14.6g %14.6g %+8.1f%%  %s" % (
                w, name, a, b, 100.0 * delta, verdict))


def selftest(spec):
    """Run each workload at smoke size: all seven metrics print with their
    units, a correct run has error_ratio 0, a wrong verdict injected into
    the benchmark's own results raises it, and the traced pass reports
    every per-layer metric with repeatable call counts."""
    ok = True
    for w in WORKLOADS:
        res = run_e2e(w, 1, 0, smoke=True)
        text = "\n".join(res["lines"])
        for name, unit in PRINTED:
            if not any(line.split()[:1] == [name] and
                       line.split()[2:3] == [unit]
                       for line in res["lines"][1:]):
                ok = False
                print("FAIL %s: %s with unit %s not printed" % (w, name,
                                                               unit))
        if res["values"]["error_ratio"] != 0:
            ok = False
            print("FAIL %s: error_ratio %g on a correct run:\n%s" % (
                w, res["values"]["error_ratio"], text))
        bad = run_e2e(w, 1, 0, smoke=True, inject=True)
        if not bad["values"]["error_ratio"] > 0:
            ok = False
            print("FAIL %s: an injected wrong verdict left error_ratio 0"
                  % w)
        traced = run_traced(w, 1, smoke=True)
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in traced["values"]]
        if missing or not traced["deterministic"] or traced["failed"]:
            ok = False
            print("FAIL %s: traced pass: missing %r, deterministic %s, "
                  "failed %d" % (w, missing, traced["deterministic"],
                                 traced["failed"]))
        print("%s %s" % ("ok  " if ok else "FAIL", w))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="merge the results into this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pombox",
                                       "__init__.py")):
        print("perfbench: no pombox sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        compare(spec, *args.compare)
        return 0
    if args.selftest:
        return 0 if selftest(spec) else 1
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    results = {}
    try:
        for w in WORKLOADS if args.all else [args.workload]:
            results[w] = run_one(spec, w, args.seed, args.seconds,
                                 args.trace)
            if args.out:
                save(args.out, w, args.seed, results[w])
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(results if args.all else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
