"""One benchmark process: set up a workload, issue its queries one at a time
(timed), then check every verdict (untimed).  It prints one JSON line.

Between queries, and every ``SAMPLE_S`` seconds into a query (from a
SIGALRM handler), the child times a fixed reference kernel, so the parent
can follow how fast the host ran around and during each query.  Kernel time
spent inside a query is taken out of that query's latency.

The parent starts a fresh process for every pass, so the program's caches
start empty and the peak RSS belongs to that pass alone.  The parent puts
the checkout's ``src`` on PYTHONPATH; this file refuses any other pombox.

    python3 perfbench/child.py --workload NAME --seed N --spawned T
        [--setup-only] [--no-check] [--trace-out PATH] [--smoke]
        [--inject-wrong]
"""

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# how often the reference kernel is timed during a query; a query longer than
# this is scaled by the host's speed while it ran, not only around it.  The
# timer starts with each query, so a query gets the same number of samples
# on every pass unless its length is close to a multiple of SAMPLE_S.
SAMPLE_S = 0.1


def peak_rss_mb():
    """This process's peak resident set size, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_kernel(table):
    """A fixed slice of interpreter work, timed between queries to follow
    the host's speed.  It does work like the program's own (tuples,
    frozensets, a dict), then reads an 8 MB table at random, so that it
    slows down with the host both when the processor is shared and when
    its caches are.  ``table`` is the array from ``reference_table``."""
    seen = {}
    for i in range(1500):
        key = (i & 63, i % 7)
        seen[key] = frozenset((i, i + 1, key))
    x = j = 0
    for i in range(3000):
        j = (j * 1103515245 + 12345) % len(table)
        x ^= table[j]
    return len(seen) + x


def reference_table():
    """8 MB of integers for the reference kernel to read."""
    return array("q", range(1 << 20))


def time_reference(table):
    """Time the reference kernel with the garbage collector off, so that
    the kernel's short-lived objects neither start a collection of the
    program's heap nor move the program's own collections."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = time.perf_counter()
        reference_kernel(table)
        return time.perf_counter() - s
    finally:
        if enabled:
            gc.enable()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the check; the parent compares this pass's "
                    "verdicts with those of a checked pass instead")
    ap.add_argument("--trace-out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracing
        tracer = tracing.Tracer()
    import pombox
    src = os.path.join(ROOT, "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(
            pombox.__file__))) != src:
        sys.exit("perfbench: pombox was imported from %s, not from %s"
                 % (pombox.__file__, src))
    if tracer is not None:
        tracer.install(pombox)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    ready = time.monotonic()
    table = reference_table()
    # the host's speed just after set-up, by the median of three samples
    out = {"setup_s": ready - args.spawned,
           "setup_refs_s": [time_reference(table) for _ in range(3)]}
    if args.setup_only:
        print(json.dumps(out))
        return

    results = []
    latencies = []
    # refs[i] and refs[i + 1] bracket query i; during[i] holds the kernel
    # times sampled while query i ran
    refs = [out["setup_refs_s"][-1]]
    during = []
    samples = []
    in_query = False

    def sample(signum, frame):
        if in_query:
            k = time_reference(table)
            samples.append(k)
            if tracer is not None:
                tracer.offset += k

    errors = []
    signal.signal(signal.SIGALRM, sample)
    t0 = time.perf_counter()
    for i, query in enumerate(workload.queries):
        if tracer is not None:
            tracer.current_query = i
        k0 = len(samples)
        s = time.perf_counter()
        # every sample falls between s and e
        in_query = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            res = query()
        except Exception as exc:  # counted in error_ratio, run goes on
            res = None
            errors.append("query %d: %r" % (i, exc))
        signal.setitimer(signal.ITIMER_REAL, 0)
        in_query = False
        e = time.perf_counter()
        during.append(samples[k0:])
        latencies.append(e - s - sum(during[-1]))
        results.append(res)
        refs.append(time_reference(table))
    out["timed_s"] = time.perf_counter() - t0 - sum(refs[1:]) - sum(samples)
    out["refs_s"] = refs
    out["during_s"] = during
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.current_query = -1
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["calls"] = tracer.call_counts()
        tracer.write(args.trace_out)

    if args.inject_wrong:
        for i, res in enumerate(results):
            bad = None if res is None else workload.corrupt(res)
            if bad is not None:
                results[i] = bad
                break
    if args.no_check:
        out["failed"] = len(errors)
    else:
        out["failed"] = sum(workload.check(results))
    out["verdicts"] = [None if r is None else workload.verdict(r)
                       for r in results]
    out["latencies_s"] = latencies
    out["attempted"] = len(results)
    out["decided"] = sum(1 for r in results
                         if r is not None and workload.decided(r))
    out["exceptions"] = errors
    print(json.dumps(out))


if __name__ == "__main__":
    main()
