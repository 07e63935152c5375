"""One cold run of a workload: a fresh interpreter that imports the package
and sends each operation through `circulant.cli.main`, as a CLI user would.

Reads {"ops": [argv, ...], "trace": bool, "rep": int} as JSON on stdin and
writes one JSON document on stdout: the monotonic time at which
`import circulant.cli` returned, each operation's exit code, output and
latency, the wall time of the whole operation loop, and peak RSS. With
"trace" set, layer wrappers are installed after the import and their spans
and counters are returned too.
"""

import time

import circulant.cli

# set-up ends here; everything below is imported after it on purpose
READY = time.monotonic()

import contextlib
import io
import json
import sys

from circulant import coeff_engine


def run_op(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = circulant.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the op counts as failed; the loop goes on
        rc, error = None, "%s: %s" % (type(exc).__name__, exc)
    t1 = time.perf_counter()
    return t0, t1, {"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                    "error": error, "latency_s": t1 - t0}


def peak_rss_kb():
    """High-water RSS of this process since exec.

    getrusage's ru_maxrss would do, but Linux carries it over from the
    parent through fork and exec, so it reports the benchmark's own peak
    whenever that is larger.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def partition_sum_cache():
    """(hits, misses) of the engine's partition-sum LRU; (0, 0) once it is gone."""
    cached = getattr(coeff_engine, "_partition_sum_dedup", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def main():
    spec = json.load(sys.stdin)
    tracer = None
    if spec["trace"]:
        import layers
        tracer = layers.Tracer(spec["rep"])
        tracer.install()
    cache_before = partition_sum_cache()
    results = []
    first = last = None
    for i, argv in enumerate(spec["ops"]):
        if tracer:
            tracer.op = i
        t0, t1, res = run_op(argv)
        first = t0 if first is None else first
        last = t1
        results.append(res)
    cache_after = partition_sum_cache()
    doc = {
        "ready": READY,
        "solve_s": last - first,
        "peak_rss_mb": peak_rss_kb() / 1024.0,
        "ops": results,
    }
    if tracer:
        doc["trace"] = tracer.report()
        doc["trace"]["counts"]["coeff_engine.partition_sum_cache.hits"] = (
            cache_after[0] - cache_before[0])
        doc["trace"]["counts"]["coeff_engine.partition_sum_cache.misses"] = (
            cache_after[1] - cache_before[1])
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
