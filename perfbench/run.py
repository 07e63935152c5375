"""Cold-process benchmark of the circulant CLI.

    python3 perfbench/run.py --workload expand|coeff|orbits|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
Each rep of a workload is one fresh child interpreter, started only after
the previous one has exited, that imports `circulant.cli` and sends the
workload's operations through `circulant.cli.main` one after another (a
closed loop with one client). Caches are cold because nothing ran before in
that process. A new rep starts while less than `--seconds` have passed since
the first one started, so the last rep may end after it. Every output is
checked after its child has exited. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from traced
reps, which alternate with untraced reps so the tracing overhead is
measured in the same run. Spans of the traced reps go to perfbench/out/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

T0 = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170


def percentile(values, q):
    """q-th percentile (1..99), interpolated between samples, never beyond them."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(root):
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except OSError:
            pass
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "not installed"
    return {"python": platform.python_version(), "sympy": sympy,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


def run_child(root, ops, rep, trace, deadline):
    """One rep in a fresh interpreter; returns (doc or None, setup_s, error)."""
    spec = json.dumps({"ops": ops, "trace": trace, "rep": rep})
    # the child needs only to find the package; it gets no other environment
    env = {"PYTHONPATH": os.path.join(root, "src")}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=root, text=True)
    try:
        out, err = proc.communicate(spec, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, "child timed out"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        return None, None, "child exited %d: %s" % (proc.returncode, err.strip()[-500:])
    doc = json.loads(out)
    return doc, doc["ready"] - spawned, None


def run_workload(root, name, seed, seconds, trace, limit):
    import check
    import workloads

    ops = workloads.operations(name, seed)
    checker = check.Checker(seed)
    started = time.monotonic()
    # with --trace 1 each rep is an untraced child followed by a traced one
    kinds = (False, True) if trace else (False,)
    reps = {False: [], True: []}
    result = {"ops": ops, "reps": reps, "attempted": 0, "failed": 0, "failures": [],
              "paths": Counter(), "tails": Counter()}
    while True:
        for traced in kinds:
            first = not reps[False] and not reps[True]
            doc, setup, error = run_child(root, ops, len(reps[False]) + len(reps[True]),
                                          traced, min(time.monotonic() + CHILD_TIMEOUT_S, limit))
            result["attempted"] += len(ops)
            if doc is None:
                result["failed"] += len(ops)
                result["failures"].append(error)
                continue
            for argv, res in zip(ops, doc["ops"]):
                why = res["error"]
                if why is None and res["rc"] != 0:
                    why = "exit code %r: %s" % (res["rc"], res["err"].strip())
                if why is None:
                    why = checker.check(argv, res["out"])
                if why:
                    result["failed"] += 1
                    result["failures"].append("%s: %s" % (" ".join(argv), why))
                elif first:
                    out = json.loads(res["out"])
                    result["tails"].update(check.tail_lengths(argv[0], out))
                    if argv[0] == "coeff":
                        result["paths"][out["path"]] += 1
            doc["setup_s"] = setup
            reps[traced].append(doc)
        if result["failures"] or time.monotonic() - started >= seconds:
            return result


def end_to_end(reps):
    # one sample per operation: its median latency over the reps, so a slow
    # spell of the machine during one rep does not move the tail
    latencies = [statistics.median(doc["ops"][i]["latency_s"] for doc in reps)
                 for i in range(len(reps[0]["ops"]))]
    return {
        "setup_s": (statistics.median(d["setup_s"] for d in reps), "s"),
        "solve_s": (statistics.median(d["solve_s"] for d in reps), "s"),
        "op_p50_s": (percentile(latencies, 50), "s"),
        "op_p95_s": (percentile(latencies, 95), "s"),
        "peak_rss_mb": (statistics.median(d["peak_rss_mb"] for d in reps), "MB"),
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(untraced, traced):
    names = sorted({k for d in traced for k in d["trace"]["counts"]})
    # counts stay whole numbers: the lower median of an even number of reps
    out = {name: (statistics.median if name.endswith("_s") else statistics.median_low)(
        [d["trace"]["counts"][name] for d in traced]) for name in names}
    hits = out["coeff_engine.partition_sum_cache.hits"]
    lookups = hits + out["coeff_engine.partition_sum_cache.misses"]
    out["coeff_engine.partition_sum_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["trace.solve_s"] = statistics.median(d["solve_s"] for d in traced)
    out["trace.untraced_solve_s"] = statistics.median(d["solve_s"] for d in untraced)
    out["trace.overhead_s"] = out["trace.solve_s"] - out["trace.untraced_solve_s"]
    out["trace.self_sum_s"] = statistics.median(
        sum(v for k, v in d["trace"]["counts"].items() if k.endswith(".self_s"))
        for d in traced)
    return {name: (value, unit_of(name)) for name, value in out.items()}


def write_spans(root, name, seed, traced):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (name, seed))
    with open(path, "w") as f:
        for doc in traced:
            for span_name, start, end, parent, rep, op in doc["trace"]["spans"]:
                f.write(json.dumps({"name": span_name, "start": start, "end": end,
                                    "parent": parent, "run": "%d:%d" % (rep, op)}) + "\n")
    return os.path.relpath(path, root)


def report(root, name, seed, seconds, trace, prov, limit):
    result = run_workload(root, name, seed, seconds, trace, limit)
    reps = result["reps"]
    print("# workload %s seed %d: %d untraced + %d traced reps, %d ops attempted, "
          "%d failed (failed_frac %.4f)"
          % (name, seed, len(reps[False]), len(reps[True]), result["attempted"],
             result["failed"], result["failed"] / result["attempted"]))
    print("# provenance %s" % json.dumps(prov, sort_keys=True))
    mix = {"ops": dict(Counter(" ".join(argv[:2]) for argv in result["ops"])),
           "tail_length": dict(sorted(result["tails"].items())),
           "coeff_path": dict(result["paths"])}
    print("# inputs %s" % json.dumps(mix, sort_keys=True))
    for traced in (False, True):
        if reps[traced]:
            print("# %s solve_s per rep: %s" % ("traced" if traced else "untraced",
                                               " ".join("%.4f" % d["solve_s"] for d in reps[traced])))
    for line in result["failures"][:20]:
        print("# FAILED %s" % line)
    metrics = {}
    if trace and reps[False] and reps[True]:
        metrics = per_layer(reps[False], reps[True])
        print("# spans written to %s" % write_spans(root, name, seed, reps[True]))
    elif not trace and reps[False]:
        metrics = end_to_end(reps[False])
        samples = len(result["ops"])
        print("# op_p50_s and op_p95_s over %d per-operation median latencies, %d beyond p95"
              % (samples, samples - int(0.95 * samples)))
    for metric, (value, unit) in sorted(metrics.items()):
        print("%-52s %14.6g %s" % (metric, value, unit))
    return {"correct": result["failed"] == 0 and bool(metrics),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "circulant", "cli.py")):
        print("error: run from the root of a circulant checkout (no src/circulant here)",
              file=sys.stderr)
        return 2
    # the checker imports the package from here, outside every timed region,
    # which also writes its bytecode before the first child starts
    sys.path.insert(0, os.path.join(root, "src"))
    prov = provenance(root)
    if args.workload == "all":
        docs = {name: report(root, name, args.seed, args.seconds, bool(args.trace), prov,
                             time.monotonic() + RUN_LIMIT_S)
                for name in workloads.NAMES}
    else:
        docs = {args.workload: report(root, args.workload, args.seed, args.seconds,
                                      bool(args.trace), prov, T0 + RUN_LIMIT_S)}
    if len(docs) == 1:
        final = docs[args.workload]
    else:
        final = {"correct": all(d["correct"] for d in docs.values()),
                 "attempted": sum(d["attempted"] for d in docs.values()),
                 "failed": sum(d["failed"] for d in docs.values()),
                 "metrics": {"%s.%s" % (name, m): v for name, d in docs.items()
                             for m, v in d["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
