"""sliceball benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify-suite --seed 7 --seconds 20
    python3 perfbench/run.py --workload sp11-canonical --seed 7 --trace 1
    python3 perfbench/run.py --workload all --seed 7

Run from a checkout: the library is imported from src/ next to this
directory.  Each workload runs in one single-threaded process as a
closed loop with one caller; BLAS/OpenMP thread counts are pinned to 1.

A run builds the workload's inputs from --seed (and, for delta-boundary,
the oracle), runs one untimed reference pass whose items it checks, then
repeats the pass for --seconds.  Every later pass must give exactly the
reference pass's results.  `attempted` and `failed` count the items of
one pass; an item fails when it raises or misses its tolerance or
oracle, and fail_share = failed / attempted.  `correct` is true when
every item was checked and every pass agreed with the reference pass.

--trace 0 reports the end-to-end metrics:
    setup_s      median over fresh interpreters of the time until
                 `import sliceball.cli` and `build_parser()` are done
    wall_s       median seconds per pass (the pass count is printed)
    peak_rss_mb  peak resident memory of this process
--trace 1 spends half of --seconds on untraced passes and half on
traced ones, and reports every per-layer metric per pass, with
trace.overhead_s = median traced pass - median untraced pass.  Spans are
written to perfbench/out/ as .npz when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"       # before numpy loads its BLAS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("verify-suite", "delta-boundary", "sp11-canonical",
                  "sample-field")
MIN_PASSES = 3
SETUP_RUNS = 11
SETUP_CODE = ("import sliceball.cli\n"
              "sliceball.cli.build_parser()\n"
              "print('ready', flush=True)\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_library():
    """Import sliceball from this checkout's src/, and nothing else."""
    if not (SRC / "sliceball" / "__init__.py").is_file():
        raise SystemExit("error: no sliceball package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import sliceball
    if Path(sliceball.__file__).resolve().parent != SRC / "sliceball":
        raise SystemExit("error: sliceball imported from %s"
                         % sliceball.__file__)


def environment(seed, workload):
    import mpmath
    import numpy
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup():
    """Median seconds from spawning a fresh interpreter to a ready CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit("error: set-up interpreter exited with %s"
                             % child.returncode)
    return statistics.median(times)


def timed_passes(workload, seconds, reference, minimum, span):
    """Repeat the pass for `seconds` (and at least `minimum` times).

    Returns the pass times, the raw results and whether every pass
    matched the reference fingerprint.
    """
    times, raws, agree = [], [], True
    deadline = time.perf_counter() + seconds
    while len(times) < minimum or time.perf_counter() < deadline:
        gc.collect()
        with span("bench.pass"):
            t0 = time.perf_counter()
            raw = workload.run_pass(span)
            times.append(time.perf_counter() - t0)
        agree &= workload.fingerprint(raw) == reference
        workload.release(raw)
        raws.append(raw)
    return times, raws, agree


def run_workload(args):
    import_library()
    import spans
    import workloads
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed, args.workload)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setup_s = None if args.trace else measure_setup()

    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT))
        first = workload.run_pass()
        reference = workload.fingerprint(first)
        failures = workload.check(first)
        workload.release(first)
    except workloads.BenchmarkError as exc:
        raise SystemExit("error: %s" % exc)
    attempted = len(failures)
    failed = sum(1 for r in failures if r)

    record = {"env": env}
    if args.trace:
        half = args.seconds / 2.0
        plain, raws, agree = timed_passes(workload, half, reference, 1,
                                          workloads.no_span)
        tracer = spans.Tracer()
        with tracer.installed():
            traced, _, traced_agree = timed_passes(workload, half, reference,
                                                   1, tracer.span)
        agree &= traced_agree
        tracer.save(OUT / ("spans-%s-seed%d.npz" % (args.workload, args.seed)))
        known = workload.layer_values(raws, failures)
        known["trace.overhead_s"] = (statistics.median(traced)
                                     - statistics.median(plain))
        values = spans.layer_metrics(tracer, len(traced), known)
        units = dict(spans.LAYER_METRICS)
        record.update(untraced_pass_s=plain, traced_pass_s=traced,
                      spans=len(tracer.span_name))
    else:
        times, _, agree = timed_passes(workload, args.seconds, reference,
                                       MIN_PASSES, workloads.no_span)
        values = {"setup_s": setup_s, "wall_s": statistics.median(times),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
        record.update(pass_s=times)

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": bool(agree), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result=result, fail_share=failed / attempted,
                  failures={i: r for i, r in enumerate(failures) if r})
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                 args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    passes = len(record.get("pass_s") or record["traced_pass_s"])
    print("%s seed %d: %d passes, failed %d of %d (fail_share %.4f), "
          "correct %s" % (args.workload, args.seed, passes, failed, attempted,
                          failed / attempted, result["correct"]))
    for reason, count in _tally(failures):
        print("  %5d x %s" % (count, reason))
    for name, m in metrics.items():
        print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)


def _tally(failures):
    # a reason reads "kind: detail"; count the failed items of each kind
    counts = {}
    for r in failures:
        if r:
            kind = r.split(":")[0]
            counts[kind] = counts.get(kind, 0) + 1
    return sorted(counts.items(), key=lambda kv: -kv[1])


def run_all(args):
    """Every workload in its own process; prints a table of all metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if done.returncode != 0 or not lines:
            raise SystemExit("error: workload %s exited with %d"
                             % (name, done.returncode))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
