"""Benchmark of qcrb: three seeded workloads, timed untraced or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds `src/qcrb`. Workloads (see README.md):
catalog_sweep, generic_oracle, cli_oneshot. Each is a closed loop with one
caller; BLAS is pinned to one thread here, before numpy loads, and in every
child process.

--trace 0: set up (timed; the median of this process and four fresh
set-up-only processes), then run whole rounds of ops until at least S seconds
have passed and the tail percentile has ten samples beyond it, and print the
end-to-end metrics. Op timings are ratios to the same statistics of a fixed
reference computation timed between the ops (see yardstick.py), so that
other tenants of a shared host, who slow whole stretches of a run, slow both
and cancel; the timings in seconds are kept in the details.
--trace 1: alternate an untraced and a traced pass over a fixed list of ops
until S seconds have passed (or SPAN_CAP spans are held), and print the per-layer metrics from the spans
(see tracer.py), the CLI start-up probes and the tracing overhead.

Progress lines go to stdout; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Outputs, spans and the environment record
are written under perfbench/out/.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()   # set-up clock: before numpy or qcrb loads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = {"catalog_sweep": "wl_catalog", "generic_oracle": "wl_oracle",
             "cli_oneshot": "wl_cli"}
SETUP_PROBES = 4          # fresh set-up-only processes beside this one
CLI_PROBES = 3            # samples of each CLI start-up probe
SPAN_CAP = 50_000         # a traced run stops early once it holds this many spans
TAIL_BEYOND = 10          # samples the tail percentile needs beyond it
IMPORT_PROBE = (
    "import os, sys, time, json\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import qcrb.cli\n"
    "ms = 1e3 * (time.perf_counter() - t)\n"
    "import numpy\n"
    "a = numpy.ones((256, 256)); a @ a\n"
    "print(json.dumps({'ms': ms, 'modules': len(sys.modules) - n,"
    " 'threads': len(os.listdir('/proc/self/task'))}))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny case: two ops per phase, one set-up and one probe sample")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the set-up time and exit")
    return p.parse_args(argv)


def load_workload(name, seed, workdir):
    """Import the workload (and with it qcrb), generate inputs, warm up once."""
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module(WORKLOADS[name])
    wl = mod.Workload(seed, workdir)
    _, failure = attempt(wl, wl.run, wl.round(0)[0])
    if failure:
        print(f"warm-up op failed: {failure}", file=sys.stderr)
    return wl, time.perf_counter() - T_START


def attempt(wl, run, op, recorder=None):
    """Run one op; return (seconds, None or what failed).

    The gate runs after the clock stops and outside the op's span.
    """
    scope = recorder.op(op_id=len(recorder.spans)) if recorder else contextlib.nullcontext()
    t0 = time.perf_counter()
    with scope:
        try:
            out = run(op)
        except Exception as exc:   # an op that raises is a failed op, not a crash
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, wl.check(op, out)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, failure):
        self.attempted += 1
        if failure:
            self.failures.append(failure)


def setup_samples(args, own):
    samples = [own]
    for _ in range(0 if args.smoke else SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail_rank(n, percentile):
    """Nearest rank (1-based) of `percentile` among n samples."""
    return math.ceil(percentile * n / 100.0)


def min_samples(percentile):
    """Fewest samples that leave TAIL_BEYOND of them beyond `percentile`."""
    n = 1
    while n - tail_rank(n, percentile) < TAIL_BEYOND:
        n += 1
    return n


def timed_run(args, wl, tally):
    """Whole rounds until args.seconds have passed and the workload's tail
    percentile has TAIL_BEYOND samples beyond it; end-to-end metrics.

    The workload's reference computation (yardstick.py) runs before every
    REF_EVERY-th op of a round, and each op statistic is divided by the same
    statistic of the reference: the mean by its mean, the median by its
    median, and the tail by the reference sample that has as many samples
    beyond it as the tail has ops beyond it.
    """
    pct = wl.TAIL_PERCENTILE
    needed = 0 if args.smoke else min_samples(pct)
    latencies, refs = [], []
    wl.reference()            # warm-up, untimed
    start = time.perf_counter()
    r = 0
    while True:
        ops = wl.round(r)[:2] if args.smoke else wl.round(r)
        for i, op in enumerate(ops):
            if i % wl.REF_EVERY == 0:
                t0 = time.perf_counter()
                wl.reference()
                refs.append(time.perf_counter() - t0)
            dt, failure = attempt(wl, wl.run, op)
            latencies.append(dt)
            tally.add(failure)
        r += 1
        if args.smoke or (time.perf_counter() - start >= args.seconds
                          and len(latencies) >= needed):
            break
    wall = time.perf_counter() - start
    rank = tail_rank(len(latencies), pct)
    beyond = len(latencies) - rank
    passed = tally.attempted - len(tally.failures)
    p50, tail = statistics.median(latencies), sorted(latencies)[rank - 1]
    refs.sort()
    ref_mean, ref_p50 = statistics.fmean(refs), statistics.median(refs)
    ref_tail = refs[max(len(refs) - 1 - beyond, 0)]
    rss = wl.peak_rss_mb()
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_ref": (passed * ref_mean / sum(latencies), "1/ref"),
        "op_p50_ref": (p50 / ref_p50, "ref"),
        "op_tail_ref": (tail / ref_tail, "ref"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {"rounds": r, "wall_s": wall, "tail_percentile": pct,
               "tail_samples": len(latencies), "tail_beyond": beyond,
               "ref_samples": len(refs), "ref_ms_mean": 1e3 * ref_mean,
               "ref_ms_p50": 1e3 * ref_p50, "ref_ms_tail": 1e3 * ref_tail,
               "ops_per_s": passed / wall, "op_ms_p50": 1e3 * p50, "op_ms_tail": 1e3 * tail}
    return metrics, details


def trace_run(args, wl, tally):
    """Untraced and traced passes over the same ops; per-layer metrics."""
    import tracer

    ops = wl.trace_ops()[:2] if args.smoke else wl.trace_ops()
    rec = tracer.Recorder()
    attempt(wl, wl.run_in_process, ops[0])   # in-process warm-up, untimed
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            dt, failure = attempt(wl, wl.run_in_process, op)
            plain += dt
            tally.add(failure)
        with tracer.installed(rec):
            for op in ops:
                dt, failure = attempt(wl, wl.run_in_process, op, rec)
                traced += dt
                tally.add(failure)
        passes += 1
        if (args.smoke or time.perf_counter() - start >= args.seconds
                or len(rec.spans) >= SPAN_CAP):
            break
    metrics = tracer.layer_metrics(rec.spans, passes * len(ops))
    metrics.update(cli_probes(1 if args.smoke else CLI_PROBES))
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "frac")
    rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return metrics, {"passes": passes, "ops_per_pass": len(ops), "spans": len(rec.spans)}


def cli_probes(samples):
    """Fresh-process start-up: bare interpreter, and `import qcrb.cli`."""
    import wl_cli

    env = wl_cli.child_env()
    floor, imports = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        floor.append(time.perf_counter() - t0)
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        imports.append(json.loads(done.stdout))
    if any(probe["threads"] != 1 for probe in imports):
        raise SystemExit(f"perfbench: BLAS pin failed in a child: {imports}")
    return {
        "cli.import_ms": (statistics.median(p["ms"] for p in imports), "ms"),
        "cli.modules_loaded": (imports[0]["modules"], "count"),
        "cli.python_floor_ms": (1e3 * statistics.median(floor), "ms"),
    }


def blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return "unknown"


def environment(args, load):
    """Versions, machine and pin; raises if BLAS runs more than one thread."""
    import numpy
    import scipy

    a = numpy.ones((256, 256))
    a @ a
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise SystemExit(f"perfbench: {threads} threads after a BLAS call; pin failed")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "threads_after_blas": threads,
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    load = os.getloadavg()
    if not (SRC / "qcrb" / "__init__.py").is_file():
        print(f"perfbench: no qcrb sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        wl, own_setup = load_workload(args.workload, args.seed, Path(work))
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        env = environment(args, load)
        print("# env " + json.dumps(env))
        tally = Tally()
        if args.trace:
            metrics, details = trace_run(args, wl, tally)
        else:
            samples = setup_samples(args, own_setup)
            metrics, details = timed_run(args, wl, tally)
            metrics["setup_s"] = (statistics.median(samples), "s")
            details["setup_samples"] = samples
    failed = len(tally.failures)
    details["fail_frac"] = failed / tally.attempted
    for msg in tally.failures[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} details " + json.dumps(details))
    record = {"env": env, "details": details, "failures": tally.failures,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
