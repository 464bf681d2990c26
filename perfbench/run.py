"""The fracineq benchmark: three workloads, checked, timed from outside.

    python3 perfbench/run.py --workload sweep-full --seed 0 --seconds 35 --trace 0

Workloads (see README.md for why each exists):

  sweep-full   run_sweep with all seven checks; every repetition runs in
               a fresh interpreter, as a CLI user's sweep does
  oracle-grid  the criterion-02 battery: closed-form moment vs phi_oracle
  admission    check_am_convex on every corpus claim and pinned rejection

With --trace 0 the run reports the end-to-end metrics listed in
BENCHMARK.json; with --trace 1 it reports the per-layer metrics from
spans and counters recorded around each layer's public functions.  The
last line of stdout is one JSON object; the lines above it repeat each
metric by name with its unit, the failure fraction and machine notes.

Every workload is driven from this one process, which starts the
workers one at a time with BLAS/OpenMP threads pinned to 1.  Inputs are
generated here from --seed; the workers receive only those inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-full", "oracle-grid", "admission")

SETUP_REPS = 11         # fresh interpreters timed for setup_s
SWEEP_MIN_REPS = 3      # repeats for the segment medians and the rerun check
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# The stock full-check sweep (seed 0): digest of its CSV and its summary.
STOCK_SWEEP = {
    "sha256": "24061a24c2c6d834e8d739c50e06e431f0d3feb01023d9458e37c28be9626ae1",
    "rows": 5360, "held": 5360, "skipped": 3552,
}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list, timeout: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON line and wall time."""
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed("worker %s timed out after %gs" % (args[0], timeout))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed("worker %s exited %d: %s"
                          % (args[0], proc.returncode, tail))
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def machine_notes() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return ("machine: nproc=%s cpu=%r python=%s numpy=%s workers=1 at a time "
            "threads=%s" % (os.cpu_count(), cpu, platform.python_version(),
                            numpy_version,
                            ",".join("%s=1" % v for v in THREAD_VARS)))


# --- workloads -----------------------------------------------------------------

def measure_setup(job_path: Path, notes: list) -> float:
    run_child(["setup", job_path], CHILD_TIMEOUT_S)  # fills the bytecode cache
    times = [run_child(["setup", job_path], CHILD_TIMEOUT_S)[0]["setup_s"]
             for _ in range(SETUP_REPS)]
    notes.append("setup_s: median of %d fresh interpreters (import fracineq, "
                 "corpus, config parse)" % SETUP_REPS)
    return statistics.median(times)


def sweep_full(job_path: Path, work: Path, seed: int, seconds: int,
               trace: bool, notes: list) -> dict:
    """Fresh-interpreter sweeps until `seconds` have passed."""
    reps, crashed = [], []
    t_start = time.perf_counter()
    while True:
        i = len(reps) + len(crashed)
        traced = trace and i % 2 == 1   # a trace run alternates
        csv_path = work / ("sweep-%d.csv" % i)
        try:
            out, wall = run_child(["sweep", job_path, csv_path,
                                   int(traced)], CHILD_TIMEOUT_S)
            out["process_wall_s"] = wall
            out["traced"] = traced
            reps.append(out)
        except ChildFailed as exc:
            crashed.append(str(exc))
        csv_path.unlink(missing_ok=True)
        n_traced = sum(r["traced"] for r in reps)
        enough = (n_traced >= tracer.MIN_PASSES if trace
                  else len(reps) + len(crashed) >= SWEEP_MIN_REPS)
        if crashed and not reps and len(crashed) >= SWEEP_MIN_REPS:
            break
        if enough and time.perf_counter() - t_start >= seconds:
            break

    expected = STOCK_SWEEP if seed == 0 else None
    reference = reps[0] if reps else None
    fails, attempted, failed = [], 0, 0
    for r in reps:
        problems = []
        if r["sha256"] != reference["sha256"]:
            problems.append("rerun not byte-identical")
        if expected is not None:
            for key in ("sha256", "rows", "held", "skipped"):
                if r[key] != expected[key]:
                    problems.append("%s=%s, stock %s"
                                    % (key, r[key], expected[key]))
        attempted += r["rows"]
        if problems:
            failed += r["rows"]
            fails.extend(problems)
        else:
            failed += r["rows"] - r["held"]
            if r["held"] != r["rows"]:
                fails.append("%d rows fail their gate" % (r["rows"] - r["held"]))
    rows_each = reference["rows"] if reference else STOCK_SWEEP["rows"]
    attempted += rows_each * len(crashed)
    failed += rows_each * len(crashed)
    fails.extend(crashed)

    plain = [r for r in reps if not r["traced"]]
    result = {"attempted": attempted, "failed": failed, "fails": fails}
    if plain:
        sweep_s = typical_sweep_s(plain)
        # the rest of the command: interpreter start, set-up, digest, exit
        rest_s = statistics.median(r["process_wall_s"] - r["wall_s"]
                                   for r in plain)
        # one distinct op, the sweep command: its p50 and p99 are one time
        op_ms = (sweep_s + rest_s) * 1e3
        result.update({
            "ops_per_s": rows_each / sweep_s,
            "op_p50_ms": op_ms, "op_p99_ms": op_ms,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        })
        notes.append(
            "sweep-full: %d sweeps of %d rows, each in a fresh interpreter; "
            "run_sweep time = sum over its %d segments (cut at each "
            "harness.residual call) of the segment's median time; "
            "ops_per_s = rows / that; op latency = that + median rest of the "
            "sweep command (best sweep: %.1f rows/s, %.0f ms)"
            % (len(plain), rows_each, len(plain[0]["segments_s"]),
               max(r["rows"] / r["wall_s"] for r in plain),
               min(r["process_wall_s"] for r in plain) * 1e3))
        if reference is not None:
            notes.append("sweep-full: rows=%d held=%d skipped=%d sha256=%s"
                         % (reference["rows"], reference["held"],
                            reference["skipped"], reference["sha256"]))
    traced_reps = [r for r in reps if r["traced"]]
    if traced_reps:
        result["counters"] = [r["counters"] for r in traced_reps]
        result["times"] = [r["times"] for r in traced_reps]
        result["untraced_walls"] = [r["wall_s"] for r in plain]
        result["traced_walls"] = [r["wall_s"] for r in traced_reps]
    return result


def typical_sweep_s(sweeps: list) -> float:
    """run_sweep time as the sum of each segment's median over the sweeps.

    The host's speed changes within a sweep; this sum varied less from
    run to run than the median whole sweep or the sum of segment bests
    (see README.md)."""
    segments = zip(*(r["segments_s"] for r in sweeps), strict=True)
    return sum(statistics.median(seg) for seg in segments)


def loop_workload(job_path: Path, workload: str, seconds: int, trace: bool,
                  notes: list) -> dict:
    """oracle-grid and admission: one worker loops over the ops."""
    try:
        out, _ = run_child(["loop", job_path, int(trace)],
                           seconds + CHILD_TIMEOUT_S)
    except ChildFailed as exc:
        n = len(json.loads(job_path.read_text())["ops"])
        return {"attempted": n, "failed": n, "fails": [str(exc)]}
    result = {key: out[key] for key in ("attempted", "failed", "ops_per_s",
                                        "op_p50_ms", "op_p99_ms",
                                        "peak_rss_mb")}
    result["fails"] = out["fail_msgs"]
    notes.append("%s: median of %d passes per op over n=%d distinct ops; "
                 "ops_per_s = n / sum of median latencies; p99 by nearest "
                 "rank (best of each op: %.1f ops/s)"
                 % (workload, out["passes"], out["n_ops"],
                    out["best_ops_per_s"]))
    if trace:
        for key in ("counters", "times", "untraced_walls", "traced_walls"):
            result[key] = out[key]
    return result


# --- reporting -------------------------------------------------------------------

def per_layer_values(result: dict, fails: list, notes: list) -> dict:
    counters = result["counters"]
    for i, c in enumerate(counters[1:], 2):
        if c != counters[0]:
            diff = sorted(k for k in c if c[k] != counters[0].get(k))
            fails.append("traced pass %d counters differ from pass 1: %s"
                         % (i, ", ".join(diff)))
    values = dict(counters[0])
    for key in result["times"][0]:
        values[key] = min(t[key] for t in result["times"])
    c = counters[0]
    notes.append(
        "ratio bases: quad.gk15_passes = %d calls + 2 x %d subdivisions; "
        "integrand_calls_per_pass = %d / %d; direct_evals_per_pair = "
        "(%d residual + %d direct_side) / %d distinct (point, fn) pairs; "
        "corollary_useful_ratio = %d rows / %d attempts"
        % (c["quad.integrate.calls"], c["quad.subdivisions"],
           c["quad.integrand_calls"], c["quad.gk15_passes"],
           c["identity.residual.calls"], c["identity.direct_side.calls"],
           c["identity.distinct_pairs"],
           round(c["bounds.corollary_useful_ratio"]
                 * c["bounds.corollary_check.calls"]),
           c["bounds.corollary_check.calls"]))
    # passes alternate, so each traced pass is paired with the untraced
    # one before it, and a slow period mostly covers both
    pairs = list(zip(result["untraced_walls"], result["traced_walls"]))
    if pairs:
        values["trace.untraced_wall_s"] = statistics.median(u for u, _ in pairs)
        values["trace.traced_wall_s"] = statistics.median(t for _, t in pairs)
        values["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    return values


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracineq" / "__init__.py").is_file():
        print("error: the fracineq package is missing (%s)" % SRC,
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_build" / "perfbench" / (
        "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "sweep.cfg"
        config_path.write_text(inputs.sweep_config_text(args.seed),
                               encoding="utf-8")
        job = {"workload": args.workload, "config_path": str(config_path),
               "seconds": args.seconds}
        if args.workload == "oracle-grid":
            job["ops"] = inputs.oracle_ops(args.seed)
        elif args.workload == "admission":
            job["ops"] = inputs.admission_ops(args.seed)
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")

        notes = []
        try:
            setup_s = None if args.trace else measure_setup(job_path, notes)
        except ChildFailed as exc:
            print("error: set-up failed: %s" % exc, file=sys.stderr)
            return 1
        if args.workload == "sweep-full":
            result = sweep_full(job_path, work, args.seed, args.seconds,
                                bool(args.trace), notes)
        else:
            result = loop_workload(job_path, args.workload, args.seconds,
                                   bool(args.trace), notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extra = []   # failed checks of the run itself, not of one op
    if not args.trace:
        values = dict(result, setup_s=setup_s)
    elif "counters" in result:
        values = per_layer_values(result, extra, notes)
    else:
        values = {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        extra.append("no value for: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    attempted = max(1, result["attempted"])
    failed = min(attempted, result["failed"] + len(extra))
    fails = result["fails"] + extra

    print("perfbench %s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print(machine_notes())
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print("%s = %.6g %s" % (name, m["value"], m["unit"]))
    print("fail_frac = %.6g (%d failed of %d attempted)"
          % (failed / attempted, failed, attempted))
    for msg in fails[:10]:
        print("FAIL: %s" % msg)
    print(json.dumps({"correct": not fails and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
