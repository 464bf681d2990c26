"""One benchmark step in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup <job.json>
    python3 perfbench/worker.py sweep <job.json> <csv path> <0|1 trace>
    python3 perfbench/worker.py loop <job.json> <0|1 trace>

run.py writes job.json and starts this script with the package's source
tree on PYTHONPATH.  The setup mode times the program's set-up: import,
corpus and config parse.  Tracers are installed after set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time

import tracer

_T0 = time.perf_counter()
import numpy as np  # noqa: E402

import fracineq  # noqa: E402
from fracineq import amconvex, bounds, harness  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

ORACLE_TOL = 1e-10
WARMUP_OPS = 50


def setup(job: dict):
    """The program's own set-up: returns the parsed config and the time
    spent importing the package, building the corpus and parsing."""
    t0 = time.perf_counter()
    fracineq.corpus()
    cfg = harness.parse_sweep_config(job["config_path"])
    return cfg, _IMPORT_S + time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- sweep-full ----------------------------------------------------------------

def run_sweep(job: dict, csv_path: str, traced: bool) -> dict:
    """One sweep.  Untraced, it also returns segments_s: the sweep's wall
    time cut at every call of harness.residual (one per identity row).
    The sweep is deterministic, so segment i is the same work in every
    sweep of a run, and run.py takes each segment's median time."""
    cfg, _ = setup(job)
    tr = None
    marks = []
    if traced:
        tr = tracer.Tracer()
        tr.install()
    else:
        residual = harness.residual

        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            return residual(*args, **kwargs)

        harness.residual = marked
    t0 = time.perf_counter()
    summary = harness.run_sweep(cfg, csv_path)
    t1 = time.perf_counter()
    wall = t1 - t0
    with open(csv_path, "rb") as fh:
        data = fh.read()
    out = {
        "wall_s": wall,
        "rows": summary.rows_total, "held": summary.rows_held,
        "skipped": summary.skipped,
        "sha256": hashlib.sha256(data).hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tr is None:
        edges = [t0] + marks + [t1]
        out["segments_s"] = [b - a for a, b in zip(edges, edges[1:])]
    else:
        tr.csv_bytes = len(data)
        out["counters"] = tr.counters()
        out["times"] = tr.self_times()
    return out


# --- oracle-grid and admission ------------------------------------------------

def _oracle_op(op):
    which, k, lam, alpha, p = op
    if which == 1:
        closed = bounds.phi1(k, lam)
        oracle = bounds.phi_oracle(1, k, lam)
    elif which == 2:
        closed = bounds.phi2(k, lam, alpha)
        oracle = bounds.phi_oracle(2, k, lam, alpha=alpha)
    elif which == 3:
        closed = bounds.phi3(k, lam, alpha)
        oracle = bounds.phi_oracle(3, k, lam, alpha=alpha)
    else:
        closed = bounds.phi4(k, lam, p)
        oracle = bounds.phi_oracle(4, k, lam, p=p)
    diff = abs(closed - oracle)
    if not diff <= ORACLE_TOL:
        return "phi%d kappa=%r lambda=%r: |closed - oracle| = %.3g" % (
            which, k, lam, diff)
    return None


_REJECTED = {
    "sqrt": np.sqrt,
    "square": lambda u: np.asarray(u) ** 2,
    "exp": np.exp,
    "one": lambda u: np.ones_like(np.asarray(u, dtype=float)),
}


def _admission_g(kind, name, q):
    if kind == "reject":
        return _REJECTED[name]
    ddf = fracineq.corpus_by_name()[name].fn.ddf
    return lambda u: np.abs(ddf(u)) ** q


def _admission_op(op, g):
    kind, name, alpha, m, q, width, expected = op
    report = amconvex.check_am_convex(g, alpha, m, (0.0, width))
    if report.holds != expected:
        return "%s %s alpha=%r m=%r q=%r B=%r: holds=%s, max violation %.3g" % (
            kind, name, alpha, m, q, width, report.holds,
            report.max_violation)
    return None


def _one_pass(ops, do_op, lat=None):
    """Run every op once; returns (wall seconds, failure messages).

    With a lat list, appends op i's latency to lat[i]."""
    fails = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            msg = do_op(op)
        except Exception as exc:  # any exception is a failed op
            msg = "%r: %s: %s" % (op[:5], type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        if lat is not None:
            lat[i].append(dt)
        if msg is not None:
            fails.append(msg)
    return time.perf_counter() - t_pass, fails


def run_loop(job: dict, traced: bool) -> dict:
    """Repeat the op list until job["seconds"] have passed.

    Untraced passes time every op; each op's latency is its median time
    over those passes.  A trace run alternates untraced and traced
    passes, with at least MIN_PASSES traced ones.
    """
    ops = [tuple(op) for op in job["ops"]]
    if job["workload"] == "oracle-grid":
        do_op = _oracle_op
    else:
        gs = {}
        for op in ops:
            key = (op[0], op[1], op[4])
            if key not in gs:
                gs[key] = _admission_g(*key)

        def do_op(op):
            return _admission_op(op, gs[(op[0], op[1], op[4])])

    warm = ops[:WARMUP_OPS]
    _, fails = _one_pass(warm, do_op)
    attempted = len(warm)
    lat = [[] for _ in ops]
    walls, traced_walls, counters, times = [], [], [], []
    tr = tracer.Tracer() if traced else None
    t_start = time.perf_counter()
    while True:
        # a trace run alternates untraced and traced passes
        if tr is not None and len(walls) > len(traced_walls):
            tr.reset()
            tr.install()
            wall, f = _one_pass(ops, do_op)
            tr.uninstall()
            traced_walls.append(wall)
            counters.append(tr.counters())
            times.append(tr.self_times())
        else:
            wall, f = _one_pass(ops, do_op, lat)
            walls.append(wall)
        attempted += len(ops)
        fails.extend(f)
        enough = len(counters) >= tracer.MIN_PASSES if traced else True
        if enough and time.perf_counter() - t_start >= job["seconds"]:
            break
    typical = [statistics.median(x) for x in lat]
    lat_ms = sorted(x * 1e3 for x in typical)
    out = {
        "attempted": attempted, "failed": len(fails), "fail_msgs": fails[:5],
        "passes": len(walls), "n_ops": len(ops),
        "ops_per_s": len(ops) / sum(typical),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p99_ms": lat_ms[min(len(lat_ms) - 1, int(0.99 * len(lat_ms)))],
        "best_ops_per_s": len(ops) / sum(min(x) for x in lat),
        "peak_rss_mb": peak_rss_mb(),
    }
    if traced:
        out["counters"] = counters
        out["times"] = times
        out["untraced_walls"] = walls
        out["traced_walls"] = traced_walls
    return out


def main(argv) -> int:
    mode, job_path = argv[1], argv[2]
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    if mode == "setup":
        out = {"setup_s": setup(job)[1]}
    elif mode == "sweep":
        out = run_sweep(job, argv[3], argv[4] == "1")
    elif mode == "loop":
        out = run_loop(job, argv[3] == "1")
    else:
        raise SystemExit("unknown mode %r" % (mode,))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
