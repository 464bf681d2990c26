import collections
import contextlib
import dataclasses
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracineq.amconvex
import fracineq.bounds
import fracineq.harness
import fracineq.identity
import fracineq.quad
from fracineq import (DomainError, FnTriple, Params, bound_sarikaya,
                      corpus_by_name, phi_oracle, residual)
from fracineq.harness import (CSV_COLUMNS, DEFAULT_CONFIG, SweepConfig, main,
                              parse_sweep_config, remark_comparison_table,
                              run_sweep, sanity_classical, write_remark_table)
from fracineq.identity import memoized, sweep_memo

SMALL_SWEEP_CFG = os.path.join(os.path.dirname(__file__), "data",
                               "sweep_small.cfg")
OFFGRID_SWEEP_CFG = os.path.join(os.path.dirname(__file__), "data",
                                 "sweep_offgrid.cfg")


# --- config parsing ------------------------------------------------------

def write_cfg(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return str(path)


def test_parse_repeated_keys_and_comments(tmp_path):
    cfg = parse_sweep_config(write_cfg(tmp_path, """
# comment line
a = 0
b = 1
lambda = 0       # inline comment
lambda = 0.5
kappa = 1
fn = exp
fn = cubic/6
check = identity
"""))
    assert cfg.a == (0.0,)
    assert cfg.lam == (0.0, 0.5)
    assert cfg.fns == ("exp", "cubic/6")
    assert cfg.checks == ("identity",)
    # unset keys inherit the defaults
    assert cfg.q == DEFAULT_CONFIG.q


@pytest.mark.parametrize("line,fragment", [
    ("lam = 0.5", "unknown key"),
    ("kappa", "expected key = value"),
    ("kappa = fast", "needs a number"),
    ("fn = tanh", "unknown fn"),
    ("check = sharpness", "unknown check"),
])
def test_parse_rejections(tmp_path, line, fragment):
    with pytest.raises(DomainError) as exc:
        parse_sweep_config(write_cfg(tmp_path, line + "\n"))
    assert fragment in str(exc.value)


# --- sweeps --------------------------------------------------------------

def small_config(**kw):
    base = dict(a=(0.0,), b=(1.0,), m=(1.0,), x=(0.5,), lam=(0.0, 0.5),
                kappa=(1.0,), alpha=(1.0,), q=(2.0,), fns=("exp",),
                checks=("identity", "thm211"))
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_csv_layout(tmp_path):
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(small_config(), out)
    assert summary.ok
    assert summary.rows_total == 4    # 2 lambda x 2 checks
    assert summary.rows_held == 4
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 4
    for row in rows:
        assert row["holds"] == "true"
        float(row["lhs"])  # every numeric cell must round-trip
        float(row["rhs"])
        assert row["fn"] == "exp"
    ident = [r for r in rows if r["check"] == "identity"]
    assert all(float(r["residual"]) <= 1e-10 for r in ident)


def test_sweep_reruns_are_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    run_sweep(small_config(), out1)
    run_sweep(small_config(), out2)
    with open(out1, "rb") as fh:
        blob1 = fh.read()
    with open(out2, "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2


def test_sweep_crash_keeps_the_rows_written_before_it(tmp_path,
                                                    monkeypatch):
    # rows are streamed: an exception that ends the sweep leaves the
    # header and every row produced before it, byte for byte as a clean
    # run writes them
    clean = tmp_path / "clean.csv"
    run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), str(clean))
    lines = clean.read_bytes().splitlines(keepends=True)
    sarikaya_rows = [i for i, line in enumerate(lines)
                     if line.startswith(b"sarikaya,")]
    produce = fracineq.harness._CHECKS["sarikaya"]
    calls = []

    def crashing(*args):
        calls.append(args)
        if len(calls) == 7:
            raise RuntimeError("crash")
        return produce(*args)

    monkeypatch.setitem(fracineq.harness._CHECKS, "sarikaya", crashing)
    out = tmp_path / "crashed.csv"
    with pytest.raises(RuntimeError):
        run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), str(out))
    # each sarikaya call of the small sweep writes one row, so the crash
    # comes just before the seventh sarikaya row of the clean run
    assert out.read_bytes() == b"".join(lines[:sarikaya_rows[6]])


def test_sweep_skips_inadmissible_combinations(tmp_path):
    # exp is only admitted at alpha=1, m=1; the alpha=0.5 half of this
    # grid must be skipped, not failed
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(small_config(alpha=(0.5, 1.0), checks=("thm211",)), out)
    assert summary.skipped == 2
    assert summary.rows_total == 2
    assert summary.ok


def test_sweep_phi_oracle_rows_dedupe(tmp_path):
    # the phi check has no function axis: one row per phi per distinct
    # (kappa, lambda, alpha, q), with fn="-"; listing two fns must not
    # duplicate them
    out = str(tmp_path / "rows.csv")
    cfg = small_config(fns=("exp", "cubic/6"), checks=("phi-oracle",))
    summary = run_sweep(cfg, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert summary.rows_total == len(rows) == 8  # 4 phis x 2 lambdas, not x2 fns
    assert {r["check"] for r in rows} == {"phi1", "phi2", "phi3", "phi4"}
    assert all(r["fn"] == "-" for r in rows)
    # lhs carries the closed form, rhs the oracle
    assert all(abs(float(r["lhs"]) - float(r["rhs"])) < 1e-10 for r in rows)


def test_sweep_corollary_rows_skip_inapplicable(tmp_path):
    # at lam=0.5, kappa=1, q=2 only the midpoint families apply
    out = str(tmp_path / "rows.csv")
    cfg = small_config(lam=(0.5,), checks=("corollaries",))
    summary = run_sweep(cfg, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks = {r["check"] for r in rows}
    assert checks == {"corollary:2a-b", "corollary:2b-a"}
    assert summary.ok


def test_sweep_counts_a_numerical_failure_and_goes_on(tmp_path, capsys):
    # q = 1.001 puts the Hoelder exponent past gamma's range; the q = 2
    # rows must still be written and the run must end with exit code 1
    cfg = write_cfg(tmp_path, "a=0\nb=1\nm=1\nx=0.5\nlambda=0.5\nkappa=1\n"
                              "alpha=1\nq=2\nq=1.001\nfn=exp\ncheck=thm22\n")
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(parse_sweep_config(cfg), out)
    assert summary.failed == 1 and not summary.ok
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["q"] for r in rows] == ["2"]
    err = capsys.readouterr().err
    assert "thm22" in err and "exp" in err and "q=1.001" in err
    os.remove(out)
    assert main(["sweep", "--config", cfg, "--out", out]) == 1
    assert os.path.exists(out)
    assert "failed=1" in capsys.readouterr().out


def test_sweep_counts_an_overflowing_gamma_per_row(tmp_path, capsys):
    # Gamma(200) overflows: the one-sided integrals at kappa = 200 cannot
    # be filled ahead of their rows, which then fail one by one as they
    # would without the batch; the kappa = 1 rows are still written
    cfg = write_cfg(tmp_path, "a=0\nb=1\nm=1\nx=0.5\nlambda=0.5\n"
                              "kappa=200\nkappa=1\nalpha=1\nq=2\nfn=exp\n"
                              "check=identity\ncheck=thm211\n")
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(parse_sweep_config(cfg), out)
    assert (summary.rows_total, summary.failed) == (2, 2)
    with open(out, newline="") as fh:
        assert {r["kappa"] for r in csv.DictReader(fh)} == {"1"}
    err = capsys.readouterr().err
    assert "identity failed" in err and "thm211 failed" in err


def test_sweep_builds_params_once_per_point_and_skips_invalid_ones(
        tmp_path, monkeypatch):
    # x = 1.2 lies past m b = 1: its identity and thm211 pairs are skipped
    # one by one, while sarikaya (which reads a, b, lambda and q) and the
    # phi-oracle rows of its (lambda, kappa, alpha, q) are still written
    built = []
    post_init = Params.__post_init__
    monkeypatch.setattr(Params, "__post_init__",
                        lambda self: built.append(self.x) or post_init(self))
    out = str(tmp_path / "rows.csv")
    cfg = small_config(x=(1.2, 0.5), lam=(0.5,), fns=("exp", "cubic/6"),
                       checks=("identity", "thm211", "sarikaya",
                               "phi-oracle"))
    summary = run_sweep(cfg, out)
    assert sorted(built) == [0.5, 1.2]
    assert (summary.rows_total, summary.skipped, summary.failed) == (12, 4, 0)
    with open(out, newline="") as fh:
        at_invalid = [(r["check"], r["fn"]) for r in csv.DictReader(fh)
                      if r["x"] == "1.2"]
    assert at_invalid == [("sarikaya", "exp"), ("sarikaya", "cubic/6"),
                          ("phi1", "-"), ("phi2", "-"), ("phi3", "-"),
                          ("phi4", "-")]


def test_sweep_summary_worst_tightness(tmp_path):
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(small_config(), out)
    with open(out, newline="") as fh:
        best = max(float(r["tightness"]) for r in csv.DictReader(fh))
    assert summary.worst_tightness == best <= 1.0


def test_sweep_rows_are_the_bytes_csv_writer_writes(tmp_path, monkeypatch):
    # run_sweep writes each row as one string; a stub producer's signed
    # zeros, infinities, NaN and repeated values must come out as
    # csv.writer writes the same cells
    import io
    from fracineq.harness import _fmt, _fmt_bool
    inf, nan = math.inf, math.nan
    stub_rows = [("identity", -0.0, 0.0, True, inf, nan),
                 ("identity", -inf, nan, False, 0.0, -0.0),
                 ("thm211", 0.1, 0.1, True, 0.1, 0.1),
                 ("corollary:2a-b", 1e308, 5e-324, False, -1.5, 1.0)]
    calls = []

    def stub(pt, prm, fn):
        calls.append((pt, fn.name))
        return stub_rows

    monkeypatch.setitem(fracineq.harness._CHECKS, "identity", stub)
    out = tmp_path / "rows.csv"
    cfg = small_config(checks=("identity",), fns=("exp", "cubic/6"),
                       x=(0.0, 0.5), lam=(0.0, -0.0, 0.5))
    summary = run_sweep(cfg, str(out))
    assert summary.rows_total == len(calls) * len(stub_rows) == 48
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(CSV_COLUMNS)
    for pt, name in calls:
        for which, lhs, rhs, ok, tight, res in stub_rows:
            writer.writerow([which, name, *map(_fmt, pt), _fmt(lhs), _fmt(rhs),
                             _fmt_bool(ok), _fmt(tight), _fmt(res)])
    assert out.read_bytes() == want.getvalue().encode("utf-8")


def test_no_sweep_field_needs_csv_quoting(tmp_path):
    # run_sweep writes its rows unquoted, which is right only while no
    # name it writes holds a delimiter, a quote or a line break
    from fracineq.bounds import COROLLARY_IDS
    from fracineq.harness import _SWEEP_CHECKS
    names = set(corpus_by_name()) | set(_SWEEP_CHECKS) | {"-"}
    names |= {"corollary:" + cid for cid in COROLLARY_IDS}
    names |= {"phi%d" % n for n in (1, 2, 3, 4)}
    names |= {"thm211", "thm22", "sarikaya", "remark"}
    for name in names | set(COROLLARY_IDS):
        assert not set(name) & set(',"\r\n'), name
    # every check and fn cell a sweep of all seven checks writes is one of them
    out = str(tmp_path / "rows.csv")
    run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["check"] for r in rows} | {r["fn"] for r in rows} <= names


# --- one evaluation per identity point -----------------------------------

def test_small_sweep_csv_digest_is_pinned(tmp_path):
    # the small sweep: all seven checks, two fns, q in {1, 2}, x through
    # the midpoint; its digest was taken before the sweep shared
    # evaluations across checks.  The off-grid sweep has a = 0.2, b = 0.9,
    # so |f''| at a/m and at b is not 0 or 1 and a last-bit change in a
    # right-hand-side mix moves its digest; it reaches all 14 corollaries.
    for cfg, counts, digest in (
            (SMALL_SWEEP_CFG, (250, 250, 84),
             "1b793e91997f0f587085fdb81662170268466a184bcb52c6b18328cdc3fc4893"),
            (OFFGRID_SWEEP_CFG, (8826, 8826, 5298),
             "695b118a67fa80e0f23d9bcf8a761c2e1de7b612bfd4a8ebd2b9936abfe8ab97")):
        out = str(tmp_path / "rows.csv")
        summary = run_sweep(parse_sweep_config(cfg), out)
        assert (summary.rows_total, summary.rows_held, summary.skipped) \
            == counts, cfg
        assert not summary.failed, cfg
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, cfg


def _spy(monkeypatch, module, name):
    """Count the calls of module.name by (fn, a, b, m, x, lambda, kappa)."""
    calls = collections.Counter()
    original = getattr(module, name)

    def spy(p, fn):
        calls[(fn, p.a, p.b, p.m, p.x, p.lam, p.kappa)] += 1
        return original(p, fn)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_sweep_evaluates_each_identity_point_once(tmp_path, monkeypatch):
    direct = _spy(monkeypatch, fracineq.identity, "_direct_with_budget")
    kernel = _spy(monkeypatch, fracineq.identity, "_kernel_with_budget")
    run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), str(tmp_path / "r.csv"))
    assert direct and set(direct.values()) == {1}
    assert kernel and set(kernel.values()) == {1}
    assert set(kernel) == set(direct)


def test_bounds_only_sweep_runs_no_kernel_integral(tmp_path, monkeypatch):
    direct = _spy(monkeypatch, fracineq.identity, "_direct_with_budget")
    kernel = _spy(monkeypatch, fracineq.identity, "_kernel_with_budget")
    cfg = small_config(q=(1.0, 2.0), checks=("thm211",))
    summary = run_sweep(cfg, str(tmp_path / "r.csv"))
    assert summary.rows_total == 4
    assert set(direct.values()) == {1} and len(direct) == 2
    assert not kernel


def _spy_args(monkeypatch, module, name):
    """Count the calls of module.name that return, by their arguments.

    A call that raises stores nothing in the memo, so it is not counted.
    """
    calls = collections.Counter()
    original = getattr(module, name)

    def spy(*args, **kwargs):
        value = original(*args, **kwargs)
        calls[args + tuple(sorted(kwargs.items()))] += 1
        return value

    monkeypatch.setattr(module, name, spy)
    return calls


def _spy_integrals(monkeypatch):
    """Count the integrals identity.memoized_integrals computes, by memo key.

    A key counts when the call computes and stores it: a key already in
    the memo, or one that fails, stores nothing and is not counted.
    """
    calls = collections.Counter()
    original = fracineq.identity.memoized_integrals

    def spy(keys, build, tol):
        memo = fracineq.identity._MEMO.get()
        missing = [key for key in dict.fromkeys(keys)
                   if memo is None or key not in memo]
        got = original(keys, build, tol)
        done = dict(zip(keys, got))
        for key in missing:
            if not isinstance(done[key], Exception):
                calls[key] += 1
        return got

    for module in (fracineq.identity, fracineq.bounds):
        monkeypatch.setattr(module, "memoized_integrals", spy)
    return calls


def test_sweep_computes_each_one_sided_integral_once(tmp_path, monkeypatch):
    # neither RL integral reads lambda and each kernel half reads only its
    # own anchor, so the two lambdas and the shared x-stations of the small
    # config repeat every one of them across identity points.  Every kind
    # of memoized integral is computed in a block's batch or alone, once.
    computed = _spy_integrals(monkeypatch)
    direct = _spy(monkeypatch, fracineq.identity, "_direct_with_budget")
    run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), str(tmp_path / "r.csv"))
    tags = ("rl", "kernel-half", "phi-oracle", "simpson-avg")
    assert {key[0] for key in computed} == set(tags)
    assert set(computed.values()) == {1}
    # fewer integrals than identity points is where the saving comes from,
    # on each side of x: an "rl" key is (tag, fn, x, end, kappa)
    for past_x in (True, False):
        assert 0 < sum(key[0] == "rl" and (key[3] > key[2]) == past_x
                       for key in computed) < len(direct)


def test_sweep_fills_each_block_once_with_the_identity_check(tmp_path,
                                                             monkeypatch):
    # the one-sided integrals and kernel halves of an (a, b, m, x) block
    # are filled in one identity.fill_sides call ahead of its points; a
    # sweep without the identity check reads neither and fills nothing
    cfg = parse_sweep_config(SMALL_SWEEP_CFG)
    blocks = len(cfg.a) * len(cfg.b) * len(cfg.m) * len(cfg.x)
    filled = []
    original = fracineq.harness.fill_sides
    monkeypatch.setattr(fracineq.harness, "fill_sides",
                        lambda pairs: filled.append(len(pairs))
                        or original(pairs))
    others = tuple(c for c in cfg.checks if c != "identity")
    for checks, calls in ((others, 0), (cfg.checks, blocks)):
        del filled[:]
        run_sweep(dataclasses.replace(cfg, checks=checks),
                  str(tmp_path / "r.csv"))
        assert len(filled) == calls
    assert sum(filled) > 0


def test_sweep_computes_each_classical_row_once(tmp_path, monkeypatch):
    # sarikaya and remark read only (fn, a, b, lambda, q), which the small
    # config's m and x axes repeat six times.  pow-2.25 is not admitted at
    # q = 1 or 2, and that skip is stored as well: no call rebuilds its
    # AdmissionError
    calls = collections.Counter()
    for name in ("bound_sarikaya", "remark_bound"):
        def spy(fn, a, b, lam, q, name=name,
                original=getattr(fracineq.bounds, name)):
            calls[(name, fn.name, a, b, lam, q)] += 1
            return original(fn, a, b, lam, q)

        monkeypatch.setattr(fracineq.bounds, name, spy)
    cfg = dataclasses.replace(parse_sweep_config(SMALL_SWEEP_CFG),
                              fns=("exp", "pow-2.25"),
                              checks=("sarikaya", "remark"))
    summary = run_sweep(cfg, str(tmp_path / "r.csv"))
    assert (summary.rows_total, summary.skipped) == (48, 48)
    assert len(calls) == 16 and set(calls.values()) == {1}


def test_sweep_asks_which_corollaries_apply_once_per_params(tmp_path,
                                                           monkeypatch):
    # the answer reads only the Params, so the two fns of the small config
    # share it; corollary_check itself asks only about ids that apply, so
    # every unmet answer comes from the sweep's own filter
    unmet = collections.Counter()
    corollary_unmet = fracineq.bounds.corollary_unmet

    def spy(cid, p):
        why = corollary_unmet(cid, p)
        if why is not None:
            unmet[(cid, p)] += 1
        return why

    monkeypatch.setattr(fracineq.bounds, "corollary_unmet", spy)
    summary = run_sweep(parse_sweep_config(SMALL_SWEEP_CFG),
                        str(tmp_path / "r.csv"))
    assert summary.rows_total == 250
    assert unmet and set(unmet.values()) == {1}


def test_sweep_skips_an_unadmitted_corollary_pair_on_its_first_id(
        tmp_path, monkeypatch):
    # six ids apply at this point, and exp is not admitted at m = 0.6: the
    # first id's admission skip is every id's, so no other id is tried
    raised = []
    corollary_check = fracineq.bounds.corollary_check

    def spy(cid, *args, **kw):
        try:
            return corollary_check(cid, *args, **kw)
        except Exception:
            raised.append(cid)
            raise

    monkeypatch.setattr(fracineq.bounds, "corollary_check", spy)
    cfg = write_cfg(tmp_path, "a=0\nb=1\nm=0.6\nx=0.3\n"
                              "lambda=0.3333333333333333\nkappa=1\nq=2\n"
                              "fn=exp\ncheck=corollaries\n")
    summary = run_sweep(parse_sweep_config(cfg), str(tmp_path / "r.csv"))
    assert (summary.rows_total, summary.skipped, summary.failed) == (0, 1, 0)
    assert raised == ["2a-b"]


def test_sweep_keeps_the_rows_that_computed_when_some_overflow(
        tmp_path, capsys):
    # at q = 1.001 the Hoelder exponent p = 1001 overflows gamma: the
    # thm22-based corollaries and phi4 fail, the rest must still be written
    cfg = write_cfg(tmp_path, "a=0\nb=1\nm=1\nx=0.5\nlambda=0.3333333333333333"
                              "\nkappa=1\nalpha=1\nq=1.001\nfn=exp\n"
                              "check=corollaries\ncheck=phi-oracle\n")
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(parse_sweep_config(cfg), out)
    with open(out, newline="") as fh:
        written = [r["check"] for r in csv.DictReader(fh)]
    assert written == ["corollary:2a-b", "corollary:2a-c", "corollary:2a-d",
                       "phi1", "phi2", "phi3"]
    assert summary.failed == 4 and summary.skipped == 0 and not summary.ok
    err = capsys.readouterr().err
    for which in ("corollary:2b-a", "corollary:2b-b", "corollary:2b-c",
                  "phi4"):
        assert "sweep: %s failed for fn " % which in err


def test_sweep_integrates_simpson_average_once_per_fn_interval(
        tmp_path, monkeypatch):
    # the average of f over [a, b] reads no lambda and no q
    computed = _spy_integrals(monkeypatch)
    cfg = small_config(fns=("exp", "cubic/6"), q=(1.0, 2.0),
                       checks=("sarikaya", "remark"))
    summary = run_sweep(cfg, str(tmp_path / "r.csv"))
    assert summary.rows_total == 16   # 2 fns x 2 lambdas x 2 q x 2 checks
    assert list(computed.values()) == [1, 1]      # 2 fns, one interval
    assert {key[0] for key in computed} == {"simpson-avg"}


def test_sweep_calls_phi4_once_per_distinct_argument_set(tmp_path,
                                                          monkeypatch):
    # thm211/thm22, every corollary of their family and the oracle rows all
    # read the moments, and phi4's upper branch runs an incomplete-beta
    # quadrature: each moment is computed once per distinct argument set
    moments = {name: _spy_args(monkeypatch, fracineq.bounds, name)
               for name in ("phi1", "phi2", "phi3", "phi4")}
    run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), str(tmp_path / "r.csv"))
    for name, calls in moments.items():
        assert calls and set(calls.values()) == {1}, name


def test_small_sweep_engine_rounds_are_pinned(tmp_path):
    # every integral of the sweep runs in a few lockstep batches: one per
    # block for its RL integrals and kernel halves together, one for all
    # phi oracles; the Simpson average and incomplete betas run once per
    # distinct argument set.  The serial sweep took 57 rounds; separate
    # RL and kernel-half batches per block took 15.
    start = fracineq.quad.WORK[0]
    summary = run_sweep(parse_sweep_config(SMALL_SWEEP_CFG),
                        str(tmp_path / "r.csv"))
    assert summary.rows_total == 250
    assert fracineq.quad.WORK[0] - start <= 10


def test_stock_sweep_samples_each_kernel_node_block_once(tmp_path,
                                                         monkeypatch):
    # the kernel halves of one (fn, anchor, x) share their f'' samples: a
    # node block any of them samples in a block batch costs one f'' call
    # per node.  Node by node, every row of every half, it was 171,540
    # calls; 124,290 now, lookahead rows included
    calls = collections.Counter()
    counting = {}
    kernel_pieces = fracineq.identity._kernel_pieces

    def spy(fn, *args):
        if fn not in counting:
            def ddf(u, name=fn.name, inner=fn.ddf):
                calls[name] += 1
                return inner(u)

            counting[fn] = FnTriple(f=fn.f, df=fn.df, ddf=ddf, name=fn.name)
        return kernel_pieces(counting[fn], *args)

    monkeypatch.setattr(fracineq.identity, "_kernel_pieces", spy)
    summary = run_sweep(DEFAULT_CONFIG, str(tmp_path / "r.csv"))
    assert summary.rows_total == 1440 and summary.ok
    assert set(calls) == set(DEFAULT_CONFIG.fns)
    assert sum(calls.values()) <= 130_000, calls


def test_memo_never_shares_entries_between_same_named_fns():
    exp = corpus_by_name()["exp"].fn
    twin = FnTriple(f=lambda u: 2.0 * np.exp(u), df=lambda u: 2.0 * np.exp(u),
                    ddf=lambda u: 2.0 * np.exp(u), name="exp")
    p = Params(a=0.0, b=1.0, m=1.0, x=0.25, lam=0.5, kappa=1.0)
    with sweep_memo():
        first = residual(p, exp)
        second = residual(p, twin)
        assert second.lhs == pytest.approx(2.0 * first.lhs, rel=1e-12)
        assert second.rhs == pytest.approx(2.0 * first.rhs, rel=1e-12)
        lhs = [bound_sarikaya(fn, 0.0, 1.0, 0.5, 1.0).lhs for fn in (exp, twin)]
        assert lhs[1] == pytest.approx(2.0 * lhs[0], rel=1e-9)


def test_nothing_is_cached_outside_a_sweep(tmp_path, monkeypatch):
    # the CLI, perfbench and library callers call the public functions with
    # no sweep open: each call computes afresh.  run_sweep closes its memo
    # when it returns and when a producer's own error goes up through it
    def oracle_rounds():
        start = fracineq.quad.WORK[0]
        phi_oracle(4, 1.0, 0.2, p=2.0)
        return fracineq.quad.WORK[0] - start

    def computes_afresh():
        calls = []
        for _ in range(2):
            memoized(("probe",), lambda: calls.append(0))
        return len(calls) == 2

    first, second = oracle_rounds(), oracle_rounds()
    assert first > 0 and second == first
    assert computes_afresh()
    assert run_sweep(small_config(), str(tmp_path / "r.csv")).ok
    assert computes_afresh()
    inside = []

    def broken(pt, prm, fn):
        inside.append(computes_afresh())
        raise RuntimeError("a producer's own bug")

    monkeypatch.setitem(fracineq.harness._CHECKS, "identity", broken)
    with pytest.raises(RuntimeError, match="own bug"):
        run_sweep(small_config(), str(tmp_path / "r.csv"))
    assert inside == [False] and computes_afresh()


def test_fn_triples_are_identity_keyed(monkeypatch):
    # equal fields do not make two triples one function: each takes its
    # own memo and admission-cache entries
    exp = corpus_by_name()["exp"].fn
    one, two = (FnTriple(f=exp.f, df=exp.df, ddf=exp.ddf, name="exp")
                for _ in range(2))
    assert one != two and one == one
    monkeypatch.setattr(fracineq.amconvex, "_ADMISSION_CACHE", {})
    p = Params(a=0.0, b=1.0, m=1.0, x=0.25, lam=0.5, kappa=1.0)
    with sweep_memo() as memo:
        assert residual(p, one) == residual(p, two)
    keys = [[key for key in memo if fn in key] for fn in (one, two)]
    assert keys[0] and len(keys[0]) == len(keys[1])
    assert not set(keys[0]) & set(keys[1])
    for fn in (one, two):
        fracineq.amconvex.is_admitted(fn, 1.0, 1.0, 1.0, 1.0)
    assert [key[0] for key in fracineq.amconvex._ADMISSION_CACHE] \
        == [one, two]


# --- classical sanity suite ----------------------------------------------

def test_sanity_classical_all_pass():
    report = sanity_classical()
    assert report.ok
    names = [c.name for c in report.checks]
    assert sum("hermite-hadamard" in n for n in names) == 6
    assert any("simpson" in n for n in names)
    assert any("affine" in n for n in names)


# --- remark comparison table ---------------------------------------------

def test_remark_table_shape_and_validity():
    rows = remark_comparison_table()
    assert len(rows) == 66  # 11 lambda x 3 q x 2 fns
    for r in rows:
        assert r["remark_holds"] == "true"
        assert r["sarikaya_holds"] == "true"
        assert float(r["lhs"]) <= float(r["remark_rhs"]) + 1e-9
    fns = {r["fn"] for r in rows}
    assert fns == {"exp", "quart/12"}


def test_remark_table_reuses_cached_admissions(monkeypatch):
    # the corpus is built once, so a second table finds every admission
    # in the cache and runs no grid check
    remark_comparison_table()
    checks = []
    check = fracineq.amconvex.check_am_convex
    monkeypatch.setattr(fracineq.amconvex, "check_am_convex",
                        lambda *a, **kw: checks.append(a) or check(*a, **kw))
    remark_comparison_table()
    assert checks == []


def test_remark_table_reports_not_asserts_the_comparison(tmp_path):
    out = str(tmp_path / "remark.csv")
    rows = write_remark_table(out)
    assert rows == remark_comparison_table()
    # the comparison column exists and is measured...
    assert {r["remark_leq_sarikaya"] for r in rows} <= {"true", "false"}
    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 66
    assert "remark_leq_sarikaya" in parsed[0]


# --- CLI -----------------------------------------------------------------

def test_cli_phi_and_oracle(capsys):
    assert main(["phi", "1", "--kappa", "1", "--lambda", "0.3333333333333333"]) == 0
    out = capsys.readouterr().out
    assert "0.0987654320987654" in out
    assert main(["phi", "4", "--kappa", "2", "--lambda", "0.2", "--p", "1.5",
                 "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out


def test_cli_phi4_truncated_series_exits_1_without_a_traceback():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        fracineq.harness.__file__)))
    for args in (
            # the middle branch's 2F1 series near z = 1 leaves a tail
            # estimate of about 10 here; phi4 raises ConvergenceError
            # rather than return it
            "phi 4 --kappa 8 --lambda 1e-12 --p 1.01",
            # the oracle's integrand overflows: numpy's warnings stay off
            # stderr
            "phi 4 --kappa 1 --lambda 1 --p 1e308 --oracle",
            # gamma(142.24) is past float64: phi4 raises, not reads 0.0
            "phi 4 --kappa 1 --lambda 0.5 --p 70.12 --oracle",
            # gamma(142.5)'s power itself overflows: the message names gamma
            "phi 4 --kappa 1 --lambda 0.5 --p 141.5"):
        out = subprocess.run(
            [sys.executable, "-m", "fracineq.harness"] + args.split(),
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert out.returncode == 1, args
        assert out.stderr.startswith("numerical failure: "), args
        assert out.stderr.count("\n") == 1 and out.stderr.endswith("\n")
        assert "Traceback" not in out.stderr and out.stdout == "", args
    # the last command's line names gamma and its argument
    assert out.stderr == "numerical failure: gamma(142.5) overflows float64\n"


_EDGE_VALUES = ("0", "5e-324", "1e-3", "0.5", "1", "2", "70.12", "1e308",
                "-1", "inf", "nan")


def test_cli_edge_values_exit_with_a_code_and_at_most_one_stderr_line():
    # every numeric flag at an edge value, an optional one maybe left out:
    # main returns 0, 1 or 2, raises nothing, records no warning and writes
    # at most one line to stderr (README's exit-status promise)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    value = st.sampled_from(_EDGE_VALUES)

    def flag(name, optional=True):
        given = value.map(lambda v: ["%s=%s" % (name, v)])
        return st.one_of(st.just([]), given) if optional else given

    def argv(*parts):
        return st.tuples(*parts).map(lambda got: sum(got, []))

    phi = argv(st.sampled_from([["phi", w] + o for w in "1234"
                                for o in ([], ["--oracle"])]),
               flag("--kappa", False), flag("--lambda", False),
               flag("--alpha"), flag("--p"))
    point = argv(st.sampled_from([["identity-check"]] + [
                     ["bound-check", "--thm", thm] for thm in
                     ("211", "22", "sarikaya", "remark", "corollary:2b-a")]),
                 st.sampled_from(sorted(corpus_by_name())).map(
                     lambda name: ["--fn", name]),
                 *[flag(f) for f in ("--a", "--b", "--m", "--x", "--lambda",
                                     "--kappa", "--alpha", "--q")])

    @hyp.settings(max_examples=300, derandomize=True, deadline=None,
                  database=None)
    @hyp.example("phi 4 --kappa 1 --lambda 1 --p 1e308 --oracle".split())
    @hyp.example("bound-check --thm sarikaya --fn exp --q 1e308".split())
    @hyp.given(st.one_of(phi, point))
    def check(argv):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as seen, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc in (0, 1, 2), argv
        assert not seen, (argv, [str(w.message) for w in seen])
        assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())

    check()


def test_cli_identity_check(capsys):
    rc = main(["identity-check", "--fn", "exp", "--a", "0", "--b", "1",
               "--m", "1", "--x", "0.5", "--lambda", "0.5", "--kappa", "0.5"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_bound_check_thm_and_corollary(capsys):
    rc = main(["bound-check", "--thm", "211", "--fn", "exp", "--a", "0",
               "--b", "1", "--m", "1", "--x", "0.5", "--lambda", "0.5",
               "--kappa", "1", "--alpha", "1", "--q", "2"])
    assert rc == 0
    assert "holds     = true" in capsys.readouterr().out
    rc = main(["bound-check", "--thm", "corollary:2b-g", "--fn", "exp",
               "--a", "0", "--b", "1", "--m", "1", "--x", "0.5",
               "--lambda", "1", "--kappa", "1", "--alpha", "1", "--q", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "printed" in out and "matches" in out


@pytest.mark.parametrize("thm,extra,which", [
    ("sarikaya", [], "sarikaya"),
    ("sarikaya", ["--literal"], "sarikaya-literal"),
    ("remark", [], "remark")])
def test_cli_bound_check_classical(capsys, thm, extra, which):
    rc = main(["bound-check", "--thm", thm, "--fn", "exp", "--lambda", "0.25",
               "--q", "2"] + extra)
    assert rc == 0
    out = capsys.readouterr().out
    assert "which     = %s\n" % which in out and "holds     = true" in out


def test_cli_unknown_thm_exits_2(capsys):
    assert main(["bound-check", "--thm", "23", "--fn", "exp"]) == 2
    assert capsys.readouterr().err == "error: unknown --thm '23'\n"


def test_cli_usage_error_and_help_keep_argparse_codes(capsys):
    assert main(["phi"]) == 2
    assert "required" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: fracineq")


def test_cli_remark_table_without_out_prints_every_row(capsys):
    assert main(["remark-table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rows=66 both_bounds_hold=true remark_leq_sarikaya=66/66"
    assert len(lines) == 67
    assert all(" lambda=" in line and " sarikaya=" in line for line in lines[1:])


def test_cli_domain_errors_exit_2(capsys):
    assert main(["phi", "3", "--kappa", "1", "--lambda", "0.5"]) == 2  # no alpha
    assert main(["phi", "2", "--kappa", "1", "--lambda", "0.5"]) == 2
    assert main(["phi", "4", "--kappa", "1", "--lambda", "0.5"]) == 2  # no p
    capsys.readouterr()
    assert main(["identity-check", "--fn", "exp", "--a", "0", "--b", "1",
                 "--m", "1", "--x", "0.5", "--lambda", "2", "--kappa", "1"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    assert main(["sweep", "--config", "/nonexistent/sweep.cfg",
                 "--out", "/tmp/unused.csv"]) == 2


@pytest.mark.parametrize("case", ["config-is-dir", "config-not-utf8",
                                  "sweep-out-is-dir", "remark-out-is-dir"])
def test_cli_bad_paths_exit_2_without_a_traceback(tmp_path, capsys, case):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("a=0\nb=1\nm=1\nx=0.5\nlambda=0.5\nkappa=1\nq=2\n"
                   "fn=exp\ncheck=identity\n")
    out = str(tmp_path / "rows.csv")
    if case == "config-is-dir":
        argv = ["sweep", "--config", str(tmp_path), "--out", out]
    elif case == "config-not-utf8":
        cfg.write_bytes(b"fn = exp\n# caf\xe9\n")
        argv = ["sweep", "--config", str(cfg), "--out", out]
    elif case == "sweep-out-is-dir":
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path)]
    else:
        argv = ["remark-table", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case == "config-not-utf8":
        assert str(cfg) in err


def test_cli_sweep_bad_out_fails_before_any_quadrature(tmp_path, capsys):
    start = fracineq.quad.WORK[:]
    assert main(["sweep", "--config", SMALL_SWEEP_CFG,
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert fracineq.quad.WORK == start


def test_cli_remark_table_bad_out_fails_before_any_bound(tmp_path, capsys,
                                                         monkeypatch):
    calls = []
    remark_bound = fracineq.bounds.remark_bound
    monkeypatch.setattr(fracineq.bounds, "remark_bound",
                        lambda *a, **kw: calls.append(a) or remark_bound(*a, **kw))
    assert main(["remark-table", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_cli_admission_failure_exit_2(capsys):
    rc = main(["bound-check", "--thm", "211", "--fn", "exp", "--a", "0",
               "--b", "1", "--m", "0.6", "--x", "0.3", "--lambda", "0.5",
               "--kappa", "1", "--alpha", "1", "--q", "1"])
    assert rc == 2
    assert "convex" in capsys.readouterr().err


def test_cli_sweep_and_sanity(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("a=0\nb=1\nm=1\nx=0.5\nlambda=0.5\nkappa=1\nq=2\n"
                   "fn=exp\ncheck=identity\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert os.path.exists(out)
    stdout = capsys.readouterr().out
    assert "rows=1" in stdout
    assert main(["sanity"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_remark_table(tmp_path, capsys):
    out = tmp_path / "remark.csv"
    assert main(["remark-table", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 66


def test_cli_verification_failure_exit_1(monkeypatch, capsys):
    # the real formulas never disagree with the oracle, so fake a broken
    # closed form to exercise the nonzero exit path
    import fracineq.bounds as bounds

    monkeypatch.setattr(bounds, "phi4", lambda k, lam, p: 99.0)
    rc = main(["phi", "4", "--kappa", "1", "--lambda", "0.2", "--p", "2",
               "--oracle"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("argv", [
    "phi 4 --kappa 1 --lambda 0.3 --p 200",
    "phi 4 --kappa 1 --lambda 1 --p 2000",
    "bound-check --thm 22 --fn exp --q 1.001",
    "bound-check --thm corollary:2b-c --fn exp --q 1.001 "
    "--lambda 0.3333333333333333 --x 0.5",
])
def test_cli_overflow_near_q_one_is_a_numerical_failure(argv, capsys):
    # q near 1 puts the Hoelder exponent past gamma's range
    assert main(argv.split()) == 1
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_cli_float_formatting_roundtrips(tmp_path):
    # %.17g must reproduce doubles exactly after parsing
    out = str(tmp_path / "rows.csv")
    run_sweep(small_config(lam=(1.0 / 3.0,)), out)
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            lam = float(row["lambda"])
            assert lam == 1.0 / 3.0
