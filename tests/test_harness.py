import collections
import csv
import hashlib
import math
import os

import numpy as np
import pytest

import fracineq.amconvex
import fracineq.bounds
import fracineq.identity
from fracineq import (DomainError, FnTriple, Params, bound_sarikaya,
                      corpus_by_name, residual)
from fracineq.harness import (CSV_COLUMNS, DEFAULT_CONFIG, SweepConfig, main,
                              parse_sweep_config, remark_comparison_table,
                              run_sweep, sanity_classical, write_remark_table)

SMALL_SWEEP_CFG = os.path.join(os.path.dirname(__file__), "data",
                               "sweep_small.cfg")


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


def test_sweep_summary_worst_tightness(tmp_path):
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(small_config(), out)
    with open(out, newline="") as fh:
        best = max(float(r["tightness"]) for r in csv.DictReader(fh))
    assert summary.worst_tightness == best <= 1.0


# --- one evaluation per identity point -----------------------------------

def test_small_sweep_csv_digest_is_pinned(tmp_path):
    # all seven checks, two fns, q in {1, 2}, x through the midpoint; the
    # digest was taken before the sweep shared evaluations across checks
    out = str(tmp_path / "rows.csv")
    summary = run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), out)
    assert (summary.rows_total, summary.rows_held, summary.skipped) \
        == (250, 250, 84)
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == ("1b793e91997f0f587085fdb8166217026846"
                      "6a184bcb52c6b18328cdc3fc4893")


def _spy(monkeypatch, module, name):
    """Count the calls of module.name by (fn, a, b, m, x, lambda, kappa)."""
    calls = collections.Counter()
    original = getattr(module, name)

    def spy(p, fn, memo=None):
        calls[(fn, p.a, p.b, p.m, p.x, p.lam, p.kappa)] += 1
        return original(p, fn, memo)

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
        key = args + tuple(sorted(kwargs.items()))
        calls[tuple(v for v in key if not isinstance(v, dict))] += 1
        return value

    monkeypatch.setattr(module, name, spy)
    return calls


def test_sweep_computes_each_one_sided_integral_once(tmp_path, monkeypatch):
    # neither RL integral reads lambda and each kernel half reads only its
    # own anchor, so the two lambdas and the shared x-stations of the small
    # config repeat every one of them across identity points
    spies = {name: _spy_args(monkeypatch, fracineq.identity, name)
             for name in ("rl_left_result", "rl_right_result", "_kernel_half")}
    direct = _spy(monkeypatch, fracineq.identity, "_direct_with_budget")
    run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), str(tmp_path / "r.csv"))
    for name, calls in spies.items():
        assert calls and set(calls.values()) == {1}, name
    # fewer integrals than identity points is where the saving comes from
    assert len(spies["rl_left_result"]) < len(direct)
    assert len(spies["rl_right_result"]) < len(direct)


def test_sweep_computes_each_theorem_report_once(tmp_path, monkeypatch):
    # the thm211/thm22 rows and every corollary id at a point share one
    # report; an unadmitted point raises each time and stores nothing
    bodies = {name: _spy_args(monkeypatch, fracineq.bounds, name)
              for name in ("_thm211", "_thm22")}
    out = str(tmp_path / "r.csv")
    summary = run_sweep(parse_sweep_config(SMALL_SWEEP_CFG), out)
    assert summary.rows_total == 250
    for name, calls in bodies.items():
        assert calls and set(calls.values()) == {1}, name


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


def test_sweep_integrates_simpson_lhs_once_per_fn_interval_lambda(
        tmp_path, monkeypatch):
    lhs_integrals = []
    integrate = fracineq.bounds.integrate

    def counted(f, a, b, tol):
        lhs_integrals.append((f, a, b))
        return integrate(f, a, b, tol)

    monkeypatch.setattr(fracineq.bounds, "integrate", counted)
    cfg = small_config(fns=("exp", "cubic/6"), q=(1.0, 2.0),
                       checks=("sarikaya", "remark"))
    summary = run_sweep(cfg, str(tmp_path / "r.csv"))
    assert summary.rows_total == 16   # 2 fns x 2 lambdas x 2 q x 2 checks
    assert len(lhs_integrals) == 4    # 2 fns x 2 lambdas


def test_memo_never_shares_entries_between_same_named_fns():
    exp = corpus_by_name()["exp"].fn
    twin = FnTriple(f=lambda u: 2.0 * np.exp(u), df=lambda u: 2.0 * np.exp(u),
                    ddf=lambda u: 2.0 * np.exp(u), name="exp")
    p = Params(a=0.0, b=1.0, m=1.0, x=0.25, lam=0.5, kappa=1.0)
    memo = {}
    first = residual(p, exp, memo)
    second = residual(p, twin, memo)
    assert second.lhs == pytest.approx(2.0 * first.lhs, rel=1e-12)
    assert second.rhs == pytest.approx(2.0 * first.rhs, rel=1e-12)
    lhs = [bound_sarikaya(fn, 0.0, 1.0, 0.5, 1.0, check_admission=False,
                          memo=memo).lhs for fn in (exp, twin)]
    assert lhs[1] == pytest.approx(2.0 * lhs[0], rel=1e-9)


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
    rows = remark_comparison_table()
    # the comparison column exists and is measured...
    assert {r["remark_leq_sarikaya"] for r in rows} <= {"true", "false"}
    out = str(tmp_path / "remark.csv")
    write_remark_table(rows, out)
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
