"""Command-line surface: outputs, formats, and exit codes."""

import argparse
import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

import sixvertex
from sixvertex import cli

import oracles
from conftest import rel_to


def run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_phase_disordered(capsys):
    out = run_json(capsys, ["phase", "--a", "1", "--b", "1", "--c", "1"])
    assert out["delta"] == "0.5"
    assert out["phase"] == "disordered"
    assert out["borderline"] is False


def test_phase_ferro(capsys):
    out = run_json(capsys, ["phase", "--a", "1", "--b", "2.5", "--c", "1"])
    assert out["phase"] == "ferroelectric"


def test_phase_af(capsys):
    out = run_json(capsys, ["phase", "--a", "0.3", "--b", "0.3", "--c", "1"])
    assert out["phase"] == "antiferroelectric"


def test_phase_critical_exact(capsys):
    out = run_json(capsys, ["phase", "--a", "0.5", "--b", "1.5", "--c", "1"])
    assert out["phase"] == "critical-fd"
    assert out["delta"] == "1"


def test_exact_asm(capsys):
    out = run_json(capsys, ["exact", "--n", "4", "--a", "1", "--b", "1", "--c", "1"])
    assert out["zn"] == "42"
    assert out["count"] == 42


def test_exact_dfs(capsys):
    out = run_json(
        capsys,
        ["exact", "--n", "4", "--a", "1", "--b", "1", "--c", "1", "--method", "dfs"],
    )
    assert out["method"] == "dfs"
    assert out["zn"] == "42"
    assert out["count"] == 42


def test_exact_n1(capsys):
    out = run_json(capsys, ["exact", "--n", "1", "--a", "2", "--b", "3", "--c", "5"])
    assert out["zn"] == "5"


def test_exact_transfer(capsys):
    out = run_json(
        capsys,
        ["exact", "--n", "3", "--a", "1", "--b", "1", "--c", "1", "--method", "transfer"],
    )
    assert out["zn"] == "7"
    assert "count" not in out


def test_exact_rational_cell(capsys):
    out = run_json(capsys, ["exact", "--n", "2", "--a", "0.5", "--b", "1", "--c", "1"])
    # Z_2 = a^2 c^2 + b^2 c^2 = 1/4 + 1 = 5/4, exact
    assert out["zn"] == "5/4"


def test_toda_residual_small(capsys):
    out = run_json(
        capsys,
        [
            "toda",
            "--phase", "disordered",
            "--gamma", "1.2",
            "--t", "0.4",
            "--n", "3",
            "--h", "1e-8",
            "--bits", "512",
        ],
    )
    assert mp.mpf(out["residual"]) < mp.mpf("1e-14")


def test_toda_builds_the_moments_once_per_point(capsys, monkeypatch):
    # tau_{n-1}, tau_n and tau_{n+1} at t are prefixes of one norms run on the
    # moments of order 2n; tau_n at t +- h needs order 2n - 2 at each
    orders = []
    build = sixvertex.hankel.phi_derivatives
    monkeypatch.setattr(sixvertex.hankel, "phi_derivatives",
                        lambda p, kmax, ctx=None: orders.append(kmax) or build(p, kmax, ctx))
    assert cli.run(["toda", "--phase", "disordered", "--t", "0.2", "--gamma", "1",
                    "--n", "7", "--bits", "512", "--h", "1e-10"]) == 0
    capsys.readouterr()
    assert orders == [14, 12, 12]


def test_norms_critical_fd(capsys):
    out = run_json(
        capsys, ["norms", "--phase", "critical-fd", "--alpha", "3", "--n", "1"]
    )
    assert mp.mpf(out["h"][0]) == mp.mpf("0.5")
    assert out["r"] == []


# one point of each phase, with the moment family its norms report
FAMILY_POINTS = [
    (["--phase", "disordered", "--t", "0.3", "--gamma", "1.1"], "disordered-phi"),
    (["--phase", "ferro", "--t", "2", "--gamma", "1"], "ferro-discrete"),
    (["--phase", "af", "--t", "0.3", "--gamma", "1"], "af-discrete"),
    (["--phase", "critical-fd", "--alpha", "3"], "critical-fd"),
    (["--phase", "critical-afd", "--alpha", "0.5"], "critical-afd"),
]


@pytest.mark.parametrize("point,family", FAMILY_POINTS,
                         ids=["disordered", "ferro", "af", "critical-fd", "critical-afd"])
def test_norms_names_the_family_of_each_phase(capsys, point, family):
    out = run_json(capsys, ["norms", *point, "--n", "3"])
    assert out["family"] == family


def test_norms_disordered_h0(capsys):
    out = run_json(
        capsys,
        ["norms", "--phase", "disordered", "--gamma", "1.1", "--t", "0.3", "--n", "2",
         "--bits", "512"],
    )
    with mp.workprec(300):
        g, t = mp.mpf("1.1"), mp.mpf("0.3")
        ref = mp.sin(2 * g) / (mp.sin(g + t) * mp.sin(g - t))
        assert abs(mp.mpf(out["h"][0]) - ref) / ref < mp.mpf("1e-70")
    assert len(out["r"]) == 1


def test_compare_ferro_csv(capsys):
    code = cli.run(
        [
            "compare",
            "--phase", "ferro",
            "--t", "2",
            "--gamma", "1",
            "--nmax", "6",
            "--format", "csv",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["n", "zn", "log_zn", "log_prediction", "ratio"]
    assert len(rows) == 7
    assert [r[0] for r in rows[1:]] == [str(n) for n in range(1, 7)]
    final_ratio = mp.mpf(rows[-1][4])
    assert abs(final_ratio - 1) < mp.mpf("1e-4")


def test_compare_json_matches_csv(capsys):
    args = ["compare", "--phase", "disordered", "--gamma", "1.0471975512", "--t", "0",
            "--nmax", "5"]
    json_rows = run_json(capsys, args)
    code = cli.run(args + ["--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    csv_rows = list(csv.reader(io.StringIO(captured.out)))
    header = csv_rows[0]
    for obj, row in zip(json_rows, csv_rows[1:]):
        assert [obj[k] for k in header] == row


ASM_COUNTS = [1, 2, 7, 42, 429, 7436, 218348, 10850216, 911835460, 129534272700]


def test_compare_parses_parameters_at_run_precision(tmp_path, rungs, monkeypatch):
    # At t = 0, gamma = pi/3 all three weights are sqrt(3)/2, so
    # Z_n = A_n (3/4)^(n^2/2).  nmax 48 runs far above --bits 64; gamma must
    # be parsed at no less than the guard precision of every rung that runs,
    # not at the 128 guard bits of --bits.
    parsed = []
    parse = cli._parse_real
    monkeypatch.setattr(cli, "_parse_real",
                        lambda s, name: parsed.append((name, mp.prec)) or parse(s, name))
    with mp.workdps(820):
        pi3 = mp.nstr(mp.pi / 3, 800)
    out = tmp_path / "compare.csv"
    argv = ["compare", "--phase", "disordered", "--t", "0", "--gamma", pi3,
            "--nmax", "48", "--format", "csv", "--out", str(out)]
    assert cli.run([*argv, "--bits", "64"]) == 0
    guards = [bits + 64 for bits in rungs]
    assert max(guards) > sixvertex.PrecisionContext(64).guard_bits
    assert all(prec >= max(guards) for name, prec in parsed if name == "gamma")
    # --bits 544 claims the 2^-272 this test asserts
    assert cli.run([*argv, "--bits", "544"]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    with mp.workprec(4096):
        tol = mp.mpf(2) ** -272
        for n, count in enumerate(ASM_COUNTS, start=1):
            ref = count * (mp.mpf(3) / 4) ** (mp.mpf(n * n) / 2)
            assert abs(mp.mpf(rows[n - 1][1]) - ref) / ref < tol, n


def test_norms_near_the_ferro_edge_meet_their_claim(capsys):
    # t - gamma = 1e-44: the point is parsed above every rung's guard
    # precision, so h_0 = (coth(t - gamma) - coth(t + gamma)) / 2 keeps the
    # claim although the first rung's guard carries only 235 bits
    t = "1." + "0" * 43 + "1"
    out = run_json(capsys, ["norms", "--phase", "ferro", "--t", t, "--gamma", "1", "--n", "3"])
    assert (out["claim_bits"], out["guard_bits"]) == (128, 235)
    with mp.workprec(2048):
        tt, g = mp.mpf(t), mp.mpf(1)
        ref = (mp.coth(tt - g) - mp.coth(tt + g)) / 2
        assert abs(mp.mpf(out["h"][0]) - ref) / ref < mp.mpf(2) ** -128


FLAGS = {phase: flag for flag, phase in cli._PHASE_FLAGS.items()}
PHASE_POINTS = {
    sixvertex.Phase.DISORDERED: dict(t=mp.mpf("0.3"), gamma=mp.mpf("1.1")),
    sixvertex.Phase.FERROELECTRIC: dict(t=2, gamma=1),
    sixvertex.Phase.ANTIFERROELECTRIC: dict(t=mp.mpf("0.3"), gamma=1),
    sixvertex.Phase.CRITICAL_FD: dict(alpha=3),
}


def test_fits_kappa_is_whether_the_law_has_kappa():
    # fit could read this from the law, but a fit --phase af would then build
    # the AF law (theta1 and theta1'(0)) only to throw it away; _KAPPA_LAWS
    # stays and must agree with the law
    asymptotics = sixvertex.asymptotics
    assert set(asymptotics._LAWS) == set(PHASE_POINTS)
    for phase, point in PHASE_POINTS.items():
        pred = asymptotics._predictor(sixvertex.PhaseParams(phase, **point))(8, None)
        assert (phase in asymptotics._KAPPA_LAWS) == (pred.law.kappa is not None), phase


def law_bits(law):
    """The exact value of every term of a law record (None where absent)."""
    return [getattr(v, "_mpf_", v) for v in law]


def test_compare_critical_fd_evaluates_zeta_once_per_precision(capsys, monkeypatch):
    # every n of the critical-fd law needs the same zeta(3/2), F and G
    calls = []
    zeta = sixvertex.specfun.zeta_three_halves
    monkeypatch.setattr(sixvertex.asymptotics, "zeta_three_halves",
                        lambda ctx: calls.append(ctx) or zeta(ctx))
    law = sixvertex.asymptotics._law
    law.cache_clear()
    assert cli.run(["compare", "--phase", "critical-fd", "--alpha", "3", "--nmax", "6"]) == 0
    capsys.readouterr()
    # the law is evaluated at the report context of the rung, not on the rung
    rung = next(sixvertex.contexts(sixvertex.PhaseParams(sixvertex.Phase.CRITICAL_FD, alpha=3), 6))
    ctx = sixvertex.hankel.report_context(rung)
    assert calls == [ctx]
    assert (law.cache_info().misses, law.cache_info().hits) == (1, 5)
    point = (sixvertex.Phase.CRITICAL_FD, (mp.mpf(3),), ctx)
    cached = law(*point)
    assert law_bits(cached) == law_bits(law.__wrapped__(*point))


def test_compare_ferro_evaluates_its_law_once_per_precision(capsys, monkeypatch):
    # every n of the ferro law needs the same theta1'(0), F and G
    calls = []
    theta = sixvertex.asymptotics.theta1_prime0
    monkeypatch.setattr(sixvertex.asymptotics, "theta1_prime0",
                        lambda q, ctx: calls.append(ctx) or theta(q, ctx))
    law = sixvertex.asymptotics._law
    law.cache_clear()
    # gamma = 0.625 is dyadic, so it parses to the same mpf at every precision
    argv = ["compare", "--phase", "ferro", "--t", "2", "--gamma", "0.625", "--nmax", "24"]
    assert cli.run(argv) == 0
    capsys.readouterr()
    ferro = sixvertex.PhaseParams(sixvertex.Phase.FERROELECTRIC, t=2, gamma=mp.mpf("0.625"))
    ctx = sixvertex.hankel.report_context(next(sixvertex.contexts(ferro, 24)))
    assert calls == [ctx]
    point = (sixvertex.Phase.FERROELECTRIC, (mp.mpf(2), mp.mpf("0.625")), ctx)
    cached = law(*point)
    assert (law.cache_info().misses, law.cache_info().hits) == (1, 24)
    assert law_bits(cached) == law_bits(law.__wrapped__(*point))


@pytest.mark.parametrize("phase", list(PHASE_POINTS), ids=lambda phase: phase.value)
def test_compare_checks_its_point_once_per_law(capsys, monkeypatch, phase):
    # the law checks its point's domain when it is built, not each predictor
    # call, so the PhaseParams a compare run builds do not grow with nmax
    built = []
    init = sixvertex.PhaseParams.__init__
    monkeypatch.setattr(sixvertex.PhaseParams, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    point = [arg for k, v in PHASE_POINTS[phase].items() for arg in (f"--{k}", str(v))]
    counts = []
    for nmax in ("4", "16"):
        sixvertex.asymptotics._law.cache_clear()
        built.clear()
        assert cli.run(["compare", "--phase", FLAGS[phase], *point, "--nmax", nmax]) == 0
        capsys.readouterr()
        counts.append(len(built))
    assert counts[0] == counts[1], counts


# t = 0, gamma = 10: the norms lose about 11.4 n bits, more than the 3.5 n
# the first rung is sized for; --bits 608 claims 2^-304
AF_DEEP = ["--phase", "af", "--t", "0", "--gamma", "10", "--nmax", "24", "--bits", "608"]


def af_deep_series():
    """The Z_n series at the point of AF_DEEP, run at exactly 1024 bits."""
    ctx = sixvertex.PrecisionContext(1024)
    with ctx.guardprec():
        p = sixvertex.PhaseParams(
            sixvertex.Phase.ANTIFERROELECTRIC, t=mp.mpf(0), gamma=mp.mpf(10)
        )
    return sixvertex.zn_series(p, 24, ctx)


def af_deep_first_rung():
    p = sixvertex.PhaseParams(sixvertex.Phase.ANTIFERROELECTRIC, t=0, gamma=10)
    return next(sixvertex.contexts(p, 24, 608))


def test_compare_climbs_the_ladder_where_the_first_rung_fails(capsys, rungs):
    first = af_deep_first_rung()
    rows = run_json(capsys, ["compare", *AF_DEEP])
    assert rungs[0] == first.bits and len(rungs) > 1
    tol = mp.mpf(2) ** -304
    for row, want in zip(rows, af_deep_series()):
        assert rel_to(row["zn"], want.zn) < tol, row["n"]


def test_fit_reports_the_rung_that_passed(capsys):
    first = af_deep_first_rung()
    out = run_json(capsys, ["fit", *AF_DEEP])
    bits = out["bits"]
    assert bits > first.bits
    assert (out["claim_bits"], out["guard_bits"]) == (304, bits + 64)
    assert out["claim_bits"] <= out["agreement_bits"] <= bits
    tol = mp.mpf(2) ** -304
    log_zn = [r.log_zn for r in af_deep_series()]
    with mp.workprec(4096):
        for n, est in out["free_energy"]["per_n"]:
            want = (log_zn[n] - 2 * log_zn[n - 1] + log_zn[n - 2]) / 2
            assert abs(mp.mpf(est) - want) < tol * max(1, abs(want)), n


def test_norms_report_bits_and_agreement(capsys):
    out = run_json(capsys, ["norms", "--phase", "af", "--t", "0.3", "--gamma", "1",
                            "--n", "24", "--bits", "64"])
    p = sixvertex.PhaseParams(sixvertex.Phase.ANTIFERROELECTRIC, t=0.3, gamma=1)
    assert out["bits"] == next(sixvertex.contexts(p, 24, 64)).bits
    assert (out["claim_bits"], out["guard_bits"]) == (32, out["bits"] + 64)
    assert out["claim_bits"] <= out["agreement_bits"] <= out["bits"]


def test_fit_disordered(capsys):
    out = run_json(
        capsys,
        ["fit", "--phase", "disordered", "--gamma", "1.0471975512", "--t", "0",
         "--nmax", "12"],
    )
    assert out["free_energy"]["target"] == "F"
    assert out["kappa"]["target"] == "kappa"
    assert "log_c" in out["kappa"]
    assert "predicted" in out
    # gamma is within 1e-10 of pi/3, so log F should be near log(9/8)
    with mp.workprec(200):
        got = mp.mpf(out["free_energy"]["extrapolated"])
        assert abs(got - mp.log(mp.mpf(9) / 8)) < mp.mpf("1e-2")


def test_fit_critical_afd_reports_free_energy_only(capsys):
    # no large-n law is known on the critical-afd line, so nothing to regress
    out = run_json(capsys, ["fit", "--phase", "critical-afd", "--alpha", "0.2", "--nmax", "8"])
    assert out["free_energy"]["target"] == "F"
    assert "kappa" not in out and "predicted" not in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = cli.run(
        ["phase", "--a", "1", "--b", "1", "--c", "1", "--out", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(target.read_text())
    assert obj["phase"] == "disordered"


def test_exit_code_domain_error(capsys):
    for argv in (
        ["toda", "--phase", "disordered", "--gamma", "0.5", "--t", "0.9",
         "--n", "2", "--h", "1e-8"],
        # compare, fit and norms parse the point once to predict its loss
        ["compare", "--phase", "ferro", "--t", "0.5", "--gamma", "1", "--nmax", "4"],
        ["norms", "--phase", "af", "--t", "2", "--gamma", "1", "--n", "4"],
    ):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert len(captured.err.splitlines()) == 1
        assert "gamma" in json.loads(captured.err)["error"]


def test_exit_code_mismatched_params(capsys):
    code = cli.run(
        ["compare", "--phase", "disordered", "--alpha", "3", "--nmax", "5"]
    )
    assert code == 2
    code = cli.run(["norms", "--phase", "critical-fd", "--t", "1", "--gamma", "2",
                    "--n", "2"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["norms", "--phase", "critical-fd", "--alpha", "3", "--n", "0"],
        ["norms", "--phase", "af", "--t", "0.3", "--gamma", "1", "--n", "-2"],
        ["compare", "--phase", "disordered", "--t", "0", "--gamma", "1", "--nmax", "0"],
        ["fit", "--phase", "ferro", "--t", "2", "--gamma", "1", "--nmax", "0"],
    ],
    ids=["norms", "norms-negative", "compare", "fit"],
)
def test_exit_code_size_below_one_names_its_flag(capsys, argv):
    # the message names the flag the user set, not the moment order it implies
    flag, size = argv[-2:]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == f"{flag} >= 1 required, got {size}"


def test_exit_code_toda_on_a_critical_line(capsys):
    code = cli.run(["toda", "--phase", "critical-fd", "--alpha", "3", "--n", "2",
                    "--h", "1e-10"])
    assert code == 2
    assert "critical-fd" in json.loads(capsys.readouterr().err)["error"]


def test_exit_code_no_predictor_for_critical_afd(capsys, monkeypatch):
    # the refusal comes before any Hankel run
    def no_series(*args, **kw):
        raise AssertionError("compare computed a series for a phase without a law")

    monkeypatch.setattr(sixvertex.hankel, "zn_series", no_series)
    code = cli.run(
        ["compare", "--phase", "critical-afd", "--alpha", "0.5", "--nmax", "5"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "no asymptotic predictor for critical-afd"


@pytest.mark.parametrize("point", [["--phase", "ferro", "--t", "1e1000000", "--gamma", "1"],
                                   ["--phase", "af", "--t", "0", "--gamma", "1e1000000"]],
                         ids=["ferro", "af"])
def test_exit_code_huge_point_fails_before_its_weights(capsys, monkeypatch, point):
    # the sinh of such a point's weights takes minutes; its norms fail at once
    def no_weights(*args, **kw):
        raise AssertionError("the series built the weights before its norms")

    monkeypatch.setattr(sixvertex.hankel, "weights_from_params", no_weights)
    assert cli.run(["compare", *point, "--nmax", "2"]) == 3
    assert "non-positive norm" in json.loads(capsys.readouterr().err)["error"]


def test_compare_serves_an_af_t_next_to_gamma(capsys):
    # the law re-checks the point at the report context's guard bits, where
    # abs(t) rounded t = 1 - 10^-80 to 1.0 and refused a point the parse took
    rows = run_json(capsys, ["compare", "--phase", "af", "--t", "0." + "9" * 80,
                             "--gamma", "1", "--nmax", "2"])
    assert [r["n"] for r in rows] == ["1", "2"]


def test_exit_code_precision_failure(capsys):
    code = cli.run(
        ["toda", "--phase", "disordered", "--gamma", "1.2", "--t", "0.4",
         "--n", "20", "--h", "1e-8", "--bits", "64"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "bits" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "argv",
    [["exact", "--n", "3", "--a", "1", "--b", "1", "--c", "1"],
     ["norms", "--phase", "af", "--t", "0.3", "--gamma", "1", "--n", "4"]],
    ids=["exact", "norms"],
)
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_exit_code_unwritable_out(capsys, tmp_path, argv, target):
    out = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path
    code = cli.run([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("--out")


def test_exit_code_bad_weight(capsys):
    code = cli.run(["phase", "--a", "0", "--b", "1", "--c", "1"])
    assert code == 2
    capsys.readouterr()


def test_csv_rejected_for_scalar_command(capsys):
    code = cli.run(
        ["phase", "--a", "1", "--b", "1", "--c", "1", "--format", "csv"]
    )
    assert code == 2
    capsys.readouterr()


# a norms run that fails its precision check (exit 3) after its moments
AF_UNREACHABLE = ["norms", "--phase", "af", "--t", "0", "--gamma", "1e6", "--n", "4"]


def test_csv_rejected_before_any_computation(capsys, monkeypatch):
    # the bad --format is the parameter error, not the precision failure
    # the run would have ended in
    assert cli.run([*AF_UNREACHABLE, "--format", "csv"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "command 'norms' has no tabular form; use --format json"
    assert cli.run(AF_UNREACHABLE) == 3
    capsys.readouterr()

    def no_series(*args, **kw):
        raise AssertionError("fit computed a series for --format csv")

    monkeypatch.setattr(sixvertex.hankel, "zn_series", no_series)
    argv = ["fit", "--phase", "ferro", "--t", "2", "--gamma", "1", "--nmax", "120"]
    assert cli.run([*argv, "--format", "csv"]) == 2
    assert "no tabular form" in capsys.readouterr().err


def test_printed_cells_carry_at_most_the_guard_bits(capsys, monkeypatch):
    # _nstr rounds each cell once, to ctx.dps digits, so what it is given must
    # already be an mpf held at the guard precision of the context it prints
    # at: the report context of the rung for compare, fit and norms, whose
    # Z_n, fits, law terms and h_k are rounded to it first, and --bits for
    # toda.  A disordered fit prints F, kappa and the prediction
    cells = []
    nstr = cli._nstr
    monkeypatch.setattr(cli, "_nstr",
                        lambda x, ctx, **kw: cells.append((x, ctx)) or nstr(x, ctx, **kw))
    runs = [["compare", "--phase", FLAGS[phase],
             *[arg for k, v in point.items() for arg in (f"--{k}", str(v))], "--nmax", "6"]
            for phase, point in PHASE_POINTS.items()]
    runs += [["norms", *point, "--n", "5"] for point, _ in FAMILY_POINTS]
    runs.append(["toda", "--phase", "disordered", "--t", "0.2", "--gamma", "1", "--n", "3",
                 "--h", "1e-10", "--bits", "512"])
    runs.append(["fit", "--phase", "disordered", "--t", "0.3", "--gamma", "1.1", "--nmax", "8"])
    for argv in runs:
        cells.clear()
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
        assert cells, argv
        for x, ctx in cells:
            assert isinstance(x, mp.mpf), (argv, x)
            assert x._mpf_[3] <= ctx.guard_bits, (argv, x._mpf_[3], ctx.guard_bits)


# the printed report at a critical-fd point whose alpha is not dyadic; each
# value is rebuilt from exact rationals and mpmath's own zeta, sharing no code
# with the library
REPORT_ALPHA, REPORT_NMAX, REPORT_BITS = Fraction("3.17"), 24, 1024
REPORT_POINT = ["--phase", "critical-fd", "--alpha", "3.17"]


def at_report_bits(x):
    """An exact Fraction, a printed cell or an mpf as an mpf at REPORT_BITS."""
    with mp.workprec(REPORT_BITS):
        return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


@pytest.fixture(scope="module")
def exact_report():
    """h_0..h_{nmax-1} and Z_1..Z_nmax at alpha = 3.17, as Fractions, and the
    critical-fd law's log F = log b and log G = -zeta(3/2) sqrt(a / pi), with
    a, b = (alpha -+ 1)/2, at REPORT_BITS."""
    h = oracles.fraction_free_norms(
        oracles.crit_fd_exact_moments(REPORT_ALPHA, 2 * REPORT_NMAX - 2))
    zs, tau, superfactorial = [], Fraction(1), 1
    for n in range(1, REPORT_NMAX + 1):
        tau *= h[n - 1]
        superfactorial *= factorial(n - 1)
        zs.append(((REPORT_ALPHA + 1) / 2) ** (n * n) * tau / superfactorial**2)
    with mp.workprec(REPORT_BITS):
        a, b = (at_report_bits((REPORT_ALPHA + s) / 2) for s in (-1, 1))
        return h, zs, mp.log(b), -mp.zeta(1.5) * mp.sqrt(a / mp.pi)


def significant_digits(cell: str) -> int:
    return len(cell.lstrip("-").split("e")[0].replace(".", "").strip("0"))


def check_digits(cells: dict, report, exact: dict = None) -> None:
    """Every cell carries report.dps significant digits less the trailing
    zeros that nstr drops: none carries more and the longest of each field
    carries exactly dps.  A cell shorter by four digits or more, which a
    value that does not terminate has odds of about 1e-4 to print, must be
    its exact value: exact[field][i] is that of cells[field][i], or None."""
    for field, values in cells.items():
        digits = [significant_digits(v) for v in values]
        assert max(digits) == report.dps, (field, digits)
        for i, (cell, d) in enumerate(zip(values, digits)):
            short = d <= report.dps - 4
            assert not short or Fraction(cell) == exact[field][i], (field, i, cell)


def test_printed_report_matches_exact_references(capsys, exact_report):
    # compare, norms and fit print every value to the report context's digits,
    # and each agrees with its exact reference to the claim
    h, zs, log_f, log_g = exact_report
    p = sixvertex.PhaseParams(sixvertex.Phase.CRITICAL_FD, alpha=mp.mpf("3.17"))
    rung = next(sixvertex.contexts(p, REPORT_NMAX))
    report = sixvertex.hankel.report_context(rung)
    assert (report.claim_bits, report.dps) == (128, 50)  # 50 digits carry 160 bits
    tol = mp.mpf(2) ** -report.claim_bits

    def agrees(cell, want, scale=None):
        """|cell - want| <= 2^-claim scale, with scale |want| by default."""
        with mp.workprec(REPORT_BITS):
            want = at_report_bits(want)
            scale = abs(want) if scale is None else scale
            return abs(at_report_bits(cell) - want) <= tol * scale

    with mp.workprec(REPORT_BITS):
        log_z = [None] + [mp.log(at_report_bits(z)) for z in zs]  # log_z[n] = log Z_n
        law = [None] + [n * n * log_f + mp.sqrt(n) * log_g + mp.log(n) / 4
                        for n in range(1, REPORT_NMAX + 1)]

    rows = run_json(capsys, ["compare", *REPORT_POINT, "--nmax", str(REPORT_NMAX)])
    assert [int(r["n"]) for r in rows] == list(range(1, REPORT_NMAX + 1))
    for n, r in enumerate(rows, start=1):
        assert agrees(r["zn"], zs[n - 1]), (n, r["zn"])
        assert agrees(r["log_zn"], log_z[n], max(1, abs(log_z[n]))), (n, r["log_zn"])
        assert agrees(r["log_prediction"], law[n], max(1, abs(law[n]))), (n, r)
        with mp.workprec(REPORT_BITS):
            ratio = mp.exp(at_report_bits(r["log_zn"]) - at_report_bits(r["log_prediction"]))
        assert agrees(r["ratio"], ratio), (n, r["ratio"])
    # Z_n is a polynomial in a = 1.085 and b = 2.085, so Z_1..Z_4 terminate,
    # and log Z_1 = log 1 = 0
    check_digits({k: [r[k] for r in rows] for k in rows[0] if k != "n"}, report,
                 {"zn": zs, "log_zn": [0] + [None] * (REPORT_NMAX - 1)})

    obj = run_json(capsys, ["norms", *REPORT_POINT, "--n", str(REPORT_NMAX)])
    assert (obj["bits"], obj["guard_bits"]) == (rung.bits, rung.guard_bits)  # the rung's
    assert len(obj["h"]) == REPORT_NMAX
    for k, cell in enumerate(obj["h"]):
        assert agrees(cell, h[k]), (k, cell)
    for k, cell in enumerate(obj["r"], start=1):
        assert agrees(cell, h[k] / h[k - 1]), (k, cell)
    check_digits({"h": obj["h"], "r": obj["r"]}, report)

    obj = run_json(capsys, ["fit", *REPORT_POINT, "--nmax", str(REPORT_NMAX)])
    assert (obj["bits"], obj["guard_bits"]) == (rung.bits, rung.guard_bits)
    with mp.workprec(REPORT_BITS):
        f_est = {n: (log_z[n + 1] - 2 * log_z[n] + log_z[n - 1]) / 2
                 for n in range(2, REPORT_NMAX)}
        resid = {n: log_z[n] - n * n * log_f - mp.sqrt(n) * log_g
                 for n in range(1, REPORT_NMAX + 1)}
        k_est = {n: (resid[n] - resid[n - 1]) / (mp.log(n) - mp.log(n - 1))
                 for n in range(2, REPORT_NMAX + 1)}
        # the default windows: a third of the points, 7 of 22 estimates and 8 of 24
        f_tail = [f_est[n] for n in range(17, REPORT_NMAX)]
        f_mean = mp.fsum(f_tail) / len(f_tail)
        f_rms = mp.sqrt(mp.fsum((v - f_mean) ** 2 for v in f_tail) / len(f_tail))
        # the least-squares line through (log n, resid[n]) over its window
        window = range(17, REPORT_NMAX + 1)
        (log_c, slope), k_norm = mp.qr_solve(mp.matrix([[1, mp.log(n)] for n in window]),
                                             mp.matrix([resid[n] for n in window]))
        k_rms = k_norm / mp.sqrt(len(window))
    fe, ka, pred = obj["free_energy"], obj["kappa"], obj["predicted"]
    assert list(fe) == ["target", "per_n", "extrapolated", "window", "residual_norm"]
    assert list(ka) == [*fe, "log_c"]
    assert list(pred) == ["phase", "n", "f", "log_prediction", "kappa", "g", "g_mode"]
    assert (pred["phase"], pred["n"], pred["g_mode"]) == ("critical-fd", REPORT_NMAX, "sqrt_n")
    assert [n for n, _ in fe["per_n"]] == list(f_est) and fe["window"] == [17, REPORT_NMAX - 1]
    for n, cell in fe["per_n"]:
        assert agrees(cell, f_est[n], max(1, abs(f_est[n]))), (n, cell)
    assert agrees(fe["extrapolated"], f_mean) and agrees(fe["residual_norm"], f_rms, 1)
    assert [n for n, _ in ka["per_n"]] == list(k_est) and ka["window"] == [17, REPORT_NMAX]
    for n, cell in ka["per_n"]:
        assert agrees(cell, k_est[n], max(1, abs(k_est[n]))), (n, cell)
    assert agrees(ka["extrapolated"], slope) and agrees(ka["log_c"], log_c)
    assert agrees(ka["residual_norm"], k_rms, 1)
    assert agrees(pred["f"], (REPORT_ALPHA + 1) / 2) and pred["kappa"] == "0.25"
    with mp.workprec(REPORT_BITS):
        g = mp.exp(log_g)
    assert agrees(pred["g"], g) and agrees(pred["log_prediction"], law[REPORT_NMAX])
    # every fit cell is derived from log Z_n, whose error is absolute: none is
    # printed past the digit of 10^-dps
    fit_cells = [c for block in (fe, ka) for _, c in block["per_n"]]
    fit_cells += [block[k] for block in (fe, ka)
                  for k in ("extrapolated", "residual_norm", "log_c") if k in block]
    assert min(Decimal(c).as_tuple().exponent for c in fit_cells) >= -report.dps
    check_digits({"free_energy": [c for _, c in fe["per_n"]] + [fe["extrapolated"]],
                  "kappa": [c for _, c in ka["per_n"]] + [ka["extrapolated"], ka["log_c"]],
                  "predicted": [pred["g"], pred["log_prediction"]]}, report)


def test_compare_prints_a_small_log_zn_to_the_digit_of_ten_to_the_minus_dps(capsys):
    # Z_n is verified to a relative error, so log Z_n to an absolute one: below
    # 1 it is printed to the digit of 10^-dps and no further.  At alpha = 1 +
    # 1e-31 the critical-fd weights a, b, c = (alpha - 1)/2, (alpha + 1)/2, 1
    # give Z_2 = (alpha^2 + 1)/2, and log Z_2..log Z_4 are near 1e-31; each is
    # checked against Z_n of the transfer matrix in exact rationals
    literal = "1.0000000000000000000000000000001"
    alpha = Fraction(literal)
    weights = sixvertex.Weights((alpha - 1) / 2, (alpha + 1) / 2, 1)
    rows = run_json(capsys, ["compare", "--phase", "critical-fd", "--alpha", literal,
                             "--nmax", "4"])
    report = sixvertex.hankel.report_context(sixvertex.PrecisionContext(256))
    dps = report.dps
    assert sixvertex.transfer_matrix_zn(2, weights, exact=True) == (alpha**2 + 1) / 2
    assert rows[0]["log_zn"] == "0.0"  # Z_1 = c = 1
    for n, r in enumerate(rows[1:], start=2):
        zn = at_report_bits(sixvertex.transfer_matrix_zn(n, weights, exact=True))
        with mp.workprec(1024):
            assert abs(mp.mpf(r["zn"]) / zn - 1) <= mp.mpf(2) ** -report.claim_bits, n
            log_zn = mp.log(zn)
            assert abs(mp.mpf(r["log_zn"]) - log_zn) <= mp.mpf(10) ** -dps, (n, r["log_zn"])
            exponent = int(mp.floor(mp.log10(log_zn))) + 1  # log Z_n = 0.d... 10^exponent
        assert significant_digits(r["log_zn"]) <= dps + exponent, (n, r["log_zn"])


def test_log_prediction_is_printed_to_the_digit_of_ten_to_the_minus_dps(capsys):
    # log_prediction is a sum of logs, so its error is absolute.  At the
    # free-fermion point gamma = pi/4 the disordered law has F = 1 and
    # kappa = 0, so log_prediction is 0 and what is left of it is rounding
    # noise far below 10^-dps: compare and fit print one digit of it at most
    with mp.workprec(800):
        point = ["--phase", "disordered", "--t", "0.1104", "--gamma", mp.nstr(mp.pi / 4, 200)]
    rows = run_json(capsys, ["compare", *point, "--nmax", "8"])
    fit = run_json(capsys, ["fit", *point, "--nmax", "8"])
    dps = sixvertex.hankel.report_context(sixvertex.PrecisionContext(256)).dps
    cells = [r["log_prediction"] for r in rows] + [fit["predicted"]["log_prediction"]]
    for cell in cells:
        assert abs(mp.mpf(cell)) < mp.mpf(10) ** -dps, cell
        assert significant_digits(cell) <= 1, cell


def test_compare_prints_z1_equal_to_c_at_a_huge_critical_fd_alpha(capsys):
    # Z_1 = c = 1; formed from the rounded q = (alpha - 1)/(alpha + 1), 1 - q
    # would lose log2(alpha/2) bits
    rows = run_json(capsys, ["compare", "--phase", "critical-fd", "--alpha", "1e45",
                             "--nmax", "1"])
    with mp.workprec(1024):
        assert mp.mpf(rows[0]["zn"]) == 1, rows[0]["zn"]


EXACT_ARGV = ["exact", "--n", "3", "--a", "1", "--b", "1", "--c", "1"]


def count_parsers(monkeypatch):
    """The progs of every ArgumentParser built from here on, and the flags
    added to each."""
    built, added = [], {}
    init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def record_init(self, *args, **kw):
        init(self, *args, **kw)
        built.append(self.prog)

    def record_flag(self, *names, **kw):
        added.setdefault(self.prog, []).append(names)
        return add_argument(self, *names, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", record_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record_flag)
    return built, added


@pytest.mark.parametrize("argv", [
    EXACT_ARGV,
    ["compare", "--phase", "critical-fd", "--alpha", "3", "--nmax", "3"],
], ids=["exact", "compare"])
def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch, argv):
    built, added = count_parsers(monkeypatch)
    assert cli.run(argv) == 0
    capsys.readouterr()
    assert built == ["sixvertex", f"sixvertex {argv[0]}"]
    assert ("--bits",) in added[f"sixvertex {argv[0]}"]


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]], ids=["empty", "help", "bogus"])
def test_an_argv_naming_no_command_builds_every_parser(monkeypatch, argv):
    built, added = count_parsers(monkeypatch)
    cli._build_parser(argv)
    assert built == ["sixvertex", *(f"sixvertex {name}" for name in cli._COMMANDS)]
    assert all(flags == [("-h", "--help")] for prog, flags in added.items() if prog != "sixvertex")


def reference_parser():
    """The parser as built before any subparser was left out: every command
    with its subparser, its help and all of its flags."""
    parser = argparse.ArgumentParser(prog="sixvertex", description=cli._build_parser([]).description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli._COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        command.add_flags(p)
        p.add_argument("--bits", type=int, default=256, help="working precision")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def parse_outcome(capsys, parser, argv):
    """The namespace argv parses to, or the exit code and output of the
    SystemExit it ends in."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


COMPARE_ARGV = ["compare", "--phase", "af", "--t", "0", "--gamma", "1", "--nmax", "2"]


@pytest.mark.parametrize("columns", ["80", "100"])
@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["--help", "compare"],
    ["bogus"], ["--", "compare"], ["--x", *COMPARE_ARGV],
    *([name, "--help"] for name in cli._COMMANDS), ["compare"],
    COMPARE_ARGV[:-2], [*EXACT_ARGV, "extra"], [*EXACT_ARGV, "--method", "bogus"],
    ["compare", "--phase", "xx", "--nmax", "2"], [*COMPARE_ARGV[:-1], "two"],
    [*EXACT_ARGV, "--bits", "x"],
    ["fit", "compare"], ["compare", "fit", *COMPARE_ARGV[1:]],
    ["compare", "--phas", "af", *COMPARE_ARGV[3:]], [*EXACT_ARGV, "--me", "transfer"],
    COMPARE_ARGV, EXACT_ARGV,
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parser_reads_every_argv_as_the_full_parser(capsys, monkeypatch, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    expected = parse_outcome(capsys, reference_parser(), argv)
    assert parse_outcome(capsys, cli._build_parser(argv), argv) == expected


# each command's flags in the order its --help lists them
COMMON_FLAGS = ["--bits", "--format", "--out"]
POINT_FLAGS = ["--phase", "--t", "--gamma", "--alpha"]
HELP_FLAGS = {
    "phase": ["--a", "--b", "--c"],
    "exact": ["--n", "--a", "--b", "--c", "--method"],
    "compare": [*POINT_FLAGS, "--nmax"],
    "toda": [*POINT_FLAGS, "--n", "--h"],
    "fit": [*POINT_FLAGS, "--nmax", "--window"],
    "norms": [*POINT_FLAGS, "--n"],
}
HELP_TEXT = {
    "phase": "classify a weight triple",
    "exact": "exact Z_n for rational weights",
    "compare": "exact Z_n against the asymptotic predictor",
    "toda": "Toda-equation finite-difference residual",
    "fit": "fit F, kappa, C from an exact series",
    "norms": "orthogonal polynomial norms h_k",
}


def exit_output(capsys, argv):
    """The exit code and the (stdout, stderr) of an argv argparse ends."""
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    return exc.value.code, capsys.readouterr()


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    code, out = exit_output(capsys, ["--help"])
    assert code == 0
    assert out.out.startswith("usage: sixvertex [-h] {phase,exact,compare,toda,fit,norms} ...")
    for name, text in HELP_TEXT.items():
        assert re.search(rf"^ +{name} +{re.escape(text)}$", out.out, re.M), name


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_command_help_lists_its_flags_in_order(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "100")
    code, out = exit_output(capsys, [command, "--help"])
    assert code == 0
    assert out.out.startswith(f"usage: sixvertex {command} [-h] ")
    flags = re.findall(r"^  (-[-\w]+)", out.out, re.M)
    assert flags == ["-h", *HELP_FLAGS[command], *COMMON_FLAGS]
    assert "output path (default stdout)" in out.out


@pytest.mark.parametrize("argv,message", [
    (["bogus"], "sixvertex: error: argument command: invalid choice: 'bogus'"),
    ([], "sixvertex: error: the following arguments are required: command"),
    ([*EXACT_ARGV, "extra"], "sixvertex: error: unrecognized arguments: extra"),
    (["compare", "--phase", "af"],
     "sixvertex compare: error: the following arguments are required: --nmax"),
], ids=["bogus", "empty", "extra", "missing"])
def test_argparse_errors_exit_2_with_usage(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "100")
    code, out = exit_output(capsys, argv)
    assert code == 2 and out.out == ""
    assert out.err.startswith("usage: sixvertex")
    assert out.err.splitlines()[-1].startswith(message)


def test_run_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["sixvertex", *EXACT_ARGV])
    assert cli.run() == 0
    assert json.loads(capsys.readouterr().out)["zn"] == "7"


def test_run_takes_its_argv_as_any_iterable(capsys):
    assert cli.run(iter(EXACT_ARGV)) == 0
    assert json.loads(capsys.readouterr().out)["zn"] == "7"


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--t", ["compare", "--phase", "disordered", "--t", "abc", "--gamma", "1",
                 "--nmax", "3"]),
        ("--gamma", ["fit", "--phase", "ferro", "--t", "2", "--gamma", "1/0", "--nmax", "3"]),
        ("--alpha", ["norms", "--phase", "critical-fd", "--alpha", "nan", "--n", "2"]),
        ("--h", ["toda", "--phase", "disordered", "--t", "0.1", "--gamma", "1", "--n", "2",
                 "--h", "1e-8x"]),
        ("--t", ["fit", "--phase", "ferro", "--t", "abc", "--gamma", "1", "--nmax", "3"]),
    ],
)
def test_exit_code_non_numeric_value(capsys, flag, argv):
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith(flag)


@pytest.mark.parametrize("argv,code,stream,text", [
    (EXACT_ARGV, 0, "stdout", '"zn": "7"'),
    ([], 2, "stderr", "the following arguments are required: command"),
], ids=["exact", "no-arguments"])
def test_module_entry_point(argv, code, stream, text):
    # without arguments, main() reads the empty sys.argv[1:] of a fresh interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(sixvertex.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "sixvertex.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert text in getattr(proc, stream)


def cap_address_space():
    """Run in the child before exec: at most 2 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["compare", "--phase", "disordered", "--t", "0.2", "--gamma", "1", "--nmax", "2",
     "--bits", "1000000000000"],
    ["compare", "--phase", "disordered", "--t", "0.2", "--gamma", "1", "--nmax", "1000000000"],
    ["toda", "--phase", "disordered", "--t", "0.2", "--gamma", "1", "--n", "2", "--h", "1e-10",
     "--bits", "1000000000000"],
], ids=["bits", "nmax", "toda-bits"])
def test_exit_code_request_too_large_to_allocate(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(sixvertex.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "sixvertex.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    error = json.loads(proc.stderr)["error"]
    given = dict(zip(argv[1::2], argv[2::2]))
    size = "--nmax" if "--nmax" in given else "--n"
    assert f"{size} {given[size]}" in error and f"--bits {given.get('--bits', 256)}" in error


NUMERIC_FLAG_TEXT = st.one_of(
    st.text(max_size=12),
    st.floats().map(str),
    st.fractions(max_denominator=50).map(str),
    st.integers(min_value=-6000, max_value=6000).map(lambda e: f"1e{e}"),
)


@given(
    command=st.sampled_from(["compare", "fit", "norms", "toda", "phase", "exact"]),
    phase=st.sampled_from(sorted(cli._PHASE_FLAGS)),
    method=st.sampled_from(["dfs", "transfer"]),
    size=st.integers(min_value=1, max_value=4),
    first=NUMERIC_FLAG_TEXT,
    second=NUMERIC_FLAG_TEXT,
    h=NUMERIC_FLAG_TEXT,
)
# weight literals whose digits pass Python's int -> str limit
@example(command="phase", phase="af", method="dfs", size=1, first="1e5000", second="1", h="1")
@example(command="phase", phase="af", method="dfs", size=1, first="1e300000", second="1", h="1")
@example(command="exact", phase="af", method="transfer", size=4, first="1e400", second="1",
         h="1")
# a tiny ferroelectric gamma: the law's constant C takes a bounded number of terms
@example(command="compare", phase="ferro", method="dfs", size=1, first="1", second="1e-30", h="1")
def test_exit_code_for_any_numeric_flag_value(command, phase, method, size, first, second, h):
    if command in ("phase", "exact"):
        argv = [command, f"--a={first}", f"--b={second}", f"--c={h}"]
        if command == "exact":
            argv += ["--n", str(size), "--method", method]
    else:
        size_flag = "--nmax" if command in ("compare", "fit") else "--n"
        argv = [command, "--phase", phase, size_flag, str(size)]
        if phase.startswith("critical"):
            argv.append(f"--alpha={first}")
        else:
            argv += [f"--t={first}", f"--gamma={second}"]
        if command == "toda":
            argv.append(f"--h={h}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3)
    if code:
        assert "error" in json.loads(err.getvalue())
