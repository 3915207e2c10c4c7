"""Tools built on the package: the benchmark's span tracer and the experiment
scripts."""

import ast
import csv
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from sixvertex import (
    Phase, PhaseParams, PrecisionContext, Weights, _linalg, asymptotics, cli, meixner_ratios,
    model, transfer_matrix_zn, zn_ik,
)

from oracles import asm_count

ROOT = Path(__file__).resolve().parents[1]


def load_file(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    """A perfbench Tracer installed for one test; every binding it replaced
    is restored afterwards."""
    tracing = load_file(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    package = {
        name: mod for name, mod in sys.modules.items()
        if name == "sixvertex" or name.startswith("sixvertex.")
    }
    saved = {name: dict(vars(mod)) for name, mod in package.items()}
    t = tracing.Tracer()
    t.install()
    yield t
    for name, attrs in saved.items():
        vars(package[name]).update(attrs)


def test_every_traced_name_resolves():
    tracing = load_file(ROOT / "perfbench" / "tracing.py", "perfbench_tracing")
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"sixvertex.{module}")
        missing = [name for name in names if not callable(getattr(mod, name, None))]
        assert not missing, f"sixvertex.{module} lacks {missing}"


def test_reference_context_keeps_its_verify_factor():
    # perfbench/reference.py:98 builds its lattice context as
    # PrecisionContext(self.prec, 2), with verify_factor passed by position:
    # the checker's guard run is at twice its precision and claims half of it
    ctx = PrecisionContext(300, 2)
    assert ctx.claim is None
    assert (ctx.guard_bits, ctx.claim_bits) == (600, 150)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each CLI process pays for every module its import loads
    code = (
        "import sys, sixvertex, sixvertex.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_map_names_resolve():
    # every backticked identifier in a row names an attribute of the row's
    # module; patterns such as `predict_*` are not identifiers and are skipped
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Library map", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*`(sixvertex\.\w+)`\s*\|(.*)\|\s*$", table, re.M)
    assert len(rows) >= 7
    for module, contents in rows:
        mod = importlib.import_module(module)
        names = [tok for tok in re.findall(r"`([^`]+)`", contents) if tok.isidentifier()]
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"README library map: {module} lacks {missing}"


def test_phase_params_docstring_states_the_table_domains():
    # the documented domains are the ones the table checks: each row's domain
    # text stands on its phase's line of the PhaseParams docstring
    lines = {line.split()[0]: line for line in PhaseParams.__doc__.splitlines() if line.strip()}
    for phase, rule in model._PHASE_RULES.items():
        assert rule.domain in lines.get(phase.value, ""), phase


def test_no_phase_switch_is_left_in_the_package():
    # per-phase facts live in the tables (model._PHASE_RULES,
    # specfun._WEIGHT_MOMENTS, asymptotics._LAWS, cli._PHASES): no module
    # compares a phase against a Phase member or asks whether it is critical
    def is_member(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "Phase")

    found = []
    for path in sorted((ROOT / "src" / "sixvertex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op in list(operands):
                    if isinstance(op, (ast.Tuple, ast.List, ast.Set)):
                        operands += op.elts
                hit = any(is_member(op) for op in operands)
            else:
                hit = (getattr(node, "attr", None) == "is_critical"
                       or getattr(node, "name", None) == "is_critical")
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


@pytest.mark.parametrize(
    "params", [["--phase", "af", "--t", "0.1", "--gamma", "1"],
               ["--phase", "critical-fd", "--alpha", "3"]],
)
def test_traced_compare_reaches_every_layer(tracer, capsys, params):
    # the CLI calls predictors, kernels and moments through module attributes,
    # where the tracer binds its wrappers
    assert cli.run(["compare", *params, "--nmax", "4"]) == 0
    capsys.readouterr()
    for counter in ("asymptotics.predict_calls", "specfun.kernel_calls",
                    "specfun.moments_calls", "linalg.elim_calls"):
        assert tracer.counts[counter] > 0, counter


def test_traced_critical_fd_sees_the_kernel_and_the_fits(tracer, capsys):
    # zeta(3/2) runs once inside the cached law, which the tracer does not
    # wrap, and is still counted as a kernel call
    asymptotics._law.cache_clear()
    point = ["--phase", "critical-fd", "--alpha", "3", "--nmax", "6"]
    assert cli.run(["compare", *point]) == 0
    capsys.readouterr()
    assert tracer.counts["specfun.kernel_calls"] == 1
    assert tracer.counts["asymptotics.predict_calls"] == 6
    assert cli.run(["fit", *point]) == 0
    capsys.readouterr()
    assert tracer.self_times()["asymptotics.fit_s"] > 0


def test_traced_compare_splits_the_chebyshev_runs(tracer, capsys, rungs):
    # the tracer finds _forward_pivots by name and tells the base run from the
    # guard run by mp.prec, which the benchmark's per-layer split depends on
    assert cli.run(["compare", "--phase", "af", "--t", "0.1", "--gamma", "1",
                    "--nmax", "4"]) == 0
    capsys.readouterr()
    assert len(rungs) == 1
    times = tracer.self_times()
    assert times["linalg.elim_base_s"] > 0 and times["linalg.elim_guard_s"] > 0
    calls = tracer.counts["linalg.elim_calls"]
    assert calls > 0 and calls % 2 == 0
    guard_bits = PrecisionContext(rungs[0], claim=128).guard_bits  # --bits 256
    assert tracer.counts["linalg.guard_bits_max"] == guard_bits


def test_exact_lattice_jobs_through_cli(capsys):
    # the exact jobs of the benchmark's exact-lattice workload, probes included
    workloads = load_file(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    jobs = [job for job in workloads.build("exact-lattice", 1) if job.command == "exact"]
    assert {job.method for job in jobs} == {"transfer", "dfs"}
    for job in jobs:
        assert cli.run(job.argv) == 0, job.argv
        out = json.loads(capsys.readouterr().out)
        n, zn = job.size, Fraction(out["zn"])
        a, b, c = (Fraction(x) for x in job.weights)
        if job.method == "dfs":
            assert out["count"] == asm_count(n)
            assert zn == transfer_matrix_zn(n, Weights(a, b, c), exact=True), job.argv
        elif a == b == c:
            assert zn == asm_count(n) * a ** (n * n), job.argv
        else:
            assert a * a + b * b == c * c  # free-fermion point
            assert zn == c ** (n * n), job.argv


@pytest.mark.parametrize("workload", ["compare-grid", "fit-series"])
def test_benchmark_jobs_stay_on_the_first_rung(capsys, rungs, workload):
    # an escalated job would time a different precision policy than the
    # first rung that the benchmark is meant to measure
    workloads = load_file(ROOT / "perfbench" / "workloads.py", "perfbench_workloads")
    for job in workloads.build(workload, 1):
        del rungs[:]
        assert cli.run(job.argv) == 0, job.argv
        capsys.readouterr()
        assert len(rungs) <= 1, (job.argv, rungs)  # toda runs off the ladder


@pytest.mark.parametrize("workload", ["fit-series", "compare-grid", "exact-lattice"])
def test_benchmark_jobs_pass_the_benchmark_checker(capsys, workload):
    # the checker that counts the benchmark's failed jobs, run here first;
    # reference.py imports its job list as the top-level module `workloads`
    workloads = load_file(ROOT / "perfbench" / "workloads.py", "workloads")
    reference = load_file(ROOT / "perfbench" / "reference.py", "perfbench_reference")
    for job in workloads.build(workload, 1):
        assert cli.run(job.argv) == 0, job.argv
        reference.Checker(job).check(capsys.readouterr().out)


def test_toda_jobs_and_probes_need_no_lu(capsys, monkeypatch):
    # toda and zn_ik read the Chebyshev norms; pivoted LU serves only
    # hankel_det, the reference that the tests compare the norms against
    def no_lu(a):
        raise AssertionError("pivoted LU called outside hankel_det")

    monkeypatch.setattr(_linalg, "_lu_det", no_lu)
    workloads = load_file(ROOT / "perfbench" / "workloads.py", "workloads")
    reference = load_file(ROOT / "perfbench" / "reference.py", "perfbench_reference")
    probes = workloads.probes()
    jobs = [job for job in workloads.build("compare-grid", 1)
            if job.command == "toda" or job in probes]
    assert len(jobs) > len(probes)
    for job in jobs:
        assert cli.run(job.argv) == 0, job.argv
        reference.Checker(job).check(capsys.readouterr().out)


def test_norms_from_moments_is_the_one_caller_of_the_chebyshev_run(capsys, monkeypatch):
    # every h_k, tau_n and Z_n comes from one route to the verified run, so a
    # change to that run is made in one place
    callers = []
    pivots = _linalg.hankel_pivots

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return pivots(*args)

    monkeypatch.setattr(_linalg, "hankel_pivots", recording)
    point = ["--phase", "disordered", "--t", "0.2", "--gamma", "1"]
    for argv in (["compare", *point, "--nmax", "4"], ["fit", *point, "--nmax", "8"],
                 ["norms", *point, "--n", "3"], ["toda", *point, "--n", "2", "--h", "1e-8"]):
        assert cli.run(argv) == 0, argv
    capsys.readouterr()
    zn_ik(PhaseParams(Phase.FERROELECTRIC, t=2, gamma=1), 3)
    meixner_ratios(2, 2, 1)
    assert len(callers) >= 6
    assert set(callers) == {"norms_from_moments"}


def test_theorem_sweep_writes_four_tables(tmp_path, capsys):
    sweep = load_file(ROOT / "scripts" / "theorem_sweep.py", "theorem_sweep")
    sweep.main(["--outdir", str(tmp_path), "--bits", "960"])
    capsys.readouterr()
    header = ["n", "zn", "log_zn", "log_prediction", "ratio"]
    tables = {}
    for name in ("disordered", "ferro", "af", "critical-fd"):
        with open(tmp_path / f"compare_{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        tables[name] = rows[1:]
    # gamma = pi/3, t = 0: a = b = c = sqrt(3)/2, so Z_n = A_n (3/4)^(n^2/2);
    # nmax 40 runs at no fewer than the 960 bits of --bits
    rows = tables["disordered"]
    assert len(rows) == 40
    with mp.workprec(4096):
        tol = mp.mpf(2) ** -480
        for row in rows:
            n = int(row[0])
            ref = asm_count(n) * (mp.mpf(3) / 4) ** (mp.mpf(n * n) / 2)
            assert abs(mp.mpf(row[1]) - ref) / ref < tol, n


def test_kappa_scan_smoke(tmp_path, capsys):
    scan = load_file(ROOT / "scripts" / "kappa_scan.py", "kappa_scan")
    out = tmp_path / "kappa.csv"
    scan.main(["--nmax", "8", "--points", "2", "--out", str(out)])
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma", "kappa_formula", "kappa_fit", "error"]
    # gamma = pi/6 and pi/3, where kappa = 1/18 and -5/36
    assert [row[0][:8] for row in rows[1:]] == ["0.523598", "1.047197"]
    for row, kappa in zip(rows[1:], (mp.mpf(1) / 18, mp.mpf(-5) / 36)):
        assert abs(mp.mpf(row[1]) - kappa) < 1e-11
        assert abs(mp.mpf(row[3])) < 0.01  # the fit at nmax 8 is rough


def test_toda_order_smoke(capsys):
    toda = load_file(ROOT / "scripts" / "toda_order.py", "toda_order")
    toda.main(["--n", "2"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["0.001", "0.0001"] + [f"1.0e-{k}" for k in range(5, 11)]
    # central differences: the residual falls as h^2
    assert all(abs(float(row[2]) - 2) < 0.05 for row in rows[1:])


def test_job_digest_smoke(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script extends it
    digest = load_file(ROOT / "scripts" / "job_digest.py", "job_digest")
    lattice = digest.workloads.WORKLOADS["exact-lattice"]
    monkeypatch.setattr(digest.workloads, "WORKLOADS", {"exact-lattice": lattice})
    runs = []
    for _ in range(2):
        digest.main(["--seeds", "1"])
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    jobs = digest.workloads.build("exact-lattice", 1)
    *lines, _ = runs[0]
    assert [line.split()[:3] for line in lines] == [
        ["exact-lattice", "1", str(i)] for i in range(len(jobs))
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split()[-1]) for line in runs[0])
