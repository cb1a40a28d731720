"""Self-checks of the benchmark: its output checks, its failure counting,
its tail percentile, and the tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
from pathlib import Path

import pytest

import seqeffects as se
from seqeffects.cli import main as cli_main

import run
import workloads
from tracer import Tracer
from workloads import OpOutcome

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fit_report(tmp_path_factory):
    where = tmp_path_factory.mktemp("estimate")
    d = se.simulate(se.parse_dgp(workloads.MARKOV3_RULES), 20000, seed=5)
    se.save_dataset(d, where / "panel.csv")
    (where / "pattern.txt").write_text(workloads.TWO_GROUPS)
    rc = cli_main(["estimate", "--data", str(where / "panel.csv"), "--pattern",
                   str(where / "pattern.txt"), "--variance-mode", "estimated",
                   "--out", str(where / "fit.json")])
    assert rc == 0
    return where / "fit.json"


@pytest.fixture(scope="module")
def diagnose_report(tmp_path_factory):
    where = tmp_path_factory.mktemp("diagnose")
    d = se.simulate(se.parse_dgp(workloads.balanced_rules(3)), 4000, seed=3)
    se.save_dataset(d, where / "panel.csv")
    rc = cli_main(["diagnose", "--data", str(where / "panel.csv"), "--reps", "100",
                   "--variance-mode", "known:1", "--out", str(where / "diagnose.json")])
    return where / "diagnose.json", rc


def test_corrupted_parameter_counts_as_failure(fit_report, tmp_path):
    expected = workloads.Roundtrip.expected
    assert workloads.check_fit_report(fit_report, expected) is None
    report = json.loads(fit_report.read_text())
    report["fit"]["params"][1] += 1.0
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(report))
    error = workloads.check_fit_report(corrupted, expected)
    assert error is not None and "late" in error

    outcomes = [(0, OpOutcome(1.0, None)), (1, OpOutcome(1.0, error))]
    failed, errors = run.count_failures(workloads.Roundtrip(), outcomes)
    assert failed == 1 and errors == [f"op 1: {error}"]


def test_flagged_decomposition_counts_as_failure(diagnose_report, tmp_path):
    path, rc = diagnose_report
    assert rc in (0, 2)
    assert workloads.check_diagnose_report(path, rc, targets=21) is None
    report = json.loads(path.read_text())
    report["decomposition"]["flagged"] = True
    report["decomposition"]["max_deviation"] = 0.5
    report["flagged"] = True
    planted = tmp_path / "flagged.json"
    planted.write_text(json.dumps(report))
    error = workloads.check_diagnose_report(planted, 2, targets=21)
    assert error is not None and "decomposition" in error

    outcomes = [(0, OpOutcome(1.0, error)), (1, OpOutcome(1.0, None))]
    failed, _ = run.count_failures(workloads.Diagnose(), outcomes)
    assert failed == 1


def test_malformed_reports_fail(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert workloads.check_fit_report(bad, workloads.Roundtrip.expected) is not None
    assert workloads.check_diagnose_report(bad, 0, targets=21) is not None


def test_pooled_run_check_fails_every_op_when_the_mean_is_off():
    wl = workloads.PooledMonteCarlo()
    good = [(r, OpOutcome(1.0, value=[25.0 + 0.01 * (-1) ** r, 10.0 + 0.02 * (-1) ** r]))
            for r in range(20)]
    assert run.count_failures(wl, good)[0] == 0
    biased = [(r, OpOutcome(1.0, value=[o.value[0] + 0.5, o.value[1]])) for r, o in good]
    assert run.count_failures(wl, biased)[0] == 20


def test_stale_report_cannot_pass_for_a_crashed_diagnose(diagnose_report, tmp_path, monkeypatch):
    path, _ = diagnose_report
    # A report flagged by resampling alone passes the check with exit 2.
    report = json.loads(path.read_text())
    report["resampling"]["flagged_variances"].append(report["resampling"]["targets"][0])
    report["resampling"]["consistent"] = False
    report["flagged"] = True
    stale = tmp_path / "diagnose.json"
    stale.write_text(json.dumps(report))
    assert workloads.check_diagnose_report(stale, 2, targets=21) is None

    # The next diagnose crashes with exit 2 and writes nothing.
    def crash(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 2, None, "error: crashed")

    monkeypatch.setattr(workloads.subprocess, "run", crash)
    wl = workloads.Diagnose()
    wl.horizon = 3
    ctx = workloads.Context(ROOT, seed=1, work=tmp_path)
    outcome = wl.op(se, ctx, {"panel": tmp_path / "panel.csv"}, 1)
    assert outcome.error is not None and "malformed" in outcome.error
    assert not stale.exists()


def test_tail_is_the_90th_percentile_at_every_sample_count():
    assert run.tail_of([3.0]) == 3.0
    assert run.tail_of([1.0, 2.0]) == pytest.approx(1.9)
    assert run.tail_of([float(i) for i in range(1, 11)]) == pytest.approx(9.1)
    for n in range(19, 24):
        walls = [float(i) for i in range(n)]
        assert run.tail_of(walls) == pytest.approx(0.9 * (n - 1))


def test_tracer_restores_what_it_wraps_and_attributes_time():
    original = se.simulator.simulate
    original_eval = se.exprlang.CompiledExpr.eval
    tracer = Tracer()
    tracer.install()
    try:
        assert se.simulate is not original and se.simulator.simulate is not original
        tracer.begin_op(0)
        d = se.simulate(se.make_markov_dgp(3), 2000, seed=1)
        spec = se.parse_pattern(workloads.TWO_GROUPS)
        se.fit_net_effects(spec, d, se.VarianceMode.known(1.0))
        op = tracer.end_op()
    finally:
        tracer.uninstall()
    assert se.simulate is original and se.simulator.simulate is original
    assert se.exprlang.CompiledExpr.eval is original_eval
    assert op.counts["patterns.feature_evals"] > 0
    assert op.counts["exprlang.evals"] > 0
    assert op.counts.get("dataset.rows", 0) == 0
    assert op.counts["strata.targets"] == op.counts["patterns.rows"]
    total = sum(e - s for o, i, p, n, s, e in tracer.spans if p == -1)
    assert 0 < op.covered_s <= total + 1e-9
