import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqeffects
from seqeffects import make_markov_dgp, make_reference_fixture, save_dataset, simulate
from seqeffects.cli import main

THREE_GROUPS = """\
group first: when t == 1
group mid: when t == 2 and not (z[1] == 1 and x[1][1] == 1)
group last: when t == 2 and z[1] == 1 and x[1][1] == 1
"""

PATTERN_DGP = """\
horizon: 2
sigma: 2.0
base: 100
assign when t == 1: 0.5
assign: 0.4 + 0.2 * x[1][1]
covariate: 0.3 + 0.3 * z[t]
effect when t == 1: 30
effect when z[1] == 1 and x[1][1] == 1: -20
effect: 20
"""


@pytest.fixture
def ref_csv(tmp_path):
    path = tmp_path / "ref.csv"
    save_dataset(make_reference_fixture(), path)
    return str(path)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_estimate_writes_a_fit_report(tmp_path, ref_csv):
    pattern = write(tmp_path, "pat.txt", THREE_GROUPS)
    out = tmp_path / "fit.json"
    code = main(
        [
            "estimate",
            "--data",
            ref_csv,
            "--pattern",
            pattern,
            "--variance-mode",
            "known:25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    fit = blob["fit"]
    assert fit["param_names"] == ["first", "mid", "last"]
    assert fit["params"] == pytest.approx([30.0, 20.0, -20.0], abs=1e-9)
    assert blob["n_records"] == 160


def test_estimate_reports_are_byte_identical(tmp_path, ref_csv):
    pattern = write(tmp_path, "pat.txt", THREE_GROUPS)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            main(["estimate", "--data", ref_csv, "--pattern", pattern, "--out", str(out)])
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_estimate_missing_file_exits_one(tmp_path, ref_csv):
    pattern = write(tmp_path, "pat.txt", THREE_GROUPS)
    assert main(["estimate", "--data", "missing.csv", "--pattern", pattern]) == 1
    assert main(["estimate", "--data", ref_csv, "--pattern", "missing.txt"]) == 1


def test_estimate_rank_deficiency_exits_two(tmp_path, ref_csv):
    pattern = write(
        tmp_path,
        "collinear.txt",
        "group a: when t >= 1\ngroup b: when t == 2 and z[2] == 9\n",
    )
    assert main(["estimate", "--data", ref_csv, "--pattern", pattern]) == 2


def test_estimate_reports_an_uncovered_skipped_arm_as_null(tmp_path):
    # every z1 is 1, so the period-1 arm has no control and no group covers it
    rows = ["unit_id,z1,z2,x1_1,y"]
    for i in range(16):
        rows.append(f"u{i},1,{i % 2},{(i // 2) % 2},{10.0 + 3.0 * (i % 2) + 0.5 * ((i // 4) % 2)}")
    data = write(tmp_path, "constant_z1.csv", "\n".join(rows) + "\n")
    pattern = write(tmp_path, "late.txt", "group late: when t >= 2\n")
    out = tmp_path / "fit.json"
    assert main(["estimate", "--data", data, "--pattern", pattern, "--out", str(out)]) == 0
    fitted = {f["key"]: f for f in json.loads(out.read_text())["fit"]["fitted_net_effects"]}
    skipped = fitted["z1=1"]
    assert skipped["value"] is None and skipped["se"] is None
    assert skipped["note"] == "control arm unobserved; no pattern group covers it"
    assert fitted["z1=1 x1=0 z2=1"]["value"] == pytest.approx(3.0)


def test_estimate_non_finite_known_variance_exits_one(tmp_path, ref_csv, capsys):
    pattern = write(tmp_path, "pat.txt", THREE_GROUPS)
    args = ["estimate", "--data", ref_csv, "--pattern", pattern, "--variance-mode"]
    assert main(args + ["known:inf"]) == 1
    assert "positive and finite" in capsys.readouterr().err


def test_bad_pattern_text_exits_one(tmp_path, ref_csv):
    pattern = write(tmp_path, "broken.txt", "group a when t == 1\n")
    assert main(["estimate", "--data", ref_csv, "--pattern", pattern]) == 1


def test_oracle_matches_saturated_estimates(tmp_path, ref_csv):
    out = tmp_path / "net.json"
    assert main(["oracle", "--data", ref_csv, "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    effects = {e["key"]: e["value"] for e in blob["net_effects"]["effects"]}
    assert effects["z1=1"] == pytest.approx(30.0)
    assert effects["z1=1 x1=1 z2=1"] == pytest.approx(-20.0)


def test_oracle_on_constant_outcomes_is_all_zero(tmp_path):
    rows = ["unit_id,z1,y"] + [f"u{i},{i % 2},9.0" for i in range(6)]
    data = write(tmp_path, "flat.csv", "\n".join(rows) + "\n")
    out = tmp_path / "net.json"
    assert main(["oracle", "--data", data, "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert all(e["value"] == 0.0 for e in blob["net_effects"]["effects"])


def test_oracle_incomplete_arm_exits_two(tmp_path, capsys):
    rows = ["unit_id,z1,y"] + [f"u{i},1,9.0" for i in range(4)]
    data = write(tmp_path, "onearm.csv", "\n".join(rows) + "\n")
    assert main(["oracle", "--data", data]) == 2
    err = capsys.readouterr().err
    assert "control arm unobserved" in err


@pytest.mark.parametrize(
    "row, message",
    [
        (
            b"a,99999999999999999999,1\n",
            "row 2: code 99999999999999999999 out of range (at most 2**63 - 1)",
        ),
        (b"a\xe9,0,1\n", "input is not UTF-8: byte 0xe9 at offset 14"),
    ],
)
def test_oracle_names_an_unreadable_row_and_exits_one(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"unit_id,z1,y\n" + row)
    assert main(["oracle", "--data", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oracle_names_a_field_over_the_csv_limit_and_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_bytes(b"unit_id,z1,y\na,0,1\nb,0," + b"9" * 200_000 + b"\n")
    assert main(["oracle", "--data", str(path)]) == 1
    assert capsys.readouterr().err == "error: row 3: field larger than field limit (131072)\n"


def test_simulate_writes_data_and_truth(tmp_path):
    dgp = write(tmp_path, "law.dgp", PATTERN_DGP)
    out = tmp_path / "sim.csv"
    truth = tmp_path / "truth.json"
    code = main(
        [
            "simulate",
            "--dgp",
            dgp,
            "--n",
            "500",
            "--seed",
            "7",
            "--out",
            str(out),
            "--truth",
            str(truth),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "unit_id,z1,z2,x1_1,y"
    assert len(out.read_text().splitlines()) == 501
    blob = json.loads(truth.read_text())
    values = sorted({round(e["value"], 8) for e in blob["net_effects"]})
    assert values == [-20.0, 20.0, 30.0]


def test_simulate_default_truth_path_and_determinism(tmp_path):
    dgp = write(tmp_path, "law.dgp", PATTERN_DGP)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["simulate", "--dgp", dgp, "--n", "200", "--seed", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.truth.json").exists()


def test_simulate_bad_rule_file_exits_one(tmp_path):
    dgp = write(tmp_path, "bad.dgp", "horizon: 1\nassign: 0.5\nnonsense: 3\n")
    assert main(["simulate", "--dgp", dgp, "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 1


def error_lines(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_simulate_negative_seed_exits_one(tmp_path, capsys):
    dgp = write(tmp_path, "rules.dgp", PATTERN_DGP)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--dgp", dgp, "--n", "10", "--seed", "-1", "--out", str(out)]) == 1
    assert error_lines(capsys) == ["error: seed must be at least 0, not -1"]
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_simulate_non_finite_sigma_exits_one(tmp_path, capsys, sigma):
    dgp = write(tmp_path, "rules.dgp", f"horizon: 1\nsigma: {sigma}\nassign: 0.5\neffect: 1\n")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--dgp", dgp, "--n", "10", "--out", str(out)]) == 1
    assert error_lines(capsys) == [f"error: sigma must be finite, not {sigma}"]
    assert not out.exists()


@pytest.fixture(scope="module")
def markov3_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("markov3") / "panel.csv"
    save_dataset(simulate(make_markov_dgp(3), 2000, 1), path)
    return str(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["estimate", "suggest-pattern"])
def test_a_term_that_is_not_finite_exits_two(tmp_path, markov3_csv, capsys, command):
    # At z[2] = 0 the term is inf * 0, which is nan.
    pattern = write(tmp_path, "pat.txt", "term big: 1e308 * 10 * z[t-1]\n")
    assert main([command, "--data", markov3_csv, "--pattern", pattern]) == 2
    assert error_lines(capsys) == [
        "error: at z1=0 x1=0 z2=0 x2=0 z3=1: term 'big' is not finite: nan"
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["estimate", "suggest-pattern"])
def test_a_downstream_load_that_overflows_exits_two(tmp_path, markov3_csv, capsys, command):
    # Every feature is finite, but summed over later periods they overflow.
    pattern = write(tmp_path, "pat.txt", "term big: 1e308 * z[t-1]\n")
    assert main([command, "--data", markov3_csv, "--pattern", pattern]) == 2
    assert error_lines(capsys) == [
        "error: target z1=1: the coefficient of parameter 'big' is not finite (nan): "
        "its feature row and downstream loads overflow when summed"
    ]


@pytest.mark.parametrize("command", ["estimate", "suggest-pattern"])
def test_a_downstream_load_that_overflows_writes_only_the_error(tmp_path, markov3_csv, command):
    # A child process, so that numpy's warnings would reach its stderr.
    pattern = write(tmp_path, "pat.txt", "term big: 1e308 * z[t-1]\n")
    src = str(Path(seqeffects.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from seqeffects.cli import main; "
         "sys.exit(main(sys.argv[1:]))", command, "--data", markov3_csv, "--pattern", pattern],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "error: target z1=1: the coefficient of parameter 'big' is not finite (nan): "
        "its feature row and downstream loads overflow when summed"
    ]


def test_diagnose_negative_seed_exits_one(tmp_path, ref_csv, capsys):
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--data", ref_csv, "--seed", "-2", "--out", str(out)]) == 1
    assert error_lines(capsys) == ["error: seed must be at least 0, not -2"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "suggest-pattern", "simulate"])
def test_a_pattern_or_rule_file_that_is_not_utf8_exits_one(tmp_path, ref_csv, capsys, command):
    text = (PATTERN_DGP if command == "simulate" else THREE_GROUPS).encode()
    path = tmp_path / "input.txt"
    path.write_bytes(text[:20] + b"\xff" + text[20:])
    if command == "simulate":
        argv = ["simulate", "--dgp", str(path), "--n", "10", "--out", str(tmp_path / "x.csv")]
    else:
        argv = [command, "--data", ref_csv, "--pattern", str(path)]
    assert main(argv) == 1
    assert error_lines(capsys) == ["error: input is not UTF-8: byte 0xff at offset 20"]


def test_a_pattern_file_with_a_bom_reads_as_without(tmp_path, ref_csv):
    plain = write(tmp_path, "plain.txt", THREE_GROUPS)
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + THREE_GROUPS.encode())
    for name, pattern in (("a.json", plain), ("b.json", str(bom))):
        out = str(tmp_path / name)
        assert main(["estimate", "--data", ref_csv, "--pattern", pattern, "--out", out]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_diagnose_clean_data_exits_zero(tmp_path, ref_csv):
    out = tmp_path / "diag.json"
    code = main(
        [
            "diagnose",
            "--data",
            ref_csv,
            "--variance-mode",
            "known:25",
            "--reps",
            "150",
            "--seed",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["flagged"] is False
    assert blob["resampling"]["consistent"] is True
    assert blob["decomposition"]["flagged"] is False


def test_diagnose_negative_reps_exits_one(tmp_path, ref_csv, capsys):
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--data", ref_csv, "--reps", "-4", "--out", str(out)]) == 1
    assert "reps must be at least 0, not -4" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_without_targets_says_nothing_was_checked(tmp_path, caplog):
    data = write(tmp_path, "untreated.csv", "unit_id,z1,y\nu0,0,1.0\nu1,0,2.0\nu2,0,3.0\n")
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--data", data, "--reps", "50", "--out", str(out)]) == 0
    resampling = json.loads(out.read_text())["resampling"]
    assert resampling["targets"] == []
    assert resampling["notes"] == ["no estimable targets; nothing was checked"]
    assert resampling["empirical_covariance"] is None
    assert any("no estimable targets" in r.getMessage() for r in caplog.records)


def test_diagnose_reports_on_a_panel_with_control_less_arms(tmp_path):
    data = tmp_path / "mk6.csv"
    save_dataset(simulate(make_markov_dgp(6), 3000, 4), data)
    out = tmp_path / "diag.json"
    code = main(["diagnose", "--data", str(data), "--reps", "100", "--out", str(out)])
    report = json.loads(out.read_text())
    decomposition = report["decomposition"]
    assert decomposition["schema_version"] == 2
    assert decomposition["flagged"] is False
    assert decomposition["entries"] and decomposition["skipped"]
    assert code == (2 if report["flagged"] else 0)


def test_suggest_pattern_defaults_to_one_group_per_target(tmp_path, ref_csv):
    out = tmp_path / "disc.json"
    code = main(
        [
            "suggest-pattern",
            "--data",
            ref_csv,
            "--variance-mode",
            "estimated",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    components = {frozenset(c) for c in blob["discovery"]["components"]}
    assert frozenset(["g2", "g3", "g4"]) in components


@pytest.mark.parametrize("alpha", ["2", "0", "-1", "nan"])
def test_suggest_pattern_rejects_a_level_outside_the_unit_interval(
    tmp_path, ref_csv, capsys, alpha
):
    out = tmp_path / "disc.json"
    code = main(["suggest-pattern", "--data", ref_csv, "--alpha", alpha, "--out", str(out)])
    assert code == 1
    assert "alpha must lie strictly between 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def test_suggest_pattern_names_unidentified_strata(tmp_path, capsys):
    # At T=8 many active arms have no control; the saturated default
    # pattern cannot pool them, so their net effects are unidentified.
    path = tmp_path / "markov8.csv"
    save_dataset(simulate(make_markov_dgp(8), 4000, 3), path)
    code = main(["suggest-pattern", "--data", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "is not identified" in err
    assert "control arm is unobserved" in err
    assert "no pattern group matches" not in err


def test_usage_errors_exit_one():
    assert main(["no-such-command"]) == 1
    assert main(["estimate"]) == 1  # missing required flags


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True
