"""The CLI starts without scipy; the two chi-square tests still use it.

scipy.stats takes most of a second to import, several times the rest of
the package, so only `net_effect_null_test` and
`standard_mean_equality_test` load it, at the point of the call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from scipy.stats import chi2

import seqeffects
from seqeffects import (
    VarianceMode,
    make_null_proxy_dgp,
    net_effect_null_test,
    simulate,
    standard_mean_equality_test,
)

RULES = """\
horizon: 2
base: 50
sigma: 1
assign: 0.5
covariate: 0.5
effect when t == 1: 25
effect: 10
"""

PATTERN = "group early: when t == 1\ngroup late: when t >= 2\n"

CHILD = """\
import json, sys
import seqeffects
from seqeffects.cli import main

before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
work = sys.argv[1]
panel, pattern = work + "/panel.csv", work + "/pattern.txt"
codes = {}
for name, args in [
    ("simulate", ["simulate", "--dgp", work + "/rules.txt", "--n", "400", "--seed", "3", "--out", panel]),
    ("estimate", ["estimate", "--data", panel, "--pattern", pattern, "--variance-mode", "estimated"]),
    ("oracle", ["oracle", "--data", panel]),
    ("diagnose", ["diagnose", "--data", panel, "--reps", "20", "--variance-mode", "known:1"]),
    ("suggest-pattern", ["suggest-pattern", "--data", panel, "--pattern", pattern, "--variance-mode", "known:1"]),
]:
    codes[name] = main(args + ["--out", work + "/" + name + ".json"] if name != "simulate" else args)
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"before": before, "after": after, "codes": codes}))
"""


def test_import_and_every_subcommand_leave_scipy_unloaded(tmp_path):
    (tmp_path / "rules.txt").write_text(RULES)
    (tmp_path / "pattern.txt").write_text(PATTERN)
    src = str(Path(seqeffects.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == {
        "simulate": 0,
        "estimate": 0,
        "oracle": 0,
        "diagnose": 0,
        "suggest-pattern": 0,
    }, run.stderr
    assert result["before"] == []
    assert result["after"] == []


def test_p_values_are_the_chi_square_tail_exactly():
    d = simulate(make_null_proxy_dgp(), 1000, seed=9000)
    for mode in (VarianceMode.estimated(), VarianceMode.known(100.0)):
        for test in (net_effect_null_test, standard_mean_equality_test):
            res = test(d, mode)
            assert res.p_value == float(chi2.sf(res.statistic, res.df))
            assert 0.0 < res.p_value < 1.0
