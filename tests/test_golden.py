"""Reports of the bundled scenarios compared against recorded ones.

tests/data holds the standard output of `qmeasure run` on both bundled
scenarios and of one 11-value sweep, and four scenarios of its own with their
`run` output: a non-diagonal d=4 `oit`, a d=3 `joint` whose processes have
apparatus dims 3 and 2, a `joint` of two dilations of the eta = 0.8
unsharp observable along x, whose meters commute only because the dilation
completes its isometry covariantly, and a `sample` of 150000 draws (three
chunks) from two equal `custom` entries, the dilation of a noisy d=3 POVM
whose joint table has two zero cells; it pins the sampled counts. Keys,
strings and booleans must match exactly; numbers must agree within
NUMBER_TOL. Regenerate a file only when a
report is meant to change, and say why in the commit.
"""

import json
import math
import pathlib

import pytest

from conftest import refuse_interaction_builders, refuse_meter_evolution
from qmeasure import load_scenario_file, run_experiment
from qmeasure.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
NUMBER_TOL = 1e-12
SWEEP_VALUES = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"
# the directory holding each recorded scenario: bundled ones, or tests/data's own
SCENARIO_DIRS = {
    "oit_sigma_z": REPO / "scenarios",
    "unsharp_eta08": REPO / "scenarios",
    "oit_nondiagonal_d4": DATA,
    "joint_unequal_apparatus_d3": DATA,
    "joint_unsharp_x": DATA,
    "sample_noisy_d3": DATA,
}


def assert_matches(got, want, where="report"):
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        assert got == want and type(got) is type(want), where
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=NUMBER_TOL), where
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    else:
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")


def _stdout(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(SCENARIO_DIRS))
def test_run_report_matches_recorded(capsys, name):
    out = _stdout(capsys, "run", SCENARIO_DIRS[name] / f"{name}.json")
    want = json.loads((DATA / f"run_{name}.json").read_text())
    assert_matches(json.loads(out), want)


# the model pairs decided on H, every one of them as both observers' shared process
DECIDED_ON_H = ("oit_sigma_z", "unsharp_eta08", "oit_nondiagonal_d4", "joint_unsharp_x")


@pytest.mark.parametrize("name", DECIDED_ON_H)
def test_a_pair_decided_on_h_builds_no_interaction(monkeypatch, name):
    # a hot path that reads process.interaction or evolves a meter fails here, not
    # only in the benchmark
    refuse_interaction_builders(monkeypatch)
    refuse_meter_evolution(monkeypatch)
    report = run_experiment(load_scenario_file(SCENARIO_DIRS[name] / f"{name}.json"))
    want = json.loads((DATA / f"run_{name}.json").read_text())
    assert_matches(json.loads(json.dumps(report)), want)


def _csv(text):
    header, *rows = text.strip().splitlines()
    return [header, [[float(x) for x in row.split(",")] for row in rows]]


def test_sweep_matches_recorded(capsys):
    out = _stdout(capsys, "sweep", REPO / "scenarios" / "unsharp_eta08.json",
                  "--param", "eta", "--values", SWEEP_VALUES)
    assert_matches(_csv(out), _csv((DATA / "sweep_unsharp_eta08.csv").read_text()))


def test_comparison_flags_a_drift_beyond_the_tolerance():
    want = {"a": [0.5, True, "x"]}
    assert_matches({"a": [0.5 + NUMBER_TOL / 2, True, "x"]}, want)
    for bad in ({"a": [0.5 + 1e-11, True, "x"]}, {"a": [0.5, 1, "x"]},
                {"a": [0.5, True, "y"]}, {"b": [0.5, True, "x"]}):
        with pytest.raises(AssertionError):
            assert_matches(bad, want)
