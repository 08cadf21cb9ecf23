"""Golden studies: the rows each study driver returns for eleven small manifests
must match ``golden_studies.json``.  Strings (status and manifest hash
included) and integers must be equal; the float columns, written as
``repr`` strings, must agree to ``FLOAT_RTOL`` relative, with NaN equal to
NaN.  The manifests cover every study, failed cells in convergence,
iterations, gamma-compare and condition, a reference-solution convergence
run, SDIRK rows and both shift modes of gamma-compare.  ``out`` stays unset,
so every manifest hash is the one stored.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden_studies.py

and say in CHANGES.md why it moved.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from irkit.experiments import RunManifest, run

GOLDEN = Path(__file__).with_name("golden_studies.json")
FLOAT_RTOL = 1e-12
FLOAT_COLUMNS = {"dt", "error", "rate", "constraint_residual", "eta", "beta", "kappa",
                 "mean_krylov_eta", "mean_krylov_star", "bound_general", "bound_distinct"}
FAST = dict(newton_rtol=1e-11, krylov_rtol=1e-12)

MANIFESTS = {
    "convergence-dahlquist-gauss2": dict(
        experiment="convergence", problem="dahlquist", schemes=[("gauss", 2)],
        dts=[0.1, 0.2, 0.05], t_final=1.0, **FAST),
    # backward Euler on u' = u: the dt = 1 cell is singular and resets the rate
    "convergence-failed-cell": dict(
        experiment="convergence", problem="dahlquist", problem_params={"lam_re": 1.0},
        schemes=[("radau_iia", 1), ("gauss", 1)], dts=[1.0, 0.5, 0.25], t_final=1.0),
    "convergence-reference": dict(
        experiment="convergence", problem="advdiff1d", problem_params={"n": 8},
        schemes=[("radau_iia", 2)], dts=[0.04, 0.02], t_final=0.04),
    "dae-convergence-radau2": dict(
        experiment="dae-convergence", problem="dae_manufactured",
        schemes=[("radau_iia", 2)], dts=[0.2, 0.1], t_final=1.0, **FAST),
    "iterations-heat-irk": dict(
        experiment="iterations", problem="heat1d", problem_params={"n": 24},
        schemes=[("radau_iia", 1), ("gauss", 2)], dts=[0.01, 0.005], t_final=0.01, **FAST),
    "iterations-burgers-sdirk": dict(
        experiment="iterations", problem="burgers1d", problem_params={"n": 32, "nu": 0.02},
        schemes=[("sdirk2", 2), ("sdirk3", 3)], dts=[0.02], t_final=0.04, krylov_rtol=1e-6),
    "iterations-failed-cell": dict(
        experiment="iterations", problem="dahlquist", problem_params={"lam_re": 1.0},
        schemes=[("radau_iia", 1)], dts=[1.0, 0.5], t_final=1.0),
    "gamma-compare-heat-gauss4": dict(
        experiment="gamma-compare", problem="heat1d", problem_params={"n": 16},
        schemes=[("gauss", 4)], dts=[0.01, 0.1], t_final=0.2,
        newton_rtol=1e-10, krylov_rtol=1e-10),
    # dt * lambda equals gauss(2)'s eigenvalue at dt = 1: both shift modes fail
    "gamma-compare-failed-cell": dict(
        experiment="gamma-compare", problem="dahlquist",
        problem_params={"lam_re": 3.0, "lam_im": 3.0 ** 0.5},
        schemes=[("gauss", 2)], dts=[1.0, 0.5], t_final=1.0),
    "condition-heat-eta": dict(
        experiment="condition", problem="heat1d", problem_params={"n": 24},
        schemes=[("gauss", 2), ("lobatto_iiic", 3)], dts=[0.001, 0.01], gamma="eta"),
    "condition-failed-cell": dict(
        experiment="condition", problem="dahlquist", problem_params={"lam_re": 1.0},
        schemes=[("radau_iia", 1), ("gauss", 2)], dts=[1.0, 0.5]),
}


def study(name, **overrides):
    manifest = RunManifest.from_dict({**MANIFESTS[name], **overrides})
    return manifest, run(manifest)


def assert_rows_match(got, want):
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert list(row) == list(ref)
        for key, value in row.items():
            expect = ref[key]
            assert type(value) is type(expect), (key, value, expect)
            if key in FLOAT_COLUMNS and value != "" and expect != "":
                a, b = float(value), float(expect)
                assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= FLOAT_RTOL * abs(b), \
                    (key, value, expect)
            else:
                assert value == expect, (key, value, expect)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_file_matches_the_manifests(golden):
    assert list(golden) == list(MANIFESTS)


@pytest.mark.parametrize("name", list(MANIFESTS))
def test_golden_study(golden, name):
    assert_rows_match(study(name)[1], golden[name])


def test_csv_holds_the_returned_rows(golden, tmp_path):
    out = tmp_path / "cond.csv"
    manifest, rows = study("condition-failed-cell", out=str(out))
    assert_rows_match(rows, [{**ref, "manifest_hash": manifest.hash}
                             for ref in golden["condition-failed-cell"]])
    with out.open(newline="") as fh:
        header, *body = csv.reader(fh)
    assert header == list(rows[0])
    assert body == [[str(v) for v in row.values()] for row in rows]
    sidecar = out.with_suffix(".csv.manifest.json").read_text()
    assert sidecar == manifest.to_json() + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: study(name)[1] for name in MANIFESTS}, indent=1) + "\n")
