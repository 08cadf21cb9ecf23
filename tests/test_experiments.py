import json
from dataclasses import replace

import pytest

from irkit.cli import main
from irkit.errors import ConfigurationError
from irkit.experiments import RunManifest, any_failed, run
from irkit.irk_core import PrecondSpec
from irkit.nonlinear import SolverConfig

FAST = dict(newton_rtol=1e-11, krylov_rtol=1e-12)


class TestManifest:
    def test_round_trip_identity(self):
        m = RunManifest(
            experiment="convergence",
            problem="dahlquist",
            problem_params={"lam_re": -1.0},
            schemes=(("gauss", 2), ("radau_iia", 3)),
            dts=(0.2, 0.1),
            t_final=1.0,
            seed=7,
        )
        assert RunManifest.from_json(m.to_json()) == m

    @pytest.mark.parametrize("t_final", ["1", True, [1.0]])
    def test_t_final_that_is_no_real_number_rejected(self, t_final):
        with pytest.raises(ConfigurationError, match="t_final must be None or finite"):
            RunManifest(experiment="convergence", problem="dahlquist", t_final=t_final)

    @pytest.mark.parametrize("experiment",
                             ["convergence", "iterations", "gamma-compare", "dae-convergence"])
    def test_stepping_study_needs_a_t_final(self, experiment):
        # condition takes no time span (TestCondition runs it without one); these step to it
        m = RunManifest(experiment=experiment, problem="heat1d", schemes=(("gauss", 2),),
                        dts=(0.1,), t_final=None)
        with pytest.raises(ConfigurationError, match=f"{experiment} needs a finite t_final"):
            run(m)

    def test_defaults_are_the_solver_defaults(self):
        m = RunManifest(experiment="convergence", problem="dahlquist")
        cfg = SolverConfig()
        assert (m.variant, m.newton_rtol, m.krylov_rtol) == (
            cfg.variant, cfg.newton_rtol, cfg.krylov_rtol)
        assert m.gamma == PrecondSpec().gamma_mode
        assert m.solver_config() == cfg

    def test_hash_stable_and_sensitive(self):
        m1 = RunManifest(experiment="convergence", problem="dahlquist",
                         schemes=(("gauss", 2),), dts=(0.1,))
        m2 = RunManifest.from_json(m1.to_json())
        assert m1.hash == m2.hash
        m3 = RunManifest(experiment="convergence", problem="dahlquist",
                         schemes=(("gauss", 2),), dts=(0.2,))
        assert m1.hash != m3.hash

    def test_hash_names_the_configuration_not_the_output(self, tmp_path):
        # one study written to two paths is stamped with the hash of its
        # manifest without an output path
        base = RunManifest(experiment="convergence", problem="dahlquist",
                           schemes=(("gauss", 1),), dts=(0.2, 0.1), t_final=1.0)
        stamps = set()
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run(replace(base, out=str(out)))
            stamps |= {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]}
        assert stamps == {base.hash}

    def test_unknown_experiment(self):
        m = RunManifest(experiment="nope", problem="dahlquist",
                        schemes=(("gauss", 2),), dts=(0.1,))
        with pytest.raises(ConfigurationError):
            run(m)


class TestConvergence:
    def test_dahlquist_gauss2_rates(self):
        m = RunManifest(
            experiment="convergence", problem="dahlquist",
            schemes=(("gauss", 2),), dts=(0.2, 0.1, 0.05), t_final=1.0, **FAST,
        )
        rows = run(m)
        rates = [float(r["rate"]) for r in rows if r["rate"]]
        assert len(rates) == 2
        for rate in rates:
            assert rate == pytest.approx(4.0, abs=0.2)
        assert not any_failed(rows)

    def test_zero_dynamics_zero_error(self):
        m = RunManifest(
            experiment="convergence", problem="dahlquist",
            problem_params={"lam_re": 0.0},
            schemes=(("gauss", 1),), dts=(0.2, 0.1), t_final=1.0, **FAST,
        )
        rows = run(m)
        for row in rows:
            assert float(row["error"]) == 0.0

    def test_failed_cell_marked_and_run_continues(self):
        # backward Euler on u' = u: at dt = 1 the shifted block 1 - dt is
        # singular; the smaller steps still run, and only the last one has a
        # predecessor to take a rate from
        m = RunManifest(
            experiment="convergence", problem="dahlquist", problem_params={"lam_re": 1.0},
            schemes=(("radau_iia", 1),), dts=(1.0, 0.5, 0.25), t_final=1.0,
        )
        rows = run(m)
        assert [row["status"] for row in rows] == ["failed: SingularMatrixError", "ok", "ok"]
        assert [row["dt"] for row in rows] == [1.0, 0.5, 0.25]
        assert rows[0]["error"] == rows[0]["rate"] == rows[1]["rate"] == ""
        assert float(rows[1]["error"]) > 0.0 and float(rows[2]["rate"]) > 0.0
        assert any_failed(rows)

    def test_rows_carry_manifest_hash(self):
        m = RunManifest(
            experiment="convergence", problem="dahlquist",
            schemes=(("gauss", 1),), dts=(0.2,), t_final=1.0, **FAST,
        )
        rows = run(m)
        assert all(r["manifest_hash"] == m.hash for r in rows)


class TestDaeConvergence:
    def test_manufactured_radau2_rates(self):
        m = RunManifest(
            experiment="dae-convergence", problem="dae_manufactured",
            schemes=(("radau_iia", 2),), dts=(0.2, 0.1, 0.05), t_final=1.0, **FAST,
        )
        rows = run(m)
        rates = [float(r["rate"]) for r in rows if r["rate"]]
        for rate in rates:
            assert rate == pytest.approx(3.0, abs=0.3)

    def test_convergence_dispatches_dae(self):
        m = RunManifest(
            experiment="convergence", problem="dae_manufactured",
            schemes=(("radau_iia", 1),), dts=(0.2, 0.1), t_final=1.0, **FAST,
        )
        rows = run(m)
        assert all(row["status"] == "ok" for row in rows)

    def test_non_dae_rejected(self):
        m = RunManifest(
            experiment="dae-convergence", problem="heat1d",
            schemes=(("radau_iia", 2),), dts=(0.1,), t_final=0.5,
        )
        with pytest.raises(ConfigurationError):
            run(m)


class TestIterations:
    def test_backward_euler_linear_counts(self):
        m = RunManifest(
            experiment="iterations", problem="heat1d",
            problem_params={"n": 24},
            schemes=(("radau_iia", 1),), dts=(0.01,), t_final=0.01, **FAST,
        )
        rows = run(m)
        (row,) = rows
        assert int(row["newton_iterations"]) == 1
        assert int(row["krylov_iterations"]) == 1
        assert int(row["precond_applications"]) == 1

    def test_sdirk_and_irk_rows(self):
        m = RunManifest(
            experiment="iterations", problem="burgers1d",
            problem_params={"n": 48, "nu": 0.02},
            schemes=(("sdirk2", 2), ("gauss", 2)), dts=(0.02,), t_final=0.04,
            newton_rtol=1e-9, krylov_rtol=1e-6,
        )
        rows = run(m)
        assert len(rows) == 2
        assert all(row["status"] == "ok" for row in rows)


class TestGammaCompare:
    def test_star_wins_or_ties_on_heat(self):
        m = RunManifest(
            experiment="gamma-compare", problem="heat1d",
            problem_params={"n": 32},
            schemes=(("gauss", 4),), dts=(0.01, 0.1, 1.0), t_final=None,
            newton_rtol=1e-10, krylov_rtol=1e-10,
        )
        m = RunManifest.from_dict({**m.to_dict(), "t_final": 3.0})
        # keep runs short: t_final multiple of each dt
        rows = run(m)
        assert rows
        for row in rows:
            assert float(row["mean_krylov_star"]) <= float(row["mean_krylov_eta"]) + 1e-12

    def test_rejects_schemes_without_complex_blocks(self):
        m = RunManifest(
            experiment="gamma-compare", problem="heat1d",
            schemes=(("radau_iia", 1),), dts=(0.1,), t_final=0.2,
        )
        with pytest.raises(ConfigurationError):
            run(m)


class TestCondition:
    def test_gauss2_heat_below_table_bound(self):
        m = RunManifest(
            experiment="condition", problem="heat1d",
            problem_params={"n": 48},
            schemes=(("gauss", 2), ("lobatto_iiic", 2)), dts=(0.001, 0.01), t_final=None,
        )
        rows = run(m)
        for row in rows:
            kappa = float(row["kappa"])
            assert kappa <= float(row["bound_general"]) + 1e-6

    def test_requires_linear_operator(self):
        m = RunManifest(
            experiment="condition", problem="burgers1d",
            schemes=(("gauss", 2),), dts=(0.01,),
        )
        with pytest.raises(ConfigurationError):
            run(m)


class TestCli:
    def test_convergence_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main([
            "convergence", "--problem", "dahlquist", "--scheme", "gauss",
            "--stages", "2", "--dt", "0.2,0.1", "--t-final", "1.0",
            "--newton-rtol", "1e-11", "--krylov-rtol", "1e-12",
            "--out", str(out),
        ])
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("scheme,")
        assert len(text) == 3
        doc = json.loads((tmp_path / "conv.csv.manifest.json").read_text())
        assert doc["problem"] == "dahlquist"

    @pytest.mark.parametrize("flags, given", [
        ([], {}),
        (["--gamma", "eta", "--variant", "1", "--seed", "3", "--t-final", "0.05"],
         dict(gamma="eta", variant=1, seed=3, t_final=0.05)),
        (["--gamma", "2.5", "--newton-rtol", "1e-10"], dict(gamma=2.5, newton_rtol=1e-10)),
    ], ids=["none", "some", "numeric-gamma"])
    def test_flags_left_out_keep_the_manifest_defaults(self, tmp_path, flags, given):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--problem", "dahlquist", "--scheme", "gauss",
                   "--stages", "1", "--dt", "0.05,0.025", "--out", str(out), *flags])
        assert rc == 0
        stored = (tmp_path / "conv.csv.manifest.json").read_text()
        assert RunManifest.from_json(stored) == RunManifest(
            experiment="convergence", problem="dahlquist", schemes=(("gauss", 1),),
            dts=(0.05, 0.025), out=str(out), **given)

    def test_identical_manifests_identical_csv(self, tmp_path):
        out = tmp_path / "a.csv"
        manifest = RunManifest(
            experiment="convergence", problem="dahlquist",
            schemes=(("gauss", 2),), dts=(0.2, 0.1), t_final=1.0,
            out=str(out), **FAST,
        )
        (tmp_path / "m.json").write_text(manifest.to_json())
        rc1 = main(["convergence", "--manifest", str(tmp_path / "m.json")])
        first = out.read_bytes()
        rc2 = main(["convergence", "--manifest", str(tmp_path / "m.json")])
        assert rc1 == rc2 == 0
        assert out.read_bytes() == first

    def test_problem_params_flag(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main([
            "condition", "--problem", "heat1d", "--problem-param", "n=24",
            "--scheme", "gauss", "--stages", "2", "--dt", "0.001",
            "--out", str(out),
        ])
        assert rc == 0
        assert "gauss(2)" in out.read_text()

    def test_bad_configuration_exit_code(self):
        rc = main(["convergence", "--problem", "nope", "--scheme", "gauss",
                   "--stages", "2", "--dt", "0.1"])
        assert rc == 2

    def test_unknown_problem_param_exit_code(self, capsys):
        # a configuration error (2), not a failed cell (1) or a traceback
        rc = main(["convergence", "--problem", "dahlquist", "--problem-param", "m=3",
                   "--scheme", "gauss", "--stages", "2", "--dt", "0.1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: dahlquist takes no parameter 'm'; accepted: lam_re, lam_im")

    @pytest.mark.parametrize("doc, message", [
        ({"experiment": "convergence", "problem": "dahlquist", "bogus": 1},
         "unknown manifest keys: 'bogus'"),
        ([1, 2], "a manifest is a JSON object, not list"),
        ({"experiment": "convergence"}, "manifest lacks keys: 'problem'"),
        ({"experiment": "iterations", "problem": "dahlquist", "schemes": [["gauss", 1]],
          "dts": [0.1]}, "is for 'iterations', not 'convergence'"),
        ({"experiment": "convergence", "problem": "dahlquist", "t_final": float("nan")},
         "t_final must be None or finite, got nan"),
        # these two ended in a TypeError traceback with exit 1
        ({"experiment": "convergence", "problem": "dahlquist", "schemes": [["gauss", 1]],
          "dts": [0.1], "t_final": None}, "convergence needs a finite t_final, got None"),
        ({"experiment": "convergence", "problem": "dahlquist", "t_final": "1"},
         "t_final must be None or finite, got '1'"),
    ], ids=["unknown-key", "array", "missing-key", "other-experiment", "nan-t-final",
            "null-t-final", "string-t-final"])
    def test_manifest_it_cannot_run_exit_code(self, tmp_path, capsys, doc, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["convergence", "--manifest", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["dae-convergence", "--problem", "shear_layer_small", "--scheme", "radau_iia",
          "--stages", "2", "--dt", "0.01"], "shear_layer_small has no exact solution handle"),
        (["convergence", "--problem", "dahlquist", "--problem-param", "lam_re", "--scheme",
          "gauss", "--stages", "1", "--dt", "0.1"], "bad --problem-param 'lam_re'"),
        (["convergence", "--problem", "dahlquist", "--scheme", "gauss", "--dt", "0.1"],
         "gauss needs --stages"),
        # these two ended in a traceback with exit 1: numpy's _UFuncNoLoopError,
        # and an OverflowError from the step count
        (["convergence", "--problem", "burgers1d", "--problem-param", "nu=abc", "--scheme",
          "gauss", "--stages", "2", "--dt", "0.1"], "burgers1d: nu must be a real number"),
        (["convergence", "--problem", "dahlquist", "--scheme", "gauss", "--stages", "2",
          "--dt", "0.1", "--t-final", "inf"], "t_final must be None or finite, got inf"),
    ], ids=["no-exact-solution", "param-without-value", "gauss-without-stages",
            "string-param", "inf-t-final"])
    def test_flags_it_cannot_run_exit_code(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_missing_flags_exit_code(self):
        rc = main(["convergence", "--problem", "dahlquist"])
        assert rc == 2

    def test_sdirk_scheme_without_stages(self, tmp_path):
        out = tmp_path / "it.csv"
        rc = main([
            "iterations", "--problem", "heat1d", "--problem-param", "n=16",
            "--scheme", "sdirk2", "--dt", "0.01", "--t-final", "0.02",
            "--out", str(out),
        ])
        assert rc == 0
        assert "sdirk2(2)" in out.read_text()
