"""Tests for the command-line front end.

Each command is exercised through main() with temp config files; exit codes
are 0 (success), 2 (configuration error), 3 (numerical failure) and nothing
else.
"""

import json
import textwrap

import numpy as np
import pytest

from muntzspec import cli, mltune
from muntzspec.assembly import ManufacturedProblem
from muntzspec.errors import ParameterDomainError, StructuralError
from muntzspec.solver1d import SolverConfig
from muntzspec.solver2d import error_norms_2d

from test_solver2d import solve_2d_dense


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


SMOOTH_PROBLEM = """
    [problem]
    mu = 0.5
    nu = 2.0

    [discretization]
    M = 10
    N = 5
    lambda = 1.0
"""


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.3
            kappa = 2.0
            rho = 0.5
            dimension = 1
            t_end = 2.0
            exact = manufactured
            nu = 0.7
            forcing = manufactured

            [discretization]
            M = 12
            N = 6
            lambda = one

            [training]
            epochs = 3

            [models]
            ann = ann:model.json

            [reference]
            M = 24
            N = 12
            lambda = 0.5

            [output]
            out_dir = results
            """,
        )
        run = cli.parse_run_config(path)
        assert run.problem.mu == 0.3 and run.problem.t_end == 2.0
        assert run.discretization.lambda_source == "one"
        assert run.training == {"epochs": "3"}
        assert run.models == {"ann": "ann:model.json"}
        assert run.reference.m_space == 24
        # relative out_dir anchors at the config file's directory
        assert run.out_dir == tmp_path / "results"

    def test_missing_file_rejected(self):
        with pytest.raises(StructuralError):
            cli.parse_run_config("/nonexistent/run.ini")

    def test_missing_mu_rejected(self, tmp_path):
        path = write_config(tmp_path, "[problem]\nnu = 0.5\n")
        with pytest.raises(StructuralError):
            cli.parse_run_config(path)

    def test_unknown_exact_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, "[problem]\nmu = 0.5\nexact = magic\n")
        with pytest.raises(StructuralError):
            cli.parse_run_config(path)

    def test_unknown_forcing_rejected(self, tmp_path):
        path = write_config(
            tmp_path, "[problem]\nmu = 0.5\nnu = 1.0\nforcing = bumps\n"
        )
        with pytest.raises(StructuralError):
            cli.parse_run_config(path)

    def test_expression_forcing_without_exact_needs_no_nu(self, tmp_path):
        path = write_config(
            tmp_path,
            "[problem]\nmu = 0.5\nexact = none\nforcing = sin_pi_x_sin_pi_t\n",
        )
        run = cli.parse_run_config(path)
        assert run.problem.nu is None

    def test_manufactured_forcing_needs_exact(self, tmp_path):
        path = write_config(
            tmp_path, "[problem]\nmu = 0.5\nexact = none\nforcing = manufactured\n"
        )
        with pytest.raises(StructuralError):
            cli.parse_run_config(path)


class TestLambdaResolution:
    def test_literal_and_one(self, tmp_path):
        assert cli.resolve_lambda("0.25", 0.5, tmp_path) == 0.25
        assert cli.resolve_lambda("one", 0.5, tmp_path) == 1.0

    def test_ann_source(self, tmp_path):
        net = mltune.init_network((1, 3, 1), 0.01, np.random.default_rng(4))
        mltune.save_model(net, str(tmp_path / "net.json"))
        lam = cli.resolve_lambda("ann:net.json", 0.4, tmp_path)
        assert lam == mltune.forward(net, 0.4)

    def test_spline_source(self, tmp_path):
        model = mltune.SplineModel(
            np.array([0.2, 0.8]), np.array([0.1, 0.3]), np.zeros(2, dtype=bool)
        )
        mltune.save_spline(model, str(tmp_path / "sp.json"))
        lam = cli.resolve_lambda("spline:sp.json", 0.5, tmp_path)
        assert lam == pytest.approx(0.2, rel=1e-12)

    def test_garbage_rejected(self, tmp_path):
        with pytest.raises(StructuralError):
            cli.resolve_lambda("huge", 0.5, tmp_path)


class TestTrainingSection:
    def test_typed_fields(self):
        cfg = cli.build_training_config(
            {"epochs": "3", "restarts": "1", "n_mu": "2", "n_nu": "2",
             "batch_size": "4", "lr_base": "5e-4", "seed": "9"}
        )
        assert cfg.epochs == 3 and cfg.lr_base == 5e-4 and cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(StructuralError):
            cli.build_training_config({"learning_rate": "1e-3"})

    def test_bad_value_rejected(self):
        with pytest.raises(StructuralError):
            cli.build_training_config({"epochs": "many"})

    def test_every_config_field_is_a_typed_key(self):
        import dataclasses

        for field in dataclasses.fields(mltune.TrainingConfig):
            cfg = cli.build_training_config({field.name: str(field.default)})
            value = getattr(cfg, field.name)
            assert type(value) is type(field.default) and value == field.default, field.name

    def test_env_workers_default(self):
        cfg = cli.build_training_config({"epochs": "2"}, workers_env=4)
        assert cfg.workers == 4
        cfg = cli.build_training_config({"epochs": "2", "workers": "1"}, workers_env=4)
        assert cfg.workers == 1


class TestSolveCommand:
    def test_happy_path_writes_one_row(self, tmp_path, capsys):
        path = write_config(tmp_path, SMOOTH_PROBLEM)
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(tmp_path / "errors.csv")
        assert header == "dim,mu,lambda,M,N,L2,Linf,residual,cond_warn"
        assert len(rows) == 1
        dim, mu, lam, m, n, l2, linf, res, warn = rows[0]
        assert (dim, m, n) == ("1", "10", "5")
        # spatial truncation of sin(pi x) dominates at M = 10
        assert float(linf) < 1e-4
        assert warn in ("0", "1")

    def test_lambda_below_floor_exits_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.5
            nu = 0.5

            [discretization]
            M = 8
            N = 4
            lambda = 0.001
            """,
        )
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "0.01" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            "nu = 0.5\nt_end = inf\n",
            "nu = 0.5\nkappa = nan\n",
            "kappa = nan\nexact = none\nforcing = sin_pi_x_sin_pi_t\n",
        ],
        ids=["t_end_inf", "kappa_nan", "kappa_nan_expression_forcing"],
    )
    def test_non_finite_equation_parameter_exits_2(self, tmp_path, capsys, fields):
        # these once exited 3 ("forcing evaluated non-finite") or 2 with a
        # misleading config mismatch or scipy's "must not contain infs or NaNs"
        path = write_config(
            tmp_path,
            "[problem]\nmu = 0.5\n" + fields
            + "[discretization]\nM = 8\nN = 4\nlambda = 0.5\n"
            + "[reference]\nM = 10\nN = 6\nlambda = 0.5\n",
        )
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_model_file_exits_2(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.5
            nu = 0.5

            [discretization]
            M = 8
            N = 4
            lambda = ann:missing.json
            """,
        )
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["ann", "spline"])
    def test_non_object_model_file_exits_2(self, tmp_path, kind):
        # a model file holding valid JSON that is not an object is a
        # configuration error
        (tmp_path / "list.json").write_text("[1, 2]")
        path = write_config(
            tmp_path,
            f"""
            [problem]
            mu = 0.5
            nu = 0.5

            [discretization]
            M = 8
            N = 4
            lambda = {kind}:list.json
            """,
        )
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    def test_no_exact_without_reference_exits_2(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.5
            exact = none
            forcing = sin_pi_x_sin_pi_t

            [discretization]
            M = 8
            N = 4
            lambda = 0.5
            """,
        )
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 2

    def test_surrogate_reference_solution(self, tmp_path):
        # unknown exact solution: errors measured against a finer solve
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.4
            exact = none
            forcing = sin_pi_x_sin_pi_t

            [discretization]
            M = 12
            N = 8
            lambda = 0.5

            [reference]
            M = 20
            N = 14
            lambda = 0.5
            """,
        )
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_rows(tmp_path / "errors.csv")
        assert float(rows[0][6]) < 1e-4

    def test_2d_problem_row(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.5
            nu = 1.5
            rho = 0.0
            dimension = 2

            [discretization]
            M = 8
            N = 4
            lambda = 0.5
            """,
        )
        code = cli.main(["solve", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_rows(tmp_path / "errors.csv")
        assert rows[0][0] == "2"
        # spatial truncation of the product mode dominates at M = 8
        assert float(rows[0][6]) < 1e-2

    @pytest.mark.parametrize("kappa", ["1e300", "1e308"])
    def test_2d_overflowing_diffusivity_exits_3(self, tmp_path, capsys, kappa):
        # these once exited 0 and wrote a NaN residual or a nan,nan,nan row;
        # the same configs in 1D exit 3
        path = write_config(
            tmp_path,
            "[problem]\nmu = 0.5\nnu = 1.5\nrho = 0.0\ndimension = 2\n"
            + f"kappa = {kappa}\n[discretization]\nM = 8\nN = 4\nlambda = 0.5\n",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "errors.csv").exists()

    def test_2d_packaged_ann_lambda_matches_dense_oracle(self, tmp_path):
        # the 2D fast path once exited 3 here ("imaginary residue 1.404e-02")
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.12
            nu = 0.88
            rho = 0.0
            dimension = 2

            [discretization]
            M = 12
            N = 20
            lambda = ann:packaged
            """,
        )
        assert cli.main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "errors.csv")
        lam, linf, residual = float(rows[0][2]), float(rows[0][6]), float(rows[0][7])
        assert lam == cli.resolve_lambda("ann:packaged", 0.12, tmp_path)
        assert residual <= 1e-10
        problem = ManufacturedProblem(mu=0.12, nu=0.88, rho=0.0, dim=2)
        config = SolverConfig(mu=0.12, lam=lam, rho=0.0, m_space=12, n_time=20, dimension=2)
        dense = error_norms_2d(solve_2d_dense(config, problem), problem.exact).linf
        assert linf <= 1e-6
        assert abs(linf - dense) <= 1e-2 * dense


class TestConvergenceCommand:
    def test_temporal_sweep_rows(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [problem]
            mu = 0.12
            nu = 0.88

            [discretization]
            M = 12
            N = 4
            lambda = 0.0962
            """,
        )
        code = cli.main(
            ["convergence", "--config", path, "--sweep", "N=4,8,12", "--out", str(tmp_path)]
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "errors.csv")
        assert [r[4] for r in rows] == ["4", "8", "12"]
        linf = [float(r[6]) for r in rows]
        assert linf[-1] < linf[0]

    def test_single_point_sweep(self, tmp_path):
        path = write_config(tmp_path, SMOOTH_PROBLEM)
        code = cli.main(
            ["convergence", "--config", path, "--sweep", "M=10", "--out", str(tmp_path)]
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "errors.csv")
        assert len(rows) == 1 and rows[0][3] == "10"

    def test_bad_sweep_exits_2(self, tmp_path):
        path = write_config(tmp_path, SMOOTH_PROBLEM)
        assert cli.main(["convergence", "--config", path, "--sweep", "K=4"]) == 2
        assert cli.main(["convergence", "--config", path, "--sweep", "N=a,b"]) == 2

    def test_sweep_ignores_thread_env(self, tmp_path, monkeypatch):
        # the sweep runs serially and does not read the variable
        monkeypatch.setenv(cli.THREADS_ENV, "zero")
        path = write_config(tmp_path, SMOOTH_PROBLEM)
        assert cli.main(
            ["convergence", "--config", path, "--sweep", "N=2,4", "--out", str(tmp_path)]
        ) == 0
        _, rows = read_rows(tmp_path / "errors.csv")
        assert [r[4] for r in rows] == ["2", "4"]

    def test_thread_env_validated(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, TRAIN_MINI)
        for bad in ("zero", "0"):
            monkeypatch.setenv(cli.THREADS_ENV, bad)
            assert cli.main(["train", "--config", path, "--out", str(tmp_path)]) == 2
            assert cli.THREADS_ENV in capsys.readouterr().err

    def test_thread_env_parsed_once_for_both_commands(self, tmp_path, monkeypatch, capsys):
        # only train reads the variable; test_sweep_ignores_thread_env covers convergence
        monkeypatch.delenv(cli.THREADS_ENV, raising=False)
        assert cli._env_threads() is None  # unset: no override
        monkeypatch.setenv(cli.THREADS_ENV, "3")
        assert cli._env_threads() == 3
        monkeypatch.setenv(cli.THREADS_ENV, "two")
        path = write_config(tmp_path, TRAIN_MINI)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path)]) == 2
        assert cli.THREADS_ENV in capsys.readouterr().err


TRAIN_MINI = """
    [training]
    n_mu = 2
    n_nu = 2
    batch_size = 4
    epochs = 2
    restarts = 1
    hidden_layers = 1
    hidden_width = 3
    seed = 5
"""


class TestTrainCommand:
    def test_writes_model_and_history(self, tmp_path):
        path = write_config(tmp_path, TRAIN_MINI)
        code = cli.main(["train", "--config", path, "--out", str(tmp_path / "run1")])
        assert code == 0
        model = json.loads((tmp_path / "run1" / "model.json").read_text())
        assert model["layer_sizes"] == [1, 3, 1]
        assert model["metadata"]["seed"] == 5
        header, rows = read_rows(tmp_path / "run1" / "loss_history.csv")
        assert header == "restart,epoch,train_loss,val_loss"
        assert len(rows) == 2

    def test_rerun_is_deterministic(self, tmp_path):
        path = write_config(tmp_path, TRAIN_MINI)
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "loss_history.csv").read_bytes() == (
            tmp_path / "b" / "loss_history.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "model.json").read_bytes() == (
            tmp_path / "b" / "model.json"
        ).read_bytes()

    def test_zero_epochs_exits_2(self, tmp_path):
        path = write_config(tmp_path, "[training]\nepochs = 0\n")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path)]) == 2

    def test_non_finite_optimizer_setting_exits_2_before_solving(self, tmp_path, monkeypatch):
        # a NaN decay rate once ran every dataset solve and exited 3
        def no_solve(*args, **kwargs):
            raise AssertionError("train solved before rejecting its configuration")

        monkeypatch.setattr(mltune, "solve_1d_batch", no_solve)
        path = write_config(tmp_path, TRAIN_MINI + "    beta1 = nan\n")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path)]) == 2


class TestPredictCommand:
    def zero_model(self, tmp_path):
        net = mltune.Network(
            (1, 3, 1),
            0.01,
            [np.zeros((3, 1)), np.zeros((1, 3))],
            [np.zeros(3), np.zeros(1)],
        )
        mltune.save_model(net, str(tmp_path / "zero.json"))
        return write_config(tmp_path, "[models]\nann = ann:zero.json\n")

    def test_zero_weight_model_predicts_half(self, tmp_path):
        path = self.zero_model(tmp_path)
        code = cli.main(["predict", "--config", path, "--mu", "0.5,0.25", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(tmp_path / "predictions.csv")
        assert header == "mu,lambda"
        assert [r[1] for r in rows] == ["0.5", "0.5"]

    def test_non_numeric_mu_exits_2(self, tmp_path):
        path = self.zero_model(tmp_path)
        assert cli.main(["predict", "--config", path, "--mu", "half"]) == 2

    def test_out_of_range_mu_exits_2(self, tmp_path):
        path = self.zero_model(tmp_path)
        assert cli.main(["predict", "--config", path, "--mu", "1.5"]) == 2

    def test_missing_models_section_exits_2(self, tmp_path):
        path = write_config(tmp_path, "[problem]\nmu = 0.5\nnu = 0.5\n")
        assert cli.main(["predict", "--config", path, "--mu", "0.5"]) == 2

    def test_corrupt_model_exits_2(self, tmp_path):
        (tmp_path / "bad.json").write_text("{}")
        path = write_config(tmp_path, "[models]\nann = ann:bad.json\n")
        assert cli.main(["predict", "--config", path, "--mu", "0.5"]) == 2

    def test_spline_model_source(self, tmp_path):
        model = mltune.SplineModel(
            np.array([0.2, 0.8]), np.array([0.1, 0.3]), np.zeros(2, dtype=bool)
        )
        mltune.save_spline(model, str(tmp_path / "sp.json"))
        path = write_config(tmp_path, "[models]\nspline = spline:sp.json\n")
        code = cli.main(["predict", "--config", path, "--mu", "0.5", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_rows(tmp_path / "predictions.csv")
        assert float(rows[0][1]) == pytest.approx(0.2, rel=1e-12)


class TestCompareCommand:
    def models_config(self, tmp_path, same=False):
        net = mltune.init_network((1, 3, 1), 0.01, np.random.default_rng(12))
        mltune.save_model(net, str(tmp_path / "net.json"))
        spline = mltune.SplineModel(
            np.array([0.1, 0.9]), np.array([0.15, 0.25]), np.zeros(2, dtype=bool)
        )
        mltune.save_spline(spline, str(tmp_path / "sp.json"))
        spline_source = "ann:net.json" if same else "spline:sp.json"
        return write_config(
            tmp_path,
            f"""
            [problem]
            mu = 0.35
            nu = 0.65

            [discretization]
            M = 10
            N = 6
            lambda = one

            [models]
            ann = ann:net.json
            spline = {spline_source}
            """,
        )

    def test_three_rows_in_order(self, tmp_path):
        path = self.models_config(tmp_path)
        code = cli.main(["compare", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_rows(tmp_path / "compare.csv")
        assert header == "source,lambda,L2,Linf"
        assert [r[0] for r in rows] == ["one", "spline", "ann"]
        assert float(rows[0][1]) == 1.0

    def test_identical_sources_give_identical_numbers(self, tmp_path):
        path = self.models_config(tmp_path, same=True)
        assert cli.main(["compare", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "compare.csv")
        assert rows[1][1:] == rows[2][1:]

    def test_missing_problem_exits_2(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [discretization]
            M = 8
            N = 4
            lambda = one

            [models]
            ann = ann:x.json
            spline = spline:y.json
            """,
        )
        assert cli.main(["compare", "--config", path]) == 2


class TestDatasetCommand:
    def test_writes_both_datasets(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [training]
            n_mu = 2
            n_nu = 3
            batch_size = 6
            seed = 8
            """,
        )
        code = cli.main(["dataset", "--config", path, "--out", str(tmp_path / "data")])
        assert code == 0
        for name in ("training_data.csv", "validation_data.csv"):
            header, rows = read_rows(tmp_path / "data" / name)
            assert header == "mu,nu,ref_error"
            assert len(rows) == 6
        back = np.loadtxt(tmp_path / "data" / "training_data.csv", delimiter=",", skiprows=1)
        assert back.shape == (6, 3)
        # the rows rebuild a valid dataset
        mltune.Dataset("training", back[:, 0], back[:, 1], back[:, 2], 8, 2, 3)
