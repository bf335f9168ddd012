"""Tests for the learned exponent tuner.

Oracles: finite differences for every gradient path, hand-computed
activations for a minimal network, closed-form optimizer/scheduler steps,
and the ratio structure of the loss (forcing lambda = 1 must reproduce the
cached reference solves exactly).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from muntzspec import mltune as mt
from muntzspec import solver1d
from muntzspec.assembly import TemporalOperators
from muntzspec.errors import (
    NumericalFailure,
    ParameterDomainError,
    StructuralError,
    TrainingFailure,
)


def tiny_config(**overrides):
    """Desk-sized hyperparameters for fast unit runs."""
    base = dict(
        n_mu=2,
        n_nu=2,
        batch_size=4,
        epochs=2,
        restarts=2,
        hidden_layers=1,
        hidden_width=3,
        seed=11,
    )
    base.update(overrides)
    return mt.TrainingConfig(**base)


class TestNetwork:
    def test_init_shapes_and_bounds(self):
        rng = np.random.default_rng(0)
        net = mt.init_network((1, 20, 20, 1), 0.01, rng)
        shapes_w = [w.shape for w in net.weights]
        shapes_b = [b.shape for b in net.biases]
        assert shapes_w == [(20, 1), (20, 20), (1, 20)]
        assert shapes_b == [(20,), (20,), (1,)]
        for w, b, fan_in in zip(net.weights, net.biases, (1, 20, 20)):
            bound = math.sqrt(1.0 / fan_in)
            assert np.all(np.abs(w) <= bound)
            assert np.all(np.abs(b) <= bound)

    def test_forward_hand_computed(self):
        # one hidden unit: z1 = 2 mu - 0.5, leaky slope 0.01 on the negative
        # branch, then sigmoid(1.5 a + 0.2)
        net = mt.Network(
            (1, 1, 1),
            0.01,
            [np.array([[2.0]]), np.array([[1.5]])],
            [np.array([-0.5]), np.array([0.2])],
        )
        z1 = 2.0 * 0.1 - 0.5
        a1 = 0.01 * z1
        expected = 1.0 / (1.0 + math.exp(-(1.5 * a1 + 0.2)))
        assert_allclose(mt.forward(net, 0.1), expected, rtol=1e-15)
        z1p = 2.0 * 0.4 - 0.5
        expected_p = 1.0 / (1.0 + math.exp(-(1.5 * z1p + 0.2)))
        assert_allclose(mt.forward(net, 0.4), expected_p, rtol=1e-15)

    def test_forward_batch_matches_scalar(self):
        net = mt.init_network((1, 5, 5, 1), 0.01, np.random.default_rng(3))
        mus = np.linspace(0.05, 0.95, 11)
        batch = mt.forward_batch(net, mus)
        scalar = np.array([mt.forward(net, m) for m in mus])
        assert_allclose(batch, scalar, rtol=0.0, atol=0.0)

    def test_output_in_unit_interval(self):
        # sigmoid bound holds for any finite parameters
        net = mt.init_network((1, 4, 1), 0.01, np.random.default_rng(9))
        for w in net.weights:
            w *= 50.0
        out = mt.forward_batch(net, np.linspace(0.01, 0.99, 23))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    @pytest.mark.parametrize(
        "sizes",
        [(1, 1), (2, 4, 1), (1, 4, 2)],
        ids=["too-short", "vector-input", "vector-output"],
    )
    def test_layer_sizes_rejected(self, sizes):
        rng = np.random.default_rng(0)
        with pytest.raises(StructuralError):
            mt.init_network(sizes, 0.01, rng)

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(StructuralError):
            mt.Network(
                (1, 2, 1),
                0.01,
                [np.zeros((2, 1)), np.zeros((1, 3))],
                [np.zeros(2), np.zeros(1)],
            )
        with pytest.raises(StructuralError):
            mt.Network((1, 2, 1), 0.01, [np.zeros((2, 1))], [np.zeros(2)])


class TestBackprop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        # d(sum upstream * output)/dtheta against central differences
        rng = np.random.default_rng(seed)
        net = mt.init_network((1, 3, 1), 0.01, rng)
        mus = rng.uniform(0.05, 0.95, size=4)
        upstream = rng.normal(size=4)
        grads_w, grads_b = mt.backprop(net, mus, upstream)
        h = 1e-6

        def objective():
            return float(np.sum(upstream * mt.forward_batch(net, mus)))

        for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
            for arr, grad in zip(params, grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    saved = arr[idx]
                    arr[idx] = saved + h
                    f_plus = objective()
                    arr[idx] = saved - h
                    f_minus = objective()
                    arr[idx] = saved
                    fd = (f_plus - f_minus) / (2.0 * h)
                    assert_allclose(grad[idx], fd, rtol=1e-6, atol=1e-12)

    def test_upstream_linearity(self):
        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(5))
        mus = np.array([0.2, 0.7])
        upstream = np.array([0.4, -1.1])
        gw1, gb1 = mt.backprop(net, mus, upstream)
        gw2, gb2 = mt.backprop(net, mus, 2.0 * upstream)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert_allclose(b, 2.0 * a, rtol=1e-14)

    def test_batch_additivity(self):
        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(6))
        mus = np.array([0.15, 0.6, 0.85])
        upstream = np.array([1.0, -0.5, 0.25])
        gw, gb = mt.backprop(net, mus, upstream)
        acc_w = [np.zeros_like(w) for w in net.weights]
        acc_b = [np.zeros_like(b) for b in net.biases]
        for m, u in zip(mus, upstream):
            sw, sb = mt.backprop(net, np.array([m]), np.array([u]))
            for a, s in zip(acc_w + acc_b, sw + sb):
                a += s
        for a, g in zip(acc_w + acc_b, gw + gb):
            assert_allclose(g, a, rtol=1e-13, atol=1e-16)

    def test_sample_count_mismatch_rejected(self):
        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(7))
        with pytest.raises(StructuralError):
            mt.backprop(net, np.array([0.5, 0.6]), np.array([1.0]))


class TestAdam:
    def _setup(self, grad_value):
        params = [np.array([[0.3]]), np.array([[-0.2]]), np.array([0.1]), np.array([0.05])]
        state = mt.AdamState.for_params(params)
        grads = [np.full_like(p, grad_value) for p in params]
        return params, state, grads

    def test_first_step_is_signed_learning_rate(self):
        # bias correction makes step one equal lr * g / (|g| + eps)
        cfg = mt.TrainingConfig()
        params, state, grads = self._setup(0.37)
        before = [p.copy() for p in params]
        mt.adam_step(state, params, grads, cfg.lr_base, cfg)
        for prev, now in zip(before, params):
            assert_allclose(prev - now, cfg.lr_base * np.sign(0.37), rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_leaves_parameters(self):
        cfg = mt.TrainingConfig()
        params, state, grads = self._setup(0.0)
        before = [p.copy() for p in params]
        mt.adam_step(state, params, grads, cfg.lr_base, cfg)
        for prev, now in zip(before, params):
            assert_allclose(now, prev, rtol=0.0, atol=0.0)

    def test_first_step_scale_invariance(self):
        cfg = mt.TrainingConfig()
        params_a, state_a, grads_a = self._setup(0.01)
        params_b, state_b, grads_b = self._setup(1000.0 * 0.01)
        mt.adam_step(state_a, params_a, grads_a, cfg.lr_base, cfg)
        mt.adam_step(state_b, params_b, grads_b, cfg.lr_base, cfg)
        for a, b in zip(params_a, params_b):
            assert_allclose(a, b, rtol=1e-5)


class TestScheduler:
    @pytest.mark.parametrize(
        "epoch,expected",
        [
            (1, 1.0e-3),
            (51, 1.0e-6),
            (52, 1.0e-3),
            (102, 0.5 * (1.0e-3 + 1.0e-6)),
            (152, 1.0e-6),
            (153, 1.0e-3),
        ],
        ids=[
            "first-cycle-start",
            "first-cycle-end",
            "second-cycle-start",
            "second-cycle-middle",
            "second-cycle-end",
            "third-cycle-start",
        ],
    )
    def test_cycle_endpoints(self, epoch, expected):
        cfg = mt.TrainingConfig()
        assert_allclose(mt.cawr_lr(epoch, cfg), expected, rtol=1e-12)

    def test_monotone_within_half_cycle(self):
        cfg = mt.TrainingConfig()
        values = [mt.cawr_lr(e, cfg) for e in range(1, 52)]
        assert np.all(np.diff(values) < 0.0)

    def test_epoch_domain(self):
        with pytest.raises(ParameterDomainError):
            mt.cawr_lr(0, mt.TrainingConfig())


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(lr_min=0.5, lr_base=1e-3),
            dict(fd_step=0.5),
            dict(clamp_lo=0.005),
            dict(clamp_lo=0.9, clamp_hi=0.2),
            dict(t0=0),
            dict(workers=0),
            dict(hidden_layers=0),
            dict(beta1=float("nan")),
            dict(beta1=1.0),
            dict(beta2=-0.1),
            dict(beta2=float("inf")),
            dict(eps=0.0),
            dict(eps=float("nan")),
            dict(negative_slope=1.0),
            dict(negative_slope=float("nan")),
            dict(lr_base=float("inf")),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterDomainError):
            mt.TrainingConfig(**kwargs)

    def test_layer_sizes(self):
        assert mt.TrainingConfig().layer_sizes == (1, 20, 20, 1)
        assert tiny_config().layer_sizes == (1, 3, 1)


class TestSampleError:
    def test_smooth_case_is_spectrally_small(self):
        # nu = 2 lies in the lambda = 1 trial space; only spatial truncation
        # of sin(pi x) remains
        ctx = mt.SolverContext()
        assert mt.sample_error(ctx, 0.5, 2.0, 1.0) < 1e-9

    def test_ratio_is_one_at_reference(self):
        ctx = mt.SolverContext()
        ref = mt.sample_error(ctx, 0.4, 0.55, 1.0)
        assert mt._ratios(ctx, 0.4, 0.55, 1.0, np.array([ref]))[0] == 1.0

    def test_good_exponent_beats_reference(self):
        # singular exponent nu = mu: a matched small lambda wins clearly
        ctx = mt.SolverContext()
        mu = 0.3
        ref = mt.sample_error(ctx, mu, mu, 1.0)
        assert mt._ratios(ctx, mu, mu, 0.1, np.array([ref]))[0] < 0.1

    def test_reference_error_must_be_positive(self):
        ctx = mt.SolverContext()
        with pytest.raises(StructuralError):
            mt._ratios(ctx, np.array([0.4]), np.array([0.55]), 0.5, np.array([0.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_reference_error_rejected(self, bad):
        # a NaN reference used to drop its sample silently and an infinite
        # one to count as ratio 0, both changing the loss without an error
        ctx = mt.SolverContext()
        refs = np.array([mt.sample_error(ctx, 0.4, 0.55, 1.0), bad])
        with pytest.raises(StructuralError):
            mt._ratios(ctx, np.array([0.4, 0.6]), np.array([0.55, 0.7]), 0.5, refs)
        with pytest.raises(StructuralError):
            mt.Dataset("validation", np.array([0.4, 0.6]), np.array([0.55, 0.7]), refs, None, 1, 2)
        # the order and exponent checks reject the same values
        with pytest.raises(StructuralError):
            mt.Dataset(
                "validation", np.array([0.4, bad]), np.array([0.55, 0.7]),
                refs[:1].repeat(2), None, 1, 2,
            )

    @pytest.mark.parametrize("lam", [1.0, 0.22, 0.085])
    def test_error_does_not_depend_on_its_group(self, lam):
        # a sample solved alone, in a group of 2 and in a group of 7 mixed
        # exponents gives the same bits, which criterion 12 relies on
        ctx = mt.SolverContext()
        mu, nu = 0.35, 0.45
        alone = mt.sample_error(ctx, mu, nu, lam)
        pair = mt._sample_errors(ctx, mu, [0.9, nu], lam)
        seven = mt._sample_errors(ctx, mu, [0.1, 2.0, 0.35, nu, 0.7, 0.05, 0.99], lam)
        assert pair[1] == alone
        assert seven[3] == alone
        assert seven[0] == mt.sample_error(ctx, mu, 0.1, lam)

    def test_stacked_groups_match_their_samples_alone(self):
        # six (mu, lambda) groups in one stacked pass, lambda = 1 and the
        # packaged ANN's range among them, each sample as solved alone
        ctx = mt.SolverContext()
        mus = np.repeat([0.3, 0.3, 0.65, 0.12, 0.85, 0.5], 2)
        lams = np.repeat([1.0, 0.0801, 0.2225, 0.0962, 0.5, 1.0], 2)
        nus = np.linspace(0.05, 0.95, 12)
        stacked = mt._sample_errors(ctx, mus, nus, lams)
        for m, n, lam, got in zip(mus, nus, lams, stacked):
            assert got == mt.sample_error(ctx, m, n, lam)

    def test_reference_lambda_ratio_is_exactly_one_in_a_stack(self):
        # criterion 12's identity holds for lambda = 1 groups solved
        # together with other groups
        ctx = mt.SolverContext()
        mus = np.array([0.2, 0.2, 0.5, 0.5, 0.8, 0.8])
        nus = np.array([0.3, 0.6, 0.4, 0.9, 0.7, 0.1])
        lams = np.array([1.0, 0.3, 1.0, 0.085, 1.0, 0.6])
        refs = np.array([mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        ratios = mt._ratios(ctx, mus, nus, lams, refs)
        assert np.all(ratios[lams == 1.0] == 1.0)

    def test_spatial_error_table_is_read_only(self):
        table = mt._spatial_error_table(20)
        assert mt._spatial_error_table(20) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_error_grid_shapes_and_range(self):
        ctx = mt.SolverContext()
        xs, (ts,) = mt._error_grid(ctx, [0.25])
        assert xs.shape == (19,) and ts.shape == (11,)
        assert np.all((xs > -1.0) & (xs < 1.0))
        assert np.all((ts > 0.0) & (ts < 1.0))
        # small lambda concentrates temporal nodes toward t = 0
        _, (ts_small,) = mt._error_grid(ctx, [0.05])
        assert np.median(ts_small) < np.median(ts)


class TestBatchLoss:
    def test_forced_reference_lambda_gives_exactly_one(self):
        # the batch loss's path (_ratios, then _mean_kept) at lambda = 1
        ctx = mt.SolverContext()
        mus = np.array([0.2, 0.5, 0.8])
        nus = np.array([0.3, 0.6, 0.9])
        refs = np.array([mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        ratios = mt._ratios(ctx, mus, nus, 1.0, refs)
        assert mt._mean_kept(ratios, "every sample failed") == 1.0
        assert np.all(ratios == 1.0)

    def test_network_lambdas_are_clamped(self):
        cfg = tiny_config(clamp_lo=0.45, clamp_hi=0.55)
        ctx = mt.SolverContext()
        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(3))
        net.biases[-1][:] = 40.0  # saturate sigmoid toward 1
        mus = np.array([0.3])
        nus = np.array([0.5])
        refs = np.array([mt.sample_error(ctx, 0.3, 0.5, 1.0)])
        _, lams, _ = mt.batch_loss(net, mus, nus, refs, ctx, cfg)
        assert lams[0] == 0.55

    def test_failed_sample_excluded_with_warning(self, monkeypatch, caplog):
        ctx = mt.SolverContext()
        mus = np.array([0.2, 0.6])
        nus = np.array([0.4, 0.7])
        refs = np.array([mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        real = mt.solve_1d_batch

        def flaky(configs, sources):
            # the mu = 0.2 group's solve breaks down
            outcomes = real(configs, sources)
            return [
                NumericalFailure("synthetic solver breakdown") if c.mu == 0.2 else out
                for c, out in zip(configs, outcomes)
            ]

        monkeypatch.setattr(mt, "solve_1d_batch", flaky)
        with caplog.at_level("WARNING", logger="muntzspec.mltune"):
            ratios = mt._ratios(ctx, mus, nus, 0.5, refs)
            loss = mt._mean_kept(ratios, "every sample failed")
        assert np.isnan(ratios[0]) and not np.isnan(ratios[1])
        assert loss == ratios[1]
        assert any("excluded" in rec.message for rec in caplog.records)

    def test_own_residual_failure_excludes_only_that_sample(self, monkeypatch, caplog):
        # three exponents share one (mu, lambda) group and one factorization;
        # the residual check of the middle one fails
        ctx = mt.SolverContext()
        mus = np.full(3, 0.4)
        nus = np.array([0.3, 0.5, 0.7])
        refs = np.array([mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        alone = mt._ratios(ctx, mus, nus, 0.5, refs)
        real = solver1d._residual_norm
        calls = []

        def second_fails(lhs, rhs):
            calls.append(None)
            return 1.0 if len(calls) == 2 else real(lhs, rhs)

        monkeypatch.setattr(solver1d, "_residual_norm", second_fails)
        with caplog.at_level("WARNING", logger="muntzspec.mltune"):
            ratios = mt._ratios(ctx, mus, nus, 0.5, refs)
        assert len(calls) == 3
        assert np.isnan(ratios[1])
        assert ratios[0] == alone[0] and ratios[2] == alone[2]
        excluded = [rec.message for rec in caplog.records if "excluded" in rec.message]
        assert len(excluded) == 1 and "nu=0.5," in excluded[0]

    @pytest.mark.parametrize("failure", ["conditioning", "zero pivot"])
    def test_shared_failure_excludes_the_whole_group(self, monkeypatch, caplog, failure):
        ctx = mt.SolverContext()
        mus = np.array([0.2, 0.6, 0.2, 0.6, 0.2])
        nus = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
        refs = np.array([mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        alone = mt._ratios(ctx, mus, nus, 0.5, refs)
        original = solver1d.assemble_temporal

        def broken(n, mu, lam, **kwargs):
            # the stacked assembly's mu = 0.2 group fails or is singular
            stack = original(n, mu, lam, **kwargs)
            for g, ops in enumerate(stack):
                if mu[g] != 0.2:
                    continue
                if failure == "conditioning":
                    stack[g] = NumericalFailure("synthetic assembly breakdown")
                else:
                    zero = np.zeros_like(ops.mass)
                    stack[g] = TemporalOperators(ops.basis, zero, zero)
            return stack

        monkeypatch.setattr(solver1d, "assemble_temporal", broken)
        with caplog.at_level("WARNING", logger="muntzspec.mltune"):
            ratios = mt._ratios(ctx, mus, nus, 0.5, refs)
        failed = mus == 0.2
        assert np.all(np.isnan(ratios[failed]))
        assert np.array_equal(ratios[~failed], alone[~failed])
        excluded = [rec.message for rec in caplog.records if "excluded" in rec.message]
        assert len(excluded) == 3
        for nu in nus[failed]:
            assert sum(f"nu={nu:.6g}," in message for message in excluded) == 1

    def test_all_samples_failed_raises(self):
        # lambda below the solver floor fails every sample
        ctx = mt.SolverContext()
        mus = np.array([0.3, 0.7])
        nus = np.array([0.4, 0.6])
        ratios = mt._ratios(ctx, mus, nus, 0.005, np.ones(2))
        with pytest.raises(NumericalFailure):
            mt._mean_kept(ratios, "every sample failed")


class TestEndToEndGradient:
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["plus", "minus"])
    def test_failed_perturbed_solve_excludes_sample(self, monkeypatch, side):
        # the failing sample drops out of the loss and the gradient alike:
        # both match a batch holding only the other sample
        ctx = mt.SolverContext()
        cfg = tiny_config()
        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(8))
        mus = np.array([0.25, 0.65])
        nus = np.array([0.45, 0.8])
        refs = np.array([mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)])
        bad_lam = mt._clamp_lambda(mt.forward_batch(net, mus), cfg)[0] + side * cfg.fd_step
        real = mt.solve_1d_batch

        def flaky(configs, sources):
            outcomes = real(configs, sources)
            return [
                NumericalFailure("synthetic perturbed breakdown")
                if c.mu == mus[0] and c.lam == bad_lam else out
                for c, out in zip(configs, outcomes)
            ]

        monkeypatch.setattr(mt, "solve_1d_batch", flaky)
        loss, gw, gb = mt._loss_and_gradient(net, mus, nus, refs, ctx, cfg)
        alone, gw1, gb1 = mt._loss_and_gradient(net, mus[1:], nus[1:], refs[1:], ctx, cfg)
        assert loss == alone
        for g, g1 in zip(gw + gb, gw1 + gb1):
            assert_allclose(g, g1, rtol=1e-14, atol=0.0)

    def test_matches_full_finite_differences(self):
        # chain rule through the solver: analytic backprop times central
        # differences in lambda against direct differences over the weights;
        # the absolute floor 5e-5 is the reference's own noise level, i.e.
        # the solver's roundoff wiggle (~2e-12 per error evaluation)
        # amplified by 1 / (reference error * 2 * step * batch size) with
        # reference errors reaching ~5e-4
        ctx = mt.SolverContext()
        cfg = tiny_config()
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = mt.init_network((1, 3, 1), 0.01, rng)
            mus = rng.uniform(0.1, 0.9, size=2)
            nus = rng.uniform(0.2, 0.9, size=2)
            refs = np.array(
                [mt.sample_error(ctx, m, n, 1.0) for m, n in zip(mus, nus)]
            )
            _, gw, gb = mt._loss_and_gradient(net, mus, nus, refs, ctx, cfg)
            analytic = np.concatenate([g.ravel() for g in gw + gb])
            fd = np.empty_like(analytic)
            pos = 0
            h = 1e-5
            for arr in net.weights + net.biases:
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    saved = arr[idx]
                    arr[idx] = saved + h
                    up, _, _ = mt.batch_loss(net, mus, nus, refs, ctx, cfg)
                    arr[idx] = saved - h
                    down, _, _ = mt.batch_loss(net, mus, nus, refs, ctx, cfg)
                    arr[idx] = saved
                    fd[pos] = (up - down) / (2.0 * h)
                    pos += 1
            assert_allclose(analytic, fd, rtol=1e-3, atol=5e-5)


class TestDatasets:
    def test_training_tensor_structure(self):
        ds = mt.generate_dataset("training", 5, 3, seed=7)
        assert ds.size == 15
        assert ds.mu.shape == ds.nu.shape == ds.ref_error.shape == (15,)
        # tensor product: mu constant over blocks, nu tiles across them
        assert_allclose(ds.mu.reshape(5, 3), np.repeat(ds.mu[::3], 3).reshape(5, 3))
        assert_allclose(ds.nu.reshape(5, 3), np.tile(ds.nu[:3], 5).reshape(5, 3))
        assert np.all((ds.mu > 0.0) & (ds.mu < 1.0))
        assert np.all((ds.nu > 0.0) & (ds.nu < 1.0))
        assert np.all(ds.ref_error > 0.0)

    def test_training_seed_determinism(self):
        a = mt.generate_dataset("training", 3, 2, seed=5)
        b = mt.generate_dataset("training", 3, 2, seed=5)
        c = mt.generate_dataset("training", 3, 2, seed=6)
        assert_allclose(a.mu, b.mu, rtol=0.0, atol=0.0)
        assert_allclose(a.ref_error, b.ref_error, rtol=0.0, atol=0.0)
        assert not np.array_equal(a.mu, c.mu)

    def test_validation_grid_is_uniform_interior(self):
        ds = mt.generate_dataset("validation", 4, 5)
        assert_allclose(np.unique(ds.mu), np.arange(1, 5) / 5.0, rtol=1e-15)
        assert_allclose(np.unique(ds.nu), np.arange(1, 6) / 6.0, rtol=1e-15)

    def test_single_point_validation_grid(self):
        ds = mt.generate_dataset("validation", 1, 1)
        assert_allclose(ds.mu, [0.5], rtol=0.0)
        assert_allclose(ds.nu, [0.5], rtol=0.0)

    def test_reference_errors_match_direct_solve(self):
        ctx = mt.SolverContext()
        ds = mt.generate_dataset("validation", 2, 2, context=ctx)
        direct = mt.sample_error(ctx, ds.mu[3], ds.nu[3], 1.0)
        assert ds.ref_error[3] == direct

    def test_csv_round_trip_is_exact(self, tmp_path):
        ds = mt.generate_dataset("training", 3, 2, seed=9)
        path = tmp_path / "train.csv"
        mt.save_dataset(ds, str(path))
        header = path.read_text().splitlines()[0]
        assert header == "mu,nu,ref_error"
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert back.shape == (6, 3)
        for col, arr in enumerate((ds.mu, ds.nu, ds.ref_error)):
            assert_allclose(back[:, col], arr, rtol=0.0, atol=0.0)

    def test_kind_and_counts_validated(self):
        with pytest.raises(ParameterDomainError):
            mt.generate_dataset("test", 2, 2)
        with pytest.raises(ParameterDomainError):
            mt.generate_dataset("training", 0, 2)


class TestTraining:
    def test_desk_mini_run_trains_and_is_deterministic(self):
        cfg = tiny_config()
        train_ds = mt.generate_dataset("training", 2, 2, seed=cfg.seed)
        val_ds = mt.generate_dataset("validation", 2, 2)
        first = mt.train(cfg, train_ds, val_ds)
        second = mt.train(cfg, train_ds, val_ds)
        assert first.history.shape == (cfg.restarts * cfg.epochs, 4)
        assert_allclose(second.history, first.history, rtol=0.0, atol=0.0)
        for a, b in zip(
            first.network.weights + first.network.biases,
            second.network.weights + second.network.biases,
        ):
            assert_allclose(b, a, rtol=0.0, atol=0.0)
        # returned restart carries the smallest final validation loss
        finals = first.history[first.history[:, 1] == cfg.epochs][:, 3]
        assert first.final_val_loss == finals.min()
        assert first.best_restart == int(np.argmin(finals))

    def test_single_sample_overfits(self):
        # loss after a few epochs drops below the first epoch's loss
        cfg = tiny_config(n_mu=1, n_nu=1, batch_size=1, epochs=12, restarts=1)
        train_ds = mt.generate_dataset("training", 1, 1, seed=3)
        val_ds = mt.generate_dataset("validation", 1, 1)
        result = mt.train(cfg, train_ds, val_ds)
        train_curve = result.history[:, 2]
        assert train_curve[-1] < train_curve[0]

    def test_batch_size_must_divide_dataset(self):
        cfg = tiny_config(batch_size=3)
        train_ds = mt.generate_dataset("training", 2, 2, seed=1)
        val_ds = mt.generate_dataset("validation", 1, 1)
        with pytest.raises(ParameterDomainError):
            mt.train(cfg, train_ds, val_ds)

    def test_all_restarts_above_one_fails(self, monkeypatch):
        cfg = tiny_config(epochs=1)
        train_ds = mt.generate_dataset("training", 2, 2, seed=2)
        val_ds = mt.generate_dataset("validation", 1, 1)

        def inflated(net, mu, nu, ref, ctx, config):
            return 1.5, np.full(mu.shape, 0.5), np.full(mu.shape, 1.5)

        monkeypatch.setattr(mt, "batch_loss", inflated)
        with pytest.raises(TrainingFailure):
            mt.train(cfg, train_ds, val_ds)


class TestModelIO:
    def test_round_trip_forward_is_bit_identical(self, tmp_path):
        net = mt.init_network((1, 20, 20, 1), 0.01, np.random.default_rng(8))
        path = tmp_path / "model.json"
        meta = {
            "seed": 8,
            "epochs": 400,
            "restarts": 10,
            "final_train_loss": 1.2e-4,
            "final_val_loss": 9.0e-5,
        }
        mt.save_model(net, str(path), meta)
        loaded, loaded_meta = mt.load_model(str(path))
        mus = np.random.default_rng(1).uniform(0.01, 0.99, size=100)
        assert_allclose(
            mt.forward_batch(loaded, mus), mt.forward_batch(net, mus), rtol=0.0, atol=0.0
        )
        assert loaded_meta == meta
        assert loaded.layer_sizes == net.layer_sizes

    def test_wrong_layer_count_rejected(self, tmp_path):
        import json

        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(2))
        path = tmp_path / "model.json"
        mt.save_model(net, str(path))
        doc = json.loads(path.read_text())
        doc["weights"] = doc["weights"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(StructuralError):
            mt.load_model(str(path))

    def test_unsupported_schema_rejected(self, tmp_path):
        import json

        net = mt.init_network((1, 3, 1), 0.01, np.random.default_rng(2))
        path = tmp_path / "model.json"
        mt.save_model(net, str(path))
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(StructuralError):
            mt.load_model(str(path))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not a model")
        with pytest.raises(StructuralError):
            mt.load_model(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", "3.5"], ids=["list", "number"])
    def test_non_object_document_rejected(self, tmp_path, text):
        # valid JSON that is not an object is a corrupt file, not a crash
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(StructuralError, match="JSON object"):
            mt.load_model(str(path))


class TestSpline:
    def knots(self):
        mu = np.array([0.2, 0.5, 0.8])
        lam = np.array([0.1, 0.2, 0.4])
        return mt.SplineModel(mu, lam, np.zeros(3, dtype=bool))

    def test_interpolates_knots_exactly(self):
        model = self.knots()
        for m, l in zip(model.mu_knots, model.lambda_knots):
            assert_allclose(mt.spline_predict(model, m), l, rtol=1e-14)

    def test_natural_boundary_curvature_vanishes(self):
        # second derivative at the end knots is zero for a natural spline
        model = self.knots()
        h = 1e-5
        for edge, inward in ((0.2, h), (0.8, -h)):
            second = (
                mt.spline_predict(model, edge + 2 * inward)
                - 2.0 * mt.spline_predict(model, edge + inward)
                + mt.spline_predict(model, edge)
            ) / inward**2
            assert abs(second) < 1e-3

    def test_extrapolation_clamps_to_knot_range(self):
        model = self.knots()
        assert mt.spline_predict(model, 0.01) == mt.spline_predict(model, 0.2)
        assert mt.spline_predict(model, 0.99) == mt.spline_predict(model, 0.8)

    def test_two_knots_degenerate_to_line(self):
        model = mt.SplineModel(
            np.array([0.3, 0.7]), np.array([0.1, 0.3]), np.zeros(2, dtype=bool)
        )
        assert_allclose(mt.spline_predict(model, 0.5), 0.2, rtol=1e-12)
        assert_allclose(mt.spline_predict(model, 0.4), 0.15, rtol=1e-12)

    def test_knot_order_validated(self):
        with pytest.raises(StructuralError):
            mt.SplineModel(
                np.array([0.5, 0.2]), np.array([0.1, 0.2]), np.zeros(2, dtype=bool)
            )
        with pytest.raises(StructuralError):
            mt.SplineModel(np.array([0.5]), np.array([0.1]), np.zeros(1, dtype=bool))

    def test_save_load_round_trip(self, tmp_path):
        model = mt.SplineModel(
            np.array([0.2, 0.5, 0.8]),
            np.array([0.1, 0.2, 0.4]),
            np.array([True, False, False]),
        )
        path = tmp_path / "spline.json"
        mt.save_spline(model, str(path))
        back = mt.load_spline(str(path))
        assert_allclose(back.mu_knots, model.mu_knots, rtol=0.0, atol=0.0)
        assert_allclose(back.lambda_knots, model.lambda_knots, rtol=0.0, atol=0.0)
        assert np.array_equal(back.boundary_flags, model.boundary_flags)

    def test_corrupt_spline_rejected(self, tmp_path):
        path = tmp_path / "spline.json"
        path.write_text("{\"schema_version\": 1}")
        with pytest.raises(StructuralError):
            mt.load_spline(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", "3.5"], ids=["list", "number"])
    def test_non_object_spline_rejected(self, tmp_path, text):
        # valid JSON that is not an object is a corrupt file, not a crash
        path = tmp_path / "spline.json"
        path.write_text(text)
        with pytest.raises(StructuralError, match="JSON object"):
            mt.load_spline(str(path))

    def test_fit_mini_produces_model(self):
        model = mt.spline_fit(n_knots=2, n_nu=2, iterations=3)
        assert model.mu_knots.shape == (2,)
        assert np.all((model.lambda_knots >= 0.011) & (model.lambda_knots <= 0.999))
        assert model.boundary_flags.dtype == bool

    @pytest.mark.parametrize("kwargs", [dict(n_nu=0), dict(iterations=0)])
    def test_fit_arguments_validated(self, kwargs):
        with pytest.raises(ParameterDomainError):
            mt.spline_fit(n_knots=2, **kwargs)

    @pytest.mark.parametrize(
        "target,hi,iterations", [(0.3, 0.999, 40), (0.9, 0.5005, 80)], ids=["interior", "clipped"]
    )
    def test_knot_descent_is_scalar_adam(self, monkeypatch, target, hi, iterations):
        # the shared update on a one-element array against Adam written out
        # in scalars, including the clip and the early stop, bit for bit
        def quadratic(context, mu, nus, refs, lams):
            return [1.0 + (lam - target) ** 2 for lam in lams]

        monkeypatch.setattr(mt, "_profile_losses", quadratic)
        cfg = mt.TrainingConfig()
        lo, h = 0.011, cfg.fd_step
        lam, m, v = 0.5, 0.0, 0.0
        best, small = math.inf, 0
        for it in range(1, iterations + 1):
            plus, minus = quadratic(None, 0.5, None, None, [min(lam + h, 1.0), lam - h])
            grad = (plus - minus) / (2.0 * h)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grad * grad
            mhat = m / (1.0 - cfg.beta1**it)
            vhat = v / (1.0 - cfg.beta2**it)
            lam = min(max(lam - cfg.lr_base * mhat / (math.sqrt(vhat) + cfg.eps), lo), hi)
            current = 0.5 * (plus + minus)
            small = small + 1 if best - current < 1e-8 else 0
            if small >= 30:
                break
            best = min(best, current)
        got, flag = mt._scalar_adam_lambda(
            mt.SolverContext(), cfg, 0.5, np.array([0.5]), np.array([1.0]), lo, hi, iterations
        )
        assert got == lam
        assert flag == (lam >= hi - 1e-12)

    def test_early_stop_on_flat_profile(self, monkeypatch):
        calls = []

        def flat(context, mu, nus, refs, lams):
            calls.extend(lams)
            return [1.0] * len(lams)

        monkeypatch.setattr(mt, "_profile_losses", flat)
        cfg = mt.TrainingConfig()
        lam, flag = mt._scalar_adam_lambda(
            mt.SolverContext(), cfg, 0.5, np.array([0.5]), np.array([1.0]), 0.011, 0.999, 400
        )
        # 30 consecutive sub-threshold improvements end the loop: iteration 1
        # sets the baseline, iterations 2..31 count, two probes per iteration
        assert len(calls) == 62
        assert flag is False
