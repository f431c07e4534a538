import numpy as np
import pytest

from lrip_lab import (
    DecodeResult,
    DecoderOptions,
    InputError,
    LinearGaussianOperator,
    Pseudometric,
    RandomFourierOperator,
    UnionOfSubspaces,
    decode_linear,
    decode_nonlinear,
    residual_certificate,
)
from lrip_lab.decoder import (
    _HALVINGS, GridOracleOptions, _line_search, decode, grid_minimum, noise_vector,
)
from lrip_lab.models import sample_model_points

EUCLID = Pseudometric("euclidean")
KERNEL = Pseudometric("gaussian-kernel", 1.0)
IDENTITY2 = LinearGaussianOperator.from_matrix(np.eye(2))


def x_axis_model(M=1.0):
    return UnionOfSubspaces((np.array([[1.0], [0.0]]),), M)


def random_small_instance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    N = int(rng.integers(1, 4))
    model = UnionOfSubspaces.random(d, 1, N, 1.0, seed)
    if rng.uniform() < 0.5:
        op = LinearGaussianOperator.from_matrix(np.eye(d))
    else:
        op = LinearGaussianOperator.from_seed(d, d, seed + 1)
    y = rng.normal(size=d) * rng.uniform(0.2, 1.5)
    return model, op, y


class TestDecodeLinear:
    def test_on_model_measurement(self):
        res = decode_linear(IDENTITY2, x_axis_model(), np.array([0.5, 0.0]))
        assert np.allclose(res.xhat, [0.5, 0.0], atol=1e-12)
        assert res.residual <= 1e-12
        assert res.converged

    def test_orthogonal_residual(self):
        res = decode_linear(IDENTITY2, x_axis_model(), np.array([0.3, 0.4]))
        assert np.allclose(res.xhat, [0.3, 0.0], atol=1e-12)
        assert res.residual == pytest.approx(0.4, abs=1e-12)
        xg, rg = grid_minimum(IDENTITY2, x_axis_model(), np.array([0.3, 0.4]).astype(complex))
        assert np.allclose(xg, res.xhat, atol=2e-3) and abs(rg - res.residual) <= 2e-3

    def test_ball_clip(self):
        res = decode_linear(IDENTITY2, x_axis_model(), np.array([2.0, 0.0]))
        assert np.allclose(res.xhat, [1.0, 0.0], atol=1e-10)
        assert res.residual == pytest.approx(1.0, abs=1e-10)
        # 1-d scan oracle
        ticks = np.linspace(-1, 1, 4001)
        scan = ticks[np.argmin(np.abs(ticks - 2.0))]
        assert abs(scan - res.xhat[0]) <= 1e-3

    def test_norm_constraint_active_to_tolerance(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            A = rng.normal(size=(3, 3))
            model = UnionOfSubspaces.random(3, 2, 2, 0.5, seed)
            y = rng.normal(size=3) * 4.0
            res = decode_linear(LinearGaussianOperator.from_matrix(A), model, y)
            assert np.linalg.norm(res.xhat) <= 0.5 + 1e-10

    def test_rank_deficient_minimum_norm(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])  # collapses the y-axis
        model = UnionOfSubspaces.axes(2, 1.0)
        res = decode_linear(LinearGaussianOperator.from_matrix(A), model, np.array([0.0, 0.0]))
        assert res.residual <= 1e-12
        assert np.linalg.norm(res.xhat) <= 1e-12  # minimum-norm pick of a flat optimum

    def test_rejects_complex_measurement(self):
        with pytest.raises(InputError):
            decode_linear(IDENTITY2, x_axis_model(), np.array([1j, 0.0]))

    def test_matches_grid_oracle_on_random_instances(self):
        for seed in range(10):
            model, op, y = random_small_instance(seed)
            res = decode_linear(op, model, y)
            _, rg = grid_minimum(op, model, y.astype(complex), resolution=1e-3)
            assert res.residual <= rg + 1e-9
            assert abs(res.residual - rg) <= 2e-3

    def test_noiseless_consistency(self):
        for seed in range(5):
            model, op, _ = random_small_instance(seed)
            x0 = sample_model_points(model, 1, seed)[0]
            res = decode_linear(op, model, op.matrix @ x0)
            assert res.residual <= 1e-10


class TestDecodeNonlinear:
    def test_warm_start_recovers_truth(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(64, 2, 1.0, 3)
        x0 = np.array([0.6, 0.0])
        res = decode_nonlinear(op, model, op.apply(x0), warm_start=x0, rng_seed=0)
        assert res.residual <= 1e-8
        assert res.converged

    def test_recovery_rate_small_instance(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        hits = 0
        for seed in range(20):
            op = RandomFourierOperator.from_seed(64, 2, 1.0, seed)
            x0 = sample_model_points(model, 1, 10_000 + seed)[0]
            res = decode_nonlinear(op, model, op.apply(x0), rng_seed=seed)
            hits += KERNEL.dist(x0, res.xhat) <= 1e-6
        assert hits >= 19

    def test_zero_signal_exact(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(32, 2, 1.0, 8)
        res = decode_nonlinear(op, model, op.apply(np.zeros(2)), rng_seed=1)
        assert KERNEL.dist(np.zeros(2), res.xhat) <= 1e-8

    def test_feasibility_invariants(self):
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        rng = np.random.default_rng(6)
        for _ in range(5):
            y = op.apply(rng.normal(size=4))  # off-model target
            res = decode_nonlinear(op, model, y, rng_seed=0)
            assert model.membership_defect(res.xhat) <= 1e-10
            assert np.linalg.norm(res.xhat) <= 0.8 + 1e-10

    def test_off_model_decodes_converge(self):
        # the test_feasibility_invariants instance: off-model minima with f near 1
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        rng = np.random.default_rng(6)
        for _ in range(5):
            res = decode_nonlinear(op, model, op.apply(rng.normal(size=4)), rng_seed=0)
            assert res.converged

    def test_last_bit_change_keeps_convergence(self):
        # every start reaches the same minimum here, so the winner is picked by rounding
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 8)
        op = RandomFourierOperator.from_seed(12, 3, 1.0, 4)
        y = op.apply(sample_model_points(model, 1, 1)[0]) + 0.05 * np.exp(1j * np.arange(12)) / np.sqrt(12)
        for target in (y, np.nextafter(y.real, 2) + 1j * y.imag, y * (1 + 2 ** -52)):
            assert decode_nonlinear(op, model, target, rng_seed=3).converged

    def test_one_apply_per_iteration(self, monkeypatch):
        calls = {"apply": 0, "apply_batch": 0}
        for name in calls:
            original = getattr(RandomFourierOperator, name)

            def counted(self, x, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, x)

            monkeypatch.setattr(RandomFourierOperator, name, counted)
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        y = op.apply(np.random.default_rng(6).normal(size=4))
        calls.update(apply=0, apply_batch=0)
        res = decode_nonlinear(op, model, y, opts=DecoderOptions(restarts=3), rng_seed=0)
        assert res.optimizer_iters > 3
        assert calls["apply"] <= res.optimizer_iters + 1
        assert calls["apply_batch"] <= 2 * res.optimizer_iters

    def test_line_search_matches_one_apply_per_step(self):
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        B, y = model.bases[1], op.apply(np.random.default_rng(6).normal(size=4))
        z, direction = np.array([0.5, -0.4]), np.array([3.0, 1.0])
        cands, R, F = _line_search(op, B, y, z, direction, _HALVINGS, 0.8)
        for alpha, c, r, f in zip(_HALVINGS, cands, R, F):
            step = z + alpha * direction
            assert np.allclose(c, step * min(1.0, 0.8 / np.linalg.norm(step)), rtol=1e-15, atol=0)
            assert np.allclose(r, op.apply(B @ c) - y, rtol=1e-12, atol=1e-15)
            assert f == pytest.approx(np.linalg.norm(op.apply(B @ c) - y) ** 2, rel=1e-12)

    def test_monotone_in_restarts(self):
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 7)
        op = RandomFourierOperator.from_seed(24, 3, 1.0, 9)
        y = op.apply(np.random.default_rng(1).normal(size=3))
        residuals = [
            decode_nonlinear(op, model, y, opts=DecoderOptions(restarts=r), rng_seed=4).residual
            for r in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_residual_recomputation_invariant(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(16, 2, 1.0, 11)
        y = op.apply(np.array([0.2, 0.0]))
        res = decode_nonlinear(op, model, y, rng_seed=0)
        from lrip_lab.spaces import meas_norm

        assert abs(meas_norm(op.apply(res.xhat) - y) - res.residual) <= 1e-10


class TestResidualCertificate:
    def test_exact_linear_gap_zero(self):
        model, op, y = random_small_instance(3)
        res = decode_linear(op, model, y)
        assert abs(residual_certificate(res, op, model, y)) <= 1e-12

    def test_grid_gap_above_minus_resolution(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(32, 2, 1.0, 13)
        y = op.apply(np.array([0.4, 0.0])) + 0.05
        res = decode_nonlinear(op, model, y, rng_seed=0)
        gap = residual_certificate(res, op, model, y, GridOracleOptions(True, 1e-3))
        assert gap >= -1e-2  # grid lower bound can only underestimate mildly

    def test_unconverged_reports_infinity(self):
        res = DecodeResult(
            xhat=np.zeros(2), residual=1.0, subspace_index=0,
            optimizer_iters=1, restarts_used=1, converged=False,
        )
        op = RandomFourierOperator.from_seed(8, 2, 1.0, 0)
        assert residual_certificate(res, op, UnionOfSubspaces.axes(2, 1.0), np.zeros(8)) == np.inf

    def test_trivial_bound_for_large_subspace_dim(self):
        model = UnionOfSubspaces.random(6, 3, 2, 1.0, 0)
        op = RandomFourierOperator.from_seed(16, 6, 1.0, 1)
        y = op.apply(sample_model_points(model, 1, 0)[0])
        res = decode_nonlinear(op, model, y, opts=DecoderOptions(restarts=2), rng_seed=0)
        gap = residual_certificate(res, op, model, y)
        assert gap == pytest.approx(res.residual)


class TestDecode:
    def test_linear_gap_is_zero_and_matches_resolve(self):
        for seed in range(40):
            model, op, y = random_small_instance(seed)
            res, gap = decode(op, model, y, DecoderOptions(), 0, EUCLID)
            ref = decode_linear(op, model, y)
            assert gap == 0.0
            assert residual_certificate(res, op, model, y) == gap
            assert np.array_equal(res.xhat, ref.xhat) and res.residual == ref.residual

    def test_fourier_gap_is_residual_certificate(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(16, 2, 1.0, 5)
        y = op.apply(np.array([0.0, -0.3])) + 0.02
        opts = DecoderOptions(restarts=3, grid_oracle=GridOracleOptions(True, 1e-2))
        res, gap = decode(op, model, y, opts, 7, KERNEL)
        ref = decode_nonlinear(op, model, y, opts=opts, rng_seed=7, metric=KERNEL)
        assert np.array_equal(res.xhat, ref.xhat)
        assert gap == residual_certificate(ref, op, model, y, opts.grid_oracle)


class TestNoiseVector:
    @pytest.mark.parametrize("op", [LinearGaussianOperator.from_seed(5, 3, 0),
                                    RandomFourierOperator.from_seed(5, 3, 1.0, 0)])
    def test_exact_norm(self, op):
        e = noise_vector(op, 0.25, np.random.default_rng(1))
        assert e.shape == (5,) and e.dtype == complex
        assert np.linalg.norm(e) == pytest.approx(0.25, rel=1e-12)
        assert np.all(e.imag == 0) == isinstance(op, LinearGaussianOperator)

    def test_zero_norm_draws_nothing(self):
        rng = np.random.default_rng(2)
        e = noise_vector(RandomFourierOperator.from_seed(4, 2, 1.0, 0), 0.0, rng)
        assert np.array_equal(e, np.zeros(4))
        assert rng.normal() == np.random.default_rng(2).normal()
