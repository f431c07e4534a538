import numpy as np
import pytest

from lrip_lab import (
    InputError,
    LinearGaussianOperator,
    OperatorLaw,
    Pseudometric,
    RandomFourierOperator,
    UnionOfSubspaces,
    estimate_bp,
    hypothesis_constants,
    weight_f,
)
from lrip_lab import operators
from lrip_lab.operators import jacobian

KERNEL = Pseudometric("gaussian-kernel", 1.0)


class TestWeightF:
    def test_moments_closed_forms(self):
        # gamma_2 = d / sigma^2 and gamma_4 = d (d + 2) / sigma^4: at d = 4, sigma = 1 they are 4 and 24, so
        # ||w||^2 = 1 gives f^2 = (1 + 1/4 + 1/24) / 3; at d = 3, sigma = 2 they are 3/4 and 15/16, so
        # ||w||^2 = 3/4 gives f^2 = (1 + 1 + (9/16) / (15/16)) / 3
        assert weight_f(np.array([1.0, 0, 0, 0]), 1.0, 4) ** 2 == pytest.approx((1 + 1 / 4 + 1 / 24) / 3, rel=1e-15)
        assert weight_f(np.array([0.75**0.5, 0, 0]), 2.0, 3) ** 2 == pytest.approx((2 + 9 / 15) / 3, rel=1e-14)

    def test_monte_carlo_moments(self):
        # E||w||^2 = gamma_2 and E||w||^4 = gamma_4 under N(0, sigma^{-2} I), so E f(w)^2 = (1 + 1 + 1) / 3 = 1
        for d, sigma in ((4, 1.0), (3, 2.0)):
            w = np.random.default_rng(0).normal(scale=1 / sigma, size=(1_000_000, d))
            assert np.mean(weight_f(w, sigma, d) ** 2) == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("d, sigma", [(0, 1.0), (3, 0.0), (3, -1.0)])
    def test_refuses_bad_dimension_or_bandwidth(self, d, sigma):
        with pytest.raises(InputError):
            weight_f(np.zeros(max(d, 1)), sigma, d)

    def test_zero_frequency(self):
        assert weight_f(np.zeros(4), 1.0, 4) == pytest.approx(np.sqrt(1 / 3), abs=1e-15)

    def test_closed_form_example(self):
        # d = 4, sigma = 1: gamma_2 = 4, gamma_4 = 24; ||w||^2 = 4 gives
        # f^2 = (1 + 1 + 16/24) / 3 = 8/9
        om = np.array([2.0, 0.0, 0.0, 0.0])
        assert weight_f(om, 1.0, 4) == pytest.approx(np.sqrt(8 / 9), abs=1e-14)
        assert weight_f(om, 1.0, 4) == pytest.approx(0.942809, abs=1e-6)

    def test_radial_and_lower_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.normal(size=6)
            rot = np.linalg.qr(rng.normal(size=(6, 6)))[0]
            assert weight_f(rot @ w, 1.0, 6) == pytest.approx(weight_f(w, 1.0, 6), rel=1e-12)
            assert weight_f(w, 1.0, 6) >= np.sqrt(1 / 3)


class TestSampleLambda:
    """Samples of the frequency law Lambda, as OperatorLaw draws them."""

    def test_change_of_measure_normalization(self):
        # E_Lambda[1/f^2] telescopes to the Gaussian total mass, i.e. 1
        d, sigma = 5, 1.0
        om = OperatorLaw("random-fourier", 1_000_000, d, sigma).sample(0).omegas
        f = weight_f(om, sigma, d)
        assert np.mean(1.0 / f**2) == pytest.approx(1.0, rel=0.02)

    @staticmethod
    def component_rows(d, sigma, count, seed, ell):
        """The frequencies of mixture component ell in one draw of count frequencies."""
        comp, dirs, radial = operators._draw_lambda(d, count, np.random.default_rng(seed))
        return operators._map_lambda(comp, dirs, radial, sigma)[comp == ell]

    def test_component_zero_is_plain_gaussian(self):
        d, sigma = 3, 0.5
        om = self.component_rows(d, sigma, 1_200_000, 1, 0)
        assert np.max(np.abs(om.mean(axis=0))) < 0.02
        cov = np.cov(om.T)
        assert np.allclose(cov, np.eye(d) / sigma**2, atol=0.02 * 4)

    def test_component_one_radial_law(self):
        # tilt ||w||^2: squared radius * sigma^2 is chi-square with d+2 dof
        d, sigma = 4, 1.0
        om = self.component_rows(d, sigma, 1_200_000, 2, 1)
        r2 = np.sum(om * om, axis=1) * sigma**2
        assert np.mean(r2) == pytest.approx(d + 2, rel=0.02)


class TestLinearOperator:
    def test_identity_fixture(self):
        op = LinearGaussianOperator(np.eye(2))
        assert np.allclose(op.apply_batch(np.array([1.0, 2.0]))[0], [1.0, 2.0])

    def test_linearity(self):
        op = LinearGaussianOperator.from_seed(6, 4, 0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, x2 = rng.normal(size=4), rng.normal(size=4)
            a, b = rng.normal(), rng.normal()
            lhs = op.apply_batch(a * x + b * x2)[0]
            rhs = a * op.apply_batch(x)[0] + b * op.apply_batch(x2)[0]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        op = LinearGaussianOperator.from_seed(3, 2, 0)
        with pytest.raises(InputError):
            op.apply_batch(np.zeros(5))


class TestFourierOperator:
    def test_apply_at_origin(self):
        op = RandomFourierOperator.from_seed(16, 3, 1.0, 5)
        out = op.apply_batch(np.zeros(3))[0]
        assert np.allclose(out, 1.0 / (np.sqrt(16) * op.weights))

    def test_modulus_is_signal_independent(self):
        op = RandomFourierOperator.from_seed(32, 4, 1.0, 6)
        ref = 1.0 / (np.sqrt(op.m) * op.weights)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=4) * 3
            worst = max(worst, float(np.max(np.abs(np.abs(op.apply_batch(x)[0]) - ref))))
        assert worst <= 1e-13

    def test_weights_recomputed_from_omegas(self):
        op = RandomFourierOperator.from_seed(8, 2, 0.7, 1)
        assert np.max(np.abs(op.weights - weight_f(op.omegas, 0.7, 2))) <= 1e-12

    def test_batch_matches_single(self):
        op = RandomFourierOperator.from_seed(12, 3, 1.0, 2)
        X = np.random.default_rng(0).normal(size=(5, 3))
        batch = op.apply_batch(X)
        assert batch.shape == (5, 12)
        for k in range(5):
            assert op.apply_batch(X[k]).shape == (1, 12)
            assert op.apply_batch(X[k])[0].tobytes() == batch[k].tobytes()


OPERATORS = {
    "linear": lambda d: LinearGaussianOperator.from_seed(48, d, 3),
    "fourier": lambda d: RandomFourierOperator.from_seed(48, d, 1.0, 3),
}


class TestBatchInvariance:
    """A row's measurements and gaps are bitwise the same whatever rows are evaluated with it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    @pytest.mark.parametrize("d", [2, 4, 20])
    @pytest.mark.parametrize("kind", list(OPERATORS))
    def test_rows_match_the_full_batch(self, kind, d, n):
        op = OPERATORS[kind](d)
        X = np.random.default_rng(d).normal(size=(100, d))
        full_apply, full_gap = op.apply_batch(X), op.gap_batch(X)
        for k in range(50):
            assert op.apply_batch(X[k:k + n]).tobytes() == full_apply[k:k + n].tobytes()
            assert op.gap_batch(X[k:k + n]).tobytes() == full_gap[k:k + n].tobytes()

    @pytest.mark.parametrize("n", [7, 8, 9, 17])
    @pytest.mark.parametrize("kind", list(OPERATORS))
    def test_row_blocks_match_one_block(self, kind, n, monkeypatch):
        # blocks of B = 8 rows: n = B - 1, B, B + 1 and 2B + 1, whose last block is a lone row
        op = OPERATORS[kind](4)
        model = UnionOfSubspaces.random(4, 2, 3, 1.0, 0)
        D = np.random.default_rng(n).normal(size=(n, 4))
        gaps, bp = op.gap_batch(D), estimate_bp(op, model, KERNEL, n, 5)
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", 8 * op.m)
        calls = []
        apply_batch = type(op).apply_batch
        monkeypatch.setattr(type(op), "apply_batch", lambda self, X: calls.append(len(X)) or apply_batch(self, X))
        blocked = estimate_bp(op, model, KERNEL, n, 5)
        assert calls == [min(8, n - k) for k in range(0, n, 8) for _ in range(2)]
        assert op.gap_batch(D).tobytes() == gaps.tobytes()
        assert blocked.beta_hat == bp.beta_hat and blocked.pairs_tested == n
        assert all(a.tobytes() == b.tobytes() for a, b in zip(blocked.worst_pair, bp.worst_pair))
        assert op.gap_batch(D[:0]).shape == (0,)


class TestJacobian:
    def test_purely_imaginary_at_origin(self):
        op = RandomFourierOperator.from_seed(10, 3, 1.0, 4)
        J = jacobian(op, np.zeros(3))
        h = np.random.default_rng(1).normal(size=3)
        assert np.max(np.abs((J @ h).real)) <= 1e-15

    def test_finite_difference_slope(self):
        op = RandomFourierOperator.from_seed(24, 5, 1.0, 9)
        rng = np.random.default_rng(2)
        x = rng.normal(size=5) * 0.5
        J = jacobian(op, x)
        hs = np.logspace(-6, -2, 9)
        errs = []
        for h in hs:
            v = rng.normal(size=5)
            v *= h / np.linalg.norm(v)
            errs.append(np.linalg.norm(op.apply_batch(x + v)[0] - op.apply_batch(x)[0] - J @ v) / h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_row_norm_operator_bound(self):
        op = RandomFourierOperator.from_seed(20, 4, 1.0, 11)
        J = jacobian(op, np.random.default_rng(3).normal(size=4))
        bound = np.sqrt(np.sum(np.sum(op.omegas**2, axis=1) / op.weights**2) / op.m)
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = rng.normal(size=4)
            assert np.linalg.norm(J @ s) <= bound * np.linalg.norm(s) + 1e-12


class TestGapBatch:
    @pytest.mark.parametrize("kind", ["linear", "fourier"])
    def test_matches_endpoint_form_on_model_pairs(self, kind):
        from lrip_lab.models import sample_model_points

        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        if kind == "linear":
            op = LinearGaussianOperator.from_seed(55, 20, 3)
        else:
            op = RandomFourierOperator.from_seed(55, 20, 1.0, 3)
        X = sample_model_points(model, 10_000, 1)
        X2 = sample_model_points(model, 10_000, 2)
        endpoint = np.linalg.norm(op.apply_batch(X) - op.apply_batch(X2), axis=1)
        np.testing.assert_allclose(op.gap_batch(X - X2), endpoint, rtol=1e-12, atol=0)

    def test_fourier_tiny_secants_match_jacobian(self):
        # at |delta| = 1e-9 the endpoint form keeps about 8 digits; the sin^2 form keeps all
        op = RandomFourierOperator.from_seed(55, 20, 1.0, 3)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 20)) * 0.3
        D = rng.normal(size=(50, 20))
        D *= 1e-9 / np.linalg.norm(D, axis=1, keepdims=True)
        gaps = op.gap_batch(D)
        for x, delta, gap in zip(X, D, gaps):
            lin = np.linalg.norm(jacobian(op, x) @ delta)
            assert gap == pytest.approx(lin, rel=1e-6)

    def test_dimension_mismatch(self):
        op = RandomFourierOperator.from_seed(8, 3, 1.0, 0)
        with pytest.raises(InputError):
            op.gap_batch(np.zeros((2, 4)))


class TestHypothesisConstants:
    def test_diameter_surrogate(self):
        op = RandomFourierOperator.from_seed(16, 3, 1.0, 0)
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 0)
        hyp = hypothesis_constants(op, model)
        assert hyp.M_S == pytest.approx(1.0)
        assert hyp.C2 == hyp.C1
        assert hyp.eps0 == np.inf
        for v in (hyp.C1, hyp.C3):
            assert np.isfinite(v) and v > 0

    def test_c3_over_c1_converges_to_moment_ratio(self):
        d, sigma = 6, 1.0
        model = UnionOfSubspaces.random(d, 2, 3, 1.0, 1)
        op = RandomFourierOperator.from_seed(10_000, d, sigma, 3)
        hyp = hypothesis_constants(op, model)
        ell = 2 * (1 - np.exp(-0.5)) / 1.0
        # population ratio sqrt(E||w||^4 w / E||w||^2 w) / ell under the
        # f^-2-weighted law equals sqrt(gamma4/gamma2)/ell = sqrt(d+2)/(sigma ell)
        target = np.sqrt(d + 2) / (sigma * ell)
        assert hyp.C3 / hyp.C1 == pytest.approx(target, rel=0.10)

    def test_dimension_check(self):
        op = RandomFourierOperator.from_seed(8, 3, 1.0, 0)
        with pytest.raises(InputError):
            hypothesis_constants(op, UnionOfSubspaces.random(4, 1, 2, 1.0, 0))


class TestUnbiasedness:
    def test_mean_squared_gap_matches_kernel_distance(self):
        # E ||Psi x - Psi x'||^2 equals the squared kernel metric; 200 draws,
        # m = 1000, within 5 percent
        d, sigma, m = 10, 1.0, 1000
        rng = np.random.default_rng(5)
        x = rng.normal(size=d) * 0.5
        x2 = x + rng.normal(size=d) * 0.4
        target = KERNEL.dist(x - x2) ** 2
        vals = []
        for k in range(200):
            op = RandomFourierOperator.from_seed(m, d, sigma, 1000 + k)
            vals.append(np.linalg.norm(op.apply_batch(x)[0] - op.apply_batch(x2)[0]) ** 2)
        assert np.mean(vals) == pytest.approx(target, rel=0.05)


class TestSerialization:
    def test_seed_reproduces_bit_for_bit(self):
        a = RandomFourierOperator.from_seed(16, 3, 1.0, 42)
        b = RandomFourierOperator.from_seed(16, 3, 1.0, 42)
        assert a.omegas.tobytes() == b.omegas.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        lin = LinearGaussianOperator.from_seed(4, 3, 1)
        assert lin.matrix.tobytes() == LinearGaussianOperator.from_seed(4, 3, 1).matrix.tobytes()


class TestOperatorLaw:
    @staticmethod
    def reference(kind, m, d, sigma, seed):
        """The matrix or frequencies of the law, drawn row by row in the documented order."""
        rng = np.random.default_rng(seed)
        if kind == "linear-gaussian":
            return rng.normal(size=(m, d)) / np.sqrt(m)
        comp, dirs = rng.integers(0, 3, size=m), rng.normal(size=(m, d))
        radii = np.empty(m)
        for ell in (0, 1, 2):
            radii[comp == ell] = np.linalg.norm(rng.normal(size=(np.sum(comp == ell), d + 2 * ell)), axis=1) / sigma
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]

    @pytest.mark.parametrize("m, d, sigma, seed", [(1, 1, 1.0, 0), (4, 3, 0.7, 5), (16, 13, 2.5, 42),
                                                   (55, 20, 1.0, 2**40 + 3)])
    def test_sample_is_from_seed(self, m, d, sigma, seed):
        lin = OperatorLaw("linear-gaussian", m, d, sigma).sample(seed)
        assert type(lin) is LinearGaussianOperator
        assert lin.matrix.tobytes() == LinearGaussianOperator.from_seed(m, d, seed).matrix.tobytes()
        assert lin.matrix.tobytes() == self.reference("linear-gaussian", m, d, sigma, seed).tobytes()
        rff = OperatorLaw("random-fourier", m, d, sigma).sample(seed)
        twin = RandomFourierOperator.from_seed(m, d, sigma, seed)
        assert type(rff) is RandomFourierOperator and rff.sigma == sigma
        assert rff.omegas.tobytes() == twin.omegas.tobytes()
        assert rff.omegas.tobytes() == self.reference("random-fourier", m, d, sigma, seed).tobytes()
        assert rff.weights.tobytes() == twin.weights.tobytes() == weight_f(rff.omegas, sigma, d).tobytes()

    @pytest.mark.parametrize("m, d", [(1, 1), (7, 3), (55, 20)])
    @pytest.mark.parametrize("kind", operators.OPERATOR_KINDS)
    def test_gaps_are_each_operators_gap_batch(self, kind, m, d):
        law = OperatorLaw(kind, m, d, 0.8)
        delta = np.random.default_rng(d).normal(size=d)
        for seeds in ([3], range(17)):
            gaps = law.gaps([law.draw(np.random.default_rng(seed)) for seed in seeds], delta)
            expected = [law.sample(seed).gap_batch(delta)[0] for seed in seeds]
            assert gaps.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("args", [("gaussian", 4, 3), ("linear-gaussian", 0, 3), ("random-fourier", 0, 3),
                                      ("random-fourier", 4, 0), ("random-fourier", 4, 3, 0.0),
                                      ("random-fourier", 4, 3, -1.0)],
                             ids=["kind", "linear-m", "fourier-m", "d", "zero-sigma", "negative-sigma"])
    def test_refuses_bad_parameters(self, args):
        with pytest.raises(InputError):
            OperatorLaw(*args)

    def test_gaps_refuse_a_secant_of_another_shape(self):
        law = OperatorLaw("random-fourier", 4, 3)
        for delta in (np.zeros(2), np.zeros((1, 3))):
            with pytest.raises(InputError):
                law.gaps([law.draw(np.random.default_rng(0))], delta)


@pytest.mark.parametrize("make", [
    lambda: LinearGaussianOperator.from_seed(4, 3, 0),
    lambda: RandomFourierOperator.from_seed(4, 3, 1.0, 0),
], ids=["linear", "fourier"])
def test_equality_and_hash_are_by_identity(make):
    op, twin = make(), make()
    assert op == op and op != twin
    assert hash(op) == hash(op) and len({op, twin}) == 2
