import tracemalloc

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
)
from lrip_lab import decoder, seeding
from lrip_lab.certifier import _draw_trials
from lrip_lab.decoder import _HALVINGS, _line_search, certified_minimum, decode
from lrip_lab.models import sample_model_points
from lrip_lab.operators import jacobian
import reference
from reference import grid_minimum, iop_trial, multi_start_decode, noise, residual_certificate, rows

KERNEL = Pseudometric("gaussian-kernel", 1.0)
IDENTITY2 = LinearGaussianOperator(np.eye(2))


def x_axis_model(M=1.0):
    return UnionOfSubspaces((np.array([[1.0], [0.0]]),), M)


def random_fourier_instance(seed):
    """Noisy off-model target on s in {1, 2}; s = 2 keeps M = 0.5 and m <= 8 so the 2e-3 grid stays small."""
    rng = np.random.default_rng(seed)
    s = 1 + seed % 2
    d = int(rng.integers(s + 1, 5))
    M = 0.5 if s == 2 else float(rng.choice([0.5, 1.0, 2.0]))
    model = UnionOfSubspaces.random(d, s, int(rng.integers(1, 4)), M, seed)
    m = int(rng.integers(4, 9 if s == 2 else 13))
    op = RandomFourierOperator.from_seed(m, d, 1.0, seed + 1)
    noise = rng.normal(size=m) + 1j * rng.normal(size=m)
    y = op.apply_batch(rng.normal(size=d))[0] + rng.uniform(0.0, 0.3) * noise / np.linalg.norm(noise)
    return model, op, y


def noisy_off_model_target(model, op, k):
    """A model point plus 0.3 * normal, measured, plus noise of norm 0.05, all from default_rng(k)."""
    rng = np.random.default_rng(k)
    x = sample_model_points(model, 1, rng)[0] + 0.3 * rng.normal(size=model.dim)
    return op.apply_batch(x)[0] + noise(op, 0.05, rng)


def fixed_fourier_instances():
    """(model, op, y, reference seed): 70 instances with s <= 2, then 15 with s = 3.

    random_fourier_instance seeds 0-39, 30 noisy off-model targets at M = 2,
    sigma = 0.5, where restarts miss, and 15 at s = 3, M = 3, sigma = 0.5.
    """
    for seed in range(40):
        yield *random_fourier_instance(seed), seed
    for k in range(30):
        model = UnionOfSubspaces.random(4, 1 + k % 2, 3, 2.0, 200 + k)
        op = RandomFourierOperator.from_seed(32, 4, 0.5, 300 + k)
        yield model, op, noisy_off_model_target(model, op, k), 40 + k
    for k in range(15):
        model = UnionOfSubspaces.random(5, 3, 3, 3.0, 400 + k)
        op = RandomFourierOperator.from_seed(32, 5, 0.5, 500 + k)
        yield model, op, noisy_off_model_target(model, op, k), k


def per_start_gauss_newton(op, B, y, z0, radius, max_iters):
    """Reference: one start at a time, with jacobian, lstsq and all 54 step sizes per line search."""
    z = decoder._ball_project(np.asarray(z0, dtype=float), radius)
    r = op.apply_batch(B @ z)[0] - y
    for iters in range(1, max_iters + 1):
        fz = float(np.real(np.vdot(r, r)))
        J = jacobian(op, B @ z) @ B
        Jr, Rr = np.vstack([J.real, J.imag]), np.concatenate([r.real, r.imag])
        grad = 2.0 * Jr.T @ Rr
        pg = np.linalg.norm(z - decoder._ball_project(z - grad, radius))
        if pg <= decoder.GTOL:
            return z, fz, iters, True
        step, *_ = np.linalg.lstsq(Jr, -Rr, rcond=None)
        cands = decoder._ball_project(z + _HALVINGS[:, None] * step, radius)
        R = op.apply_batch(cands @ B.T) - y
        F = np.real(np.sum(R * R.conj(), axis=1))
        ok = (F < (1 - decoder._F_RTOL) * fz) & (F <= fz + 1e-4 * ((cands - z) @ grad))
        if not ok[0] and pg <= decoder._PG_RTOL * np.linalg.norm(Jr) * np.linalg.norm(Rr):
            return z, fz, iters, True
        if not ok.any():
            cands = decoder._ball_project(z - (_HALVINGS / (1.0 + np.linalg.norm(grad)))[:, None] * grad, radius)
            R = op.apply_batch(cands @ B.T) - y
            ok = np.real(np.sum(R * R.conj(), axis=1)) < (1 - decoder._F_RTOL) * fz
        if not ok.any():
            return z, fz, iters, pg <= decoder._PG_RTOL * np.linalg.norm(Jr) * np.linalg.norm(Rr)
        k = int(np.argmax(ok))
        z, r = cands[k], R[k]
    return z, float(np.real(np.vdot(r, r))), iters, False


def fourier_rows(s, n=9):
    """(model, op, Y): n noisy off-model rows on an instance of subspace dimension s; row 4 repeats row 0."""
    if s <= 2:
        model, op, _ = random_fourier_instance({1: 4, 2: 9}[s])  # three subspaces each
    else:
        model = UnionOfSubspaces.random(4, 3, 2, 1.0, 0)
        op = RandomFourierOperator.from_seed(8, 4, 1.0, 0)
    Y = np.array([noisy_off_model_target(model, op, k) for k in range(n)])
    Y[4] = Y[0]
    return model, op, Y


def random_small_instance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    N = int(rng.integers(1, 4))
    model = UnionOfSubspaces.random(d, 1, N, 1.0, seed)
    if rng.uniform() < 0.5:
        op = LinearGaussianOperator(np.eye(d))
    else:
        op = LinearGaussianOperator.from_seed(d, d, seed + 1)
    y = rng.normal(size=d) * rng.uniform(0.2, 1.5)
    return model, op, y


class TestDecodeLinear:
    def test_on_model_measurement(self):
        (res,) = rows(decode_linear(IDENTITY2, x_axis_model(), np.array([[0.5, 0.0]])))
        assert np.allclose(res.xhat, [0.5, 0.0], atol=1e-12)
        assert res.residual <= 1e-12
        assert res.converged

    def test_orthogonal_residual(self):
        (res,) = rows(decode_linear(IDENTITY2, x_axis_model(), np.array([[0.3, 0.4]])))
        assert np.allclose(res.xhat, [0.3, 0.0], atol=1e-12)
        assert res.residual == pytest.approx(0.4, abs=1e-12)
        xg, rg = grid_minimum(IDENTITY2, x_axis_model(), np.array([0.3, 0.4]).astype(complex))
        assert np.allclose(xg, res.xhat, atol=2e-3) and abs(rg - res.residual) <= 2e-3

    def test_ball_clip(self):
        (res,) = rows(decode_linear(IDENTITY2, x_axis_model(), np.array([[2.0, 0.0]])))
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
            (res,) = rows(decode_linear(LinearGaussianOperator(A), model, y[None]))
            assert np.linalg.norm(res.xhat) <= 0.5 + 1e-10

    def test_rank_deficient_minimum_norm(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])  # collapses the y-axis
        model = UnionOfSubspaces.axes(2, 1.0)
        (res,) = rows(decode_linear(LinearGaussianOperator(A), model, np.array([[0.0, 0.0]])))
        assert res.residual <= 1e-12
        assert np.linalg.norm(res.xhat) <= 1e-12  # minimum-norm pick of a flat optimum

    def test_rejects_complex_measurement(self):
        with pytest.raises(InputError):
            decode_linear(IDENTITY2, x_axis_model(), np.array([[1j, 0.0]]))

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 2, 2)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(InputError):
            decode_linear(IDENTITY2, x_axis_model(), np.zeros(shape))

    @staticmethod
    def batch_matching_rows(op, model, Y):
        """decode_linear on the rows of Y, checked bit for bit against one call per row."""
        batch = rows(decode_linear(op, model, Y))
        assert len(batch) == len(Y)
        for res, y in zip(batch, Y):
            (one,) = rows(decode_linear(op, model, y[None]))
            assert res.xhat.tobytes() == one.xhat.tobytes()
            assert float(res.residual).hex() == float(one.residual).hex()
            assert res.subspace_index == one.subspace_index
        return batch

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            d = int(rng.integers(2, 10))
            model = UnionOfSubspaces.random(d, int(rng.integers(1, d + 1)), 3, 0.7, seed)
            op = LinearGaussianOperator.from_seed(int(rng.integers(1, 12)), d, seed + 50)
            # small rows are solved unconstrained, large ones by the ball bisection
            Y = rng.normal(size=(30, op.m)) * np.geomspace(0.01, 20.0, 30)[:, None]
            norms = [np.linalg.norm(r.xhat) for r in self.batch_matching_rows(op, model, Y)]
            assert min(norms) < 0.7 - 1e-3
            assert any(abs(n - 0.7) <= 1e-8 for n in norms)

    def test_batch_rank_deficient(self):
        # A collapses the second axis (G = 0 there) and spans one direction of the planes
        rng = np.random.default_rng(4)
        op = LinearGaussianOperator([[1.0, 0.0], [1.0, 0.0]])
        Y = rng.normal(size=(12, 2)) * np.geomspace(0.1, 10.0, 12)[:, None]
        self.batch_matching_rows(op, UnionOfSubspaces.axes(2, 1.0), Y)
        u = rng.normal(size=(3, 1))
        op = LinearGaussianOperator(u @ rng.normal(size=(1, 3)))
        self.batch_matching_rows(op, UnionOfSubspaces.random(3, 2, 3, 0.5, 9), Y[:, :1] * u.T)

    def test_batch_tie_goes_to_lowest_index(self):
        # equidistant from both axes, inside and outside the ball
        Y = np.array([[0.5, 0.5], [2.0, 2.0], [-0.3, 0.3], [0.0, 0.0]])
        batch = self.batch_matching_rows(IDENTITY2, UnionOfSubspaces.axes(2, 1.0), Y)
        assert [r.subspace_index for r in batch] == [0, 0, 0, 0]
        assert np.array_equal(batch[0].xhat, [0.5, 0.0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_full_dimensional_ties_go_to_index_zero(self, d):
        # with s = d every subspace is R^d, so all subspaces reach the same residual
        rng = np.random.default_rng(d)
        model = UnionOfSubspaces.random(d, d, 4, 100.0, d)
        op = LinearGaussianOperator.from_seed(2 * d, d, d + 1)
        Y = rng.normal(size=(200, 2 * d))
        assert [r.subspace_index for r in rows(decode_linear(op, model, Y))] == [0] * 200

    def test_batch_of_one_row(self):
        model, op, y = random_small_instance(2)
        (res,) = rows(decode_linear(op, model, y[None, :]))
        assert res.xhat.tobytes() == rows(decode_linear(op, model, np.stack([y, -y])))[0].xhat.tobytes()

    def test_matches_grid_oracle_on_random_instances(self):
        for seed in range(10):
            model, op, y = random_small_instance(seed)
            (res,) = rows(decode_linear(op, model, y[None]))
            _, rg = grid_minimum(op, model, y.astype(complex), resolution=1e-3)
            assert res.residual <= rg + 1e-9
            assert abs(res.residual - rg) <= 2e-3

    def test_noiseless_consistency(self):
        for seed in range(5):
            model, op, _ = random_small_instance(seed)
            x0 = sample_model_points(model, 1, seed)[0]
            (res,) = rows(decode_linear(op, model, (op.matrix @ x0)[None]))
            assert res.residual <= 1e-10


class TestSecularBisection:
    """The bisection on compacted active rows is bitwise the loop that gathers them on every step."""

    @staticmethod
    def bisection_rows(s, seed, n=60):
        """(S, beta, Vt) of n random rows: 20 plain, 20 whose hi bracket has to grow and 20 whose minimum-norm
        point lies inside the ball, which never come within tol and stop at the 200-step cap.  The last 10
        have S near 1e-150, so their bracket after 200 halvings still moves the point."""
        rng = np.random.default_rng(seed)
        S = -np.sort(-np.abs(rng.normal(size=(n, s))), axis=1)
        S[50:] *= 1e-150
        beta = rng.normal(scale=3.0, size=(n, s))
        beta[20:40] *= 1e4
        beta[40:] *= 1e-3 * S[40:]
        return S, beta, np.linalg.qr(rng.normal(size=(n, s, s)))[0]

    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    @pytest.mark.parametrize("radius", [1.0, 0.7])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_the_gathering_loop(self, s, radius, tol):
        for seed in range(3):
            S, beta, Vt = self.bisection_rows(s, seed)
            hi = np.maximum(S[:, 0] ** 2, 1.0)
            assert np.all(np.linalg.norm(S * beta / (S**2 + hi[:, None]), axis=1)[20:40] > radius)
            assert np.all(np.linalg.norm(beta[40:] / S[40:], axis=1) < radius)
            got = decoder._secular_bisection(S, beta, Vt, radius, tol)
            assert got.tobytes() == reference.secular_bisection(S, beta, Vt, radius, tol).tobytes()


def line_search_one_apply_per_step(z, f, grad, step, radius, mapped):
    """Reference line search of one start: the full step, the other halvings, then the gradient steps, in turn.

    Every ball-projected step size goes through its own mapped(z') -> (psi', f') call.  Returns (stage, z', psi',
    f') of the first step that makes progress, or ("none", None, None, None).
    """
    stages = (("full", step, _HALVINGS[:1], True), ("halved", step, _HALVINGS[1:], True),
              ("gradient", -grad, _HALVINGS / (1.0 + np.linalg.norm(grad)), False))
    for stage, direction, alphas, armijo in stages:
        for alpha in alphas:
            c = decoder._ball_project(z + alpha * direction, radius)
            psi, fc = mapped(c)
            if fc < (1 - decoder._F_RTOL) * f and (not armijo or fc <= f + 1e-4 * ((c - z) @ grad)):
                return stage, c, psi, fc
    return "none", None, None, None


def decode_one(op, model, y, opts=None):
    """decode's row for the one measurement y, and that row's gap."""
    (res,) = rows(decode(op, model, np.asarray(y)[None], opts or DecoderOptions()))
    return res, res.gap


def fourier_decode(op, model, y, opts=None):
    """decode's row for one Fourier measurement."""
    return decode_one(op, model, y, opts)[0]


class TestDecodeNonlinear:
    """The Fourier map's decoder: the certificate-started polish of decode and the lockstep Gauss-Newton under it."""

    def test_cold_starts_recover_truth(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(64, 2, 1.0, 3)
        x0 = np.array([0.6, 0.0])
        res = fourier_decode(op, model, op.apply_batch(x0)[0])
        assert res.residual <= 1e-8
        assert res.converged

    def test_recovery_rate_small_instance(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        hits = 0
        for seed in range(20):
            op = RandomFourierOperator.from_seed(64, 2, 1.0, seed)
            x0 = sample_model_points(model, 1, 10_000 + seed)[0]
            res = fourier_decode(op, model, op.apply_batch(x0)[0])
            hits += KERNEL.dist(x0 - res.xhat) <= 1e-6
        assert hits >= 19

    def test_zero_signal_exact(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(32, 2, 1.0, 8)
        res = fourier_decode(op, model, op.apply_batch(np.zeros(2))[0])
        assert KERNEL.dist(res.xhat) <= 1e-8
        # the search's first centre, the origin, is the minimum, so the polish stops in its first round
        assert res.converged and res.optimizer_iters == 1 and res.residual == 0.0

    def test_feasibility_invariants(self):
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        rng = np.random.default_rng(6)
        for _ in range(5):
            y = op.apply_batch(rng.normal(size=4))[0]  # off-model target
            res = fourier_decode(op, model, y)
            assert model.membership_defect(res.xhat) <= 1e-10
            assert np.linalg.norm(res.xhat) <= 0.8 + 1e-10

    def test_off_model_decodes_converge(self):
        # the test_feasibility_invariants instance: off-model minima with f near 1
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        rng = np.random.default_rng(6)
        for _ in range(5):
            res = fourier_decode(op, model, op.apply_batch(rng.normal(size=4))[0])
            assert res.converged

    def test_last_bit_change_keeps_convergence(self):
        # targets that differ in their last bits all decode to a converged polish
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 8)
        op = RandomFourierOperator.from_seed(12, 3, 1.0, 4)
        y = op.apply_batch(sample_model_points(model, 1, 1)[0])[0] + 0.05 * np.exp(1j * np.arange(12)) / np.sqrt(12)
        for target in (y, np.nextafter(y.real, 2) + 1j * y.imag, y * (1 + 2 ** -52)):
            assert fourier_decode(op, model, target).converged

    def test_one_apply_per_iteration(self, monkeypatch):
        calls = []
        original = RandomFourierOperator.apply_batch

        def counted(self, X):
            calls.append(len(np.atleast_2d(X)))
            return original(self, X)

        monkeypatch.setattr(RandomFourierOperator, "apply_batch", counted)
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        y = op.apply_batch(np.random.default_rng(6).normal(size=4))[0]
        calls.clear()
        res = fourier_decode(op, model, y)
        assert res.optimizer_iters > 1 and res.converged
        # the start; in each round but the last, at most one call for each stage of _line_search (the full step,
        # the other 53 halvings, the 54 gradient steps); one call in the last round, whose full step fails at a
        # point within rounding of stationary; and the recomputed residual
        assert len(calls) <= 3 * res.optimizer_iters

    def test_stationary_start_maps_only_its_full_step(self, monkeypatch):
        # off-model minima with f near 1, where rounding keeps ||pg|| above GTOL: a polish restarted at its own
        # converged iterate stops in its first round, after its full step, without the 53 halvings and the 54
        # gradient steps
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        rng = np.random.default_rng(6)
        Y = op.apply_batch(rng.normal(size=(5, 4)))
        _, _, (sub, Z0) = certified_minimum(op, model, Y, 1e-6, np.inf)
        Z, F, _, converged = decoder._gauss_newton(op, model, Y, sub, Z0, 500)
        assert converged.all() and np.all(F > 0.1)
        mapped = []
        original = RandomFourierOperator.apply_batch

        def counted(self, X):
            mapped.append(len(np.atleast_2d(X)))
            return original(self, X)

        monkeypatch.setattr(RandomFourierOperator, "apply_batch", counted)
        for k in range(len(Y)):
            mapped.clear()
            again = decoder._gauss_newton(op, model, Y[k:k + 1], sub[k:k + 1], Z[k:k + 1], 500)
            assert mapped == [1, 1]  # the start, then the full step
            assert again[1][0] == pytest.approx(F[k], rel=1e-14) and again[2][0] == 1 and again[3][0]

    def test_line_search_matches_one_apply_per_step(self):
        # each step size mapped through B @ z' and its own apply_batch call, f as the squared norm
        model = UnionOfSubspaces.random(4, 2, 3, 0.8, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        bases, B, y = np.stack(model.bases), model.bases[1], op.apply_batch(np.random.default_rng(6).normal(size=4))[0]
        z = np.array([0.5, -0.4])
        r = op.apply_batch(B @ z)[0] - y
        f, grad = np.linalg.norm(r) ** 2, 2.0 * np.real(np.conj(jacobian(op, B @ z) @ B).T @ r)
        # full, halved and gradient steps win; z + (-0.764798, 0) lowers f by about 5e-6, more than rounding but
        # too little for the Armijo test, so the last two steps take their first and second halvings
        steps = np.array([-0.1 * grad, [-3.0, -1.0], [3.0, 1.0], [-0.764798, 0.0], [-1.529596, 0.0]])
        n = len(steps)
        found, Zn, Pn, Fn = _line_search(op, bases, np.broadcast_to(y, (n, op.m)), np.ones(n, dtype=int),
                                         np.tile(z, (n, 1)), np.full(n, f), np.tile(grad, (n, 1)), steps, 0.8,
                                         np.zeros(n, dtype=bool))

        def mapped(c):
            psi = op.apply_batch(B @ c)[0]
            return psi, np.linalg.norm(psi - y) ** 2

        seen = set()
        for k, step in enumerate(steps):
            stage, c, psi, fc = line_search_one_apply_per_step(z, f, grad, step, 0.8, mapped)
            seen.add(stage)
            assert found[k] == (stage != "none")
            assert np.allclose(Zn[k], c, rtol=1e-15, atol=0)
            assert np.allclose(Pn[k], psi, rtol=1e-12, atol=1e-15)
            assert Fn[k] == pytest.approx(fc, rel=1e-12)
        assert seen == {"full", "halved", "gradient"}, seen

    def test_lazy_search_takes_the_step_of_all_halvings_at_once(self):
        # reference: every step size through its own _evaluate call; the first halving of the step that passes
        # the Armijo test wins, and with none passing the same along -grad from 1/(1 + ||grad||) with plain decrease
        seen = {"full": 0, "halved": 0, "gradient": 0, "none": 0}
        for seed in range(30):
            model, op, y = random_fourier_instance(seed)
            rng = np.random.default_rng(seed)
            bases, s, M = np.stack(model.bases), model.subspace_dim, model.norm_bound
            n = 6
            Y = np.broadcast_to(y, (n, op.m))
            sub = rng.integers(model.num_subspaces, size=n)
            z = decoder._ball_project(rng.normal(size=(n, s)) * M, M)
            # grad at z and a direction that may be good, too long, uphill or zero
            P, f = decoder._evaluate(op, bases, Y, sub, z)
            grad = np.array([2.0 * np.real(np.conj(jacobian(op, bases[i] @ zk) @ bases[i]).T @ (p - y))
                             for i, zk, p in zip(sub, z, P)])
            step = -grad * np.array([0.1, 10.0, 1e3, -1.0, 0.0, 1.0])[:, None]
            if seed % 3 == 0:  # a stationary start: no step size makes progress
                z[-1], f[-1], grad[-1], step[-1] = z[0], 0.0, grad[0], step[0]
            found, Zn, Pn, Fn = _line_search(op, bases, Y, sub, z, f, grad, step, M, np.zeros(n, dtype=bool))
            for k in range(n):
                def mapped(c):
                    psi, fc = decoder._evaluate(op, bases, Y[k:k + 1], sub[k:k + 1], c[None])
                    return psi[0], fc[0]

                stage, c, psi, fc = line_search_one_apply_per_step(z[k], f[k], grad[k], step[k], M, mapped)
                seen[stage] += 1
                assert found[k] == (stage != "none")
                if found[k]:
                    assert np.array_equal(Zn[k], c) and np.array_equal(Pn[k], psi) and Fn[k] == fc
        assert min(seen.values()) > 0, seen

    def test_lockstep_starts_match_the_per_start_reference(self):
        # the batched SVD and the restricted-map Jacobian round differently from lstsq and jacobian
        for seed in range(8):
            model, op, y = random_fourier_instance(seed)
            rng = np.random.default_rng(seed)
            sub = np.repeat(np.arange(model.num_subspaces), 3)
            Z0 = rng.normal(size=(len(sub), model.subspace_dim))
            Z, F, _, converged = decoder._gauss_newton(op, model, np.broadcast_to(y, (len(sub), op.m)), sub, Z0, 500)
            for k, i in enumerate(sub):
                z, f, _, conv = per_start_gauss_newton(op, model.bases[i], y, Z0[k], model.norm_bound, 500)
                assert converged[k] == conv
                assert F[k] == pytest.approx(f, rel=1e-12, abs=1e-15)
                assert np.allclose(Z[k], z, rtol=0, atol=1e-6)

    def test_start_runs_bitwise_the_same_alone_and_in_the_batch(self):
        for seed, max_iters in ((0, 500), (1, 500), (2, 3), (3, 500)):
            model, op, y = random_fourier_instance(seed)
            rng = np.random.default_rng(seed)
            n = 4 * model.num_subspaces
            sub = np.repeat(np.arange(model.num_subspaces), 4)
            Z0 = rng.normal(size=(n, model.subspace_dim))
            Y = np.broadcast_to(y, (n, op.m))
            batch = decoder._gauss_newton(op, model, Y, sub, Z0, max_iters)
            for k in range(n):
                alone = decoder._gauss_newton(op, model, Y[k:k + 1], sub[k:k + 1], Z0[k:k + 1], max_iters)
                for whole, one in zip(batch, alone):
                    assert np.array_equal(whole[k], one[0])

    def test_monotone_in_restarts(self):
        # the multi-start reference's restarts are nested, so the 8-restart baseline of the gates
        # is no worse than any fewer
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 7)
        op = RandomFourierOperator.from_seed(24, 3, 1.0, 9)
        y = op.apply_batch(np.random.default_rng(1).normal(size=3))[0]
        residuals = [
            multi_start_decode(op, model, y, restarts=r, rng_seed=4).residual
            for r in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("step, winner", [(1e-17, 0), (1e-9, 7)])
    def test_rounding_ties_go_to_the_earliest_start(self, monkeypatch, step, winner):
        # the multi-start reference picks its winner by objective, not by rounding: objectives
        # fall by step with each start, and 1e-17 is a few ulps at 0.01, 1e-9 is not
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 7)
        op = RandomFourierOperator.from_seed(12, 3, 1.0, 9)
        starts = []

        def fake(op, model, y, sub, Z0, max_iters):
            starts.extend(np.array(Z0, dtype=float))
            n = len(starts)
            return np.array(starts), 0.01 - step * np.arange(1, n + 1), np.ones(n, dtype=int), np.ones(n, dtype=bool)

        monkeypatch.setattr(decoder, "_gauss_newton", fake)
        res = multi_start_decode(op, model, op.apply_batch(np.zeros(3))[0] + 0.1, restarts=4)
        assert len(starts) == 8
        assert res.subspace_index == winner // 4
        assert np.array_equal(res.xhat, model.bases[winner // 4] @ starts[winner])

    def test_residual_recomputation_invariant(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(16, 2, 1.0, 11)
        y = op.apply_batch(np.array([0.2, 0.0]))[0]
        res = fourier_decode(op, model, y)
        assert abs(float(np.linalg.norm(op.apply_batch(res.xhat)[0] - y)) - res.residual) <= 1e-10


class TestResidualCertificate:
    def test_exact_linear_gap_zero(self):
        # the linear decoder is exact: decode gives it gap 0, and the certificate refuses the linear map
        model, op, y = random_small_instance(3)
        res, gap = decode_one(op, model, y, DecoderOptions())
        assert gap == 0.0
        with pytest.raises(InputError):
            residual_certificate(res, op, model, y)

    def test_grid_gap_above_minus_resolution(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(32, 2, 1.0, 13)
        y = op.apply_batch(np.array([0.4, 0.0]))[0] + 0.05
        res = fourier_decode(op, model, y)
        gap = residual_certificate(res, op, model, y, target=1e-3)
        assert gap >= 0  # the branch-and-bound lower bound never exceeds the achieved residual

    def test_unconverged_reports_infinity(self):
        (res,) = rows(DecodeResult(
            xhat=np.zeros((1, 2)), residual=np.ones(1), subspace_index=np.zeros(1, dtype=int),
            optimizer_iters=np.ones(1, dtype=int), converged=np.zeros(1, dtype=bool), gap=np.ones(1),
        ))
        op = RandomFourierOperator.from_seed(8, 2, 1.0, 0)
        assert residual_certificate(res, op, UnionOfSubspaces.axes(2, 1.0), np.zeros(8)) == np.inf

    def test_certified_gap_within_target_at_subspace_dim_three(self):
        model = UnionOfSubspaces.random(6, 3, 2, 1.0, 0)
        op = RandomFourierOperator.from_seed(16, 6, 1.0, 1)
        y = noisy_off_model_target(model, op, 0)
        res = fourier_decode(op, model, y)
        assert res.converged
        assert 0.0 <= residual_certificate(res, op, model, y) <= DecoderOptions().target


class TestCertifiedMinimum:
    def test_below_grid_and_residual_on_random_instances(self):
        for seed in range(40):
            model, op, y = random_fourier_instance(seed)
            res = multi_start_decode(op, model, y, restarts=3, rng_seed=seed)
            (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-6, res.residual)
            _, rg = grid_minimum(op, model, y, resolution=2e-3)
            assert 0 < cells < decoder._CERT_BUDGET
            assert lower <= rg
            assert lower <= res.residual

    def test_poor_converged_result_gets_its_full_gap(self):
        model, op, y = random_fourier_instance(3)
        x0 = np.zeros(model.dim)
        residual = np.array([float(np.linalg.norm(op.apply_batch(x0)[0] - y))])
        (poor,) = rows(DecodeResult(xhat=x0[None], residual=residual, subspace_index=np.zeros(1, dtype=int),
                                    optimizer_iters=np.ones(1, dtype=int), converged=np.ones(1, dtype=bool),
                                    gap=residual))
        _, rg = grid_minimum(op, model, y, resolution=2e-3)
        assert poor.residual - rg > 0.05  # the origin is far from the optimum here
        assert residual_certificate(poor, op, model, y) >= poor.residual - rg - 1e-9

    def test_spent_budget_stays_below_grid(self, monkeypatch):
        monkeypatch.setattr(decoder, "_CERT_BUDGET", 5)
        for seed in range(6):
            model, op, y = random_fourier_instance(seed)
            res = multi_start_decode(op, model, y, restarts=3, rng_seed=seed)
            (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-6, res.residual)
            _, rg = grid_minimum(op, model, y, resolution=2e-3)
            assert cells <= 5
            assert lower <= rg

    def test_tiny_target_finishes_within_budget(self):
        model = UnionOfSubspaces.random(4, 2, 3, 1.0, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        x = sample_model_points(model, 1, 3)[0]
        y = op.apply_batch(x)[0] + 0.05 * np.exp(1j * np.arange(48)) / np.sqrt(48)
        res = multi_start_decode(op, model, y)
        (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-12, res.residual)
        assert cells < decoder._CERT_BUDGET
        assert 0.0 <= res.residual - lower <= 1e-9

    @pytest.mark.parametrize("resolution", [0.0, -1e-6, float("nan")])
    def test_target_must_be_positive(self, resolution):
        with pytest.raises(InputError):
            DecoderOptions(target=resolution)

    def test_gap_within_target_at_subspace_dim_three(self):
        model = UnionOfSubspaces.random(4, 3, 1, 1.0, 0)
        op = RandomFourierOperator.from_seed(8, 4, 1.0, 0)
        y = noisy_off_model_target(model, op, 1)
        res = fourier_decode(op, model, y)
        (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-3, res.residual)
        assert cells < decoder._CERT_BUDGET
        assert 0.0 <= res.residual - lower <= 1e-3

    def test_below_grid_at_subspace_dim_three(self):
        # M = 0.5 and m <= 8 keep the 0.05 grid small: 21^3 points per subspace, about half in the ball
        for seed in range(10):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(4, 6))
            model = UnionOfSubspaces.random(d, 3, int(rng.integers(1, 4)), 0.5, seed)
            op = RandomFourierOperator.from_seed(int(rng.integers(4, 9)), d, 1.0, seed + 1)
            y = op.apply_batch(rng.normal(size=d))[0] + 0.1 * rng.normal(size=op.m)
            (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-6, np.inf)
            _, rg = grid_minimum(op, model, y, resolution=0.05)
            assert 0 < cells < decoder._CERT_BUDGET
            assert lower <= rg

    def test_memory_bounded_at_subspace_dim_eight(self):
        # each split makes 2^8 children; the budget guard keeps every level within _CERT_BUDGET boxes
        model = UnionOfSubspaces.random(9, 8, 2, 1.0, 0)
        op = RandomFourierOperator.from_seed(16, 9, 1.0, 1)
        y = noisy_off_model_target(model, op, 2)
        res = fourier_decode(op, model, y)
        tracemalloc.start()
        try:
            (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-6, np.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert cells <= decoder._CERT_BUDGET
        assert lower <= res.residual

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_rows_match_one_search_per_row(self, s):
        model, op, Y = fourier_rows(s)
        lower, cells, (sub, Z) = certified_minimum(op, model, Y, 1e-6, np.inf)
        for k, y in enumerate(Y):
            (one_lower,), (one_cells,), ((i,), (z,)) = certified_minimum(op, model, y[None], 1e-6, np.inf)
            assert lower[k] == one_lower and cells[k] == one_cells
            assert sub[k] == i and Z[k].tobytes() == z.tobytes()
        assert lower[4] == lower[0] and cells[4] == cells[0]

    def test_no_rows(self):
        model, op, _ = fourier_rows(2)
        lower, cells, (sub, Z) = certified_minimum(op, model, np.zeros((0, op.m)), 1e-6, np.inf)
        assert lower.shape == cells.shape == sub.shape == (0,) and Z.shape == (0, 2)

    def test_rows_searched_again_after_leaving_match_one_search_per_row(self, monkeypatch):
        # a small budget lets few s = 8 rows fly together: some leave the group at the root, others
        # deeper, and are searched again from the root
        monkeypatch.setattr(decoder, "_CERT_BUDGET", 3000)
        model = UnionOfSubspaces.random(9, 8, 2, 1.0, 0)
        op = RandomFourierOperator.from_seed(16, 9, 1.0, 1)
        Y = np.array([noisy_off_model_target(model, op, k) for k in range(8)])
        bounded = []
        engine = decoder._branch_and_bound

        def counted(n, model, bound, level):
            def counting(owner, sub, Z, h):
                bounded.append(len(Z))
                return bound(owner, sub, Z, h)
            return engine(n, model, counting, level)

        monkeypatch.setattr(decoder, "_branch_and_bound", counted)
        lower, cells, (sub, Z) = certified_minimum(op, model, Y, 1e-6, np.inf)
        assert sum(bounded) > cells.sum()  # the rows that left were bounded again
        for k, y in enumerate(Y):
            (one_lower,), (one_cells,), ((i,), (z,)) = certified_minimum(op, model, y[None], 1e-6, np.inf)
            assert lower[k] == one_lower and cells[k] == one_cells <= 3000
            assert sub[k] == i and Z[k].tobytes() == z.tobytes()

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_rows_do_not_depend_on_chunk_size(self, s, monkeypatch):
        # boxes of several rows share each chunk, and every row's result stays what a chunk of 4096 gives
        model, op, Y = fourier_rows(s, n=5)
        lower, cells, (sub, Z) = certified_minimum(op, model, Y, 1e-6, np.inf)
        monkeypatch.setattr(decoder, "_CERT_CHUNK", 7)
        small = certified_minimum(op, model, Y, 1e-6, np.inf)
        assert lower.tobytes() == small[0].tobytes() and np.array_equal(cells, small[1])
        assert np.array_equal(sub, small[2][0]) and Z.tobytes() == small[2][1].tobytes()

    @pytest.mark.parametrize("s", [8, 12])
    def test_memory_bounded_for_rows_at_large_subspace_dim(self, s):
        # the rows in flight share one budget, so four rows stay within the bound of one
        model = UnionOfSubspaces.random(s + 1, s, 2, 1.0, 0)
        op = RandomFourierOperator.from_seed(16, s + 1, 1.0, 1)
        Y = np.array([noisy_off_model_target(model, op, k) for k in range(2, 6)])
        peaks = []
        for rows in (Y[:1], Y):
            tracemalloc.start()
            try:
                _, cells, _ = certified_minimum(op, model, rows, 1e-6, np.inf)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 32 * 2**20
        assert peaks[1] < 1.25 * peaks[0]  # four rows in flight without the shared budget hold over twice as much
        assert np.all(cells <= decoder._CERT_BUDGET)

    @staticmethod
    def box_bounds(op, model, Y, monkeypatch):
        """The bound(owner, sub, Z, h) that certified_minimum hands its branch-and-bound for the rows Y: _box_bounds."""
        bounds, engine = [], decoder._branch_and_bound

        def capture(n, model, bound, level):
            bounds.append(bound)
            return engine(n, model, bound, level)

        monkeypatch.setattr(decoder, "_branch_and_bound", capture)
        certified_minimum(op, model, Y, 1e-6, np.inf)
        return bounds[0]

    @staticmethod
    def large_phase_instance(s, k):
        """sigma = 0.2 and M = 3 on R^3: the phases v_j . z wrap many times in the ball, M max ||v_j||_1 > 5 * 2 pi."""
        model = UnionOfSubspaces.random(3, s, 2, 3.0, 60 + k)
        op = RandomFourierOperator.from_seed(32, 3, 0.2, 70 + k)
        assert model.norm_bound * np.abs(decoder._restricted_map(op, model)).sum(axis=2).max() > 10.0 * np.pi
        return model, op, noisy_off_model_target(model, op, k)

    def test_below_grid_and_residual_at_large_phases(self):
        for k in range(4):
            model, op, y = self.large_phase_instance(1, k)
            (lower,), (cells,), _ = certified_minimum(op, model, y[None], 1e-6, np.inf)
            _, rg = grid_minimum(op, model, y, resolution=1e-4)
            assert 0 < cells < decoder._CERT_BUDGET
            assert lower <= rg
            assert lower <= multi_start_decode(op, model, y, rng_seed=k).residual

    def test_box_bounds_below_f_in_the_box_at_large_phases(self, monkeypatch):
        # one _box_bounds call on boxes of three rows, both subspaces, half-widths M down to M / 2^12 and
        # centres anywhere in [-M, M]^2, each checked against f at 64 points of its box that lie in the ball
        model, op, _ = self.large_phase_instance(2, 0)
        Y = np.array([noisy_off_model_target(model, op, k) for k in range(3)])
        bound = self.box_bounds(op, model, Y, monkeypatch)
        rng = np.random.default_rng(5)
        M, n = model.norm_bound, 200
        owner, sub = rng.integers(3, size=n), rng.integers(2, size=n)
        checked = 0
        for h in M * 0.5 ** np.arange(0, 13, 3):
            Zc = rng.uniform(-M, M, size=(n, 2))
            _, lower = bound(owner, sub, Zc, h)
            for k in range(n):
                Z = Zc[k] + h * rng.uniform(-1.0, 1.0, size=(64, 2))
                Z = Z[np.linalg.norm(Z, axis=1) <= M]
                if len(Z):
                    R = op.apply_batch(Z @ model.bases[sub[k]].T) - Y[owner[k]]
                    assert lower[k] <= np.min(np.real(np.sum(R * R.conj(), axis=1)))
                    checked += 1
        assert checked > 500

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_box_bounds_are_per_box(self, s, monkeypatch):
        # a batch that mixes rows, subspaces and centres gives each box bitwise what it gets alone
        model, op, Y = fourier_rows(s)
        bound = self.box_bounds(op, model, Y, monkeypatch)
        rng = np.random.default_rng(s)
        n, M = 300, model.norm_bound
        owner, sub = rng.integers(len(Y), size=n), rng.integers(model.num_subspaces, size=n)
        Zc = rng.uniform(-M, M, size=(n, s))
        for h in (M, M / 64):
            f0, lower = bound(owner, sub, Zc, h)
            for k in range(n):
                one_f0, one_lower = bound(owner[k:k + 1], sub[k:k + 1], Zc[k:k + 1], h)
                assert one_f0.tobytes() == f0[k:k + 1].tobytes() and one_lower.tobytes() == lower[k:k + 1].tobytes()

    def test_converged_fourier_gaps_are_nonnegative(self):
        converged = 0
        for seed in range(20):
            model, op, y = random_fourier_instance(seed)
            res, gap = decode_one(op, model, y, DecoderOptions())
            if res.converged:
                converged += 1
                assert 0.0 <= gap <= res.residual
        assert converged >= 15


class TestBranchAndBound:
    """A second client of the engine: row r minimises f(i, z) = ||z - T[r, i]||^2 on subspace i.

    Its exact box bound is the squared distance from T[r, i] to the box, and
    its minimum over the ball ||z|| <= M is (||T[r, i]|| - M)_+^2.
    """

    @staticmethod
    def search(model, T, tol):
        def bound(owner, sub, Z, h):
            D = Z - T[owner, sub]
            return np.sum(D * D, axis=1), np.sum(np.maximum(np.abs(D) - h, 0.0) ** 2, axis=1)

        return decoder._branch_and_bound(len(T), model, bound, lambda rows, best: best - tol)

    @staticmethod
    def instance(s, n=6):
        """(model, T, min f): three subspaces at M = 1, targets uniform in [-1.5, 1.5]^s, some outside the ball."""
        model = UnionOfSubspaces.random(s + 1, s, 3, 1.0, s)
        T = np.random.default_rng(s).uniform(-1.5, 1.5, size=(n, 3, s))
        return model, T, np.min(np.maximum(np.linalg.norm(T, axis=2) - 1.0, 0.0) ** 2, axis=1)

    @staticmethod
    def best_f(T, sub, Z):
        D = Z - T[np.arange(len(T)), sub]
        return np.sum(D * D, axis=1)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_settled_and_best_bracket_the_minimum(self, s):
        model, T, least = self.instance(s)
        settled, cells, (sub, Z) = self.search(model, T, 1e-4)
        best = self.best_f(T, sub, Z)
        assert np.all(np.linalg.norm(Z, axis=1) <= 1.0)
        assert np.all(settled <= least + 1e-12) and np.all(least <= best)
        assert np.all(best <= settled + 1e-4 + 1e-12)
        assert np.all((0 < cells) & (cells < decoder._CERT_BUDGET))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_rows_match_one_search_per_row(self, s):
        model, T, _ = self.instance(s)
        settled, cells, (sub, Z) = self.search(model, T, 1e-4)
        for k in range(len(T)):
            (one_settled,), (one_cells,), ((i,), (z,)) = self.search(model, T[k:k + 1], 1e-4)
            assert settled[k] == one_settled and cells[k] == one_cells
            assert sub[k] == i and Z[k].tobytes() == z.tobytes()

    def test_spent_budget_stays_certified(self, monkeypatch):
        monkeypatch.setattr(decoder, "_CERT_BUDGET", 40)
        model, T, least = self.instance(3)
        settled, cells, (sub, Z) = self.search(model, T, 1e-4)
        assert np.all(cells <= 40)
        assert np.all(settled <= least + 1e-12) and np.all(least <= self.best_f(T, sub, Z))
        assert np.any(self.best_f(T, sub, Z) > settled + 1e-4)  # the budget, not the level, stopped these rows


class TestDecode:
    def test_linear_gap_is_zero_and_matches_resolve(self):
        for seed in range(40):
            model, op, y = random_small_instance(seed)
            res, gap = decode_one(op, model, y, DecoderOptions())
            (ref,) = rows(decode_linear(op, model, y[None]))
            assert gap == 0.0
            assert np.array_equal(res.xhat, ref.xhat) and res.residual == ref.residual

    def test_fourier_gap_is_residual_certificate(self):
        # subspace dimension 3: decode's own gap and the independent certificate of its result agree
        model = UnionOfSubspaces.random(4, 3, 2, 1.0, 5)
        op = RandomFourierOperator.from_seed(16, 4, 1.0, 5)
        y = op.apply_batch(sample_model_points(model, 1, 6)[0])[0] + 0.02
        opts = DecoderOptions(target=1e-4)
        res, gap = decode_one(op, model, y, opts)
        cert = residual_certificate(res, op, model, y, opts.target)
        assert res.converged
        assert 0.0 <= gap <= 1e-4 and 0.0 <= cert <= 1e-4

    def test_fourier_gap_within_target(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = RandomFourierOperator.from_seed(16, 2, 1.0, 5)
        y = op.apply_batch(np.array([0.0, -0.3]))[0] + 0.02
        res, gap = decode_one(op, model, y, DecoderOptions(target=1e-2))
        assert res.converged
        assert 0.0 <= gap <= 1e-2
        assert res.residual <= multi_start_decode(op, model, y, restarts=3, rng_seed=7).residual + 1e-2

    def test_certificate_start_escapes_multi_start_local_minimum(self):
        # the multi-start decoder stops at residual 1.2072 here, and the certificate proves a gap of 0.29
        model = UnionOfSubspaces.random(4, 2, 1, 2.0, 66)
        op = RandomFourierOperator.from_seed(32, 4, 0.5, 67)
        rng = np.random.default_rng(4)
        x = sample_model_points(model, 1, rng)[0] + 0.3 * rng.normal(size=4)
        y = op.apply_batch(x)[0] + noise(op, 0.05, rng)
        res, gap = decode_one(op, model, y, DecoderOptions())
        assert res.converged and gap <= 1e-6
        assert res.residual <= multi_start_decode(op, model, y, rng_seed=0).residual - 0.2

    def test_never_worse_than_multi_start_on_fixed_instances(self):
        target, misses_at_three = 1e-6, 0
        for k, (model, op, y, seed) in enumerate(fixed_fourier_instances()):
            res, gap = decode_one(op, model, y, DecoderOptions())
            ref = multi_start_decode(op, model, y, rng_seed=seed)
            assert 0.0 <= gap <= target, f"instance {k}"
            assert res.residual <= ref.residual + target, f"instance {k}"
            misses_at_three += model.subspace_dim == 3 and ref.residual > res.residual + 1e-3
        # the 8-restart reference stops in a local minimum on some s = 3 instances
        assert misses_at_three >= 1

    @pytest.mark.parametrize("kind", ["linear", "fourier"])
    def test_rows_match_one_decode_per_row(self, kind):
        if kind == "linear":
            model, op, _ = random_small_instance(4)
        else:
            model, op = UnionOfSubspaces.axes(2, 1.0), RandomFourierOperator.from_seed(16, 2, 1.0, 5)
        opts = DecoderOptions(target=1e-2)
        Y = op.apply_batch(np.random.default_rng(1).normal(size=(3, op.dim))) + 0.05
        dec = decode(op, model, Y, opts)
        results, gaps = rows(dec), dec.gap
        assert len(results) == len(gaps) == 3
        for y, res, gap in zip(Y, results, gaps):
            one, one_gap = decode_one(op, model, y, opts)
            assert res.xhat.tobytes() == one.xhat.tobytes() and gap == one_gap


    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("max_iters", [500, 1])
    def test_fourier_rows_bitwise_match_one_decode_per_row(self, s, max_iters):
        model, op, Y = fourier_rows(s)
        opts = DecoderOptions(max_iters=max_iters)
        dec = decode(op, model, Y, opts)
        results, gaps = rows(dec), dec.gap
        for y, res, gap in zip(Y, results, gaps):
            one, one_gap = decode_one(op, model, y, opts)
            assert res.xhat.tobytes() == one.xhat.tobytes() and res.residual == one.residual
            assert (res.subspace_index, res.optimizer_iters, res.converged) == (
                one.subspace_index, one.optimizer_iters, one.converged)
            assert gap == one_gap
        assert results[4].xhat.tobytes() == results[0].xhat.tobytes()
        if max_iters == 1:
            assert not all(res.converged for res in results)

    def test_fourier_no_rows(self):
        model, op, _ = fourier_rows(2)
        dec = decode(op, model, np.zeros((0, op.m), dtype=complex), DecoderOptions())
        results, gaps = rows(dec), dec.gap
        assert results == [] and gaps.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imaginary"])
    @pytest.mark.parametrize("kind", ["linear", "fourier"])
    def test_non_finite_measurement_refused_before_any_solve(self, monkeypatch, kind, bad):
        # neither decoder may search, polish or solve on a non-finite row
        monkeypatch.setattr(decoder, "certified_minimum", lambda *args: pytest.fail("search ran"))
        monkeypatch.setattr(decoder, "_constrained_ls", lambda *args: pytest.fail("solve ran"))
        if kind == "linear":
            model, op, y = x_axis_model(), IDENTITY2, np.zeros((1, 2), dtype=complex)
        else:
            model, op, Y = fourier_rows(2)
            y = Y[:2].copy()
        y[-1] = bad
        with pytest.raises(InputError, match="non-finite"):
            decode(op, model, y, DecoderOptions())


class TestNoiseVector:
    """The noise of an IOP trial, as _draw_trials draws and scales it."""

    MODEL = UnionOfSubspaces.random(3, 1, 2, 1.0, 0)

    @pytest.mark.parametrize("op", [LinearGaussianOperator.from_seed(5, 3, 0),
                                    RandomFourierOperator.from_seed(5, 3, 1.0, 0)])
    def test_exact_norm(self, op):
        xstar, y, _ = _draw_trials(op, self.MODEL, [np.random.default_rng(1)], 1, 0.25, 0.3)
        e = y[0] - op.apply_batch(xstar)[0]
        assert y.shape == (1, 5) and y.dtype == complex
        assert np.linalg.norm(e) == pytest.approx(0.25, rel=1e-12)
        assert np.all(e.imag == 0) == isinstance(op, LinearGaussianOperator)

    @pytest.mark.parametrize("m", [3, 48])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_rows_scale_as_each_row_alone(self, m, kind):
        # np.linalg.norm of one row is a 1-D BLAS dot; np.linalg.norm(E, axis=1) differs from it on thousands
        # of these rows, so each trial's measurement must be bitwise the trial drawn and scaled alone
        op = (LinearGaussianOperator.from_seed(m, 3, m) if kind == "real"
              else RandomFourierOperator.from_seed(m, 3, 1.0, m))
        ks = np.arange(5000)
        xstar, y, _ = _draw_trials(op, self.MODEL, seeding.generators(m, 2, ks), len(ks), 0.3, 0.1)
        alone = [iop_trial(op, self.MODEL, seeding.generator(m, 2, k), 0.3, 0.1) for k in ks]
        assert xstar.tobytes() == np.array([a[0] for a in alone]).tobytes()
        assert y.tobytes() == np.array([a[1] for a in alone]).tobytes()
        first = [_draw_trials(op, self.MODEL, [seeding.generator(m, 2, k)], 1, 0.3, 0.1)[1][0] for k in ks[:200]]
        assert np.array(first).tobytes() == y[:200].tobytes()

    def test_zero_norm_draws_nothing(self):
        op = RandomFourierOperator.from_seed(4, 3, 1.0, 0)
        rng = np.random.default_rng(2)
        xstar, y, _ = _draw_trials(op, self.MODEL, [rng], 1, 0.0, 0.3)
        assert np.array_equal(y, op.apply_batch(xstar))
        ref = np.random.default_rng(2)
        sample_model_points(self.MODEL, 1, ref)
        ref.normal(size=3)
        assert rng.normal() == ref.normal()
