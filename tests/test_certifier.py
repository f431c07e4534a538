import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lrip_lab import (
    CoveringBound,
    InputError,
    LinearGaussianOperator,
    NonlinearLripHypotheses,
    OperatorLaw,
    Pseudometric,
    RandomFourierOperator,
    UnionOfSubspaces,
    check_iop_inequality,
    estimate_bp,
    estimate_concentration,
    estimate_lrip,
    lrip_from_iop_witness,
    prop1_failure_bound,
    prop2_failure_bound,
    recommend_m,
)
from lrip_lab.certifier import (
    fit_concentration_slope,
    wilson_upper,
)
import lrip_lab
from lrip_lab import certifier, decoder, harness, models, seeding
from lrip_lab.decoder import DecoderOptions
from lrip_lab.models import sample_model_points
from lrip_lab.spaces import norm_equivalence_factors

import reference

EUCLID = Pseudometric("euclidean")
KERNEL = Pseudometric("gaussian-kernel", 1.0)


def count_decode_linear(monkeypatch) -> list:
    """The rows decoded by each decode_linear call, through every lrip_lab namespace that holds it."""
    original = decoder.decode_linear
    calls = []

    def counted(op, model, y):
        calls.append(len(np.atleast_2d(y)))
        return original(op, model, y)

    for mod in (lrip_lab, decoder, certifier, harness):
        if getattr(mod, "decode_linear", None) is original:
            monkeypatch.setattr(mod, "decode_linear", counted)
    return calls


class TestEstimateLrip:
    def test_identity_is_exact_isometry(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        est = estimate_lrip(LinearGaussianOperator(np.eye(2)), model, EUCLID,
                            pairs=200, rng_seed=0)
        assert est.alpha_hat == 1.0
        assert est.t_hat == 0.0
        assert est.violation_count == 0

    def test_zero_map_reports_infinite_alpha(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        est = estimate_lrip(LinearGaussianOperator(np.zeros((2, 2))), model,
                            EUCLID, pairs=100, rng_seed=0)
        assert est.alpha_hat == np.inf
        assert est.violation_count > 0
        assert est.violating_pair is not None

    def test_worst_pair_reproduces_alpha(self):
        model = UnionOfSubspaces.random(5, 2, 3, 1.0, 1)
        op = RandomFourierOperator.from_seed(32, 5, 1.0, 2)
        est = estimate_lrip(op, model, KERNEL, pairs=400, rng_seed=3)
        x, x2 = est.worst_pair
        ratio = max(KERNEL.dist(x - x2) - est.eta, 0.0) / op.gap_batch(x - x2)[0]
        assert ratio == pytest.approx(est.alpha_hat, abs=1e-10)

    def test_eta_slack_reduces_alpha(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        est = estimate_lrip(op, model, EUCLID, pairs=100, rng_seed=0, eta=10.0)
        assert est.alpha_hat == 0.0  # every numerator clipped at zero

    def test_anchored_mode_fixes_first_endpoint(self):
        model = UnionOfSubspaces.axes(3, 1.0)
        anchor = np.array([0.5, 0.0, 0.0])
        op = RandomFourierOperator.from_seed(16, 3, 1.0, 4)
        est = estimate_lrip(op, model, KERNEL, pairs=100, rng_seed=5, anchor=anchor)
        assert est.mode == "NonUniformAnchor"
        assert np.array_equal(est.worst_pair[0], anchor)
        assert est.strata["near"] + est.strata["far"] == 100

    def test_uniform_near_fallbacks_are_counted(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        est = estimate_lrip(op, model, EUCLID, pairs=6, rng_seed=0, near_eps=1e-300)
        assert est.mode == "Uniform"
        assert est.strata["near"] == 3
        assert est.strata["near_fallback"] == 3
        est = estimate_lrip(op, model, EUCLID, pairs=6, rng_seed=0)
        assert est.strata["near_fallback"] == 0

    def test_near_pairs_within_eps(self):
        # half the pairs are near pairs, every one filled; their nearness is the near sampler's tests'
        model = UnionOfSubspaces.random(5, 2, 3, 1.0, 1)
        op = RandomFourierOperator.from_seed(32, 5, 1.0, 2)
        est = estimate_lrip(op, model, KERNEL, pairs=400, rng_seed=3)
        assert est.strata == {"near": 200, "far": 200, "extremal": 0, "near_fallback": 0}
        est = estimate_lrip(op, model, KERNEL, pairs=5, rng_seed=3)
        assert est.strata == {"near": 2, "far": 3, "extremal": 0, "near_fallback": 0}  # 2.5 rounds to even

    @pytest.mark.parametrize("anchored", [False, True])
    def test_single_pair_has_no_near_stratum(self, anchored):
        # one pair is one far pair; the uniform linear estimate adds its N(N + 1) / 2 extremal pairs
        model = UnionOfSubspaces.random(5, 2, 3, 1.0, 1)
        op = LinearGaussianOperator.from_seed(4, 5, 2)
        anchor = sample_model_points(model, 1, 7)[0] if anchored else None
        est = estimate_lrip(op, model, EUCLID, pairs=1, rng_seed=3, anchor=anchor)
        extremal = 0 if anchored else 6
        assert list(est.strata.items()) == [("near", 0), ("far", 1), ("extremal", extremal), ("near_fallback", 0)]
        assert est.pairs_tested == 1 + extremal
        assert est.worst_pair is not None

    def test_extremal_stratum_is_exact_on_overlapping_subspaces(self):
        # span(e1, e2) + span(e2, e3) is span(e1, e2, e3), so the supremum of ||x - x'|| / ||A (x - x')||
        # over model pairs is 1 / sigma_min of A's first three columns
        e = np.eye(4)
        model = UnionOfSubspaces((e[:, :2], e[:, 1:3]), 1.0)
        op = LinearGaussianOperator.from_seed(3, 4, 5)
        est = estimate_lrip(op, model, EUCLID, pairs=2000, rng_seed=0)
        assert est.alpha_hat == pytest.approx(1.0 / np.linalg.svd(op.matrix[:, :3], compute_uv=False)[-1], rel=1e-12)
        assert all(model.contains(x, tol=1e-12) for x in est.worst_pair)

    def test_extremal_stratum_needs_at_most_64_subspaces(self):
        # past 64 subspaces no extremal pair is added and alpha_hat is only a sampled maximum: at N = 65 it reads
        # 11.75, while the extremal stratum on the first 64 of those subspaces alone gives the exact 35.24
        model = UnionOfSubspaces.random(6, 1, 65, 1.0, 0)
        op = LinearGaussianOperator.from_seed(4, 6, 1)
        est = estimate_lrip(op, model, EUCLID, pairs=2000, rng_seed=0)
        first_64 = estimate_lrip(op, UnionOfSubspaces(model.bases[:64], 1.0), EUCLID, pairs=2000, rng_seed=0)
        assert est.strata["extremal"] == 0 and first_64.strata["extremal"] > 0
        assert est.alpha_hat == pytest.approx(11.75, abs=0.01)
        assert first_64.alpha_hat == pytest.approx(35.24, abs=0.01)

    def test_desk_scale_anchored_alpha_below_two(self):
        # Fourier operator at the recommended m = 55 on the (d=20, s=2, N=5)
        # model: anchored estimates stay below 2 in at least 90 of 100 draws
        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        anchor = sample_model_points(model, 1, 7)[0]
        good = 0
        for k in range(100):
            op = RandomFourierOperator.from_seed(55, 20, 1.0, 2000 + k)
            est = estimate_lrip(op, model, KERNEL, pairs=10_000, rng_seed=100 + k,
                                anchor=anchor)
            good += est.alpha_hat <= 2.0
        assert good >= 90

    def test_anchored_median_no_larger_than_uniform(self):
        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        anchor = sample_model_points(model, 1, 7)[0]
        anchored, uniform = [], []
        for k in range(50):
            op = RandomFourierOperator.from_seed(55, 20, 1.0, 2000 + k)
            anchored.append(
                estimate_lrip(op, model, KERNEL, pairs=2000, rng_seed=100 + k,
                              anchor=anchor).alpha_hat
            )
            uniform.append(
                estimate_lrip(op, model, KERNEL, pairs=2000, rng_seed=100 + k).alpha_hat
            )
        assert np.median(anchored) <= np.median(uniform)


class TestMaxRatio:
    """certifier._max_ratio, the block reduction at the core of the LRIP, BP and witness estimators."""

    X = np.arange(8.0).reshape(4, 2)

    @staticmethod
    def one_block(numer, denom, X, X2, flagged=None):
        return certifier._max_ratio([(np.arange(len(X)), numer, denom, flagged, X, X2)])

    def test_ties_go_to_the_first_pair(self):
        value, (x, x2), pairs, _, _ = self.one_block(np.array([1.0, 2.0, 4.0, 2.0]), np.array([1.0, 1.0, 2.0, 4.0]),
                                                     self.X, -self.X)
        assert (value, pairs) == (2.0, 4)
        assert np.array_equal(x, self.X[1]) and np.array_equal(x2, -self.X[1])

    def test_zero_over_zero_is_zero(self):
        value, (x, _), _, _, _ = self.one_block(np.zeros(4), np.array([0.0, 1.0, 0.0, 2.0]), self.X, self.X)
        assert value == 0.0
        assert np.array_equal(x, self.X[0])

    def test_positive_over_zero_is_infinite(self):
        value, (x, _), _, _, _ = self.one_block(np.array([0.0, 1.0, 5.0, 1.0]), np.array([0.0, 0.0, 1.0, 0.0]),
                                                self.X, self.X)
        assert value == np.inf
        assert np.array_equal(x, self.X[1])

    def test_no_pairs(self):
        empty = np.empty((0, 2))
        assert self.one_block(np.empty(0), np.empty(0), empty, empty, np.zeros(0, dtype=bool)) == (0.0, None, 0, 0, None)
        assert certifier._max_ratio([]) == (0.0, None, 0, 0, None)

    def test_pairs_are_copies(self):
        X = self.X.copy()
        _, (x, _), _, _, (f, _) = self.one_block(np.ones(4), np.ones(4), X, X, np.array([False, True, True, False]))
        x[:] = -1.0
        f[:] = -1.0
        assert np.array_equal(X, self.X)

    def test_first_pair(self):
        # the flagged pairs are counted, and the first of them is copied out
        *_, count, (x, x2) = self.one_block(np.ones(4), np.ones(4), self.X, -self.X, np.array([False, False, True, True]))
        assert count == 2
        assert np.array_equal(x, self.X[2]) and np.array_equal(x2, -self.X[2])
        assert self.one_block(np.ones(4), np.ones(4), self.X, self.X, np.zeros(4, dtype=bool))[3:] == (0, None)
        assert self.one_block(np.ones(4), np.ones(4), self.X, self.X)[3:] == (0, None)

    @pytest.mark.parametrize("order", [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
    def test_blocks_reduce_as_one_block(self, order):
        # ties at the maximum (positions 2, 5 and 7) and flags (3 and 6) spread over blocks that come in any order
        X = np.arange(16.0).reshape(8, 2)
        numer = np.array([1.0, 0.0, 3.0, 1.0, 0.5, 3.0, 2.0, 3.0])
        denom = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        flagged = np.array([False, False, False, True, False, False, True, False])
        parts = [np.array([0, 1, 3, 4]), np.array([5, 6]), np.array([2, 7])]  # positions ascend within a block
        blocks = [(parts[b], numer[parts[b]], denom[parts[b]], flagged[parts[b]], X[parts[b]], -X[parts[b]])
                  for b in order]
        value, pair, pairs, count, first = certifier._max_ratio(blocks)
        assert (value, pairs, count) == (3.0, 8, 2)
        assert np.array_equal(pair[0], X[2]) and np.array_equal(first[0], X[3])


class TestEstimateBp:
    def test_identity_euclidean_is_one(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        bp = estimate_bp(LinearGaussianOperator(np.eye(2)), model, EUCLID,
                         pairs=300, rng_seed=0)
        assert bp.beta_hat == pytest.approx(1.0, abs=1e-12)

    def test_operator_scaling_doubles_beta(self):
        model = UnionOfSubspaces.random(4, 1, 2, 1.0, 0)
        A = np.random.default_rng(1).normal(size=(4, 4))
        b1 = estimate_bp(LinearGaussianOperator(A), model, EUCLID, 200, 3)
        b2 = estimate_bp(LinearGaussianOperator(2 * A), model, EUCLID, 200, 3)
        assert b2.beta_hat == pytest.approx(2 * b1.beta_hat, rel=1e-12)

    def test_worst_pair_reproduces_beta(self):
        model = UnionOfSubspaces.random(5, 2, 2, 1.0, 2)
        op = RandomFourierOperator.from_seed(24, 5, 1.0, 3)
        bp = estimate_bp(op, model, KERNEL, pairs=500, rng_seed=4)
        x, xs = bp.worst_pair
        ratio = op.gap_batch(x - xs)[0] / KERNEL.dist(x - xs)
        assert ratio == pytest.approx(bp.beta_hat, abs=1e-10)

    def test_desk_scale_beta_below_one_plus_t(self):
        # BP constant beta = 1 + t at t = 0.5 holds in at least 90 of 100 draws
        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        good = 0
        for k in range(100):
            op = RandomFourierOperator.from_seed(55, 20, 1.0, 3000 + k)
            bp = estimate_bp(op, model, KERNEL, pairs=10_000, rng_seed=500 + k)
            good += bp.beta_hat <= 1.5
        assert good >= 90

    def test_no_pair_at_positive_distance(self):
        class ZeroMetric:
            def dist(self, D):
                return np.zeros(len(D))

        model = UnionOfSubspaces.random(5, 2, 3, 1.0, 1)
        for op in (LinearGaussianOperator.from_seed(4, 5, 1), RandomFourierOperator.from_seed(4, 5, 1.0, 1)):
            bp = estimate_bp(op, model, ZeroMetric(), 10, 0)
            assert (bp.beta_hat, bp.pairs_tested, bp.worst_pair) == (0.0, 0, None)


class TestMemoryBoundedInM:
    """Measurement kernels run over row blocks, so a tenfold m leaves the traced peak near where it was."""

    ESTIMATORS = {
        "bp": lambda op, model, D: estimate_bp(op, model, KERNEL, len(D), 1),
        "lrip": lambda op, model, D: estimate_lrip(op, model, KERNEL, len(D), 2),
        "gap_batch": lambda op, model, D: op.gap_batch(D),
    }

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_peak_does_not_grow_with_m(self, name):
        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        D = sample_model_points(model, 40_000, 1) - sample_model_points(model, 40_000, 2)
        peaks = []
        for m in (55, 550):
            op = RandomFourierOperator.from_seed(m, 20, 1.0, 3)
            tracemalloc.start()
            try:
                self.ESTIMATORS[name](op, model, D)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]


class TestMemoryBoundedInPairs:
    """The estimators keep (s + 2) numbers per drawn point and map, measure and reduce the pairs in row blocks.

    At 40,000 pairs (d = 20, s = 2, m = 55) the traced peaks were 25.9 MiB
    (BP), 31.2 MiB (anchored LRIP) and 37.3 MiB (uniform LRIP) when every
    pair was held as two rows of d numbers.
    """

    MODEL = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
    ESTIMATORS = {
        "bp": lambda op, model, n: estimate_bp(op, model, KERNEL, n, 1),
        "lrip-anchored": lambda op, model, n: estimate_lrip(op, model, KERNEL, n, 2, sample_model_points(model, 1, 7)[0]),
        "lrip-uniform": lambda op, model, n: estimate_lrip(op, model, KERNEL, n, 2),
    }

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_peak_at_40k_pairs(self, name):
        op = RandomFourierOperator.from_seed(55, 20, 1.0, 3)
        tracemalloc.start()
        try:
            self.ESTIMATORS[name](op, self.MODEL, 40_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def estimate_fields(est) -> list:
    """Every field of an estimate, in field order, with each array of a pair as its bytes."""
    return [(f.name, [a.tobytes() for a in v] if isinstance(v, tuple) else v)
            for f in dataclasses.fields(est) for v in [getattr(est, f.name)]]


class TestBlockIndependence:
    """estimate_lrip and estimate_bp in row blocks of 7 and of the default size equal one block of all pairs, bitwise.

    The block size is models._NEAR_CHUNK, which the near sampler also works
    through; the one-block references call it once on all near anchors.
    """

    SMALL = UnionOfSubspaces.random(6, 2, 3, 1.0, 3)
    LINEAR = LinearGaussianOperator.from_seed(12, 6, 4)
    FOURIER = RandomFourierOperator.from_seed(12, 6, 1.0, 4)

    @pytest.fixture(params=[7, None], ids=["block-7", "block-default"])
    def block(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(models, "_NEAR_CHUNK", request.param)
        return models._NEAR_CHUNK

    @staticmethod
    def pairs(block):
        # two and a half blocks per stratum, so every stratum has a short last block
        return 5 * block + 2

    @pytest.mark.parametrize("anchored", [False, True], ids=["uniform", "anchored"])
    @pytest.mark.parametrize("kind", ["linear", "fourier"])
    def test_lrip_modes(self, block, anchored, kind):
        op, metric = (self.LINEAR, EUCLID) if kind == "linear" else (self.FOURIER, KERNEL)
        anchor = sample_model_points(self.SMALL, 1, 6)[0] if anchored else None
        args = (op, self.SMALL, metric, self.pairs(block), 8, anchor, 0.05)
        est = estimate_lrip(*args)
        assert estimate_fields(est) == estimate_fields(reference.lrip_one_block(*args))
        assert est.strata["near"] > block and est.strata["far"] > block

    def test_fallbacks_in_more_than_one_block(self, block):
        # at near_eps 1e-16 the mapping's rounding decides: some near rows are found, the others fall back
        args = (self.LINEAR, self.SMALL, EUCLID, self.pairs(block), 8, None, 0.0, 1e-16)
        est = estimate_lrip(*args)
        assert estimate_fields(est) == estimate_fields(reference.lrip_one_block(*args))
        # more fallbacks than a block holds: they come from more than one near block and fill more than one block
        assert block < est.strata["near_fallback"] < est.strata["near"]

    @pytest.mark.parametrize("anchored", [False, True], ids=["uniform", "anchored"])
    def test_each_pair_keeps_its_one_block_position(self, block, anchored, monkeypatch):
        # every pair reaches _max_ratio with its position in stratum order, also the near fallbacks, which come
        # last: uniform at near_eps 1e-16 finds some near rows, anchored at 1e-300 none
        reduce, blocks = certifier._max_ratio, []
        monkeypatch.setattr(certifier, "_max_ratio", lambda parts: reduce(blocks.extend(parts) or blocks))
        anchor = sample_model_points(self.SMALL, 1, 6)[0] if anchored else None
        args = (self.LINEAR, self.SMALL, EUCLID, self.pairs(block), 8, anchor)
        near_eps = 1e-300 if anchored else 1e-16
        est = estimate_lrip(*args, 0.0, near_eps)
        X, X2, _ = reference.lrip_one_block_pairs(*args, near_eps)
        pos = np.concatenate([b[0] for b in blocks])
        assert np.array_equal(np.sort(pos), np.arange(len(X))) and est.strata["near_fallback"] > 0
        assert np.concatenate([b[4] for b in blocks]).tobytes() == X[pos].tobytes()
        assert np.concatenate([b[5] for b in blocks]).tobytes() == X2[pos].tobytes()

    def test_violations(self, block):
        # pairs on the first axis collapse under a map with a zero first column
        collapsing = LinearGaussianOperator.from_seed(3, 4, 5).matrix.copy()
        collapsing[:, 0] = 0.0
        args = (LinearGaussianOperator(collapsing), UnionOfSubspaces.axes(4, 1.0), EUCLID, self.pairs(block), 8)
        est = estimate_lrip(*args)
        assert est.violation_count > 0 and est.alpha_hat == np.inf
        assert estimate_fields(est) == estimate_fields(reference.lrip_one_block(*args))

    @pytest.mark.parametrize("kind", ["linear", "fourier"])
    def test_bp(self, block, kind):
        op, metric = (self.LINEAR, EUCLID) if kind == "linear" else (self.FOURIER, KERNEL)
        args = (op, self.SMALL, metric, 2 * block + 3, 9)
        assert estimate_fields(estimate_bp(*args)) == estimate_fields(reference.bp_one_block(*args))

    def test_all_ties_go_to_pair_0(self, block):
        # the identity under the Euclidean metric gives every pair of positive distance the ratio 1 exactly
        model, op, n = self.SMALL, LinearGaussianOperator(np.eye(6)), self.pairs(block)
        lrip, bp = estimate_lrip(op, model, EUCLID, n, 8), estimate_bp(op, model, EUCLID, n, 9)
        assert estimate_fields(lrip) == estimate_fields(reference.lrip_one_block(op, model, EUCLID, n, 8))
        assert estimate_fields(bp) == estimate_fields(reference.bp_one_block(op, model, EUCLID, n, 9))
        assert (lrip.alpha_hat, bp.beta_hat) == (1.0, 1.0)
        rng = seeding.generator(8, 0)
        X, X2 = sample_model_points(model, n - n // 2, rng), sample_model_points(model, n - n // 2, rng)
        assert np.array_equal(lrip.worst_pair[0], X[0]) and np.array_equal(lrip.worst_pair[1], X2[0])
        rng = seeding.generator(9, 1)
        xs, x = sample_model_points(model, n, rng), sample_model_points(model, n, rng)
        x = x + rng.normal(size=x.shape) * (1.0 / math.sqrt(model.dim))
        assert np.array_equal(bp.worst_pair[0], x[0]) and np.array_equal(bp.worst_pair[1], xs[0])


class TestCheckIop:
    def test_noiseless_on_model_trivial(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        witness = check_iop_inequality(op, model, EUCLID, None, A=0.0, B=0.0, lam=0.0,
                                       trials=25, noise_scale=0.0, model_error_scale=0.0,
                                       rng_seed=0)
        assert witness.all_satisfied

    def test_projection_arithmetic_example(self):
        # identity operator, model = x-axis cap B_1, x* = (0.3, 0.4):
        # decode distance 0.4 against d'(x*, proj) = 0.4 + 2 * 0.4 = 1.2
        from lrip_lab import decode_linear, project_to_model

        model = UnionOfSubspaces((np.array([[1.0], [0.0]]),), 1.0)
        op = LinearGaussianOperator(np.eye(2))
        xstar = np.array([0.3, 0.4])
        xhat = decode_linear(op, model, xstar[None]).xhat[0]
        decode_dist = EUCLID.dist(xstar - xhat)
        proj = project_to_model(model, xstar, EUCLID)
        dprime = EUCLID.dist(xstar - proj) + 2.0 * float(np.linalg.norm(op.apply_batch(xstar)[0] - op.apply_batch(proj)[0]))
        assert decode_dist == pytest.approx(0.4, abs=1e-12)
        assert dprime == pytest.approx(1.2, abs=1e-12)
        assert decode_dist <= 1.0 * dprime

    def test_identity_with_model_error_and_noise(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        witness = check_iop_inequality(op, model, EUCLID, None, A=1.0, B=2.0, lam=0.0,
                                       trials=50, noise_scale=0.1, model_error_scale=0.5,
                                       rng_seed=1)
        assert witness.all_satisfied

    def test_trial_records_recheck(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator.from_seed(2, 2, 5)
        witness = check_iop_inequality(op, model, EUCLID, None, A=1.0, B=3.0, lam=0.0,
                                       trials=20, noise_scale=0.05, model_error_scale=0.2,
                                       rng_seed=2)
        A, B = witness.A, witness.B
        for k in witness.trials:
            bound = A * witness.model_dist[k] + B * witness.noise_norm + witness.lambda_eff[k]
            assert witness.satisfied[k] == (witness.decode_dist[k] <= bound)

    @pytest.mark.parametrize("candidates", [0, 64])
    def test_model_dist_matches_endpoint_loop(self, candidates):
        # d' at the projection in the endpoint form is the reference: with no
        # uniform candidates the infimum equals it, with candidates it is a bound
        from lrip_lab import project_to_model

        model = UnionOfSubspaces.random(3, 1, 3, 1.0, 4)
        op = LinearGaussianOperator.from_seed(3, 3, 5)
        witness = check_iop_inequality(op, model, EUCLID, None, A=1.0, B=2.0, lam=0.0,
                                       trials=20, noise_scale=0.1, model_error_scale=0.3,
                                       rng_seed=6, uniform_candidates=candidates)
        for x, model_dist in zip(witness.x_true, witness.model_dist):
            proj = project_to_model(model, x, EUCLID)
            ref = EUCLID.dist(x - proj) + 2.0 * float(np.linalg.norm(op.apply_batch(x)[0] - op.apply_batch(proj)[0]))
            if candidates:
                assert model_dist <= ref * (1 + 1e-12)
            else:
                assert model_dist == pytest.approx(ref, rel=1e-12)

    def test_one_linear_decode_per_trial(self, monkeypatch):
        calls = count_decode_linear(monkeypatch)
        model = UnionOfSubspaces.random(3, 1, 3, 1.0, 21)
        op = LinearGaussianOperator.from_seed(3, 3, 22)
        witness = check_iop_inequality(op, model, EUCLID, None, A=1.0, B=4.0, lam=0.0,
                                       trials=25, noise_scale=0.1, model_error_scale=0.3,
                                       rng_seed=24)
        assert witness.x_true.shape == (25, 3) and witness.satisfied.shape == (25,)
        assert sum(calls) == 25  # each trial decoded exactly once

    def test_fourier_lambda_eff_adds_the_unclipped_gap(self, monkeypatch):
        gaps = []

        def recorded(*args):
            dec = decoder.decode(*args)
            gaps.extend(dec.gap)
            return dec

        monkeypatch.setattr(certifier, "decode", recorded)
        model = UnionOfSubspaces.random(4, 2, 3, 1.0, 2)
        op = RandomFourierOperator.from_seed(48, 4, 1.0, 5)
        witness = check_iop_inequality(op, model, KERNEL, DecoderOptions(), A=1.0, B=2.0,
                                       lam=0.01, trials=4, noise_scale=0.05, model_error_scale=0.3,
                                       rng_seed=3)
        assert len(gaps) == 4
        for lambda_eff, gap in zip(witness.lambda_eff, gaps, strict=True):
            assert 0.0 <= gap < np.inf
            assert lambda_eff == 0.01 + gap

    def test_negative_constants_rejected(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        with pytest.raises(InputError):
            check_iop_inequality(op, model, EUCLID, None, A=-1.0, B=0.0, lam=0.0,
                                 trials=1, noise_scale=0.0, model_error_scale=0.0,
                                 rng_seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["A", "B", "lam"])
    def test_non_finite_constants_rejected(self, name, value):
        # B = inf would make d' at an on-model x* inf * 0 = NaN, so perfect decodes read unsatisfied
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        constants = {"A": 1.0, "B": 2.0, "lam": 0.0, name: value}
        with pytest.raises(InputError, match="finite"):
            check_iop_inequality(op, model, EUCLID, None, **constants, trials=3, noise_scale=0.0,
                                 model_error_scale=0.0, rng_seed=0)

    @pytest.mark.parametrize("bad", [
        {"trials": 0},
        {"noise_scale": -0.1},
        {"model_error_scale": -0.3},
        {"uniform_candidates": -1},
    ], ids=["zero-trials", "negative-noise", "negative-model-error", "negative-candidates"])
    def test_bad_inputs_rejected(self, bad):
        model = UnionOfSubspaces.axes(2, 1.0)
        op = LinearGaussianOperator(np.eye(2))
        kwargs = {"trials": 3, "noise_scale": 0.1, "model_error_scale": 0.3, "uniform_candidates": 4, **bad}
        with pytest.raises(InputError):
            check_iop_inequality(op, model, EUCLID, None, A=1.0, B=2.0, lam=0.0, rng_seed=0, **kwargs)


def trial_bits(arrays, k=None) -> list:
    """The IOP arrays (x_true, decode_dist, model_dist, lambda_eff, satisfied), or their first k trials, as exact bits.

    arrays is a witness or the tuple of reference.iop_trials; two compare equal only when every array has the same
    dtype, shape and bytes.
    """
    if isinstance(arrays, certifier.IopWitness):
        arrays = (arrays.x_true, arrays.decode_dist, arrays.model_dist, arrays.lambda_eff, arrays.satisfied)
    return [(a.dtype.str, a[:k].shape, a[:k].tobytes()) for a in arrays]


IOP_INSTANCES = {
    "linear": (lambda: UnionOfSubspaces.random(3, 1, 3, 1.0, 21), lambda: LinearGaussianOperator.from_seed(3, 3, 22),
               EUCLID, None),
    "fourier": (lambda: UnionOfSubspaces.random(3, 1, 2, 1.0, 2), lambda: RandomFourierOperator.from_seed(16, 3, 1.0, 5),
                KERNEL, DecoderOptions(target=1e-2)),
}


class TestIopBatchInvariance:
    """A trial's record depends on its own stream only, not on how many trials run or how they are chunked."""

    @staticmethod
    def witness(name, trials, candidates=64):
        model, op, metric, opts = IOP_INSTANCES[name]
        return check_iop_inequality(op(), model(), metric, opts, A=1.0, B=2.0, lam=0.0, trials=trials,
                                    noise_scale=0.1, model_error_scale=0.3, rng_seed=31,
                                    uniform_candidates=candidates)

    @pytest.mark.parametrize("candidates", [0, 64])
    @pytest.mark.parametrize("name", list(IOP_INSTANCES))
    def test_first_trials_match_a_shorter_run(self, name, candidates, monkeypatch):
        full = self.witness(name, 25, candidates)
        for k in (1, 2, 7):
            assert trial_bits(self.witness(name, k, candidates)) == trial_bits(full, k)
        monkeypatch.setattr(certifier, "_IOP_CHUNK", 3)
        assert trial_bits(self.witness(name, 25, candidates)) == trial_bits(full)
        assert trial_bits(self.witness(name, 1, candidates)) == trial_bits(full, 1)

    def test_a_run_across_the_default_chunk_boundary(self, monkeypatch):
        # the shipped IOP runs fit in one chunk, so this is the one run that crosses the default boundary
        trials = certifier._IOP_CHUNK + 5
        calls = count_decode_linear(monkeypatch)
        full = self.witness("linear", trials)
        assert calls == [certifier._IOP_CHUNK, 5]
        for k in (1, 7, certifier._IOP_CHUNK):
            assert trial_bits(self.witness("linear", k)) == trial_bits(full, k)
        monkeypatch.setattr(certifier, "_IOP_CHUNK", 3)
        assert trial_bits(self.witness("linear", trials)) == trial_bits(full)
        model, op, metric, opts = IOP_INSTANCES["linear"]
        args = (op(), model(), metric, opts, 1.0, 2.0, 0.0, trials, 0.1, 0.3, 31, 64)
        assert trial_bits(reference.iop_trials(*args)) == trial_bits(full)


IOP_AT_SUBSPACE_DIM = {  # (model, map, metric, decoder options) at subspace dimension s
    "linear": lambda s: (UnionOfSubspaces.random(s + 2, s, 3, 1.0, 21),
                         LinearGaussianOperator.from_seed(s + 2, s + 2, 22), EUCLID, None),
    "fourier": lambda s: (UnionOfSubspaces.random(s + 1, s, 2, 1.0, 2),
                          RandomFourierOperator.from_seed(16, s + 1, 1.0, 5), KERNEL, DecoderOptions(target=1e-2)),
}


class TestIopMatchesPerTrialDraws:
    """Drawing per trial and mapping per chunk gives bitwise the records of two sampler calls per trial."""

    @pytest.mark.parametrize("candidates", [0, 64])
    @pytest.mark.parametrize("s", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", list(IOP_AT_SUBSPACE_DIM))
    def test_trials_match_the_reference_loop(self, name, s, candidates):
        model, op, metric, opts = IOP_AT_SUBSPACE_DIM[name](s)
        args = (op, model, metric, opts, 1.0, 2.0, 0.0, 6, 0.1, 0.3, 33, candidates)
        assert trial_bits(check_iop_inequality(*args)) == trial_bits(reference.iop_trials(*args))

    @pytest.mark.parametrize("noise_scale, model_error_scale", [(0.0, 0.3), (0.1, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("name", list(IOP_AT_SUBSPACE_DIM))
    def test_zero_scales_match_the_reference_loop(self, name, noise_scale, model_error_scale):
        # zero noise draws nothing, so the candidates after it keep their place in the trial's stream
        model, op, metric, opts = IOP_AT_SUBSPACE_DIM[name](2)
        args = (op, model, metric, opts, 1.0, 2.0, 0.0, 6, noise_scale, model_error_scale, 33, 64)
        assert trial_bits(check_iop_inequality(*args)) == trial_bits(reference.iop_trials(*args))

    @pytest.mark.parametrize("candidates", [0, 4])
    def test_unconverged_trials_match_the_reference_loop(self, candidates):
        # at 5 polish iterations some decodes stop unconverged, with lambda_eff +inf and the trial unsatisfied
        model, op, metric, _ = IOP_AT_SUBSPACE_DIM["fourier"](2)
        args = (op, model, metric, DecoderOptions(max_iters=5, target=1e-2), 1.0, 2.0, 0.0, 12, 0.1, 0.3, 33,
                candidates)
        witness = check_iop_inequality(*args)
        assert 0 < np.isinf(witness.lambda_eff).sum() < 12
        assert trial_bits(witness) == trial_bits(reference.iop_trials(*args))


class TestLripFromIopWitness:
    def test_exact_linear_decoder_no_violations(self):
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 11)
        op = LinearGaussianOperator.from_seed(3, 3, 12)
        alpha = estimate_lrip(op, model, EUCLID, pairs=500, rng_seed=13).alpha_hat
        est = lrip_from_iop_witness(op, model, EUCLID, None, B=2 * alpha, lam=0.0,
                                    pairs=1000, rng_seed=14)
        assert est.violation_count == 0
        assert est.eta == 0.0
        assert est.mode == "FromIopWitness"

    def test_positive_lambda_keeps_no_violations(self):
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 11)
        op = LinearGaussianOperator.from_seed(3, 3, 12)
        alpha = estimate_lrip(op, model, EUCLID, pairs=500, rng_seed=13).alpha_hat
        est = lrip_from_iop_witness(op, model, EUCLID, None, B=2 * alpha, lam=0.05,
                                    pairs=300, rng_seed=15)
        assert est.violation_count == 0
        assert est.eta == pytest.approx(0.1)

    def test_one_linear_decode_per_pair(self, monkeypatch):
        calls = count_decode_linear(monkeypatch)
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 11)
        op = LinearGaussianOperator.from_seed(3, 3, 12)
        est = lrip_from_iop_witness(op, model, EUCLID, None, B=4.0, lam=0.0, pairs=30, rng_seed=14)
        assert sum(calls) == 30  # each pair decoded exactly once
        assert est.strata == {"far": 30, "unconverged": 0}

    def test_unconverged_pairs_are_counted(self):
        # a polish of one Gauss-Newton step never converges, so every pair passes vacuously
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 5)
        op = RandomFourierOperator.from_seed(12, 3, 1.0, 6)
        opts = DecoderOptions(max_iters=1)
        est = lrip_from_iop_witness(op, model, KERNEL, opts, B=2.0, lam=0.0, pairs=20, rng_seed=7)
        assert est.alpha_hat == 0.0 and est.violation_count == 0
        assert est.strata["unconverged"] == 20

    def test_unconverged_pairs_are_not_tested(self):
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 5)
        op = RandomFourierOperator.from_seed(12, 3, 1.0, 6)
        opts = DecoderOptions(max_iters=1)
        est = lrip_from_iop_witness(op, model, KERNEL, opts, B=2.0, lam=0.0, pairs=20, rng_seed=7)
        assert est.pairs_tested == 0 and est.worst_pair is None
        assert est.report_dict()["worst_cases"] is None

    def test_converged_pairs_are_tested(self):
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 11)
        op = LinearGaussianOperator.from_seed(3, 3, 12)
        est = lrip_from_iop_witness(op, model, EUCLID, None, B=4.0, lam=0.0, pairs=30, rng_seed=14)
        assert est.pairs_tested == 30 and est.worst_pair is not None

    def test_degenerate_tiny_model(self):
        model = UnionOfSubspaces((np.array([[1.0], [0.0]]),), 1e-12)
        op = LinearGaussianOperator(np.eye(2))
        est = lrip_from_iop_witness(op, model, EUCLID, None, B=2.0, lam=0.0,
                                    pairs=50, rng_seed=0)
        assert est.violation_count == 0


class TestTheorem1RoundTrip:
    def test_equivalence_on_small_instance(self):
        model = UnionOfSubspaces.random(3, 1, 3, 1.0, 21)
        op = LinearGaussianOperator.from_seed(3, 3, 22)
        est = estimate_lrip(op, model, EUCLID, pairs=1000, rng_seed=23)
        assert np.isfinite(est.alpha_hat)
        witness = check_iop_inequality(op, model, EUCLID, None, A=1.0,
                                       B=2 * est.alpha_hat, lam=0.0, trials=50,
                                       noise_scale=0.1, model_error_scale=0.3,
                                       rng_seed=24)
        assert witness.all_satisfied
        induced = lrip_from_iop_witness(op, model, EUCLID, None, B=2 * est.alpha_hat,
                                        lam=0.0, pairs=300, rng_seed=25)
        assert induced.violation_count == 0


class TestEstimateConcentration:
    @staticmethod
    def linear_law(m, d):
        return OperatorLaw("linear-gaussian", m, d)

    def test_t_zero_is_bulk_probability(self):
        pair = (np.zeros(4), np.array([1.0, 0, 0, 0]))
        est = estimate_concentration(self.linear_law(256, 4), pair, EUCLID,
                                     draws=200, t_grid=[0.0], rng_seed=0)
        assert 0.2 <= est.p_hat[0] <= 0.8

    def test_t_at_least_one_never_fails(self):
        pair = (np.zeros(3), np.array([0.7, 0, 0]))
        est = estimate_concentration(OperatorLaw("random-fourier", 4, 3), pair, KERNEL, draws=300,
                                     t_grid=[1.0, 1.5], rng_seed=1)
        assert est.p_hat == (0.0, 0.0)
        assert est.c_hat[0] == np.inf
        assert est.c_lower[0] == pytest.approx(-np.log(wilson_upper(0, 300)))

    def test_doubling_m_decreases_p(self):
        pair = (np.zeros(3), np.array([1.0, 0, 0]))
        medians = []
        for m in (16, 32):
            reps = [
                estimate_concentration(self.linear_law(m, 3), pair, EUCLID,
                                       draws=200, t_grid=[0.3], rng_seed=100 * m + r
                                       ).p_hat[0]
                for r in range(5)
            ]
            medians.append(np.median(reps))
        assert medians[1] < medians[0]

    def test_monotone_regularization_is_nondecreasing(self):
        # all t share one set of draws, so the exponents need no regularization: in sorted t, c_hat and c_lower
        # never decrease.  The second grid is unsorted, repeats t = 0.3 and sees no deviation at t = 0.95, an
        # infinite exponent
        pair = (np.zeros(3), np.array([1.0, 0, 0]))
        for t_grid in ([0.0, 0.1, 0.2, 0.3, 0.5], [0.3, 0.0, 0.95, 0.1, 0.3, 0.5]):
            est = estimate_concentration(self.linear_law(16, 3), pair, EUCLID, draws=200, t_grid=t_grid, rng_seed=3)
            order = np.argsort(t_grid, kind="stable")
            for values in (est.c_hat, est.c_lower):
                assert [values[i] for i in order] == sorted(values)
            assert all(type(c) is float for c in est.c_hat + est.c_lower)
        assert math.isinf(est.c_hat[2])

    def test_ratio_matches_endpoint_form(self):
        pair = (np.zeros(3), np.array([0.6, -0.2, 0.1]))
        factory = lambda seed: RandomFourierOperator.from_seed(8, 3, 1.0, seed)
        est = estimate_concentration(OperatorLaw("random-fourier", 8, 3), pair, KERNEL, draws=100, t_grid=[0.2],
                                     rng_seed=3)
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(3).spawn(100)]
        d = KERNEL.dist(np.subtract(*pair))
        ratios = np.array([float(np.linalg.norm(factory(s).apply_batch(pair[0])[0] - factory(s).apply_batch(pair[1])[0])) / d
                           for s in seeds])
        assert est.p_hat[0] == np.mean(ratios - 1.0 <= -0.2)

    @pytest.mark.parametrize("law, metric", [(OperatorLaw("linear-gaussian", 16, 3), EUCLID),
                                             (OperatorLaw("random-fourier", 55, 3, 0.7), KERNEL)],
                             ids=["linear", "fourier"])
    def test_batched_ratios_are_each_operators_gap(self, law, metric):
        # 150 draws end in a part chunk; each ratio is bitwise its own operator's lone-secant gap over d
        chunks = []

        class Recording(OperatorLaw):
            def gaps(self, draws, delta):
                chunks.append(super().gaps(draws, delta))
                return chunks[-1]

        pair = (np.array([0.1, -0.3, 0.2]), np.array([0.4, 0.1, -0.2]))
        D, d = np.subtract(*pair), metric.dist(np.subtract(*pair))
        estimate_concentration(Recording(law.kind, law.m, law.d, law.sigma), pair, metric, draws=150,
                               t_grid=[0.2], rng_seed=9)
        size = certifier._CONCENTRATION_CHUNK
        assert [len(c) for c in chunks] == [size] * (150 // size) + [150 % size] and 150 % size
        expected = [law.sample(seeding.child_seed(9, k)).gap_batch(D)[0] / d for k in range(150)]
        assert (np.concatenate(chunks) / d).tobytes() == np.array(expected).tobytes()

    def test_requires_enough_draws_and_distinct_pair(self):
        with pytest.raises(InputError):
            estimate_concentration(self.linear_law(4, 2), (np.zeros(2), np.zeros(2)),
                                   EUCLID, draws=200, t_grid=[0.1])
        with pytest.raises(InputError):
            estimate_concentration(self.linear_law(4, 2),
                                   (np.zeros(2), np.ones(2)), EUCLID, draws=50,
                                   t_grid=[0.1])

    def test_slope_fit_through_origin(self):
        est_a = estimate_concentration(self.linear_law(16, 3),
                                       (np.zeros(3), np.array([1.0, 0, 0])), EUCLID,
                                       draws=400, t_grid=[0.3, 0.4], rng_seed=5)
        fit = fit_concentration_slope([est_a])
        assert fit["slope"] is not None and fit["slope"] > 0
        assert set(fit["per_m"]) == {16}


class TestWilson:
    def test_zero_successes_closed_form(self):
        z = 1.959963984540054
        assert wilson_upper(0, 200) == pytest.approx(z * z / (200 + z * z), abs=1e-12)

    def test_bounds(self):
        assert wilson_upper(200, 200) == 1.0
        assert 0 < wilson_upper(1, 200) < 1


class TestProp1:
    def test_frozen_arithmetic(self):
        bound = CoveringBound(0.5, np.log(1000.0))
        res = prop1_failure_bound(bound, 20.0)
        assert res.rho == pytest.approx(1000.0 * np.exp(-20.0), abs=1e-10)

    def test_vacuous_cases_clip_to_one(self):
        assert prop1_failure_bound(CoveringBound(0.5, np.log(1000.0)), 0.0).rho == 1.0
        assert prop1_failure_bound(CoveringBound(0.5, 0.0), 0.0).rho == 1.0

    def test_presumed_delta(self):
        res = prop1_failure_bound(CoveringBound(0.5, 1.0), 5.0, t=0.4, C=2.0)
        assert res.delta_presumed == pytest.approx(0.1)


def _constants(C1=10.0, C2=10.0, C3=10.0, M_S=1.0, eps0=np.inf):
    return NonlinearLripHypotheses(C1=C1, C2=C2, C3=C3, M_S=M_S, eps0=eps0)


class TestProp2:
    def setup_method(self):
        self.model = UnionOfSubspaces.random(8, 2, 3, 1.0, 31)

    def prop2(self, c_of_half_t, constants, t, **kw):
        return prop2_failure_bound(self.model, KERNEL, c_of_half_t, constants, t, **kw)

    def test_radii_at_caps(self):
        res = self.prop2(10.0, _constants(), 0.5)
        assert res.eps == pytest.approx(0.5 / 80)
        assert res.delta_prime == pytest.approx(0.5 / 40)
        eps = res.eps
        assert res.delta == pytest.approx((0.5 * eps**2 / 40) / (eps + 1.0))
        assert res.model_cover.radius == pytest.approx(res.delta)
        assert res.secant_cover.radius == pytest.approx(res.delta_prime)

    def test_doubling_c2_shrinks_radii_and_grows_cover(self):
        r1 = self.prop2(10.0, _constants(), 0.5)
        r2 = self.prop2(10.0, _constants(C2=20.0), 0.5)
        assert r2.eps == pytest.approx(r1.eps / 2)
        assert r2.delta == pytest.approx(r1.delta / 4, rel=0.01)
        s = self.model.subspace_dim
        grow = r2.model_cover.log_count - r1.model_cover.log_count
        assert grow == pytest.approx(s * np.log(4), rel=0.01)

    def test_monotone_in_t(self):
        rhos = [
            self.prop2(30.0, _constants(), t).rho
            for t in np.linspace(0.05, 0.95, 10)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(rhos, rhos[1:]))

    def test_rho_one_boundary_exact(self):
        res0 = self.prop2(10.0, _constants(), 0.5)
        c_exact = float(np.logaddexp(res0.model_cover.log_count,
                                     res0.secant_cover.log_count))
        res = self.prop2(c_exact, _constants(), 0.5)
        assert res.rho == 1.0

    def test_t_out_of_range(self):
        with pytest.raises(InputError):
            self.prop2(1.0, _constants(), 1.5)

    @pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
    def test_rho_and_covers_equal_closed_forms(self, metric):
        # the model of setup_method: N = 3 subspaces of dimension s = 2, radius M = 1
        N, s, M = 3, 2, 1.0
        ell, L = norm_equivalence_factors(metric, M)
        model_diameter = metric.from_gap(2.0 * M)
        secant_diameter = 2.0 if metric.kind == "euclidean" else np.sqrt(2.0)
        # C3 = 0.1 puts delta' at or above the secant diameter for the larger t
        for t, c, c0, C3 in itertools.product((0.05, 0.5, 0.95), (0.0, 5.0, 40.0), (1.0, 3.0, 7.5),
                                              (10.0, 0.1)):
            res = prop2_failure_bound(self.model, metric, c, _constants(C3=C3), t, c0=c0)
            eps = t / 80.0
            delta = (t * eps * eps / 40.0) / (eps + M)
            delta_prime = t / (4.0 * C3)
            log_model = 0.0
            if delta < model_diameter:
                log_model = max(0.0, np.log(N) + max(0.0, s * np.log(c0 * L * M / delta)))
            log_secant = 0.0
            if delta_prime < secant_diameter:
                per_pair = 2 * s * np.log(c0 * L * M / (ell * delta_prime))
                log_secant = max(0.0, 2.0 * np.log(N) + max(0.0, per_pair))
            rho = min(1.0, math.exp(min(np.logaddexp(log_model, log_secant) - c, 0.0)))
            assert res.model_cover.log_count == log_model
            assert res.secant_cover.log_count == log_secant
            assert res.rho == rho


class TestRecommendM:
    def test_frozen_example(self):
        rec = recommend_m(t=0.5, s=2, N=5, M=1.0, d=20, sigma=1.0, rho_target=0.01, c0=1.0)
        assert rec.m == 55
        assert rec.raw == pytest.approx(4 * (2 * np.log(40) + np.log(5) + np.log(100)),
                                        rel=1e-12)
        assert not rec.log_term_clipped

    def test_rho_dependence_is_logarithmic(self):
        m1 = recommend_m(0.5, 2, 5, 1.0, 20, 1.0, 0.01).m
        m2 = recommend_m(0.5, 2, 5, 1.0, 20, 1.0, 0.001).m
        assert abs((m2 - m1) - 4 * np.log(10)) <= 1.0

    def test_t_halving_quadruples(self):
        for t in (0.2, 0.4, 0.8):
            m = recommend_m(t, 2, 5, 1.0, 20, 1.0, 0.01).m
            m_half = recommend_m(t / 2, 2, 5, 1.0, 20, 1.0, 0.01).m
            assert m_half >= 4 * m - 4

    def test_log_clip_flag(self):
        rec = recommend_m(t=0.9, s=1, N=2, M=0.01, d=10, sigma=1.0, rho_target=0.1)
        assert rec.log_term_clipped
        assert rec.m >= 1

    def test_input_validation(self):
        with pytest.raises(InputError):
            recommend_m(1.5, 1, 1, 1.0, 2, 1.0, 0.5)
        with pytest.raises(InputError):
            recommend_m(0.5, 1, 1, 1.0, 2, 1.0, 1.5)

    @pytest.mark.parametrize("bad", [{"s": -3}, {"s": 21}, {"N": 0}, {"M": -1.0}, {"sigma": 0.0}, {"sigma": -1.0},
                                     {"c0": 0.0}], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_refuses_bad_model_operator_or_constant(self, bad):
        # a negative s gave m = 1, N = 0 and negative M or sigma a math domain error, sigma = 0 a division by zero
        args = dict(t=0.5, s=2, N=5, M=1.0, d=20, sigma=1.0, rho_target=0.01, c0=1.0)
        with pytest.raises(InputError):
            recommend_m(**{**args, **bad})
