import numpy as np
import pytest

from lrip_lab import models
from lrip_lab import (
    CoveringBound,
    InputError,
    Pseudometric,
    UnionOfSubspaces,
    covering_bound_model,
    covering_bound_secant,
    greedy_cover,
    project_to_model,
)
from lrip_lab.models import (
    _draw_model_points,
    _map_model_points,
    _subspace_map,
    sample_model_points,
    sample_near_points,
)

import reference

EUCLID = Pseudometric("euclidean")
KERNEL = Pseudometric("gaussian-kernel", 1.0)


def x_axis_model(M=1.0):
    return UnionOfSubspaces((np.array([[1.0], [0.0]]),), M)


def grid_project(model, x, metric, resolution=1e-3):
    # brute-force metric projection over per-subspace coefficient grids (s = 1)
    ticks = np.arange(-model.norm_bound, model.norm_bound + resolution / 2, resolution)
    best, best_d = None, np.inf
    for B in model.bases:
        cands = ticks[:, None] * B[:, 0][None, :]
        dists = metric.dist(cands - np.asarray(x, dtype=float))
        k = int(np.argmin(dists))
        if dists[k] < best_d:
            best, best_d = cands[k], dists[k]
    return best


class TestUnionOfSubspaces:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(InputError):
            UnionOfSubspaces((np.array([[1.0], [1.0]]),), 1.0)

    def test_rejects_bad_norm_bound(self):
        with pytest.raises(InputError):
            UnionOfSubspaces((np.array([[1.0], [0.0]]),), 0.0)

    def test_json_round_trip(self):
        model = UnionOfSubspaces.random(5, 2, 3, 0.7, 0)
        # column-major entries: the first column of each basis, then the second
        columns = [[float(v) for v in np.concatenate([B[:, 0], B[:, 1]])] for B in model.bases]
        clone = UnionOfSubspaces.from_json({"d": 5, "s": 2, "N": 3, "M": 0.7, "bases": columns})
        assert np.array_equal(clone.bases, model.bases)
        assert clone.norm_bound == model.norm_bound

    def test_json_count_mismatch(self):
        obj = {"d": 2, "s": 1, "N": 3, "M": 1.0, "bases": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(InputError):
            UnionOfSubspaces.from_json(obj)

    def test_bases_are_one_read_only_stack(self):
        model = UnionOfSubspaces.random(5, 2, 3, 0.7, 0)
        assert model.bases.shape == (3, 5, 2)
        assert not model.bases.flags.writeable
        with pytest.raises(ValueError):
            model.bases[0, 0, 0] = 1.0

    def test_equality_and_hash_are_by_identity(self):
        model, twin = UnionOfSubspaces.random(3, 1, 2, 1.0, 0), UnionOfSubspaces.random(3, 1, 2, 1.0, 0)
        assert model == model and model != twin
        assert hash(model) == hash(model) and len({model, twin}) == 2


class TestSampleModelPoint:
    def test_axis_model_point_on_axis(self):
        p = sample_model_points(x_axis_model(), 1, 0)[0]
        assert p[1] == 0.0 and abs(p[0]) <= 1.0

    def test_membership_and_ball(self):
        model = UnionOfSubspaces.random(6, 2, 4, 0.8, 1)
        pts = sample_model_points(model, 10_000, 2)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.max() <= 0.8 + 1e-12
        defects = [model.membership_defect(p) for p in pts[:500]]
        assert max(defects) <= 1e-10


class TestSubspaceMap:
    """A model point is bitwise the same whatever points are drawn or mapped with it."""

    @pytest.mark.parametrize("d, s", [(20, 2), (4, 2), (10, 3), (20, 8), (30, 12)])
    def test_points_are_one_row_products(self, d, s):
        model = UnionOfSubspaces.random(d, s, 3, 1.0, d)
        pts = sample_model_points(model, 50, 5)
        rng, draws = np.random.default_rng(5), np.random.default_rng(5)
        for n in (1, 2, 50):  # the draws in order: subspace indices, coefficients, radii
            idx, Z, U = _draw_model_points(model, n, draws)
            assert idx.tobytes() == rng.integers(3, size=n).tobytes()
            assert Z.tobytes() == rng.normal(size=(n, s)).tobytes()
            assert U.tobytes() == rng.uniform(size=(n, 1)).tobytes()
        idx, Z, U = _draw_model_points(model, 50, np.random.default_rng(5))
        for k in range(50):
            one = _map_model_points(model, idx[k:k + 1], Z[k:k + 1].copy(), U[k:k + 1])
            assert pts[k].tobytes() == one[0].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    @pytest.mark.parametrize("d, s", [(20, 2), (4, 2), (10, 3)])
    def test_rows_match_the_full_batch(self, d, s, n):
        model = UnionOfSubspaces.random(d, s, 3, 1.0, d)
        rng = np.random.default_rng(d)
        idx, Z = rng.integers(3, size=100), rng.normal(size=(100, s))
        full = _subspace_map(model.bases, idx, Z)
        for k in range(50):
            assert _subspace_map(model.bases, idx[k:k + n], Z[k:k + n]).tobytes() == full[k:k + n].tobytes()


class TestProjection:
    def test_fixed_point(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        x = np.array([0.0, 0.5])
        assert np.allclose(project_to_model(model, x, EUCLID), x, atol=1e-14)

    def test_two_axes_example(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        x = np.array([0.3, 0.4])
        oracle = grid_project(model, x, EUCLID)
        assert np.allclose(oracle, [0.0, 0.4], atol=2e-3)
        assert np.allclose(project_to_model(model, x, EUCLID), [0.0, 0.4], atol=1e-12)

    def test_ball_clipping(self):
        proj = project_to_model(x_axis_model(), np.array([2.0, 0.0]), EUCLID)
        scan = grid_project(x_axis_model(), np.array([2.0, 0.0]), EUCLID)
        assert np.allclose(proj, [1.0, 0.0], atol=1e-12)
        assert np.allclose(scan, proj, atol=2e-3)

    def test_tie_breaks_to_lowest_index(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        proj = project_to_model(model, np.array([0.5, 0.5]), EUCLID)
        assert np.allclose(proj, [0.5, 0.0], atol=1e-14)

    @pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
    def test_rows_match_single_points(self, metric):
        rng = np.random.default_rng(11)
        # equidistant from both axes, then outside the ball, then random points
        X = np.vstack([[0.5, 0.5], [2.0, 0.0], [3.0, -3.0], rng.normal(size=(20, 2)) * 1.5])
        for model, rows in ((UnionOfSubspaces.axes(2, 1.0), X),
                            (UnionOfSubspaces.random(9, 3, 4, 1.0, 5), rng.normal(size=(25, 9)))):
            P = project_to_model(model, rows, metric)
            assert P.shape == rows.shape
            for x, p in zip(rows, P):
                assert p.tobytes() == project_to_model(model, x, metric).tobytes()
        P = project_to_model(UnionOfSubspaces.axes(2, 1.0), X[:3], metric)
        assert np.array_equal(P[0], [0.5, 0.0])  # the tie goes to the lowest index
        assert np.array_equal(P[1], [1.0, 0.0])  # clipped to the ball
        assert P[2][1] == 0.0 and np.linalg.norm(P[2]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 2, 2)])
    def test_projection_rejects_wrong_shape(self, shape):
        with pytest.raises(InputError):
            project_to_model(UnionOfSubspaces.axes(2, 1.0), np.zeros(shape), EUCLID)

    @pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
    def test_matches_grid_oracle_on_small_instances(self, metric):
        rng = np.random.default_rng(7)
        for trial in range(10):
            d = int(rng.integers(2, 4))
            model = UnionOfSubspaces.random(d, 1, int(rng.integers(1, 4)), 1.0, 100 + trial)
            x = rng.normal(size=d)
            got = project_to_model(model, x, metric)
            oracle = grid_project(model, x, metric)
            assert metric.dist(x - got) <= metric.dist(x - oracle) + 1e-9


class TestSecantSampling:
    def test_anchor_and_eps(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        anchor = np.array([1.0, 0.0])
        points, found = sample_near_points(model, KERNEL, anchor, 0.1, 3)
        assert found[0] and model.contains(points[0], tol=1e-12)
        assert 0 < KERNEL.dist(anchor - points[0]) <= 0.1

    def test_anchor_outside_model_rejected(self):
        # anchored secants are drawn by estimate_lrip, which refuses an anchor off the model
        from lrip_lab import LinearGaussianOperator, estimate_lrip

        with pytest.raises(InputError):
            estimate_lrip(LinearGaussianOperator(np.eye(2)), UnionOfSubspaces.axes(2, 1.0), EUCLID,
                          pairs=10, rng_seed=0, anchor=np.array([0.5, 0.5]))

    def test_single_subspace_line_directions(self):
        model = UnionOfSubspaces((np.array([[1.0]]),), 1.0)
        D = sample_model_points(model, 100, 0) - sample_model_points(model, 100, 1)
        assert set((D / np.abs(D))[:, 0]) == {-1.0, 1.0}


class TestNearSampler:
    @pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
    def test_rows_are_near_model_points(self, metric):
        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        anchors = sample_model_points(model, 3000, 4)
        points, found = sample_near_points(model, metric, anchors, 0.1, 5)
        assert found.all()
        gaps = metric.dist(points - anchors)
        assert np.all(gaps > 0) and np.all(gaps <= 0.1)
        assert all(model.contains(p, tol=1e-8) for p in points)

    def test_repeated_anchor(self):
        model = UnionOfSubspaces.axes(3, 1.0)
        anchor = np.array([0.0, 0.5, 0.0])
        points, found = sample_near_points(model, KERNEL, np.tile(anchor, (200, 1)), 0.05, 6)
        assert found.all()
        assert np.all(KERNEL.dist(points - anchor) <= 0.05)

    def test_unfilled_rows_are_reported(self):
        model = x_axis_model()
        anchors = np.array([[0.5, 0.0], [-0.25, 0.0]])
        points, found = sample_near_points(model, EUCLID, anchors, 1e-300, 0)
        assert not found.any()
        assert np.isnan(points).all()
        # an anchor 0.3 off the model is farther than eps = 0.1 from every model point under both metrics: it is
        # reported without a proposal, so the generator is untouched and the row beside it samples as if alone
        off, on = [0.5, 0.3], [0.2, 0.0]
        for metric in (EUCLID, KERNEL):
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            points, found = sample_near_points(model, metric, [off], 0.1, rng)
            assert not found[0] and np.isnan(points).all() and rng.bit_generator.state == state
            points, found = sample_near_points(model, metric, [off, on], 0.1, 1)
            alone, _ = sample_near_points(model, metric, [on], 0.1, 1)
            assert found.tolist() == [False, True] and np.array_equal(points[1], alone[0])

    def test_same_seed_same_points(self):
        model = UnionOfSubspaces.random(6, 2, 3, 1.0, 1)
        anchors = sample_model_points(model, 50, 2)
        a, _ = sample_near_points(model, KERNEL, anchors, 0.1, 3)
        b, _ = sample_near_points(model, KERNEL, anchors, 0.1, 3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk", [16, None], ids=["chunk-16", "chunk-default"])
    @pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
    def test_calls_split_at_a_chunk_multiple_match_one_call(self, metric, chunk, monkeypatch):
        # the estimators call the sampler on row blocks of _NEAR_CHUNK anchors with one generator; anchors lifted
        # off the model by 0 to 0.2, a third of them, make some rows give up and others take many passes
        if chunk:
            monkeypatch.setattr(models, "_NEAR_CHUNK", chunk)
        chunk = models._NEAR_CHUNK
        model = UnionOfSubspaces.random(6, 2, 3, 1.0, 1)
        n = 3 * chunk + 5
        anchors = sample_model_points(model, n, 2)
        lift = np.random.default_rng(3).normal(size=(n, 6))
        anchors[::3] += (lift * (np.linspace(0.0, 0.2, n) / np.linalg.norm(lift, axis=1))[:, None])[::3]
        whole = np.random.default_rng(4)
        points, found = sample_near_points(model, metric, anchors, 0.1, whole)
        assert 0 < np.count_nonzero(~found) < n // 3
        for splits in ([chunk], [2 * chunk], [chunk, 3 * chunk]):
            split = np.random.default_rng(4)
            parts = [sample_near_points(model, metric, part, 0.1, split) for part in np.split(anchors, splits)]
            assert np.concatenate([p for p, _ in parts]).tobytes() == points.tobytes()
            assert np.concatenate([f for _, f in parts]).tobytes() == found.tobytes()
            assert split.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
    def test_law_matches_the_d_space_sampler(self, metric):
        # coefficient-space proposals are the d-space proposals' law: B_i'(a + r g / sqrt(d)) = B_i'a + (r / sqrt(d)) h;
        # 20,000 anchors on the model and, in the last chunk, 100 lifted off it by 0 to 0.2, so about half of
        # those cannot be filled; at this size the gap quantiles of two seeds differ by about 3e-4
        model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
        lift = np.random.default_rng(0).normal(size=(100, 20))
        lift *= np.linspace(0.0, 0.2, 100)[:, None] / np.linalg.norm(lift, axis=1, keepdims=True)
        anchors = np.vstack([sample_model_points(model, 20000, 4), sample_model_points(model, 100, 5) + lift])
        got, found = sample_near_points(model, metric, anchors, 0.1, 6)
        ref, ref_found = reference.near_points_in_d_space(model, metric, anchors, 0.1, 6)

        def subspace_shares(points):
            residuals = [np.linalg.norm(points - points @ B @ B.T, axis=1) for B in model.bases]
            return np.bincount(np.argmin(residuals, axis=0), minlength=model.num_subspaces) / len(points)

        assert abs(found.mean() - ref_found.mean()) <= 1e-3
        assert 0.4 < (~found[-100:]).mean() < 0.6
        quantiles = lambda points, ok: np.quantile(metric.dist(points[ok] - anchors[ok]), [0.1, 0.5, 0.9])
        assert np.allclose(quantiles(got, found), quantiles(ref, ref_found), rtol=0, atol=1e-3)
        assert np.allclose(subspace_shares(got[found]), subspace_shares(ref[ref_found]), rtol=0, atol=5e-3)

        # every point is B_i c with ||c|| <= M, at a d-space distance in (0, eps]
        coeffs = np.einsum("kd,nds->nks", got[found], model.bases)
        residuals = np.linalg.norm(got[found] - np.einsum("nks,nds->nkd", coeffs, model.bases), axis=2)
        i = np.argmin(residuals, axis=0)
        assert residuals[i, np.arange(len(i))].max() <= 1e-14
        assert np.linalg.norm(coeffs[i, np.arange(len(i))], axis=1).max() <= model.norm_bound * (1 + 1e-15)
        gaps = metric.dist(got[found] - anchors[found])
        assert np.all((gaps > 0) & (gaps <= 0.1))


class TestGreedyCover:
    def test_single_point(self):
        assert greedy_cover(np.zeros((1, 2)), EUCLID, 0.5).count == pytest.approx(1.0)

    def test_two_separated_points(self):
        bound = greedy_cover(np.array([[-1.0], [1.0]]), EUCLID, 0.5)
        assert round(bound.count) == 2

    def test_uniform_interval(self):
        pts = np.linspace(-1, 1, 100)[:, None]
        bound = greedy_cover(pts, EUCLID, 0.25)
        assert 4 <= round(bound.count) <= 8

    def test_coverage_is_certified(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 2))
        bound = greedy_cover(pts, KERNEL, 0.4)
        centers = pts[list(bound.centers)]
        for p in pts:
            assert min(KERNEL.dist(p - c) for c in centers) <= 0.4


class TestCoveringBounds:
    def test_model_bound_interval_example(self):
        model = UnionOfSubspaces((np.eye(1),), 1.0)
        bound = covering_bound_model(model, EUCLID, 0.5, c0=3.0)
        assert bound.count == pytest.approx(6.0, rel=1e-12)
        pts = np.linspace(-1, 1, 201)[:, None]
        # optimal covering of the interval needs 2 balls: centers -0.5, 0.5
        assert np.all(np.min(np.abs(pts - np.array([[-0.5, 0.5]])), axis=1) <= 0.5)
        oracle = greedy_cover(pts, EUCLID, 0.5)
        # greedy is a 2-approximation witness: between 2 and 4 centers
        assert 2 <= round(oracle.count) <= 4
        assert bound.log_count >= oracle.log_count

    def test_radius_at_diameter_gives_one(self):
        model = UnionOfSubspaces((np.eye(1),), 1.0)
        assert covering_bound_model(model, EUCLID, 2.0).count == 1.0

    def test_union_bound_additivity(self):
        m1 = UnionOfSubspaces.random(6, 2, 1, 1.0, 0)
        m5 = UnionOfSubspaces.random(6, 2, 5, 1.0, 0)
        b1 = covering_bound_model(m1, EUCLID, 0.3)
        b5 = covering_bound_model(m5, EUCLID, 0.3)
        assert b5.log_count - b1.log_count == pytest.approx(np.log(5), abs=1e-12)

    def test_secant_bound_no_n_term_for_single_subspace(self):
        model = UnionOfSubspaces((np.eye(3)[:, :1],), 1.0)
        bound = covering_bound_secant(model, EUCLID, 0.5, c0=3.0)
        s = model.subspace_dim
        assert bound.log_count == pytest.approx(2 * s * np.log(3 * 1 * 1 / 0.5), abs=1e-12)

    def test_secant_bound_slope_doubles_with_s(self):
        slopes = []
        for s in (1, 2):
            model = UnionOfSubspaces.random(6, s, 2, 1.0, 0)
            b1 = covering_bound_secant(model, EUCLID, 0.2)
            b2 = covering_bound_secant(model, EUCLID, 0.1)
            slopes.append((b2.log_count - b1.log_count) / np.log(2))
        assert slopes[0] == pytest.approx(2.0, abs=1e-9)
        assert slopes[1] == pytest.approx(4.0, abs=1e-9)

    def test_secant_dominance_two_axes(self):
        model = UnionOfSubspaces.axes(2, 1.0)
        D = sample_model_points(model, 10_000, 0) - sample_model_points(model, 10_000, 1)
        gaps = np.linalg.norm(D, axis=1)
        dirs = D[gaps > 0] / gaps[gaps > 0, None]  # normalized secants
        oracle = greedy_cover(dirs, EUCLID, 0.5)
        bound = covering_bound_secant(model, EUCLID, 0.5)
        assert bound.log_count >= oracle.log_count

    def test_model_dominance_on_samples(self):
        model = UnionOfSubspaces.random(4, 1, 3, 1.0, 9)
        pts = sample_model_points(model, 5000, 10)
        for metric in (EUCLID, KERNEL):
            for delta in (0.2, 0.5):
                oracle = greedy_cover(pts, metric, delta)
                bound = covering_bound_model(model, metric, delta)
                assert bound.log_count >= oracle.log_count

    def test_count_bound_floor(self):
        with pytest.raises(InputError):
            CoveringBound(0.5, -0.1)


def test_secant_bound_clips_at_diameter():
    model = UnionOfSubspaces.random(4, 1, 3, 1.0, 2)
    assert covering_bound_secant(model, EUCLID, 2.5).count == 1.0
    assert covering_bound_secant(model, KERNEL, 1.5).count == 1.0
