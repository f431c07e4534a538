import numpy as np
import pytest

from lrip_lab import InputError, Pseudometric, kernel_norm_equivalence, meas_norm

EUCLID = Pseudometric("euclidean")
KERNEL = Pseudometric("gaussian-kernel", 1.0)


def rkhs_distance(x, x2, sigma):
    # independent oracle: feature-space norm from the kernel Gram entries
    k = lambda a, b: np.exp(-np.linalg.norm(a - b) ** 2 / (2 * sigma**2))
    return np.sqrt(k(x, x) + k(x2, x2) - 2 * k(x, x2))


def test_kernel_identity_is_zero():
    x = np.array([0.3, -0.7, 0.1])
    assert KERNEL.dist(x - x) == 0.0


def test_kernel_closed_form_gap_two():
    x, x2 = np.zeros(2), np.array([2.0, 0.0])
    d = KERNEL.dist(x - x2)
    assert d == pytest.approx(rkhs_distance(x, x2, 1.0), abs=1e-14)
    # squared kernel distance is the quoted 2(1 - e^{-2}) value
    assert d**2 == pytest.approx(1.7293294335267746, abs=1e-12)
    assert d == pytest.approx(1.3150397079657992, abs=1e-12)


def test_kernel_unit_distance_gap():
    gap = np.sqrt(2 * np.log(2))
    assert KERNEL.dist(np.zeros(1) - np.array([gap])) == pytest.approx(1.0, abs=1e-12)


def test_euclidean_pythagorean():
    assert EUCLID.dist(np.array([3.0, 0.0]) - np.array([0.0, 4.0])) == 5.0


def test_kernel_range_and_monotonicity():
    rng = np.random.default_rng(0)
    gaps = np.sort(rng.uniform(0, 50, size=500))
    vals = KERNEL.from_gap(gaps)
    assert np.all(vals >= 0) and np.all(vals < 2.0)
    assert np.all(np.diff(vals) >= 0)
    # sup is sqrt(2); float saturation at very large gaps may reach it exactly
    assert vals[-1] <= np.sqrt(2.0)


def test_non_finite_secant_rejected():
    with pytest.raises(InputError):
        KERNEL.dist(np.array([np.nan]) - np.zeros(1))
    D = np.zeros((3, 2))
    D[1, 0] = np.inf
    with pytest.raises(InputError):
        EUCLID.dist(D)
    with pytest.raises(InputError):
        EUCLID.dist(1.0)


@pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
def test_secant_rows_on_last_axis(metric):
    D = np.random.default_rng(4).normal(size=(4, 5, 3))
    got = metric.dist(D)
    assert got.shape == (4, 5)
    assert np.array_equal(got, [[metric.dist(row) for row in block] for block in D])
    assert isinstance(metric.dist(D[0, 0]), float)
    # a lone secant is bitwise its row, though numpy's vector norm (a BLAS dot) rounds apart from the row-wise norm
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 5, 8, 20, 33):
        D = rng.normal(size=(500, d))
        assert np.array_equal(metric.dist(D), [metric.dist(row) for row in D])


def test_kernel_requires_sigma():
    with pytest.raises(InputError):
        Pseudometric("gaussian-kernel")
    with pytest.raises(InputError):
        Pseudometric("no-such-metric")


@pytest.mark.parametrize("metric", [EUCLID, KERNEL], ids=["euclidean", "kernel"])
def test_pseudometric_axioms_on_random_triples(metric):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3000, 3, 3))
    for a, b, c in X:
        dab, dba = metric.dist(a - b), metric.dist(b - a)
        assert dab == dba
        assert metric.dist(a - a) == 0.0
        assert metric.dist(a - c) <= dab + metric.dist(b - c) + 1e-12


def test_gap_for_inverts_from_gap():
    for v in (0.1, 0.5, 1.0, 1.3):
        assert KERNEL.from_gap(KERNEL.gap_for(v)) == pytest.approx(v, abs=1e-12)
    assert EUCLID.gap_for(0.7) == 0.7


def test_meas_norm_values():
    assert meas_norm(np.zeros(4, dtype=complex)) == 0.0
    assert meas_norm(np.array([3 + 4j])) == 5.0
    assert meas_norm(np.array([1.0, 1j])) == pytest.approx(np.sqrt(2), abs=1e-15)


def test_meas_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = rng.normal(size=5) + 1j * rng.normal(size=5)
        c = complex(rng.normal(), rng.normal())
        assert meas_norm(c * v) == pytest.approx(abs(c) * meas_norm(v), rel=1e-12)
        assert meas_norm(v + w) <= meas_norm(v) + meas_norm(w) + 1e-12


def test_kernel_norm_equivalence_closed_forms():
    ell, L = kernel_norm_equivalence(1.0, 1.0)
    assert ell == pytest.approx(0.7869386805747332, abs=1e-12)
    assert L == 1.0
    assert kernel_norm_equivalence(2.0, 1.0)[1] == 2.0


def test_kernel_norm_equivalence_small_m_limit():
    ell, L = kernel_norm_equivalence(1e-6, 1.0)
    assert abs(ell - L) <= 1e-8
    for M in np.linspace(1e-3, np.sqrt(2), 25):
        ell, L = kernel_norm_equivalence(M, 1.0)
        assert ell <= L


def test_kernel_norm_equivalence_rejects_bad_input():
    with pytest.raises(InputError):
        kernel_norm_equivalence(0.0, 1.0)
    with pytest.raises(InputError):
        kernel_norm_equivalence(1.0, -1.0)


def sandwich_violations(M, sigma, n_pairs, dim, seed):
    """Count violations of l*gap <= dist <= L*gap on random pairs in the ball."""
    metric = Pseudometric("gaussian-kernel", sigma)
    ell, L = kernel_norm_equivalence(M, sigma)
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_pairs, 2, dim))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    pts *= M * rng.uniform(size=(n_pairs, 2, 1)) ** (1.0 / dim)
    gap = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1)
    dv = metric.from_gap(gap)
    lower = dv < ell * gap
    upper = dv > L * gap
    return lower, upper, gap


@pytest.mark.xfail(
    strict=True,
    reason="Known defect in the quoted closed-form (l, L): the lower constant "
    "l = 2(1-e^{-M^2/2s^2})/M exceeds the kernel metric's minimal slope at gaps "
    "near 2M for every (M, sigma), so far pairs violate l*gap <= d; no closed-form "
    "choice of this family satisfies both sides on all of B_M x B_M. "
    "See the structural test below for the exact violation geometry.",
)
def test_metric_sandwich_holds_on_ball_pairs():
    lower, upper, _ = sandwich_violations(1.0, 1.0, 100_000, 3, seed=3)
    assert int(lower.sum()) == 0 and int(upper.sum()) == 0


def test_metric_sandwich_violation_structure():
    # With M = sigma the upper bound L*gap is never violated (1 - e^-u <= u),
    # and lower-bound violations occur exactly at gaps beyond the crossing of
    # d(gap)/gap with l, located near 1.4487 for M = sigma = 1.
    lower, upper, gap = sandwich_violations(1.0, 1.0, 100_000, 3, seed=3)
    assert int(upper.sum()) == 0
    assert int(lower.sum()) > 0
    assert gap[lower].min() > 1.448
    # every gap beyond 1.483 violates (crossing bracketed analytically)
    beyond = gap > 1.483
    assert np.all(lower[beyond])

