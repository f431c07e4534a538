"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Two sub-checks assert known-defective closed-form claims and are marked as
strict expected failures with the analysis in their reasons: the (l, L)
metric sandwich, and the strict decrease of p_hat(t=0.3) at 200 draws for m
beyond 64, which sits below the Monte-Carlo resolution floor for every pair
geometry.
"""

import time

import numpy as np
import pytest

from lrip_lab import (
    LinearGaussianOperator,
    OperatorLaw,
    Pseudometric,
    RandomFourierOperator,
    UnionOfSubspaces,
    DecoderOptions,
    check_iop_inequality,
    decode,
    decode_linear,
    estimate_bp,
    estimate_concentration,
    estimate_lrip,
    kernel_norm_equivalence,
    lrip_from_iop_witness,
    prop1_failure_bound,
    prop2_failure_bound,
    recommend_m,
)
from lrip_lab.certifier import fit_concentration_slope
from lrip_lab.harness import ExperimentConfig, run
from lrip_lab.models import CoveringBound, sample_model_points
from lrip_lab.operators import hypothesis_constants, jacobian
from reference import grid_minimum, rows

EUCLID = Pseudometric("euclidean")
KERNEL = Pseudometric("gaussian-kernel", 1.0)


def _report(name, elapsed, detail, passed=True):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s) {detail}")


def _small_linear_instance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    N = int(rng.integers(1, 4))
    model = UnionOfSubspaces.random(d, 1, N, 1.0, seed)
    if seed % 2 == 0:
        op = LinearGaussianOperator(np.eye(d))
    else:
        op = LinearGaussianOperator.from_seed(d, d, seed + 1)
    return model, op


def test_criterion_1_theorem1_equivalence_suite():
    start = time.perf_counter()
    for seed in range(20):
        model, op = _small_linear_instance(seed)
        est = estimate_lrip(op, model, EUCLID, pairs=500, rng_seed=seed)
        assert np.isfinite(est.alpha_hat), f"instance {seed}: infinite alpha"
        witness = check_iop_inequality(
            op, model, EUCLID, None,
            A=1.0, B=2.0 * est.alpha_hat, lam=0.0,
            trials=200, noise_scale=0.1, model_error_scale=0.3,
            rng_seed=1000 + seed,
        )
        assert witness.satisfied_count == 200, f"instance {seed}: {witness.satisfied_count}/200"
        induced = lrip_from_iop_witness(
            op, model, EUCLID, None, B=2.0 * est.alpha_hat, lam=0.0,
            pairs=1000, rng_seed=2000 + seed,
        )
        assert induced.violation_count == 0, f"instance {seed}: witness violations"
        assert induced.eta == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 1 (theorem-1 equivalence, 20 linear instances)", elapsed,
            "finite alpha, 200/200 IOP trials, zero witness violations per instance")


def test_criterion_2_decoder_grid_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for k in range(50):
        d = int(rng.integers(2, 4))
        N = int(rng.integers(1, 4))
        model = UnionOfSubspaces.random(d, 1, N, 1.0, 300 + k)
        if k % 2 == 0:
            op = LinearGaussianOperator(np.eye(d))
        else:
            op = LinearGaussianOperator.from_seed(d, d, 400 + k)
        y = rng.normal(size=d) * rng.uniform(0.2, 1.5)
        (res,) = rows(decode_linear(op, model, y[None]))
        x_grid, r_grid = grid_minimum(op, model, y.astype(complex), resolution=1e-3)
        assert abs(res.residual - r_grid) <= 2e-3, f"instance {k}: residual gap"
        assert np.linalg.norm(res.xhat - x_grid) <= 2e-3, f"instance {k}: argmin gap"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 2 (decoder vs grid oracle, 50 instances)", elapsed,
            "residual and argmin within 2e-3 of the 1e-3 grid")


def test_criterion_3_fourier_unbiasedness():
    start = time.perf_counter()
    d, sigma, m, draws = 10, 1.0, 1000, 200
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, d)) * 0.5
    X2 = X + rng.normal(size=(20, d)) * rng.uniform(0.1, 1.2, size=(20, 1))
    targets = KERNEL.dist(X - X2) ** 2
    acc = np.zeros(20)
    for k in range(draws):
        op = RandomFourierOperator.from_seed(m, d, sigma, 5000 + k)
        acc += np.linalg.norm(op.apply_batch(X) - op.apply_batch(X2), axis=1) ** 2
    means = acc / draws
    rel = np.abs(means - targets) / targets
    assert np.all(rel <= 0.05), f"worst relative deviation {rel.max():.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 3 (Fourier unbiasedness, 20 pairs x 200 draws)", elapsed,
            f"max |mean gap^2 - d^2|/d^2 = {rel.max():.3f} <= 0.05")


def _concentration_pair():
    x = np.zeros(10)
    x2 = np.zeros(10)
    x2[0] = np.sqrt(2 * np.log(2))  # unit kernel distance
    return x, x2


def _fourier_law(m):
    return OperatorLaw("random-fourier", m, 10)


@pytest.mark.xfail(
    strict=True,
    reason="Resolution-floor defect: at t = 0.3 the exponent c(t) of this map "
    "is at least 6.5 for m >= 64 across every pair geometry (measured ceiling "
    "Var(Z) ~ 1.8), so p(64) <= 1.5e-3 and p(256) ~ 1e-11; 200-draw estimates "
    "are zero at both and the 64 -> 256 step cannot be strictly decreasing. "
    "The m-sweep slope band (next test) verifies the same growth law within "
    "Monte-Carlo resolution.",
)
def test_criterion_4a_pointwise_strict_decrease():
    start = time.perf_counter()
    pair = _concentration_pair()
    medians = []
    for m in (16, 64, 256):
        reps = [
            estimate_concentration(_fourier_law(m), pair, KERNEL, draws=200,
                                   t_grid=[0.3], rng_seed=10 * m + r).p_hat[0]
            for r in range(5)
        ]
        medians.append(float(np.median(reps)))
    elapsed = time.perf_counter() - start
    strict = medians[0] > medians[1] > medians[2]
    _report("criterion 4a (p_hat strictly decreasing at t=0.3)", elapsed,
            f"medians {medians}", passed=strict)
    assert strict, f"medians {medians} not strictly decreasing"


def test_criterion_4b_exponent_linear_in_m():
    start = time.perf_counter()
    pair = _concentration_pair()
    # per-m deviation levels matched so the exponent sits in the measurable
    # tail (p in roughly [0.005, 0.2]) at every m
    t_grids = {16: [0.25, 0.3, 0.35], 64: [0.125, 0.15, 0.175],
               256: [0.0625, 0.075, 0.0875]}
    estimates = [
        estimate_concentration(_fourier_law(m), pair, KERNEL, draws=1000,
                               t_grid=t_grids[m], rng_seed=77 + m)
        for m in (16, 64, 256)
    ]
    fit = fit_concentration_slope(estimates)
    slopes = fit["per_m"]
    assert set(slopes) == {16, 64, 256}, f"missing finite points: {slopes}"
    values = np.array([slopes[m] for m in (16, 64, 256)])
    assert np.all(values > 0)
    band = values.max() / values.min()
    assert band <= 2.0, f"per-m slopes {slopes} spread by {band:.2f}x"
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    rounded = {m: round(v, 3) for m, v in slopes.items()}
    _report("criterion 4b (c_hat linear in m within factor-2 band)", elapsed,
            f"per-m slopes of c vs m t^2/(1+t): {rounded}")


def _criterion5_run(m, draws=100):
    model = UnionOfSubspaces.random(20, 2, 5, 1.0, 99)
    anchor = sample_model_points(model, 1, 7)[0]
    alpha_fail = beta_fail = 0
    for k in range(draws):
        op = RandomFourierOperator.from_seed(m, 20, 1.0, 2000 + k)
        est = estimate_lrip(op, model, KERNEL, pairs=10_000, rng_seed=100 + k,
                            anchor=anchor)
        alpha_fail += est.alpha_hat > 3.0
        bp = estimate_bp(op, model, KERNEL, pairs=10_000, rng_seed=500 + k)
        beta_fail += bp.beta_hat > 1.5 * (1.0 + 0.5)
    return alpha_fail, beta_fail


def test_criterion_5_desk_scale_certification():
    start = time.perf_counter()
    rec = recommend_m(t=0.5, s=2, N=5, M=1.0, d=20, sigma=1.0, rho_target=0.01, c0=1.0)
    assert rec.m == 55
    alpha_fail, beta_fail = _criterion5_run(rec.m)
    assert 100 - alpha_fail >= 90, f"alpha_hat <= 3.0 in only {100 - alpha_fail}/100 draws"
    assert 100 - beta_fail >= 90, f"beta_hat <= 2.25 in only {100 - beta_fail}/100 draws"
    # failures must not grow when m doubles
    alpha_fail2, beta_fail2 = _criterion5_run(2 * rec.m)
    assert alpha_fail2 <= alpha_fail
    assert beta_fail2 <= beta_fail
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report("criterion 5 (desk-scale certification at m=55)", elapsed,
            f"alpha ok {100 - alpha_fail}/100, beta ok {100 - beta_fail}/100; "
            f"failures at m=110: {alpha_fail2}, {beta_fail2}")


def test_criterion_6_calculator_arithmetic():
    start = time.perf_counter()
    res = prop1_failure_bound(CoveringBound(0.5, np.log(1000.0)), 20.0)
    target = 1000.0 * np.exp(-20.0)
    assert abs(res.rho - target) <= 1e-10

    assert recommend_m(0.5, 2, 5, 1.0, 20, 1.0, 0.01, c0=1.0).m == 55

    model = UnionOfSubspaces.random(8, 2, 3, 1.0, 31)
    consts = hypothesis_constants(RandomFourierOperator.from_seed(64, 8, 1.0, 5), model)
    rhos = [prop2_failure_bound(model, KERNEL, 40.0, consts, t).rho
            for t in np.linspace(0.05, 0.95, 10)]
    assert all(a >= b - 1e-15 for a, b in zip(rhos, rhos[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 6 (calculator arithmetic)", elapsed,
            f"prop1 rho = {res.rho:.6e}, recommend_m = 55, prop2 monotone in t")


@pytest.mark.xfail(
    strict=True,
    reason="Known defect of the closed-form (l, L) sandwich: the lower "
    "constant l = 2(1-e^{-M^2/2s^2})/M exceeds the kernel metric's slope at "
    "gaps near 2M for every (M, sigma), so pairs in B_M with large gaps "
    "violate l*gap <= d; no (M, sigma) avoids it while pairs span all gaps. "
    "The structural facts (upper bound never violated at M = sigma; lower "
    "violations confined to gaps > 1.448) are asserted in test_spaces.",
)
def test_criterion_7a_metric_sandwich():
    start = time.perf_counter()
    M = sigma = 1.0
    ell, L = kernel_norm_equivalence(M, sigma)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(100_000, 2, 3))
    pts /= np.linalg.norm(pts, axis=2, keepdims=True)
    pts *= M * rng.uniform(size=(100_000, 2, 1)) ** (1.0 / 3)
    gap = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1)
    dv = KERNEL.from_gap(gap)
    lower_viol = int(np.sum(dv < ell * gap))
    upper_viol = int(np.sum(dv > L * gap))
    elapsed = time.perf_counter() - start
    _report("criterion 7a (metric sandwich on 1e5 ball pairs)", elapsed,
            f"lower violations {lower_viol}, upper violations {upper_viol}",
            passed=(lower_viol == 0 and upper_viol == 0))
    assert lower_viol == 0 and upper_viol == 0


def test_criterion_7b_fourier_modulus_invariance():
    start = time.perf_counter()
    op = RandomFourierOperator.from_seed(64, 6, 1.0, 17)
    ref = 1.0 / (np.sqrt(op.m) * op.weights)
    rng = np.random.default_rng(18)
    worst = max(
        float(np.max(np.abs(np.abs(op.apply_batch(rng.normal(size=6) * 2)[0]) - ref)))
        for _ in range(100)
    )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-13
    _report("criterion 7b (Fourier modulus x-invariance)", elapsed,
            f"max deviation {worst:.2e} <= 1e-13")


def test_criterion_7c_jacobian_slope():
    start = time.perf_counter()
    op = RandomFourierOperator.from_seed(32, 5, 1.0, 19)
    rng = np.random.default_rng(20)
    x = rng.normal(size=5) * 0.5
    J = jacobian(op, x)
    hs = np.logspace(-6, -2, 9)
    errs = []
    for h in hs:
        v = rng.normal(size=5)
        v *= h / np.linalg.norm(v)
        errs.append(np.linalg.norm(op.apply_batch(x + v)[0] - op.apply_batch(x)[0] - J @ v) / h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - start
    assert abs(slope - 1.0) <= 0.1
    _report("criterion 7c (jacobian finite-difference slope)", elapsed,
            f"log-log slope {slope:.3f} within 1.0 +/- 0.1")


def test_criterion_7d_decoder_membership():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    worst_defect = worst_norm = 0.0
    for k in range(10):
        model = UnionOfSubspaces.random(3, 1, 2, 1.0, 600 + k)
        lin = LinearGaussianOperator.from_seed(3, 3, 700 + k)
        (res,) = rows(decode_linear(lin, model, (rng.normal(size=3) * 2)[None]))
        worst_defect = max(worst_defect, model.membership_defect(res.xhat))
        worst_norm = max(worst_norm, np.linalg.norm(res.xhat) - model.norm_bound)
    for k in range(5):
        model = UnionOfSubspaces.random(3, 1, 2, 0.8, 800 + k)
        op = RandomFourierOperator.from_seed(24, 3, 1.0, 900 + k)
        (res,) = rows(decode(op, model, op.apply_batch(rng.normal(size=3)), DecoderOptions()))
        worst_defect = max(worst_defect, model.membership_defect(res.xhat))
        worst_norm = max(worst_norm, np.linalg.norm(res.xhat) - model.norm_bound)
    elapsed = time.perf_counter() - start
    assert worst_defect <= 1e-10
    assert worst_norm <= 1e-10
    _report("criterion 7d (decoder output membership)", elapsed,
            f"max membership defect {worst_defect:.2e}, ball excess {max(worst_norm, 0):.2e}")


def test_criterion_7e_seed_reproducibility():
    start = time.perf_counter()
    base = {
        "experiment": "certify",
        "master_seed": 5,
        "model": {"d": 5, "s": 1, "N": 3, "M": 1.0, "seed": 9},
        "operator": {"kind": "random-fourier", "m": 24, "sigma": 1.0},
        "metric": {"kind": "gaussian-kernel", "sigma": 1.0},
        "certifier": {"draws": 4, "pairs": 300, "bp_pairs": 300, "t": 0.5,
                      "estimate_concentration": False},
    }
    rep_one = run(ExperimentConfig.from_dict(dict(base, workers=1)))
    rep_two = run(ExperimentConfig.from_dict(dict(base, workers=1)))
    rep_multi = run(ExperimentConfig.from_dict(dict(base, workers=2)))
    elapsed = time.perf_counter() - start
    assert rep_one.payload_bytes() == rep_two.payload_bytes()
    assert rep_one.results_bytes() == rep_multi.results_bytes()
    _report("criterion 7e (seed reproducibility)", elapsed,
            "byte-identical results across runs and worker counts")
