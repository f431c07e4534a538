"""Brute-force, multi-start, certificate, bisection, per-trial IOP and near-sampler references that the tests use."""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from lrip_lab import decoder, models, seeding
from lrip_lab.decoder import DecodeResult, DecoderOptions, certified_minimum
from lrip_lab.errors import InputError
from lrip_lab.models import UnionOfSubspaces, project_to_model, sample_model_points
from lrip_lab.operators import LinearGaussianOperator, RandomFourierOperator, jacobian


def rows(result: DecodeResult) -> list:
    """The rows of a DecodeResult, each a namespace of its fields' entries for that row."""
    return [SimpleNamespace(**{f.name: getattr(result, f.name)[k] for f in fields(result)})
            for k in range(len(result.xhat))]


def grid_minimum(op, model: UnionOfSubspaces, y, resolution: float = 1e-3):
    """Brute-force residual minimum over coefficient grids.

    Returns (x_best, residual_best).  The grid covers [-M, M]^s per subspace
    at the given resolution, keeping only points inside the ball, so its size
    grows as (2M / resolution)^s.  A minimum over finitely many points is an
    upper bound on the true minimum, not a certificate: it serves as a
    reference for decoder quality in tests.
    """
    s = model.subspace_dim
    y = np.asarray(y, dtype=complex)
    M = model.norm_bound
    ticks = np.arange(-M, M + resolution / 2, resolution)
    Z = np.stack(np.meshgrid(*[ticks] * s, indexing="ij"), axis=-1).reshape(-1, s)
    Z = Z[np.linalg.norm(Z, axis=1) <= M]
    best_x, best_res = None, np.inf
    for B in model.bases:
        X = Z @ B.T
        res = np.linalg.norm(op.apply_batch(X) - y[None, :], axis=1)
        k = int(np.argmin(res))
        if res[k] < best_res:
            best_x, best_res = X[k], float(res[k])
    return best_x, best_res


def multi_start_decode(op, model: UnionOfSubspaces, y, restarts: int = 8, max_iters: int = 500,
                       rng_seed: int = 0) -> SimpleNamespace:
    """The multi-start Fourier decoder that the certificate-first decode replaced, on one measurement y.

    Starts per subspace: the linearized estimate at 0, the zero point and
    random model points from the stream (rng_seed, i), restarts in all.  All
    starts run the library's projected Gauss-Newton in lockstep, and the best
    local minimum wins; objectives within a factor 1 + 64 eps of the best
    count as tied, and a tie goes to the lowest (subspace, restart) pair.
    optimizer_iters sums the iterations of all starts.  Its random restarts
    can stop in a local minimum and report convergence, which is what the
    decode gates compare against.  Returns the fields of one DecodeResult
    row but its gap.
    """
    y = np.asarray(y, dtype=complex)
    M, s = model.norm_bound, model.subspace_dim
    psi0 = op.apply_batch(np.zeros(op.dim))[0]
    J0 = jacobian(op, np.zeros(op.dim))
    starts = []  # in (subspace, restart) order
    for i, B in enumerate(model.bases):
        Jb, rhs = J0 @ B, y - psi0
        z_lin, *_ = np.linalg.lstsq(np.vstack([Jb.real, Jb.imag]), np.concatenate([rhs.real, rhs.imag]), rcond=None)
        starts_i = [z_lin, np.zeros(s)]
        # the k-th start of a subspace does not depend on the restart count, so restarts are nested
        rng_i = seeding.generator(rng_seed, i)
        while len(starts_i) < restarts:
            # a coefficient row uniform in the radius-M ball, in the model sampler's array forms
            z = rng_i.normal(size=(1, s))
            norms = np.linalg.norm(z, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            starts_i.append((z / norms * (M * rng_i.uniform(size=(1, 1)) ** (1.0 / s)))[0])
        starts += starts_i[:restarts]
    sub = np.repeat(np.arange(model.num_subspaces), restarts)
    Z, F, iters, converged = decoder._gauss_newton(op, model, np.broadcast_to(y, (len(sub), op.m)), sub,
                                                   np.array(starts), max_iters)
    k = int(np.argmax(F <= F.min() * (1.0 + decoder._F_RTOL)))
    i = int(sub[k])
    xhat = model.bases[i] @ Z[k]
    return SimpleNamespace(xhat=xhat, residual=float(np.linalg.norm(op.apply_batch(xhat)[0] - y)), subspace_index=i,
                           optimizer_iters=int(iters.sum()), converged=bool(converged[k]))


def residual_certificate(result, op, model: UnionOfSubspaces, y, target: float = 1e-6) -> float:
    """Gap between a Fourier decode's residual and a certified lower bound on the minimum.

    The linear decoder is exact, and decode gives its gap 0; a linear
    operator is refused here.  The lower bound comes from certified_minimum
    with the given target gap, so the gap is >= 0 and, unless the cell budget
    runs out, exceeds the decoder's own excess residual by about that target
    at most.  A non-converged result reports an unknown gap as +inf.  It is
    the independent check of decode's own gap, which certifies any decoded
    row: result is one row of a DecodeResult (see rows) and y its one
    measurement.
    """
    if not isinstance(op, RandomFourierOperator):
        raise InputError("residual_certificate is for the Fourier decoder; the linear decoder is exact")
    if not result.converged:
        return np.inf
    (lower,), _, _ = certified_minimum(op, model, np.asarray(y)[None], target, result.residual)
    return float(result.residual - lower)


def secular_bisection(S, beta, Vt, radius: float, tol: float) -> np.ndarray:
    """decoder._secular_bisection as it was before it kept its active rows compacted, each step gathering them.

    Row k has singular values S[k], coefficients beta[k] = U'y and right
    singular vectors Vt[k]; its path is z(mu) = V diag(S / (S^2 + mu)) beta,
    and mu is bisected until ||z(mu)|| is within tol of radius, at most 200
    steps.  Rows advance together, and a row leaves once it is done.
    """
    num, S2 = S * beta, S**2

    def norm_at(mu, rows):
        return np.linalg.norm(num[rows] / (S2[rows] + mu[:, None]), axis=1)

    lo, hi = np.zeros(len(S)), np.maximum(S2[:, 0], 1.0)
    grow = np.flatnonzero(norm_at(hi, slice(None)) > radius)
    while len(grow):
        hi[grow] *= 2.0
        grow = grow[hi[grow] <= 1e300]
        grow = grow[norm_at(hi[grow], grow) > radius]
    mu, active = np.empty(len(S)), np.arange(len(S))
    for _ in range(200):
        if not len(active):
            break
        mid = 0.5 * (lo[active] + hi[active])
        norms = norm_at(mid, active)
        done = np.abs(norms - radius) <= tol
        mu[active[done]] = mid[done]
        active, mid, above = active[~done], mid[~done], norms[~done] > radius
        lo[active[above]] = mid[above]
        hi[active[~above]] = mid[~above]
    mu[active] = 0.5 * (lo[active] + hi[active])
    return models._ball_project(models._row_products(num / (S2 + mu[:, None]), Vt), radius)


def noise(op, norm: float, rng) -> np.ndarray:
    """Gaussian measurement noise of exact norm ``norm``, complex and with zero imaginary part on the linear map.

    The real parts are drawn first, then, on the Fourier map, the imaginary
    parts; at norm 0 nothing is drawn and the noise is 0.
    """
    if norm == 0:
        return np.zeros(op.m, dtype=complex)
    if isinstance(op, LinearGaussianOperator):
        e = rng.normal(size=op.m).astype(complex)
    else:
        e = rng.normal(size=op.m) + 1j * rng.normal(size=op.m)
    return e * (norm / np.linalg.norm(e))


def iop_trial(op, model: UnionOfSubspaces, rng, noise_scale: float, model_error_scale: float, candidates: int = 0):
    """One IOP trial drawn from rng alone: (x*, y = Psi(x*) + e, candidates).

    It draws its model point with one sample_model_points call, the
    perturbation, the noise and then its candidates with a second
    sample_model_points call (none when candidates is 0).
    """
    d = model.dim
    x0 = sample_model_points(model, 1, rng)[0]
    xstar = x0 + rng.normal(size=d) * (model_error_scale / math.sqrt(d))
    y = op.apply_batch(xstar)[0] + noise(op, noise_scale, rng)
    return xstar, y, sample_model_points(model, candidates, rng) if candidates else np.empty((0, d))


def iop_trials(op, model: UnionOfSubspaces, metric, decoder_opts, A: float, B: float, lam: float, trials: int,
               noise_scale: float, model_error_scale: float, rng_seed: int, uniform_candidates: int) -> tuple:
    """The arrays x_true, decode_dist, model_dist, lambda_eff and satisfied of check_iop_inequality, drawn per trial.

    Trial k is iop_trial from its own stream (rng_seed, 2, k).  All trials
    are decoded and checked together, as one chunk, and each trial's
    lambda_eff and inequality are evaluated on its own, in scalars.
    """
    d, c = model.dim, uniform_candidates
    xstar, y = np.empty((trials, d)), np.empty((trials, op.m), dtype=complex)
    cands = np.empty((trials, 1 + c, d))
    for k in range(trials):
        rng = seeding.generator(rng_seed, 2, k)
        xstar[k], y[k], cands[k, 1:] = iop_trial(op, model, rng, noise_scale, model_error_scale, c)
    dec = decoder.decode(op, model, y, decoder_opts or DecoderOptions())
    decode_dist = metric.dist(xstar - dec.xhat)
    cands[:, 0] = project_to_model(model, xstar, metric)
    D = (xstar[:, None, :] - cands).reshape(-1, d)
    dprime = np.min((metric.dist(D) + B * op.gap_batch(D)).reshape(-1, 1 + c), axis=1)
    lam_eff = np.array([lam + float(gap) if ok else np.inf for ok, gap in zip(dec.converged, dec.gap)])
    satisfied = np.array([bool(ok and decode_dist[k] <= A * dprime[k] + B * noise_scale + lam_eff[k])
                          for k, ok in enumerate(dec.converged)])
    return xstar, decode_dist, dprime, lam_eff, satisfied


def near_points_in_d_space(model: UnionOfSubspaces, metric, anchors, eps: float, rng_seed):
    """sample_near_points as a rejection loop in R^d, the law the coefficient-space sampler must keep.

    Each proposal draws its subspace index and d normals, perturbs the
    anchor in R^d, projects onto the subspace, clips to the ball in R^d and
    takes the metric distance of the d-space secant.  The radius schedule,
    the blocks and the give-up are sample_near_points'.  Returns (points,
    found).
    """
    rng = np.random.default_rng(rng_seed)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n, d = anchors.shape
    points = np.full((n, d), np.nan)
    found = np.zeros(n, dtype=bool)
    block = models._NEAR_BLOCK
    radius0 = metric.gap_for(eps if metric.kind == "euclidean" else min(eps, 0.999 * np.sqrt(2)))
    for start in range(0, n, models._NEAR_CHUNK):
        rows = np.arange(start, min(start + models._NEAR_CHUNK, n))
        radius, used = radius0, 0
        while rows.size and used < 200 * models._NEAR_PER_RADIUS:
            base = np.repeat(anchors[rows], block, axis=0)
            idx = rng.integers(model.num_subspaces, size=base.shape[0])
            pre = base + rng.normal(size=base.shape) * (radius / np.sqrt(d))
            coeffs = models._row_products(pre, model.bases[idx])
            cands = models._ball_project(models._subspace_map(model.bases, idx, coeffs), model.norm_bound)
            gaps = metric.dist(cands - base).reshape(rows.size, block)
            ok = (gaps > 0) & (gaps <= eps)
            hit = ok.any(axis=1)
            points[rows[hit]] = cands.reshape(rows.size, block, d)[hit, ok[hit].argmax(axis=1)]
            found[rows[hit]] = True
            rows = rows[~hit]
            used += block
            if used % models._NEAR_PER_RADIUS == 0:
                radius *= 0.7
    return points, found
