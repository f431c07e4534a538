"""Brute-force, multi-start, certificate and per-trial IOP references that the decoder and certifier tests use."""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from lrip_lab import decoder, seeding
from lrip_lab.certifier import IopTrial
from lrip_lab.decoder import DecodeResult, DecoderOptions, certified_minimum, noise_vector
from lrip_lab.errors import InputError
from lrip_lab.models import UnionOfSubspaces, project_to_model, sample_model_points
from lrip_lab.operators import RandomFourierOperator, jacobian


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


def iop_trials(op, model: UnionOfSubspaces, metric, decoder_opts, A: float, B: float, lam: float, trials: int,
               noise_scale: float, model_error_scale: float, rng_seed: int, uniform_candidates: int) -> list:
    """The IopTrial records of check_iop_inequality, from its per-trial draw loop.

    Trial k draws from its own stream (rng_seed, 2, k): its model point with
    one sample_model_points call, the perturbation, the noise and then its
    candidates with a second sample_model_points call.  All trials are
    decoded and checked together, as one chunk.
    """
    d, c = model.dim, uniform_candidates
    xstar, noise = np.empty((trials, d)), np.empty((trials, op.m), dtype=complex)
    cands = np.empty((trials, 1 + c, d))
    for k in range(trials):
        rng = seeding.generator(rng_seed, 2, k)
        x0 = sample_model_points(model, 1, rng)[0]
        xstar[k] = x0 + rng.normal(size=d) * (model_error_scale / math.sqrt(d))
        noise[k] = noise_vector(op, noise_scale, rng)
        if c:
            cands[k, 1:] = sample_model_points(model, c, rng)
    dec = decoder.decode(op, model, op.apply_batch(xstar) + noise, decoder_opts or DecoderOptions())
    decode_dist = metric.dist(xstar - dec.xhat)
    cands[:, 0] = project_to_model(model, xstar, metric)
    D = (xstar[:, None, :] - cands).reshape(-1, d)
    dprime = np.min((metric.dist(D) + B * op.gap_batch(D)).reshape(-1, 1 + c), axis=1)
    out = []
    for k, ok in enumerate(dec.converged):
        lam_eff = lam + float(dec.gap[k]) if ok else np.inf
        satisfied = ok and decode_dist[k] <= A * dprime[k] + B * noise_scale + lam_eff
        out.append(IopTrial(xstar[k], noise_scale, float(decode_dist[k]), float(dprime[k]), lam_eff,
                            bool(satisfied), reason="" if ok else "decoder did not converge"))
    return out
