"""Brute-force, multi-start and certificate references that decoder tests compare against."""

from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from lrip_lab import decoder, seeding
from lrip_lab.decoder import DecodeResult, certified_minimum
from lrip_lab.errors import InputError
from lrip_lab.models import UnionOfSubspaces, _uniform_ball_coeffs
from lrip_lab.operators import RandomFourierOperator, jacobian
from lrip_lab.spaces import meas_norm


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
            starts_i.append(_uniform_ball_coeffs(rng_i, 1, s, M)[0])
        starts += starts_i[:restarts]
    sub = np.repeat(np.arange(model.num_subspaces), restarts)
    Z, F, iters, converged = decoder._gauss_newton(op, model, np.broadcast_to(y, (len(sub), op.m)), sub,
                                                   np.array(starts), max_iters)
    k = int(np.argmax(F <= F.min() * (1.0 + decoder._F_RTOL)))
    i = int(sub[k])
    xhat = model.bases[i] @ Z[k]
    return SimpleNamespace(xhat=xhat, residual=float(meas_norm(op.apply_batch(xhat)[0] - y)), subspace_index=i,
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
