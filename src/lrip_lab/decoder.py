"""Ideal model-constrained decoder: argmin over the model of the measurement residual.

For linear operators and a union-of-subspaces model the decoder is exact:
each subspace yields a (norm-constrained) least-squares problem.  For the
random Fourier map the problem is nonconvex and is attacked with multi-start
projected Gauss-Newton; the achieved residual is reported so that optimizer
error can be folded into the instance-optimality slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .errors import InputError
from .models import UnionOfSubspaces, _uniform_ball_coeffs, project_to_model
from .operators import LinearGaussianOperator, RandomFourierOperator, jacobian
from .spaces import Pseudometric, meas_norm


@dataclass(frozen=True)
class GridOracleOptions:
    enabled: bool = True
    resolution: float = 1e-3


@dataclass(frozen=True)
class DecoderOptions:
    restarts: int = 8
    max_iters: int = 500
    gtol: float = 1e-10
    grid_oracle: GridOracleOptions = field(default_factory=GridOracleOptions)

    def __post_init__(self):
        if self.restarts < 1:
            raise InputError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class DecodeResult:
    """Recovered signal plus diagnostics.

    residual is ||Psi(xhat) - y|| recomputed at construction; subspace_index
    is the winning subspace (ties to the lowest index).
    """

    xhat: np.ndarray
    residual: float
    subspace_index: int
    optimizer_iters: int
    restarts_used: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "xhat": [float(v) for v in self.xhat],
            "residual": self.residual,
            "subspace_index": self.subspace_index,
            "optimizer_iters": self.optimizer_iters,
            "restarts_used": self.restarts_used,
            "converged": self.converged,
        }


def _as_real_measurement(y, m: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (m,):
        raise InputError(f"y has shape {y.shape}, expected ({m},)")
    if np.iscomplexobj(y):
        if np.max(np.abs(y.imag)) > 1e-12:
            raise InputError("linear decoding expects a real measurement vector")
        y = y.real
    return np.asarray(y, dtype=float)


def _constrained_ls(G: np.ndarray, y: np.ndarray, radius: float, tol: float = 1e-10) -> np.ndarray:
    """min ||G z - y|| subject to ||z|| <= radius.

    Unconstrained minimum-norm solution when it is feasible; otherwise the
    norm-equality solution on the Tikhonov path z(mu) = (G'G + mu I)^{-1} G'y,
    located by bisection on the secular equation ||z(mu)|| = radius.
    """
    U, svals, Vt = np.linalg.svd(G, full_matrices=False)
    beta = U.T @ y
    rank = svals > svals[0] * 1e-14 if svals.size and svals[0] > 0 else np.zeros_like(svals, bool)

    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.where(rank, beta / svals, 0.0)
    z = Vt.T @ coeffs
    if np.linalg.norm(z) <= radius:
        return z

    def norm_at(mu: float) -> float:
        c = svals * beta / (svals**2 + mu)
        return float(np.linalg.norm(c))

    lo, hi = 0.0, max(svals[0] ** 2, 1.0)
    while norm_at(hi) > radius:
        hi *= 2.0
        if hi > 1e300:
            break
    mu = hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        n = norm_at(mid)
        if abs(n - radius) <= tol:
            mu = mid
            break
        if n > radius:
            lo = mid
        else:
            hi = mid
    else:
        mu = 0.5 * (lo + hi)
    z = Vt.T @ (svals * beta / (svals**2 + mu))
    nrm = np.linalg.norm(z)
    if nrm > radius:
        z *= radius / nrm
    return z


def decode_linear(op: LinearGaussianOperator, model: UnionOfSubspaces, y) -> DecodeResult:
    """Exact decoder for a linear operator over a union of subspaces.

    Solves min_z ||A B_i z - y|| with ||z|| <= M per subspace and keeps the
    best subspace.  Rank-deficient A B_i falls back to the minimum-norm
    solution; the ball constraint is handled on the regularization path.
    """
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    y = _as_real_measurement(y, op.m)
    best = None
    for i, B in enumerate(model.bases):
        z = _constrained_ls(op.matrix @ B, y, model.norm_bound)
        x = B @ z
        res = float(np.linalg.norm(op.matrix @ x - y))
        if best is None or res < best[0]:
            best = (res, i, x)
    res, i, x = best
    return DecodeResult(
        xhat=x,
        residual=float(meas_norm(op.apply(x) - y.astype(complex))),
        subspace_index=i,
        optimizer_iters=0,
        restarts_used=1,
        converged=True,
    )


def _ball_project(z: np.ndarray, radius: float) -> np.ndarray:
    nrm = np.linalg.norm(z)
    return z if nrm <= radius else z * (radius / nrm)


def _gauss_newton_subspace(op, B, y, z0, radius, opts: DecoderOptions):
    """Projected Gauss-Newton on z -> ||Psi(B z) - y||^2 over the coefficient ball.

    Complex residuals are stacked as real and imaginary parts, so steps solve
    a real least-squares problem.  Returns (z, objective, iters, converged).
    """
    z = _ball_project(np.asarray(z0, dtype=float), radius)

    def residual(zz):
        return op.apply(B @ zz) - y

    def objective(zz):
        r = residual(zz)
        return float(np.real(np.vdot(r, r)))

    fz = objective(z)
    iters = 0
    converged = False
    for iters in range(1, opts.max_iters + 1):
        r = residual(z)
        J = jacobian(op, B @ z) @ B
        Jr = np.vstack([J.real, J.imag])
        Rr = np.concatenate([r.real, r.imag])
        grad = 2.0 * Jr.T @ Rr
        # projected-gradient stationarity measure on the ball
        pg = z - _ball_project(z - grad, radius)
        if np.linalg.norm(pg) <= opts.gtol:
            converged = True
            break
        step, *_ = np.linalg.lstsq(Jr, -Rr, rcond=None)
        alpha = 1.0
        improved = False
        while alpha >= 1e-16:
            cand = _ball_project(z + alpha * step, radius)
            fc = objective(cand)
            if fc <= fz + 1e-4 * grad @ (cand - z):
                z, fz = cand, fc
                improved = True
                break
            alpha *= 0.5
        if not improved:
            # Gauss-Newton direction failed; fall back to projected gradient.
            alpha = 1.0 / (1.0 + np.linalg.norm(grad))
            moved = False
            while alpha >= 1e-16:
                cand = _ball_project(z - alpha * grad, radius)
                fc = objective(cand)
                if fc < fz:
                    z, fz = cand, fc
                    moved = True
                    break
                alpha *= 0.5
            if not moved:
                converged = np.linalg.norm(pg) <= max(opts.gtol, 1e-8)
                break
    return z, fz, iters, converged


def decode_nonlinear(
    op: RandomFourierOperator,
    model: UnionOfSubspaces,
    y,
    opts: DecoderOptions | None = None,
    warm_start=None,
    rng_seed=0,
    metric: Pseudometric | None = None,
) -> DecodeResult:
    """Multi-start decoder for the Fourier map.

    Starts per subspace: the linearized estimate at 0, the zero point, a
    projected warm start when given, and random model points; the best local
    minimum across subspaces and restarts wins, ties to the lowest
    (residual, subspace, restart) triple.  A result that never reached the
    gradient tolerance is returned with converged=False rather than raised.
    """
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    opts = opts or DecoderOptions()
    y = np.asarray(y, dtype=complex)
    if y.shape != (op.m,):
        raise InputError(f"y has shape {y.shape}, expected ({op.m},)")
    metric = metric or Pseudometric("euclidean")

    M = model.norm_bound
    psi0 = op.apply(np.zeros(op.dim))
    J0 = jacobian(op, np.zeros(op.dim))
    if warm_start is not None:
        xw = project_to_model(model, np.asarray(warm_start, dtype=float), metric)

    best = None  # ((residual2, subspace, restart), xhat, converged)
    total_iters = 0
    for i, B in enumerate(model.bases):
        starts = []
        if warm_start is not None:
            starts.append(B.T @ xw)
        # linearized estimate at the origin
        Jb = J0 @ B
        rhs = y - psi0
        z_lin, *_ = np.linalg.lstsq(
            np.vstack([Jb.real, Jb.imag]), np.concatenate([rhs.real, rhs.imag]), rcond=None
        )
        starts.append(z_lin)
        starts.append(np.zeros(B.shape[1]))
        # random coefficient starts from a per-subspace stream, so the k-th
        # start is independent of the total restart count (monotone restarts)
        rng_i = seeding.generator(rng_seed, i)
        while len(starts) < opts.restarts:
            starts.append(_uniform_ball_coeffs(rng_i, 1, B.shape[1], M)[0])
        starts = starts[: opts.restarts]
        for k, z0 in enumerate(starts):
            z, f, iters, conv = _gauss_newton_subspace(op, B, y, z0, M, opts)
            total_iters += iters
            key = (f, i, k)
            if best is None or key < best[0]:
                best = (key, B @ z, conv)

    (f, i, _), xhat, conv = best
    return DecodeResult(
        xhat=xhat,
        residual=float(meas_norm(op.apply(xhat) - y)),
        subspace_index=i,
        optimizer_iters=total_iters,
        restarts_used=opts.restarts,
        converged=bool(conv),
    )


def grid_minimum(op, model: UnionOfSubspaces, y, resolution: float = 1e-3):
    """Brute-force residual minimum over coefficient grids (oracle; s <= 2 only).

    Returns (x_best, residual_best).  The grid covers [-M, M]^s per subspace
    at the given resolution, keeping only points inside the ball.
    """
    s = model.subspace_dim
    if s > 2:
        raise InputError("grid oracle supports subspace dimension <= 2")
    y = np.asarray(y, dtype=complex)
    M = model.norm_bound
    ticks = np.arange(-M, M + resolution / 2, resolution)
    if s == 1:
        Z = ticks[:, None]
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        Z = np.column_stack([a.ravel(), b.ravel()])
        Z = Z[np.linalg.norm(Z, axis=1) <= M]
    best_x, best_res = None, np.inf
    for B in model.bases:
        X = Z @ B.T
        res = np.linalg.norm(op.apply_batch(X) - y[None, :], axis=1)
        k = int(np.argmin(res))
        if res[k] < best_res:
            best_x, best_res = X[k], float(res[k])
    return best_x, best_res


def residual_certificate(
    result: DecodeResult,
    op,
    model: UnionOfSubspaces,
    y,
    grid_opts: GridOracleOptions | None = None,
) -> float:
    """Gap between the achieved residual and the best available lower bound.

    Linear operators re-solve exactly (gap 0 up to roundoff); small nonlinear
    instances use the grid oracle when enabled; otherwise the trivial lower
    bound 0 applies and the full residual is returned.  A non-converged
    result reports an unknown gap as +inf.
    """
    if not result.converged:
        return np.inf
    if isinstance(op, LinearGaussianOperator):
        exact = decode_linear(op, model, y)
        return float(result.residual - exact.residual)
    grid_opts = grid_opts or GridOracleOptions()
    if grid_opts.enabled and model.subspace_dim <= 2:
        _, lower = grid_minimum(op, model, y, grid_opts.resolution)
        return float(result.residual - lower)
    return float(result.residual)


def decode(op, model: UnionOfSubspaces, y, opts: DecoderOptions, rng_seed, metric: Pseudometric):
    """Decode y with the operator's decoder; returns (DecodeResult, residual certificate gap).

    The linear decoder is exact, so its gap is 0 without a second solve; the
    Fourier decoder's gap comes from ``residual_certificate``.
    """
    if isinstance(op, LinearGaussianOperator):
        return decode_linear(op, model, y), 0.0
    result = decode_nonlinear(op, model, y, opts=opts, rng_seed=rng_seed, metric=metric)
    return result, residual_certificate(result, op, model, y, opts.grid_oracle)


def noise_vector(op, norm: float, rng) -> np.ndarray:
    """Gaussian measurement noise of exact norm ``norm``: real for the linear map, complex otherwise."""
    if norm == 0:
        return np.zeros(op.m, dtype=complex)
    if isinstance(op, LinearGaussianOperator):
        e = rng.normal(size=op.m).astype(complex)
    else:
        e = rng.normal(size=op.m) + 1j * rng.normal(size=op.m)
    return e * (norm / np.linalg.norm(e))
