"""Ideal model-constrained decoder: argmin over the model of the measurement residual.

For linear operators and a union-of-subspaces model the decoder is exact:
each subspace yields a (norm-constrained) least-squares problem.  For the
random Fourier map the problem is nonconvex: one branch-and-bound search
over the coefficient balls both bounds the best residual from below and
supplies the start of one projected Gauss-Newton polish, so the decoder's
excess residual is certified, at any subspace dimension, and can be folded
into the instance-optimality slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .models import UnionOfSubspaces, _ball_project, _row_products, _subspace_map
from .operators import LinearGaussianOperator, RandomFourierOperator
from .spaces import meas_norm


# Stopping rule of the Gauss-Newton decoder (see DecoderOptions).
GTOL = 1e-10
_EPS = np.finfo(float).eps
_F_RTOL = 64 * _EPS
_PG_RTOL = 64 * np.sqrt(_EPS)
_HALVINGS = 0.5 ** np.arange(54)  # 1, 1/2, ..., 2^-53 >= 1e-16
_ROWS = 256  # points per apply_batch call of the line search

# Branch-and-bound residual certificate (see certified_minimum).
_CERT_BUDGET = 100_000  # boxes bounded per certificate, over all subspaces
_CERT_CHUNK = 4096  # boxes bounded per batch


@dataclass(frozen=True)
class GridOracleOptions:
    """Residual certificate of the Fourier decoder.

    resolution is the target certified gap, in measurement units: the
    branch-and-bound of certified_minimum stops refining a box once its lower
    bound is within resolution of the best residual found.  decode runs that
    search before decoding and takes its start from it, so resolution is also
    the target of the start search.  The names are kept from the grid oracle
    this search replaces.
    """

    resolution: float = 1e-6

    def __post_init__(self):
        if not self.resolution > 0:
            raise InputError(f"resolution must be positive, got {self.resolution}")


@dataclass(frozen=True)
class DecoderOptions:
    """Projected Gauss-Newton settings for the Fourier decoder.

    decode polishes one start, the best box centre of the certificate
    search, and max_iters bounds that polish.  An iteration's line search
    tries the full Gauss-Newton step first and halves it only when that fails
    the Armijo test.  The polish has converged when its projected gradient pg
    has ||pg|| <= GTOL, or when no line-search step lowers f = ||r||^2 by
    more than its rounding error 64 eps f and ||pg|| <= 64 sqrt(eps) ||J||
    ||r||.  A polish stopped by max_iters has not converged.
    """

    max_iters: int = 500
    grid_oracle: GridOracleOptions = field(default_factory=GridOracleOptions)

    def __post_init__(self):
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
    converged: bool

    def to_json(self) -> dict:
        return {
            "xhat": [float(v) for v in self.xhat],
            "residual": self.residual,
            "subspace_index": self.subspace_index,
            "optimizer_iters": self.optimizer_iters,
            "converged": self.converged,
        }


def _as_real_measurements(y, m: int) -> np.ndarray:
    """y of shape (m,) or (n, m) as real measurement rows, shape (n, m)."""
    y = np.asarray(y)
    if y.ndim not in (1, 2) or y.shape[-1] != m:
        raise InputError(f"y has shape {y.shape}, expected ({m},) or (n, {m})")
    if np.iscomplexobj(y):
        if y.size and np.max(np.abs(y.imag)) > 1e-12:
            raise InputError("linear decoding expects a real measurement vector")
        y = y.real
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise InputError("measurement vector has non-finite entries")
    return y


def _secular_bisection(S, beta, Vt, radius: float, tol: float) -> np.ndarray:
    """The point of norm radius on the Tikhonov path of each row, by bisection on the secular equation.

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
    return _ball_project(_row_products(num / (S2 + mu[:, None]), Vt), radius)


def _constrained_ls(G: np.ndarray, Y: np.ndarray, radius: float, tol: float = 1e-10) -> np.ndarray:
    """min ||G_i z - y|| subject to ||z|| <= radius, for each matrix G_i of the stack G and each row y of Y.

    One SVD per G_i serves every row.  A row takes the unconstrained
    minimum-norm solution when it is feasible, and otherwise the
    norm-equality solution on the Tikhonov path
    z(mu) = (G'G + mu I)^{-1} G'y, from one bisection run on all such
    (i, row) pairs at once (_secular_bisection).  Returns Z with
    Z[i, k] the solution for G_i and Y[k].
    """
    U, svals, Vt = np.linalg.svd(G, full_matrices=False)
    beta = _row_products(Y[None], U[:, None])
    top = svals[:, :1]
    rank = (svals > top * 1e-14) & (top > 0)

    with np.errstate(divide="ignore", invalid="ignore"):
        coeffs = np.where(rank[:, None], beta / svals[:, None], 0.0)
    Z = _row_products(coeffs, Vt[:, None])
    sub, row = np.nonzero(np.linalg.norm(Z, axis=2) > radius)
    if len(sub):
        Z[sub, row] = _secular_bisection(svals[sub], beta[sub, row], Vt[sub], radius, tol)
    return Z


def decode_linear(op: LinearGaussianOperator, model: UnionOfSubspaces, y):
    """Exact decoder for a linear operator over a union of subspaces.

    y is one measurement of shape (m,), which gives one DecodeResult, or a
    batch of shape (n, m), which gives a list with one DecodeResult per row;
    a complex y must have zero imaginary part.  For each subspace, one SVD
    of A B_i serves every row: min_z ||A B_i z - y|| with ||z|| <= M is the
    minimum-norm least-squares solution when that lies in the ball (which
    also covers a rank-deficient A B_i), and otherwise a point of the
    regularization path found by one bisection for all rows and subspaces
    outside the ball (_constrained_ls).  Each row keeps its best subspace:
    residuals within a factor 1 + 64 eps of the best count as tied, and a tie
    goes to the lowest index, so rounding cannot pick the winner.  Every row
    goes through its own vector-matrix products, so its result does not
    depend on the rows decoded with it.
    """
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    Y = _as_real_measurements(y, op.m)
    Z = _constrained_ls(op.matrix @ model.bases, Y, model.norm_bound)
    X = _row_products(Z, np.swapaxes(model.bases, 1, 2)[:, None])
    R = np.linalg.norm(_row_products(X, op.matrix.T) - Y, axis=2)
    # residuals within 64 eps of the best count as tied, and the lowest index wins
    best = np.argmax(R <= R.min(axis=0) * (1.0 + _F_RTOL), axis=0)
    rows = np.arange(len(Y))
    xhat, residual = X[best, rows], R[best, rows]
    results = [
        DecodeResult(xhat=xhat[k], residual=float(residual[k]), subspace_index=int(best[k]),
                     optimizer_iters=0, converged=True)
        for k in rows
    ]
    return results if np.ndim(y) == 2 else results[0]


def _restricted_map(op: RandomFourierOperator, model: UnionOfSubspaces) -> np.ndarray:
    """The frequencies seen from each subspace's coefficients: V_i = Omega B_i, stacked (N, m, s)."""
    return op.omegas @ model.bases


def _evaluate(op, bases, y, sub, Z):
    """Map values and objectives ||Psi(B_sub z) - y||^2 at the coefficient rows Z.

    Rows go through op.apply_batch _ROWS at a time.
    """
    X = _subspace_map(bases, sub, Z)
    P = np.empty((len(X), op.m), dtype=complex)
    for lo in range(0, len(X), _ROWS):
        P[lo:lo + _ROWS] = op.apply_batch(X[lo:lo + _ROWS])
    R = P - y
    return P, np.real(np.sum(R * R.conj(), axis=1))


def _line_search(op, bases, y, sub, z, direction, alphas, radius):
    """Ball-projected z + alpha * direction for each start and step size, with map values and objectives.

    z and direction hold one row per start (subspace sub); alphas is (k,),
    or (starts, k) for step sizes of each start's own.  The outputs are
    indexed (start, step).
    """
    cands = _ball_project(z[:, None, :] + alphas[..., None] * direction[:, None, :], radius)
    n, k, s = cands.shape
    P, F = _evaluate(op, bases, y, np.repeat(sub, k), cands.reshape(-1, s))
    return cands, P.reshape(n, k, -1), F.reshape(n, k)


def _first_progress(op, bases, y, sub, z, f, grad, direction, alphas, radius, armijo):
    """The first step size of alphas that makes progress from each start.

    A step makes progress when it lowers f by more than its rounding error
    64 eps f and, with armijo, passes f' <= f + 1e-4 (z' - z) . grad.
    Starts are searched in groups of at most _ROWS points.  Returns
    (found, z', psi', f'), whose rows are meaningful where found.
    """
    n, k = len(z), alphas.shape[-1]
    alphas = np.broadcast_to(alphas, (n, k))
    found, Zn, Pn, Fn = np.zeros(n, dtype=bool), np.empty_like(z), np.empty((n, op.m), complex), np.empty(n)
    group = max(1, _ROWS // k)
    for lo in range(0, n, group):
        g = slice(lo, lo + group)
        cands, P, F = _line_search(op, bases, y, sub[g], z[g], direction[g], alphas[g], radius)
        ok = F < (1.0 - _F_RTOL) * f[g, None]
        if armijo:
            ok &= F <= f[g, None] + 1e-4 * np.einsum("nks,ns->nk", cands - z[g, None, :], grad[g])
        j = np.argmax(ok, axis=1)
        rows = np.arange(len(j))
        found[g], Zn[g], Pn[g], Fn[g] = ok[rows, j], cands[rows, j], P[rows, j], F[rows, j]
    return found, Zn, Pn, Fn


def _lazy_search(op, bases, y, sub, z, f, grad, step, radius):
    """Line search from each start along its Gauss-Newton step, trying the full step first.

    The result is that of trying all of _HALVINGS at once and taking the
    first that passes the Armijo test, then, with none passing, the same
    along the negative gradient from 1/(1 + ||grad||) with plain decrease.
    Only the starts whose full step fails try the other 53 step sizes, and
    only those with no passing step search along the gradient.  Returns
    (found, z', psi', f') as _first_progress does.
    """
    found, Zn, Pn, Fn = _first_progress(op, bases, y, sub, z, f, grad, step, _HALVINGS[:1], radius, True)
    for direction, alphas, armijo in (
        (step, _HALVINGS[1:], True),
        (-grad, _HALVINGS / (1.0 + np.linalg.norm(grad, axis=1, keepdims=True)), False),
    ):
        miss = np.flatnonzero(~found)
        if not len(miss):
            break
        found[miss], Zn[miss], Pn[miss], Fn[miss] = _first_progress(
            op, bases, y, sub[miss], z[miss], f[miss], grad[miss], direction[miss],
            alphas if alphas.ndim == 1 else alphas[miss], radius, armijo)
    return found, Zn, Pn, Fn


def _gauss_newton(op, model, y, sub, Z0, max_iters):
    """Projected Gauss-Newton on z -> ||Psi(B_i z) - y||^2 over the coefficient ball, from every start at once.

    Start k runs on subspace sub[k] from Z0[k].  All starts advance
    together, one iteration per round, and a start leaves the round in
    which it stops.  Complex residuals are stacked as real and imaginary
    parts, and the Jacobian in coefficients is i psi * V_i, from the map
    values psi at the iterate and the restricted map V_i.  The Gauss-Newton
    steps of a round come from one batched SVD with lstsq's cutoff, and the
    line search tries the full step first (see _lazy_search).  A start's
    outcome does not depend on the starts run with it.  Returns (Z, f,
    iters, converged), one entry per start.
    """
    M = model.norm_bound
    bases, V = model.bases, _restricted_map(op, model)
    Z = _ball_project(np.asarray(Z0, dtype=float), M)
    P, F = _evaluate(op, bases, y, sub, Z)
    iters, converged = np.zeros(len(Z), dtype=int), np.zeros(len(Z), dtype=bool)
    active = np.arange(len(Z))
    for rnd in range(1, max_iters + 1):
        if not len(active):
            break
        iters[active] = rnd
        z, psi, f, Va = Z[active], P[active], F[active], V[sub[active]]
        r = psi - y
        Jr = np.concatenate([-psi.imag[:, :, None] * Va, psi.real[:, :, None] * Va], axis=1)
        Rr = np.concatenate([r.real, r.imag], axis=1)
        grad = 2.0 * np.einsum("nks,nk->ns", Jr, Rr)
        # projected-gradient stationarity measure on the ball
        pg = np.linalg.norm(z - _ball_project(z - grad, M), axis=1)
        stop = pg <= GTOL
        converged[active[stop]] = True
        go = ~stop
        active, z, f, Jr, Rr, grad, pg = active[go], z[go], f[go], Jr[go], Rr[go], grad[go], pg[go]
        # Gauss-Newton steps min ||Jr step + Rr||, with lstsq's cutoff on small singular values
        U, S, Wt = np.linalg.svd(Jr, full_matrices=False)
        inv = np.divide(1.0, S, out=np.zeros_like(S), where=S > _EPS * max(Jr.shape[1:]) * S[:, :1])
        step = -np.einsum("nts,nt->ns", Wt, inv * np.einsum("nkt,nk->nt", U, Rr))
        found, Zn, Pn, Fn = _lazy_search(op, bases, y, sub[active], z, f, grad, step, M)
        # a start with no progress has converged when its gradient is within rounding of stationary
        stuck = ~found
        J_norm = np.sqrt(np.sum(Jr[stuck] ** 2, axis=(1, 2)))
        converged[active[stuck]] = pg[stuck] <= _PG_RTOL * J_norm * np.linalg.norm(Rr[stuck], axis=1)
        active = active[found]
        Z[active], P[active], F[active] = Zn[found], Pn[found], Fn[found]
    return Z, F, iters, converged


def certified_minimum(op: RandomFourierOperator, model: UnionOfSubspaces, y, target: float, upper: float):
    """Certified lower bound on min ||Psi(x) - y|| over the model, by interval branch-and-bound.

    On subspace i, in coefficients z, the squared residual is

        f_i(z) = sum_j (a_j - |y_j|)^2 + 4 sum_j c_j sin^2((v_j . z - phi_j) / 2)

    with a_j = 1 / (f(w_j) sqrt m), c_j = a_j |y_j|, phi_j = arg y_j and v_j
    the rows of V_i = Omega B_i.  A box of half-width h about z0, with u_j the
    phase v_j . z0 - phi_j wrapped to [-pi, pi), is bounded below by the
    largest of a first-order bound, where each phase moves by at most
    h ||v_j||_1, the second-order bound f(z0) - h ||grad f(z0)||_1 -
    h^2 sum_j c_j ||v_j||_1^2 (|cos''| <= 1), and the same bound on
    f + mu (|z|^2 - M^2) <= f, with mu >= 0 taken from the outward gradient at
    z0, less a rounding allowance.

    The search starts from one box [-M, M]^s per subspace and drops boxes
    that miss the ball.  UB is the smaller of upper^2 and f at every in-ball
    centre.  A box settles once its bound reaches (sqrt(UB) - target)^2 less
    the allowance, so a target below what rounding resolves still ends the
    search; the others split into 2^s children, bounded _CERT_CHUNK at a time.
    A box splits only while the boxes bounded so far plus the children made
    at its level stay within _CERT_BUDGET; a box that would cross it settles
    at its own bound, which is still certified.  So at any s the count stays
    within _CERT_BUDGET, unless the model alone has more subspaces, and so
    does the memory of a level.  Returns (lower, cells, best): lower is the
    square root of the smallest settled bound, capped at upper, cells the
    number of boxes bounded, and best the in-ball box centre of least f as
    (subspace, z), the earliest bounded on ties.
    """
    s = model.subspace_dim
    y = np.asarray(y, dtype=complex)
    M = model.norm_bound
    a = 1.0 / (op.weights * np.sqrt(op.m))
    c = a * np.abs(y)
    phi = np.angle(y)
    V = _restricted_map(op, model)
    L1 = np.sum(np.abs(V), axis=2)
    curvature = L1**2 @ c
    base = float(np.sum((a - np.abs(y)) ** 2))
    # rounding of the m-term sums and of the phases, s-term sums whose size is at most M ||v_j||_1 + pi
    allowance = (64 + 4 * max(op.m, s)) * _EPS * (
        base + float(np.sum(c)) * (4.0 + 2.0 * np.pi + 2.0 * M * float(L1.max())))
    children = 2**s
    # children at +-h/2; with more children than the budget no box ever splits
    offsets = ((np.arange(children)[:, None] >> np.arange(s)) & 1) - 0.5 if children <= _CERT_BUDGET else None

    ub, settled, cells = upper**2, np.inf, 0
    best_f, best = np.inf, None  # least f at an in-ball centre, and that centre as (subspace, z)
    # open boxes of half-width h: subspace, centre and the bound inherited from the parent
    N = len(model.bases)
    idx, Z, inherited, h = np.arange(N), np.zeros((N, s)), np.zeros(N), M
    while len(idx):
        cells, made = cells + len(idx), 0
        parts = [(idx[:0], Z[:0], inherited[:0])]
        for lo in range(0, len(idx), _CERT_CHUNK):
            I, Zc = idx[lo:lo + _CERT_CHUNK], Z[lo:lo + _CERT_CHUNK]
            Vc = V[I]
            u = (np.einsum("nms,ns->nm", Vc, Zc) - phi + np.pi) % (2.0 * np.pi) - np.pi
            f0 = base + 4.0 * np.sin(0.5 * u) ** 2 @ c
            first = base + 4.0 * np.sin(0.5 * np.maximum(np.abs(u) - h * L1[I], 0.0)) ** 2 @ c
            grad = np.einsum("nm,nms->ns", 2.0 * c * np.sin(u), Vc)
            second = f0 - h * np.sum(np.abs(grad), axis=1) - h * h * curvature[I]
            # on the ball f >= f + mu (|z|^2 - M^2) for any mu >= 0; this mu cancels
            # most of the outward gradient, so boxes at a minimum on the sphere settle too
            r2 = np.sum(Zc * Zc, axis=1)
            mu = np.maximum(-np.sum(grad * Zc, axis=1), 0.0) / (2.0 * np.maximum(r2, M * M))
            shifted = grad + 2.0 * mu[:, None] * Zc
            # the last term is the rounding of the mu terms, with |z|^2 an s-term sum
            third = (f0 + mu * (r2 - M * M) - h * np.sum(np.abs(shifted), axis=1) - h * h * curvature[I]
                     - 8 * max(2, s) * _EPS * mu * (r2 + M * M + 2.0 * h * np.sum(np.abs(Zc), axis=1)))
            bound = np.maximum(np.maximum.reduce([first, second, third]) - allowance,
                               inherited[lo:lo + _CERT_CHUNK])
            k = int(np.argmin(np.where(r2 <= M * M, f0, np.inf)))
            if f0[k] < best_f and r2[k] <= M * M:
                best_f, best = float(f0[k]), (int(I[k]), Zc[k].copy())
            ub = min(ub, best_f)
            done = bound >= max(np.sqrt(ub) - target, 0.0) ** 2 - allowance
            # the boxes past the budget's room settle at their own bound too
            split = np.flatnonzero(~done)
            room = max(_CERT_BUDGET - cells - made, 0) // children
            settled = min(settled, float(np.min(bound[done], initial=np.inf)),
                          float(np.min(bound[split[room:]], initial=np.inf)))
            split = split[:room]
            made += len(split) * children
            if len(split):
                kids = (Zc[split, None, :] + h * offsets).reshape(-1, s)
                meets_ball = np.linalg.norm(np.maximum(np.abs(kids) - 0.5 * h, 0.0), axis=1) <= M
                parts.append((np.repeat(I[split], children)[meets_ball], kids[meets_ball],
                              np.repeat(bound[split], children)[meets_ball]))
        idx, Z, inherited = (np.concatenate(part) for part in zip(*parts))
        h *= 0.5
    return min(float(np.sqrt(max(settled, 0.0))), upper), cells, best


def residual_certificate(
    result: DecodeResult,
    op,
    model: UnionOfSubspaces,
    y,
    grid_opts: GridOracleOptions | None = None,
) -> float:
    """Gap between the Fourier decoder's residual and a certified lower bound on the minimum.

    The linear decoder is exact, and decode gives its gap 0; a linear
    operator is refused here.  The lower bound comes from certified_minimum
    with target gap grid_opts.resolution, so the gap is >= 0 and, unless the
    cell budget runs out, exceeds the decoder's own excess residual by about
    that target at most.  A non-converged result reports an unknown gap as
    +inf.  decode does not call it; it is the independent reference that
    certifies any DecodeResult.
    """
    if not isinstance(op, RandomFourierOperator):
        raise InputError("residual_certificate is for the Fourier decoder; the linear decoder is exact")
    if not result.converged:
        return np.inf
    grid_opts = grid_opts or GridOracleOptions()
    lower, _, _ = certified_minimum(op, model, y, grid_opts.resolution, result.residual)
    return float(result.residual - lower)


def decode(op, model: UnionOfSubspaces, y, opts: DecoderOptions):
    """Decode y with the operator's decoder; returns (DecodeResult, residual certificate gap).

    y is one measurement of shape (m,), or rows of shape (n, m), which give
    a list of DecodeResults and an array of gaps.  The linear decoder is
    exact, so its gap is 0 without a second solve, and it decodes all rows
    in one decode_linear call.  The Fourier map decodes each row on its own,
    at any subspace dimension: one certified_minimum search at target
    opts.grid_oracle.resolution gives both the lower bound and its best
    in-ball box centre, one projected Gauss-Newton start polishes that
    centre, and the gap is the residual less the lower bound.  The search
    settles every box at (sqrt(UB) - target)^2, with UB the centre's f, and
    the polish never raises f, so the gap is at most the target (up to
    rounding) unless the cell budget runs out, and certified either way.
    That bound holds whether or not the polish converged, but the IOP checks
    still count an unconverged decode as unchecked.
    """
    if isinstance(op, LinearGaussianOperator):
        results = decode_linear(op, model, y)
        return results, (np.zeros(len(results)) if np.ndim(y) == 2 else 0.0)
    if np.ndim(y) == 2:
        decoded = [decode(op, model, row, opts) for row in y]
        return [result for result, _ in decoded], np.array([gap for _, gap in decoded])
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    y = np.asarray(y, dtype=complex)
    if y.shape != (op.m,):
        raise InputError(f"y has shape {y.shape}, expected ({op.m},)")
    lower, _, (i, z) = certified_minimum(op, model, y, opts.grid_oracle.resolution, np.inf)
    Z, _, iters, converged = _gauss_newton(op, model, y, np.array([i]), z[None], opts.max_iters)
    xhat = model.bases[i] @ Z[0]
    residual = float(meas_norm(op.apply_batch(xhat)[0] - y))
    result = DecodeResult(xhat=xhat, residual=residual, subspace_index=i, optimizer_iters=int(iters[0]),
                          converged=bool(converged[0]))
    return result, residual - min(lower, residual)


def noise_vector(op, norm: float, rng) -> np.ndarray:
    """Gaussian measurement noise of exact norm ``norm``: real for the linear map, complex otherwise."""
    if norm == 0:
        return np.zeros(op.m, dtype=complex)
    if isinstance(op, LinearGaussianOperator):
        e = rng.normal(size=op.m).astype(complex)
    else:
        e = rng.normal(size=op.m) + 1j * rng.normal(size=op.m)
    return e * (norm / np.linalg.norm(e))
