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

    y is one measurement, or one per row of Z.  Rows go through
    op.apply_batch _ROWS at a time.
    """
    X = _subspace_map(bases, sub, Z)
    P = np.empty((len(X), op.m), dtype=complex)
    for lo in range(0, len(X), _ROWS):
        P[lo:lo + _ROWS] = op.apply_batch(X[lo:lo + _ROWS])
    R = P - y
    return P, np.real(np.sum(R * R.conj(), axis=1))


def _line_search(op, bases, y, sub, z, direction, alphas, radius):
    """Ball-projected z + alpha * direction for each start and step size, with map values and objectives.

    z and direction hold one row per start (subspace sub), and y is one
    measurement for every start or one row per start; alphas is (k,), or
    (starts, k) for step sizes of each start's own.  The outputs are
    indexed (start, step).
    """
    cands = _ball_project(z[:, None, :] + alphas[..., None] * direction[:, None, :], radius)
    n, k, s = cands.shape
    Y = y if y.ndim == 1 else np.repeat(y, k, axis=0)
    P, F = _evaluate(op, bases, Y, np.repeat(sub, k), cands.reshape(-1, s))
    return cands, P.reshape(n, k, -1), F.reshape(n, k)


def _first_progress(op, bases, y, sub, z, f, grad, direction, alphas, radius, armijo):
    """The first step size of alphas that makes progress from each start.

    A step makes progress when it lowers f by more than its rounding error
    64 eps f and, with armijo, passes f' <= f + 1e-4 (z' - z) . grad.
    y holds one measurement row per start.  Starts are searched in groups
    of at most _ROWS points.  Returns (found, z', psi', f'), whose rows are
    meaningful where found.
    """
    n, k = len(z), alphas.shape[-1]
    alphas = np.broadcast_to(alphas, (n, k))
    found, Zn, Pn, Fn = np.zeros(n, dtype=bool), np.empty_like(z), np.empty((n, op.m), complex), np.empty(n)
    group = max(1, _ROWS // k)
    for lo in range(0, n, group):
        g = slice(lo, lo + group)
        cands, P, F = _line_search(op, bases, y[g], sub[g], z[g], direction[g], alphas[g], radius)
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
    only those with no passing step search along the gradient.  y is one
    measurement for every start or one row per start.  Returns (found, z',
    psi', f') as _first_progress does.
    """
    y = np.broadcast_to(y, (len(z), op.m))
    found, Zn, Pn, Fn = _first_progress(op, bases, y, sub, z, f, grad, step, _HALVINGS[:1], radius, True)
    for direction, alphas, armijo in (
        (step, _HALVINGS[1:], True),
        (-grad, _HALVINGS / (1.0 + np.linalg.norm(grad, axis=1, keepdims=True)), False),
    ):
        miss = np.flatnonzero(~found)
        if not len(miss):
            break
        found[miss], Zn[miss], Pn[miss], Fn[miss] = _first_progress(
            op, bases, y[miss], sub[miss], z[miss], f[miss], grad[miss], direction[miss],
            alphas if alphas.ndim == 1 else alphas[miss], radius, armijo)
    return found, Zn, Pn, Fn


def _gauss_newton(op, model, y, sub, Z0, max_iters):
    """Projected Gauss-Newton on z -> ||Psi(B_i z) - y||^2 over the coefficient ball, from every start at once.

    Start k runs on subspace sub[k] from Z0[k], against y, one measurement
    for every start, or against y[k], one row per start.  All starts advance
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
    Y = np.broadcast_to(y, (len(Z), op.m))
    P, F = _evaluate(op, bases, Y, sub, Z)
    iters, converged = np.zeros(len(Z), dtype=int), np.zeros(len(Z), dtype=bool)
    active = np.arange(len(Z))
    for rnd in range(1, max_iters + 1):
        if not len(active):
            break
        iters[active] = rnd
        z, psi, f, Va, y = Z[active], P[active], F[active], V[sub[active]], Y[active]
        r = psi - y
        Jr = np.concatenate([-psi.imag[:, :, None] * Va, psi.real[:, :, None] * Va], axis=1)
        Rr = np.concatenate([r.real, r.imag], axis=1)
        grad = 2.0 * np.einsum("nks,nk->ns", Jr, Rr)
        # projected-gradient stationarity measure on the ball
        pg = np.linalg.norm(z - _ball_project(z - grad, M), axis=1)
        stop = pg <= GTOL
        converged[active[stop]] = True
        go = ~stop
        active, z, y, f, Jr, Rr, grad, pg = active[go], z[go], y[go], f[go], Jr[go], Rr[go], grad[go], pg[go]
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


def _box_bounds(V, L1, M, h, consts, owner, I, Zc):
    """f at the centres Zc of boxes of half-width h on subspaces I, and the boxes' lower bounds.

    owner is the row of each box, and consts = (c, phi, base, curvature,
    allowance) holds each row's constants (see certified_minimum).  Each
    box's sums over the m frequencies run along its own numbers, so its
    values do not depend on the boxes bounded with it.  Returns (f0, bound,
    r2), with r2 = |z|^2, per box.
    """
    c, phi, base, curvature, allowance = consts
    Vc = V[I]
    u = (np.einsum("nms,ns->nm", Vc, Zc) - phi[owner] + np.pi) % (2.0 * np.pi) - np.pi
    grad = np.einsum("nm,nms->ns", 2.0 * c[owner] * np.sin(u), Vc)
    del Vc
    c = c[owner]  # gathered for the sums only once V[I] is freed, which keeps the chunk's peak memory down
    f0 = base[owner] + np.sum(4.0 * np.sin(0.5 * u) ** 2 * c, axis=1)
    first = base[owner] + np.sum(4.0 * np.sin(0.5 * np.maximum(np.abs(u) - h * L1[I], 0.0)) ** 2 * c, axis=1)
    s, curved = Zc.shape[1], h * h * curvature[owner, I]
    second = f0 - h * np.sum(np.abs(grad), axis=1) - curved
    # on the ball f >= f + mu (|z|^2 - M^2) for any mu >= 0; this mu cancels
    # most of the outward gradient, so boxes at a minimum on the sphere settle too
    r2 = np.sum(Zc * Zc, axis=1)
    mu = np.maximum(-np.sum(grad * Zc, axis=1), 0.0) / (2.0 * np.maximum(r2, M * M))
    shifted = grad + 2.0 * mu[:, None] * Zc
    # the last term is the rounding of the mu terms, with |z|^2 an s-term sum
    third = (f0 + mu * (r2 - M * M) - h * np.sum(np.abs(shifted), axis=1) - curved
             - 8 * max(2, s) * _EPS * mu * (r2 + M * M + 2.0 * h * np.sum(np.abs(Zc), axis=1)))
    return f0, np.maximum.reduce([first, second, third]) - allowance[owner], r2


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

    The search starts from one box [-M, M]^s per subspace, drops boxes that
    miss the ball, and goes one level at a time: it bounds every open box,
    then takes UB, the smaller of upper^2 and f at every in-ball centre so
    far.  A box settles once its bound reaches (sqrt(UB) - target)^2 less the
    allowance, so a target below what rounding resolves still ends the
    search; the others split into 2^s children.  A box splits only while the
    boxes bounded so far plus the children made at its level stay within
    _CERT_BUDGET; a box that would cross it settles at its own bound, which is
    still certified.  So at any s the count stays within _CERT_BUDGET, unless
    the model alone has more subspaces.

    y is one measurement of shape (m,), or rows of shape (n, m) searched in
    lockstep, one level of every row's boxes at a time.  The boxes of a level
    are bounded _CERT_CHUNK at a time, rows mixed, each along its own
    numbers (_box_bounds); each row then takes its best centre, UB, settled
    bound and splits from its own boxes, in order.  So a row's result is
    bitwise the one it gets alone, whatever _CERT_CHUNK.  A row reserves its
    open boxes plus the children it may still make; the rows in flight
    reserve at most _CERT_BUDGET boxes between them, and a row that would
    cross that leaves and is searched again from the root after the others.

    Returns (lower, cells, best): lower is the square root of the smallest
    settled bound, capped at upper, cells the number of boxes bounded, and
    best the in-ball box centre of least f as (subspace, z), the earliest
    bounded on ties.  For rows, lower and cells are arrays and best is
    (subspaces, Z), one entry per row.
    """
    s, M, N = model.subspace_dim, model.norm_bound, model.num_subspaces
    Y = np.atleast_2d(np.asarray(y, dtype=complex))
    n = len(Y)
    a = 1.0 / (op.weights * np.sqrt(op.m))
    c = a * np.abs(Y)
    V = _restricted_map(op, model)
    L1 = np.sum(np.abs(V), axis=2)
    L1_squared = L1**2
    base = np.sum((a - np.abs(Y)) ** 2, axis=1)
    # rounding of the m-term sums and of the phases, s-term sums whose size is at most M ||v_j||_1 + pi
    allowance = (64 + 4 * max(op.m, s)) * _EPS * (
        base + np.sum(c, axis=1) * (4.0 + 2.0 * np.pi + 2.0 * M * float(L1.max())))
    consts = (c, np.angle(Y), base, np.array([L1_squared @ row for row in c]).reshape(n, N), allowance)
    children = 2**s
    # children at +-h/2; with more children than the budget no box ever splits
    offsets = ((np.arange(children)[:, None] >> np.arange(s)) & 1) - 0.5 if children <= _CERT_BUDGET else None
    per_split = min(children, _CERT_BUDGET + 1)  # keeps the room arithmetic within int64

    settled, cells, todo = np.empty(n), np.zeros(n, dtype=int), np.arange(n)
    # least f at an in-ball centre, and that centre as (subspace, z)
    best_f, best_sub, best_z = np.empty(n), np.zeros(n, dtype=int), np.zeros((n, s))
    while len(todo):
        rows, todo = todo, todo[:0]
        settled[rows], cells[rows], best_f[rows] = np.inf, 0, np.inf
        # open boxes of half-width h, grouped by row in the order of rows: subspace, centre and lower
        # bound, the parent's until the box is bounded
        count, h = np.full(len(rows), N), M
        idx, Z, bound = np.tile(np.arange(N), len(rows)), np.zeros((len(rows) * N, s)), np.zeros(len(rows) * N)
        while len(rows):
            cells[rows] += count
            room = np.maximum(_CERT_BUDGET - cells[rows], 0) // per_split
            # the rows that stay are a prefix, so the boxes of those that leave are the last ones
            stay = np.cumsum(count + per_split * np.minimum(room, count)) <= _CERT_BUDGET
            stay[0] = True
            todo = np.concatenate([todo, rows[~stay]])
            rows, count, room = rows[stay], count[stay], room[stay]
            total, lo = int(count.sum()), np.cumsum(count) - count
            idx, Z, bound, f_in = idx[:total], Z[:total], bound[:total], np.empty(total)
            seg = np.repeat(np.arange(len(rows)), count)
            for b in range(0, total, _CERT_CHUNK):
                box = slice(b, b + _CERT_CHUNK)
                f0, own, r2 = _box_bounds(V, L1, M, h, consts, rows[seg[box]], idx[box], Z[box])
                f_in[box], bound[box] = np.where(r2 <= M * M, f0, np.inf), np.maximum(own, bound[box])
            # each row's in-ball centre of least f, the earliest on ties
            least = np.minimum.reduceat(f_in, lo)
            at = np.minimum.reduceat(np.where(f_in == least[seg], np.arange(total), total), lo)
            better = least < best_f[rows]
            up, at = rows[better], at[better]
            best_f[up], best_sub[up], best_z[up] = least[better], idx[at], Z[at]
            ub = np.minimum(best_f[rows], upper**2)
            level = np.maximum(np.sqrt(ub) - target, 0.0) ** 2 - allowance[rows]
            # the boxes past the budget's room settle at their own bound too
            wide = bound < level[seg]
            opened = np.cumsum(wide)
            split = wide & (opened - np.repeat(opened[lo] - wide[lo], count) <= room[seg])
            settled[rows] = np.minimum(settled[rows], np.minimum.reduceat(np.where(split, np.inf, bound), lo))
            p = np.flatnonzero(split)
            count, idx, Z, bound = _next_level(seg[p], len(rows), idx[p], Z[p], bound[p], h, offsets, M)
            rows, count, h = rows[count > 0], count[count > 0], 0.5 * h
    lower = np.minimum(np.sqrt(np.maximum(settled, 0.0)), upper)
    if np.ndim(y) == 1:
        return float(lower[0]), int(cells[0]), (int(best_sub[0]), best_z[0].copy())
    return lower, cells, (best_sub, best_z)


def _children(Z, h, offsets):
    """The children of the boxes of half-width h about the rows of Z, 2^s per box, at +-h/2."""
    return (Z[:, None, :] + h * offsets).reshape(-1, Z.shape[1])


def _next_level(owner, n, sub, centres, bounds, h, offsets, M):
    """The children that meet the ball of the boxes of half-width h that split, in parent order.

    owner is the row of each parent, one of n, and sub, centres and bounds
    its subspace, centre and bound.  Children are made and ball-tested
    _CERT_CHUNK at a time, once to count them and once more to write the kept
    ones into arrays of exact size.  Returns (count, subspace, centre,
    inherited bound), with count[r] the children row r keeps.
    """
    if not len(owner):  # no box split, as always when 2^s exceeds the budget
        return np.zeros(n, dtype=int), sub, centres, bounds
    children = len(offsets)
    piece = max(1, _CERT_CHUNK // children)  # parents whose children make one chunk
    parts = [slice(lo, lo + piece) for lo in range(0, len(centres), piece)]
    meets_ball = [np.linalg.norm(np.maximum(np.abs(_children(centres[q], h, offsets)) - 0.5 * h, 0.0), axis=1) <= M
                  for q in parts]
    count = np.bincount(np.repeat(owner, children)[np.concatenate(meets_ball)], minlength=n)
    total, at = int(count.sum()), 0
    idx, Z, inherited = np.empty(total, dtype=int), np.empty((total, centres.shape[1])), np.empty(total)
    for q, keep in zip(parts, meets_ball):
        kept = slice(at, at + int(keep.sum()))
        idx[kept], Z[kept] = np.repeat(sub[q], children)[keep], _children(centres[q], h, offsets)[keep]
        inherited[kept], at = np.repeat(bounds[q], children)[keep], kept.stop
    return count, idx, Z, inherited


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
    in one decode_linear call.  The Fourier map decodes all rows in
    lockstep, at any subspace dimension: one certified_minimum search at
    target opts.grid_oracle.resolution gives each row both its lower bound
    and its best in-ball box centre, one projected Gauss-Newton run polishes
    every row's centre against its own row, and a row's gap is its residual
    less its lower bound.  A row's result is bitwise the one it gets alone.
    The search settles a box once its bound reaches (sqrt(UB) - target)^2,
    with UB the least f at a centre bounded by then, which is never below
    the best centre's f, and the polish never raises f; so the gap is at
    most the target (up to rounding) unless the cell budget runs out, and
    certified either way.  That bound holds whether or not the polish converged, but
    the IOP checks still count an unconverged decode as unchecked.
    """
    if isinstance(op, LinearGaussianOperator):
        results = decode_linear(op, model, y)
        return results, (np.zeros(len(results)) if np.ndim(y) == 2 else 0.0)
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    y = np.asarray(y, dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != op.m:
        raise InputError(f"y has shape {y.shape}, expected ({op.m},) or (n, {op.m})")
    Y = np.atleast_2d(y)
    lower, _, (sub, Z0) = certified_minimum(op, model, Y, opts.grid_oracle.resolution, np.inf)
    Z, _, iters, converged = _gauss_newton(op, model, Y, sub, Z0, opts.max_iters)
    X = _subspace_map(model.bases, sub, Z)
    results = [
        DecodeResult(xhat=x, residual=meas_norm(r), subspace_index=int(i), optimizer_iters=int(k),
                     converged=bool(ok))
        for x, r, i, k, ok in zip(X, op.apply_batch(X) - Y, sub, iters, converged)
    ]
    residual = np.array([result.residual for result in results])
    gaps = residual - np.minimum(lower, residual)
    return (results, gaps) if y.ndim == 2 else (results[0], float(gaps[0]))


def noise_vector(op, norm: float, rng) -> np.ndarray:
    """Gaussian measurement noise of exact norm ``norm``: real for the linear map, complex otherwise."""
    if norm == 0:
        return np.zeros(op.m, dtype=complex)
    if isinstance(op, LinearGaussianOperator):
        e = rng.normal(size=op.m).astype(complex)
    else:
        e = rng.normal(size=op.m) + 1j * rng.normal(size=op.m)
    return e * (norm / np.linalg.norm(e))
