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

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .models import UnionOfSubspaces, _ball_project, _row_products, _subspace_map
from .operators import LinearGaussianOperator, RandomFourierOperator


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
class DecoderOptions:
    """Settings of the Fourier decoder: the target of its certificate search and the length of its polish.

    target is the certified gap that decode aims for, in measurement units:
    the branch-and-bound of certified_minimum stops refining a box once its
    lower bound is within target of the best residual found, and decode
    polishes that search's best box centre with one projected Gauss-Newton
    start, whose iterations max_iters bounds.  An iteration's line search
    tries the full Gauss-Newton step first, halves it only when that fails
    the Armijo test, and steps along the gradient only when no halving
    passes (_line_search).  The polish has converged when its projected
    gradient pg has ||pg|| <= GTOL, or when it is stationary within
    rounding, ||pg|| <= 64 sqrt(eps) ||J|| ||r||, and its full step does not
    make progress (lower f = ||r||^2 by more than its rounding error 64 eps f
    and pass the Armijo test): it then stops without trying the halvings and
    the gradient steps.  A polish that is not stationary within rounding and
    finds no step that makes progress stops unconverged, and so does one
    stopped by max_iters.
    """

    max_iters: int = 500
    target: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.target > 0:
            raise InputError(f"target must be positive, got {self.target}")


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """Decoded measurement rows plus diagnostics, each field an array over the n rows.

    Row k has the recovered signal xhat[k] (xhat has shape (n, d)), its
    residual ||Psi(xhat[k]) - y[k]||, recomputed from xhat[k], the winning
    subspace_index (ties to the lowest index), the polish's optimizer_iters
    and whether it converged, and gap, the residual less a certified lower
    bound on the least residual over the model.
    """

    xhat: np.ndarray
    residual: np.ndarray
    subspace_index: np.ndarray
    optimizer_iters: np.ndarray
    converged: np.ndarray
    gap: np.ndarray


def _measurement_rows(y, m: int) -> np.ndarray:
    """y as measurement rows of shape (n, m), refused unless it has that shape and every entry is finite."""
    y = np.asarray(y)
    if y.ndim != 2 or y.shape[1] != m:
        raise InputError(f"y has shape {y.shape}, expected (n, {m})")
    if not np.all(np.isfinite(y)):
        raise InputError("measurement vector has non-finite entries")
    return y


def _secular_bisection(S, beta, Vt, radius: float, tol: float) -> np.ndarray:
    """The point of norm radius on the Tikhonov path of each row, by bisection on the secular equation.

    Row k has singular values S[k], coefficients beta[k] = U'y and right
    singular vectors Vt[k]; its path is z(mu) = V diag(S / (S^2 + mu)) beta,
    and mu is bisected until ||z(mu)|| is within tol of radius, at most 200
    steps.  Rows advance together, and a row leaves once it is done: the
    numerators, S^2 and brackets of the rows still active are kept compacted,
    so a step gathers nothing.
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
    mu, active, num_a, S2_a = np.empty(len(S)), np.arange(len(S)), num, S2
    for _ in range(200):
        if not len(active):
            break
        mid = 0.5 * (lo + hi)
        norms = np.linalg.norm(num_a / (S2_a + mid[:, None]), axis=1)
        done = np.abs(norms - radius) <= tol
        if done.any():
            mu[active[done]] = mid[done]
            keep = ~done
            active, num_a, S2_a, lo, hi, mid, norms = (a[keep] for a in (active, num_a, S2_a, lo, hi, mid, norms))
        above = norms > radius
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    mu[active] = 0.5 * (lo + hi)
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


def decode_linear(op: LinearGaussianOperator, model: UnionOfSubspaces, y) -> DecodeResult:
    """Exact decoder for a linear operator over a union of subspaces, on the measurement rows y of shape (n, m).

    A complex y must have zero imaginary part, and every row's gap is 0, as
    the decoder is exact.  For each subspace, one SVD of A B_i serves every
    row: min_z ||A B_i z - y|| with ||z|| <= M is the minimum-norm
    least-squares solution when that lies in the ball (which also covers a
    rank-deficient A B_i), and otherwise a point of the regularization path
    found by one bisection for all rows and subspaces outside the ball
    (_constrained_ls).  Each row keeps its best subspace:
    residuals within a factor 1 + 64 eps of the best count as tied, and a tie
    goes to the lowest index, so rounding cannot pick the winner.  Every row
    goes through its own vector-matrix products, so its result does not
    depend on the rows decoded with it.
    """
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    Y = _measurement_rows(y, op.m)
    if np.iscomplexobj(Y):
        if Y.size and np.max(np.abs(Y.imag)) > 1e-12:
            raise InputError("linear decoding expects a real measurement vector")
        Y = Y.real
    Y = np.asarray(Y, dtype=float)
    Z = _constrained_ls(op.matrix @ model.bases, Y, model.norm_bound)
    X = _row_products(Z, np.swapaxes(model.bases, 1, 2)[:, None])
    R = np.linalg.norm(_row_products(X, op.matrix.T) - Y, axis=2)
    # residuals within 64 eps of the best count as tied, and the lowest index wins
    best = np.argmax(R <= R.min(axis=0) * (1.0 + _F_RTOL), axis=0)
    rows, n = np.arange(len(Y)), len(Y)
    return DecodeResult(xhat=X[best, rows], residual=R[best, rows], subspace_index=best,
                        optimizer_iters=np.zeros(n, dtype=int), converged=np.ones(n, dtype=bool), gap=np.zeros(n))


def _restricted_map(op: RandomFourierOperator, model: UnionOfSubspaces) -> np.ndarray:
    """The frequencies seen from each subspace's coefficients: V_i = Omega B_i, stacked (N, m, s)."""
    return op.omegas @ model.bases


def _evaluate(op, bases, Y, sub, Z):
    """Map values and objectives ||Psi(B_sub z) - y||^2 at the coefficient rows Z, each against its row of Y.

    All rows are mapped in one op.apply_batch call.
    """
    P = op.apply_batch(_subspace_map(bases, sub, Z))
    R = P - Y
    return P, np.real(np.sum(R * R.conj(), axis=1))


def _line_search(op, bases, Y, sub, z, f, grad, step, radius, stationary):
    """The first step that makes progress from each start, along its Gauss-Newton step and then its gradient.

    Start k runs on subspace sub[k] against the measurement row Y[k], from
    z[k], with objective f[k], gradient grad[k] and Gauss-Newton step
    step[k].  A candidate is z + alpha * direction
    projected onto the ball, and it makes progress when it lowers f by more
    than its rounding error 64 eps f and, with the Armijo test, passes
    f' <= f + 1e-4 (z' - z) . grad.  Three stages run in turn, each on the
    starts still without progress: the full step with the Armijo test, the
    other 53 of _HALVINGS with the Armijo test, and the 54 steps
    _HALVINGS / (1 + ||grad||) along -grad with plain decrease.  A start
    marked in stationary stops after its full step: when that fails, it
    skips the halving and gradient stages.  A stage goes
    over its starts in groups of at most _ROWS points, one op.apply_batch
    call each, and a start takes its first passing step size.  Returns
    (found, z', psi', f'), whose rows are meaningful where found.
    """
    n = len(z)
    found, Zn, Pn, Fn = np.zeros(n, dtype=bool), np.empty_like(z), np.empty((n, op.m), complex), np.empty(n)
    for direction, alphas, armijo, skip in (
        (step, _HALVINGS[:1], True, np.zeros(n, dtype=bool)),
        (step, _HALVINGS[1:], True, stationary),
        (-grad, _HALVINGS / (1.0 + np.linalg.norm(grad, axis=1, keepdims=True)), False, stationary),
    ):
        k = alphas.shape[-1]
        alphas = np.broadcast_to(alphas, (n, k))
        miss = np.flatnonzero(~(found | skip))
        group = max(1, _ROWS // k)
        for lo in range(0, len(miss), group):
            g = miss[lo:lo + group]
            cands = _ball_project(z[g, None, :] + alphas[g, :, None] * direction[g, None, :], radius)
            P, F = _evaluate(op, bases, np.repeat(Y[g], k, axis=0), np.repeat(sub[g], k), cands.reshape(len(g) * k, -1))
            P, F = P.reshape(len(g), k, -1), F.reshape(len(g), k)
            ok = F < (1.0 - _F_RTOL) * f[g, None]
            if armijo:
                ok &= F <= f[g, None] + 1e-4 * np.einsum("nks,ns->nk", cands - z[g, None, :], grad[g])
            j = np.argmax(ok, axis=1)
            rows = np.arange(len(g))
            found[g], Zn[g], Pn[g], Fn[g] = ok[rows, j], cands[rows, j], P[rows, j], F[rows, j]
    return found, Zn, Pn, Fn


def _gauss_newton(op, model, Y, sub, Z0, max_iters):
    """Projected Gauss-Newton on z -> ||Psi(B_i z) - y||^2 over the coefficient ball, from every start at once.

    Start k runs on subspace sub[k] from Z0[k], against the measurement row
    Y[k].  All starts advance together, one iteration per round, and a start
    leaves the round in which it stops.  Complex residuals are stacked as
    real and imaginary parts, and the Jacobian in coefficients is
    i psi * V_i, from the map values psi at the iterate and the restricted
    map V_i.  The Gauss-Newton
    steps of a round come from one batched SVD with lstsq's cutoff, and the
    line search tries the full step first (see _line_search).  A start
    stationary within rounding, ||pg|| <= 64 sqrt(eps) ||J|| ||r||, stops
    converged when its full step fails, and only the other starts go on to
    the halvings and the gradient steps (see DecoderOptions).  A start's
    outcome does not depend on the starts run with it.  Returns (Z, f,
    iters, converged), one entry per start.
    """
    M = model.norm_bound
    bases, V = model.bases, _restricted_map(op, model)
    Z = _ball_project(np.asarray(Z0, dtype=float), M)
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
        # a start with no progress has converged when it is within rounding of stationary, and such a start
        # stops once its full step fails
        J_norm = np.sqrt(np.sum(Jr**2, axis=(1, 2)))
        stationary = pg <= _PG_RTOL * J_norm * np.linalg.norm(Rr, axis=1)
        found, Zn, Pn, Fn = _line_search(op, bases, y, sub[active], z, f, grad, step, M, stationary)
        converged[active[~found]] = stationary[~found]
        active = active[found]
        Z[active], P[active], F[active] = Zn[found], Pn[found], Fn[found]
    return Z, F, iters, converged


def _box_bounds(V, L1, M, h, consts, owner, I, Zc):
    """f at the centres Zc of boxes of half-width h on subspaces I, and the boxes' lower bounds.

    owner is the row of each box, and consts = (c, phi, base, curvature,
    allowance) holds each row's constants (see certified_minimum).  The
    phases and the gradient come from a stacked matmul, one matrix-vector
    product per box, and each box's sums over the m frequencies run along
    its own numbers, so its values do not depend on the boxes bounded with
    it.  Returns (f0, bound).

    The phases are wrapped as u - 2 pi rint(u / 2 pi), which subtracts an
    integer k times the float 2 pi; k is exact however u / 2 pi rounds.  So
    a wrapped phase is the exact phase v_j . z0 - phi_j less a multiple of
    2 pi, plus an error delta_j from rounding: of the s-term dot product,
    whose size is at most M ||v_j||_1 as every centre lies in [-M, M]^s; of
    the subtraction of phi_j; and of k times the float 2 pi, which is off
    from 2 pi by at most pi eps with |k| <= |u| / 2 pi + 1, and of the
    product and difference that use it.  Each is at most a few
    eps (M ||v_j||_1 + pi), and so is the amount by which a wrapped phase may
    exceed pi in magnitude.  Such an error is a constant shift of phi_j, so
    each of the three bounds holds exactly for the objective with shifted
    phases, the first-order one once the phase is clamped to [-pi, pi],
    which moves it by at most 2 c_j times that excess.  As
    |d sin^2(x/2) / dx| <= 1/2, the shifted objective differs from f by at
    most 2 c_j |delta_j| per frequency, everywhere.  The allowance's phase
    term, (64 + 4 max(m, s)) eps sum_j c_j (2 pi + 2 M max_j ||v_j||_1), is
    sum_j 2 c_j (32 + 2 max(m, s)) eps (pi + M max_j ||v_j||_1), far above
    those few eps per frequency.
    """
    c, phi, base, curvature, allowance = consts
    Vc = V[I]
    u = np.matmul(Vc, Zc[:, :, None])[:, :, 0] - phi[owner]
    u -= 2.0 * np.pi * np.rint(u / (2.0 * np.pi))
    grad = np.matmul((2.0 * c[owner] * np.sin(u))[:, None, :], Vc)[:, 0, :]
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
    return f0, np.maximum.reduce([first, second, third]) - allowance[owner]


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
    z0, less a rounding allowance (_box_bounds).

    The rows y, of shape (n, m), are searched by _branch_and_bound.  A box
    settles once its bound reaches (sqrt(UB) - target)^2 less the allowance,
    UB the least of upper^2 and f at the in-ball centres so far, so even a
    target below what rounding resolves ends the search.

    Returns (lower, cells, (sub, Z)), one entry per row: lower is the square
    root of the row's smallest settled bound, capped at upper, cells the
    number of boxes bounded, and (sub[k], Z[k]) the in-ball box centre of
    least f as (subspace, z), the earliest bounded on ties.
    """
    Y = np.asarray(y, dtype=complex)
    n, s, M, N = len(Y), model.subspace_dim, model.norm_bound, model.num_subspaces
    a = 1.0 / (op.weights * np.sqrt(op.m))
    c = a * np.abs(Y)
    V = _restricted_map(op, model)
    L1 = np.sum(np.abs(V), axis=2)
    base = np.sum((a - np.abs(Y)) ** 2, axis=1)
    # rounding of the m-term sums and of the phases, s-term sums whose size is at most M ||v_j||_1 + pi
    allowance = (64 + 4 * max(op.m, s)) * _EPS * (
        base + np.sum(c, axis=1) * (4.0 + 2.0 * np.pi + 2.0 * M * float(L1.max())))
    consts = (c, np.angle(Y), base, np.array([L1**2 @ row for row in c]).reshape(n, N), allowance)
    settled, cells, best = _branch_and_bound(
        n, model, lambda owner, I, Zc, h: _box_bounds(V, L1, M, h, consts, owner, I, Zc),
        lambda rows, best_f: np.maximum(np.sqrt(np.minimum(best_f, upper**2)) - target, 0.0) ** 2 - allowance[rows])
    return np.minimum(np.sqrt(np.maximum(settled, 0.0)), upper), cells, best


def _branch_and_bound(n: int, model: UnionOfSubspaces, bound, level):
    """Interval branch-and-bound of n rows, each minimising its own f over the coefficient balls of the model.

    bound(owner, sub, Z, h) gives f at the centres Z of boxes of half-width h
    on subspaces sub, of rows owner, and lower bounds on f over the boxes,
    each box's values the ones it gets alone; level(rows, best) gives each
    row its settle level from best, its least f at an in-ball centre so far.
    From one box [-M, M]^s per subspace, each level bounds the open boxes.  A
    box settles once its bound reaches its row's level, and the others split
    into their 2^s children at +-h/2 that meet the ball, while the boxes
    bounded so far plus the children made at the level stay within
    _CERT_BUDGET; a box past that settles at its own bound, still certified,
    so the count stays within _CERT_BUDGET unless the model alone has more
    subspaces.

    Rows advance in lockstep, their boxes bounded _CERT_CHUNK at a time, rows
    mixed; each row then takes its best centre, level, settled bound and
    splits from its own boxes, in order, so its result is bitwise the one it
    gets alone, whatever _CERT_CHUNK.  A row reserves its open boxes plus the
    children it may still make; the rows in flight reserve at most
    _CERT_BUDGET boxes between them, and a row that would cross that leaves
    and is searched again from the root after the others.

    Returns (settled, cells, (sub, Z)) per row: its least settled bound, the
    boxes bounded, and its in-ball centre of least f, the earliest on ties.
    """
    s, M, N = model.subspace_dim, model.norm_bound, model.num_subspaces
    per_split = min(2**s, _CERT_BUDGET + 1)  # children per split; the min keeps the room arithmetic within int64
    settled, cells, todo = np.empty(n), np.zeros(n, dtype=int), np.arange(n)
    best_f, best_sub, best_z = np.empty(n), np.zeros(n, dtype=int), np.zeros((n, s))
    while len(todo):
        rows, todo = todo, todo[:0]
        settled[rows], cells[rows], best_f[rows] = np.inf, 0, np.inf
        # open boxes of half-width h, grouped by row in the order of rows: subspace, centre and lower
        # bound, the parent's until the box is bounded
        count, h = np.full(len(rows), N), M
        idx, Z, lower = np.tile(np.arange(N), len(rows)), np.zeros((len(rows) * N, s)), np.zeros(len(rows) * N)
        while len(rows):
            cells[rows] += count
            room = np.maximum(_CERT_BUDGET - cells[rows], 0) // per_split
            # the rows that stay are a prefix, so the boxes of those that leave are the last ones
            stay = np.cumsum(count + per_split * np.minimum(room, count)) <= _CERT_BUDGET
            stay[0] = True
            todo = np.concatenate([todo, rows[~stay]])
            rows, count, room = rows[stay], count[stay], room[stay]
            total, lo = int(count.sum()), np.cumsum(count) - count
            idx, Z, lower, f_in = idx[:total], Z[:total], lower[:total], np.empty(total)
            seg = np.repeat(np.arange(len(rows)), count)
            for b in range(0, total, _CERT_CHUNK):
                box = slice(b, b + _CERT_CHUNK)
                f0, own = bound(rows[seg[box]], idx[box], Z[box], h)
                in_ball = np.sum(Z[box] * Z[box], axis=1) <= M * M
                f_in[box], lower[box] = np.where(in_ball, f0, np.inf), np.maximum(own, lower[box])
            # each row's in-ball centre of least f, the earliest on ties
            least = np.minimum.reduceat(f_in, lo)
            at = np.minimum.reduceat(np.where(f_in == least[seg], np.arange(total), total), lo)
            better = least < best_f[rows]
            up, at = rows[better], at[better]
            best_f[up], best_sub[up], best_z[up] = least[better], idx[at], Z[at]
            # the boxes past the budget's room settle at their own bound too
            wide = lower < level(rows, best_f[rows])[seg]
            opened = np.cumsum(wide)
            split = wide & (opened - np.repeat(opened[lo] - wide[lo], count) <= room[seg])
            settled[rows] = np.minimum(settled[rows], np.minimum.reduceat(np.where(split, np.inf, lower), lo))
            count, idx, Z, lower = _next_level(seg[split], len(rows), idx[split], Z[split], lower[split], h, M)
            rows, count, h = rows[count > 0], count[count > 0], 0.5 * h
    return settled, cells, (best_sub, best_z)


def _next_level(owner, n, sub, centres, bounds, h, M):
    """The children that meet the ball of the boxes of half-width h that split, 2^s per box at +-h/2, in parent order.

    owner is the row of each parent, one of n, and sub, centres and bounds
    its subspace, centre and bound.  Children are made and ball-tested
    _CERT_CHUNK at a time, once to count them and once more to write the kept
    ones into arrays of exact size.  Returns (count, subspace, centre,
    inherited bound), with count[r] the children row r keeps.
    """
    if not len(owner):  # no box split, as always when 2^s exceeds the budget
        return np.zeros(n, dtype=int), sub, centres, bounds
    s, children = centres.shape[1], 2 ** centres.shape[1]
    offsets = ((np.arange(children)[:, None] >> np.arange(s)) & 1) - 0.5
    piece = max(1, _CERT_CHUNK // children)  # parents whose children make one chunk
    parts = [slice(lo, lo + piece) for lo in range(0, len(centres), piece)]
    kids = lambda q: (centres[q][:, None, :] + h * offsets).reshape(-1, s)
    meets_ball = [np.linalg.norm(np.maximum(np.abs(kids(q)) - 0.5 * h, 0.0), axis=1) <= M for q in parts]
    count = np.bincount(np.repeat(owner, children)[np.concatenate(meets_ball)], minlength=n)
    total, at = int(count.sum()), 0
    idx, Z, inherited = np.empty(total, dtype=int), np.empty((total, s)), np.empty(total)
    for q, keep in zip(parts, meets_ball):
        kept = slice(at, at + int(keep.sum()))
        idx[kept], Z[kept] = np.repeat(sub[q], children)[keep], kids(q)[keep]
        inherited[kept], at = np.repeat(bounds[q], children)[keep], kept.stop
    return count, idx, Z, inherited


def decode(op, model: UnionOfSubspaces, y, opts: DecoderOptions) -> DecodeResult:
    """Decode the measurement rows y, of shape (n, m), with the operator's decoder, into one DecodeResult.

    A y with a non-finite entry is refused before any search.  The linear
    decoder is exact, so its gap is 0 without a second solve, and it decodes
    all rows in one decode_linear call.  The Fourier map decodes all rows in
    lockstep, at any subspace dimension: one certified_minimum search at
    target opts.target gives each row its lower bound and its best in-ball
    box centre, one projected Gauss-Newton run polishes every row's centre,
    and a row's gap is its residual less its lower bound.  A row's result is
    bitwise the one it gets alone.  The search's UB is never below the best
    centre's f, and the polish never raises f, so the gap is at most the
    target (up to rounding) unless the cell budget runs out, and certified
    either way, converged or not; the IOP checks still count an unconverged
    decode as unchecked.
    """
    if isinstance(op, LinearGaussianOperator):
        return decode_linear(op, model, y)
    if op.dim != model.dim:
        raise InputError(f"operator dimension {op.dim} does not match model dimension {model.dim}")
    Y = np.asarray(_measurement_rows(y, op.m), dtype=complex)
    lower, _, (sub, Z0) = certified_minimum(op, model, Y, opts.target, np.inf)
    Z, _, iters, converged = _gauss_newton(op, model, Y, sub, Z0, opts.max_iters)
    X = _subspace_map(model.bases, sub, Z)
    residual = _row_norms(op.apply_batch(X) - Y)
    return DecodeResult(xhat=X, residual=residual, subspace_index=sub, optimizer_iters=iters, converged=converged,
                        gap=residual - np.minimum(lower, residual))


def _row_norms(E) -> np.ndarray:
    """The norm of e of shape (m,), or of each row of E of shape (n, m), bitwise np.linalg.norm's of it alone.

    A stacked matmul runs each row through np.linalg.norm's 1-D BLAS dots of
    its real and imaginary parts; np.linalg.norm(E, axis=1) rounds otherwise.
    """
    dot = lambda P: np.matmul(P[..., None, :], P[..., :, None])[..., 0, 0]
    return np.sqrt(dot(E.real) + dot(E.imag))
