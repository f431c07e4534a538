"""Union-of-subspaces models, model and near-pair sampling, and covering-number machinery.

The model set is a union of N s-dimensional subspaces of R^d intersected
with the Euclidean ball of radius M.  Covering numbers are handled two ways:
closed-form upper bounds of union-bound type (log-scale), and a greedy
farthest-point oracle that certifies a covering of any sampled point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .spaces import Pseudometric, norm_equivalence_factors

ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class UnionOfSubspaces:
    """Model set: union of N norm-bounded subspaces, each given by an orthonormal basis.

    bases       N arrays of shape (d, s) with orthonormal columns, stored stacked
                as one read-only array of shape (N, d, s)
    norm_bound  radius M > 0 of the Euclidean ball intersected with every subspace

    Models compare and hash by identity.
    """

    bases: np.ndarray
    norm_bound: float

    def __post_init__(self):
        if len(self.bases) < 1:
            raise InputError("model needs at least one subspace")
        if not self.norm_bound > 0:
            raise InputError(f"norm bound must be positive, got {self.norm_bound}")
        bases = [np.asarray(B, dtype=float) for B in self.bases]
        d, s = bases[0].shape
        if not 1 <= s <= d:
            raise InputError(f"need 1 <= s <= d, got s={s}, d={d}")
        for i, B in enumerate(bases):
            if B.shape != (d, s):
                raise InputError(f"basis {i} has shape {B.shape}, expected {(d, s)}")
            gram_err = np.max(np.abs(B.T @ B - np.eye(s)))
            if gram_err > ORTHO_TOL:
                raise InputError(f"basis {i} is not orthonormal (|B'B - I| = {gram_err:.2e})")
        bases = np.array(bases)
        bases.setflags(write=False)
        object.__setattr__(self, "bases", bases)

    @property
    def dim(self) -> int:
        return self.bases[0].shape[0]

    @property
    def subspace_dim(self) -> int:
        return self.bases[0].shape[1]

    @property
    def num_subspaces(self) -> int:
        return len(self.bases)

    @classmethod
    def random(cls, d: int, s: int, N: int, M: float, rng_seed) -> "UnionOfSubspaces":
        """N random s-dimensional subspaces (orthonormalized Gaussian frames)."""
        rng = np.random.default_rng(rng_seed)
        bases = []
        for _ in range(N):
            Q, _ = np.linalg.qr(rng.normal(size=(d, s)))
            bases.append(Q[:, :s])
        return cls(tuple(bases), M)

    @classmethod
    def axes(cls, d: int, M: float) -> "UnionOfSubspaces":
        """The d coordinate axes of R^d (the 1-sparse model)."""
        eye = np.eye(d)
        return cls(tuple(eye[:, [i]] for i in range(d)), M)

    def membership_defect(self, x) -> float:
        """min_i ||x - B_i B_i' x||, zero exactly when x lies in some subspace."""
        x = np.asarray(x, dtype=float)
        return min(float(np.linalg.norm(x - B @ (B.T @ x))) for B in self.bases)

    def contains(self, x, tol: float = ORTHO_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return self.membership_defect(x) <= tol and np.linalg.norm(x) <= self.norm_bound + tol

    @classmethod
    def from_json(cls, obj: dict) -> "UnionOfSubspaces":
        """The model of a JSON object {d, s, N, M, bases}, with column-major basis entries."""
        d, s = int(obj["d"]), int(obj["s"])
        bases = tuple(
            np.asarray(flat, dtype=float).reshape((d, s), order="F") for flat in obj["bases"]
        )
        if len(bases) != int(obj["N"]):
            raise InputError("basis count does not match N")
        return cls(bases, float(obj["M"]))


@dataclass(frozen=True)
class CoveringBound:
    """Covering-number statement at radius ``radius``, stored on the log scale.

    The greedy oracle also carries the certified center indices of the
    sampled set.
    """

    radius: float
    log_count: float
    centers: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.log_count < 0:
            raise InputError("covering count cannot be below 1")

    @property
    def count(self) -> float:
        return math.exp(self.log_count)


def _draw_model_points(model: UnionOfSubspaces, n: int, rng: np.random.Generator) -> tuple:
    """The draws of n model points, in the sampler's order: (subspace indices, Gaussian coefficients, uniform radii).

    Returns idx of shape (n,), Z of shape (n, s) and U of shape (n, 1);
    _map_model_points turns them into the points.
    """
    # integers' size handling costs several times its draw, so one index is drawn as a scalar, which
    # draws the same value; random() is uniform(0, 1) bit for bit (0 + 1 r) at half the call cost
    idx = rng.integers(model.num_subspaces, size=n) if n != 1 else np.array([rng.integers(model.num_subspaces)])
    Z = rng.normal(size=(n, model.subspace_dim))
    return idx, Z, rng.random(size=(n, 1))


def _map_model_points(model: UnionOfSubspaces, idx, Z, U) -> np.ndarray:
    """The model points of draws (idx, Z, U), as rows; Z is overwritten with their ball coefficients.

    Each Gaussian row Z[k] is scaled to direction times radius M U[k]^(1/s),
    uniform in the radius-M ball of R^s, and mapped into subspace idx[k].
    Both steps work row by row, so a point does not depend on the draws
    mapped with it.  Z is scaled in place, so a large call holds no second
    coefficient array while it gathers the bases.
    """
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    Z /= norms
    Z *= model.norm_bound * U ** (1.0 / model.subspace_dim)
    return _subspace_map(model.bases, idx, Z)


def sample_model_points(model: UnionOfSubspaces, n: int, rng_seed) -> np.ndarray:
    """n model points as rows: each in a uniformly drawn subspace, with coefficients uniform in the ball.

    Every point lies in some S_i intersected with B_M exactly by construction,
    and is its own vector-matrix product (_subspace_map), so its value does
    not depend on the other points of the call.  It is _map_model_points of
    _draw_model_points.
    """
    return _map_model_points(model, *_draw_model_points(model, n, np.random.default_rng(rng_seed)))


def _row_products(X, M) -> np.ndarray:
    """Each row of X (its last axis) times the matrix M, as its own vector-matrix product.

    M is one matrix or a stack that broadcasts against the rows of X.  A
    plain X @ M sends a one-row X to a matrix-vector kernel that rounds
    differently from the matrix product, so a row's value would depend on
    the rows batched with it.  A stacked product runs every row through the
    same kernel.
    """
    return np.matmul(X[..., None, :], M)[..., 0, :]


def _subspace_map(bases, idx, Z) -> np.ndarray:
    """B_{idx[k]} Z[k] for each coefficient row k of Z, with B_i the bases of the stack (N, d, s).

    Every row is its own vector-matrix product (_row_products), so a point
    does not depend on the rows mapped with it.
    """
    return _row_products(Z, np.swapaxes(bases, 1, 2)[idx])


def _ball_project(z, radius: float) -> np.ndarray:
    """Project z, or each row of z (its last axis), onto the ball of the given radius.

    Rows inside the ball are multiplied by exactly 1.0, so they are unchanged.
    """
    return z * (radius / np.maximum(np.linalg.norm(z, axis=-1, keepdims=True), radius))


def project_to_model(model: UnionOfSubspaces, x, metric: Pseudometric) -> np.ndarray:
    """Metric projection onto the model, of one point x of shape (d,) or of each row of x, shape (n, d).

    Per subspace, the orthogonal projection clipped to the ball minimizes the
    Euclidean distance, and both implemented metrics are monotone in it, so
    the per-subspace candidate is metric-optimal; the best subspace wins and
    ties break to the lowest index.  A row's projection does not depend on
    the rows projected with it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != model.dim:
        raise InputError(f"x has shape {x.shape}, expected ({model.dim},) or (n, {model.dim})")
    if not np.all(np.isfinite(x)):
        raise InputError("x has non-finite entries")
    X = np.atleast_2d(x)
    bases = model.bases[:, None]
    P = _ball_project(_row_products(_row_products(X, bases), np.swapaxes(bases, 2, 3)), model.norm_bound)
    # argmin keeps the first minimum, so ties go to the lowest index
    best = np.argmin(metric.dist(X - P), axis=0)
    proj = P[best, np.arange(len(X))]
    return proj if x.ndim == 2 else proj[0]


_NEAR_PER_RADIUS = 64  # misses at one proposal radius before it shrinks by 0.7
_NEAR_BLOCK = 8  # proposals per pending row per pass; divides _NEAR_PER_RADIUS
_NEAR_CHUNK = 1024  # rows sampled together; keeps the per-chunk coefficient arrays small


def sample_near_points(
    model: UnionOfSubspaces,
    metric: Pseudometric,
    anchors,
    eps: float,
    rng_seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Model points at metric gap in (0, eps] from each anchor row, by batched rejection.

    Per row, a proposal perturbs the anchor a by r g / sqrt(d), g ~ N(0, I_d),
    at the current radius r, projects it onto a uniformly drawn subspace S_i
    and clips it to the ball.  Its coefficients are B_i'a + (r / sqrt(d)) h,
    h ~ N(0, I_s), so it is drawn and clipped in R^s, and the gap of its
    coefficients c is from_gap(sqrt(||a - B_i B_i'a||^2 + ||c - B_i'a||^2)),
    a sum of squares that does not cancel on near pairs.  A row's first
    proposal with gap in (0, eps] is mapped to B_i c and kept if its distance
    from a in R^d is in (0, eps] too; otherwise the row stays pending.  The
    radius starts at the Euclidean gap matching eps and shrinks by 0.7 after
    every 64 misses.  A row still missing after 200 radii (12,800 proposals)
    is not found, and so is a row whose least residual off the subspaces
    already has gap above eps, without a proposal.

    Returns (points, found): one row per anchor, NaN where found is False.
    """
    if not eps > 0:
        raise InputError(f"eps must be positive, got {eps}")
    rng = np.random.default_rng(rng_seed)
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n, d = anchors.shape
    points = np.full((n, d), np.nan)
    found = np.zeros(n, dtype=bool)
    radius0 = metric.gap_for(eps if metric.kind == "euclidean" else min(eps, 0.999 * np.sqrt(2)))
    for start in range(0, n, _NEAR_CHUNK):
        chunk = anchors[start:start + _NEAR_CHUNK]
        # each anchor's coefficients in every subspace and its squared residual off it, one subspace at a time
        P = np.empty((len(chunk), model.num_subspaces, model.subspace_dim))
        res2 = np.empty((len(chunk), model.num_subspaces))
        for i, B in enumerate(model.bases):
            P[:, i] = chunk @ B
            R = chunk - P[:, i] @ B.T
            res2[:, i] = np.einsum("kd,kd->k", R, R)
        rows = np.flatnonzero(metric.from_gap(np.sqrt(res2.min(axis=1))) <= eps)
        P, res2 = P.reshape(-1, model.subspace_dim), res2.ravel()
        radius, used = radius0, 0
        while rows.size and used < 200 * _NEAR_PER_RADIUS:
            idx = rng.integers(model.num_subspaces, size=rows.size * _NEAR_BLOCK)
            flat = np.repeat(rows * model.num_subspaces, _NEAR_BLOCK) + idx  # (row, subspace) in P and res2
            p = P[flat]
            c = _ball_project(p + rng.normal(size=p.shape) * (radius / np.sqrt(d)), model.norm_bound)
            step = c - p
            gaps = metric.from_gap(np.sqrt(res2[flat] + np.einsum("ks,ks->k", step, step)))
            ok = ((gaps > 0) & (gaps <= eps)).reshape(rows.size, _NEAR_BLOCK)
            hit = np.flatnonzero(ok.any(axis=1))
            first = hit * _NEAR_BLOCK + ok[hit].argmax(axis=1)
            cands = _subspace_map(model.bases, idx[first], c[first])
            true = metric.dist(cands - chunk[rows[hit]])
            keep = (true > 0) & (true <= eps)
            points[start + rows[hit[keep]]] = cands[keep]
            found[start + rows[hit[keep]]] = True
            rows = np.delete(rows, hit[keep])
            used += _NEAR_BLOCK
            if used % _NEAR_PER_RADIUS == 0:
                radius *= 0.7
    return points, found


def _union_cover(model: UnionOfSubspaces, metric: Pseudometric, delta: float, c0: float, pieces: int, ell: float,
                 diameter: float) -> CoveringBound:
    """The union bound pieces (log N + s log(c0 L M / (l delta))) on log N(set, d, delta); one ball at the diameter."""
    if not delta > 0:
        raise InputError(f"delta must be positive, got {delta}")
    _, L = norm_equivalence_factors(metric, model.norm_bound)
    log_count = 0.0
    if delta < diameter:
        per_piece = pieces * model.subspace_dim * np.log(float(c0) * L * model.norm_bound / (ell * delta))
        log_count = float(max(0.0, pieces * np.log(model.num_subspaces) + max(0.0, per_piece)))
    return CoveringBound(radius=float(delta), log_count=log_count)


def covering_bound_model(
    model: UnionOfSubspaces,
    metric: Pseudometric,
    delta: float,
    c0: float = 3.0,
) -> CoveringBound:
    """Union-bound covering estimate for the model at metric radius delta.

    log N(model, d, delta) <= log N + s log(c0 L M / delta), with (l, L) the
    norm-equivalence factors of the metric on B_M and c0 the absolute
    ball-covering constant (default 3).  Radii at or above the model diameter
    need a single ball.
    """
    return _union_cover(model, metric, delta, c0, 1, 1.0, metric.from_gap(2.0 * model.norm_bound))


def covering_bound_secant(
    model: UnionOfSubspaces,
    metric: Pseudometric,
    delta: float,
    c0: float = 3.0,
) -> CoveringBound:
    """Union-bound covering estimate for the normalized secant set.

    Normalized secants of a union of N subspaces live in the union of the
    N^2 pairwise sums (dimension <= 2s) with norm controlled by M/l, giving

        log N(secants, d, delta) <= 2 log N + 2s log(c0 L M / (l delta)),

    and their metric diameter is 2 (unit norms) or sqrt(2) (the kernel's cap).
    """
    diameter = 2.0 if metric.kind == "euclidean" else float(np.sqrt(2.0))
    return _union_cover(model, metric, delta, c0, 2, norm_equivalence_factors(metric, model.norm_bound)[0], diameter)


def greedy_cover(points, metric: Pseudometric, delta: float) -> CoveringBound:
    """Greedy farthest-point covering of a sampled point set.

    Starts from the first point and repeatedly promotes the point farthest
    from the current centers until every point is within delta of a center.
    The center count is a certified covering number of the sampled set and a
    2-approximation witness for its optimal covering.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise InputError("greedy_cover needs at least one point")
    if not delta > 0:
        raise InputError(f"delta must be positive, got {delta}")
    centers = [0]
    min_dist = metric.dist(pts - pts[0])
    while True:
        far = int(np.argmax(min_dist))
        if min_dist[far] <= delta:
            break
        centers.append(far)
        min_dist = np.minimum(min_dist, metric.dist(pts - pts[far]))
    assert np.all(min_dist <= delta), "greedy cover failed to certify coverage"
    return CoveringBound(radius=float(delta), log_count=float(np.log(len(centers))), centers=tuple(centers))
